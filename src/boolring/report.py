"""Pass/fail reports for the built-in verification checks."""

from __future__ import annotations

import time
from typing import Any, Callable

from .ring import _Frozen

__all__ = ["Report", "Checker"]


class Report(_Frozen):
    """Outcome of one verification run.

    ``checks`` counts the elementary assertions exercised;
    ``counterexample`` describes the first failure, if any.  Everything
    except ``elapsed`` is deterministic for a given library version.
    """

    __slots__ = ("name", "n", "passed", "checks", "elapsed", "counterexample")

    def __init__(
        self,
        name: str,
        n: int,
        passed: bool,
        checks: int,
        elapsed: float,
        counterexample: str | None = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "counterexample", counterexample)

    def line(self, with_elapsed: bool = True) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{self.name} n={self.n} {status} checks={self.checks}"]
        if with_elapsed:
            parts.append(f"time={self.elapsed:.3f}s")
        if self.counterexample:
            parts.append(f"counterexample: {self.counterexample}")
        return "  ".join(parts)

    def as_dict(self, with_elapsed: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "checks": self.checks,
        }
        if with_elapsed:
            out["elapsed"] = round(self.elapsed, 6)
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


class Checker:
    """Counts elementary checks and keeps the first failure description."""

    def __init__(self) -> None:
        self.checks = 0
        self.failure: str | None = None

    def ok(self, condition: bool, detail: str | Callable[[], str]) -> bool:
        return self.bulk(1, condition, detail)

    def bulk(self, count: int, condition: bool, detail: str | Callable[[], str]) -> bool:
        """Record ``count`` homogeneous checks whose combined outcome is known."""
        self.checks += count
        if not condition and self.failure is None:
            self.failure = detail() if callable(detail) else str(detail)
        return bool(condition)

    def report(self, name: str, n: int, started: float) -> Report:
        return Report(
            name=name,
            n=n,
            passed=self.failure is None,
            checks=self.checks,
            elapsed=time.perf_counter() - started,
            counterexample=self.failure,
        )
