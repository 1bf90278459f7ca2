"""Variable-negation symmetries of packed truth vectors.

Negating a chosen subset of variables permutes the assignments: index j
moves to j XOR s, where bit (r - 1) of the mask s selects variable r.
The transformations form a group isomorphic to the masks under XOR;
they permute minterms and maxterms, so they preserve model counts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .primes import prime
from .report import Checker, Report
from .ring import BoolFunc, SizeLimitError, check_var_count, _ones, _var_tt
from .truthmaps import Assignment, count_models

__all__ = [
    "GROUP_CHECK_LIMIT",
    "FlipMask",
    "apply_flip",
    "pi",
    "flip_group_check",
    "conservation_check",
]

GROUP_CHECK_LIMIT = 6


@dataclass(frozen=True, slots=True)
class FlipMask:
    """Selects the variables to negate: bit (r - 1) set means flip variable r."""

    n: int
    s: int

    def __post_init__(self) -> None:
        check_var_count(self.n)
        if not 0 <= self.s < (1 << self.n):
            raise ValueError(f"flip mask {self.s} outside 0..{(1 << self.n) - 1}")

    def variables(self) -> tuple[int, ...]:
        """Indices of the flipped variables."""
        return tuple(r for r in range(1, self.n + 1) if (self.s >> (r - 1)) & 1)

    @classmethod
    def parse(cls, text: str, n: int) -> FlipMask:
        """Read a mask from a decimal string or a variable list like ``a1,a3``."""
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty flip mask")
        if stripped.isdigit():
            return cls(n, int(stripped))
        s = 0
        for item in stripped.split(","):
            item = item.strip()
            if not (item.startswith("a") and item[1:].isdigit()):
                raise ValueError(f"flip mask entries must look like a3, got {item!r}")
            r = int(item[1:])
            if not 1 <= r <= n:
                raise ValueError(f"variable index {r} outside 1..{n}")
            s |= 1 << (r - 1)
        return cls(n, s)

    def __str__(self) -> str:
        return str(self.s)


def _mask_of(n: int, s: FlipMask | int) -> int:
    if isinstance(s, FlipMask):
        if s.n != n:
            raise ValueError(f"flip mask is over {s.n} variables, function over {n}")
        return s.s
    if not 0 <= s < (1 << n):
        raise ValueError(f"flip mask {s} outside 0..{(1 << n) - 1}")
    return s


def apply_flip(a: BoolFunc, s: FlipMask | int) -> BoolFunc:
    """Negate the selected variables of ``a``.

    Implemented as the truth-vector permutation: bit j of the result is
    bit (j XOR s) of the input, realized one flipped variable at a time
    by swapping the opposite half-blocks of the vector.
    """
    mask = _mask_of(a.n, s)
    x = a.tt
    for k in range(a.n):
        if (mask >> k) & 1:
            width = 1 << k
            hi = _var_tt(a.n, k + 1)
            lo = _ones(a.n) ^ hi
            x = ((x & lo) << width) | ((x & hi) >> width)
    return BoolFunc(a.n, x)


def pi(s: FlipMask | int, j: Assignment | int, n: int | None = None) -> Assignment:
    """Image of assignment ``j`` under the flip with mask ``s``.

    The flip negates the variables selected by ``s``, so it toggles those
    bits of the index: the image is ``s XOR j``.  The paper's arithmetic
    form ``s + j - 2 * sum(2**(r-1) * s_r * j_r)`` gives the same value.
    """
    if isinstance(s, FlipMask):
        count, s_val = s.n, s.s
    else:
        count, s_val = n if n is not None else getattr(j, "n", None), s
    if count is None:
        raise ValueError("variable count required when both arguments are plain ints")
    if not isinstance(s, FlipMask):
        s_val = _mask_of(count, s)
    if isinstance(j, Assignment):
        if j.n != count:
            raise ValueError(f"assignment is over {j.n} variables, mask over {count}")
        j_val = j.index
    else:
        j_val = j
        if not 0 <= j_val < (1 << count):
            raise ValueError(f"assignment index {j_val} outside 0..{(1 << count) - 1}")
    return Assignment(count, s_val ^ j_val)


def flip_group_check(n: int, rng: random.Random | None = None) -> Report:
    """Exercise the group laws of the flips on sample functions.

    Checks the identity flip, self-inverses, composition by mask XOR,
    and that each flip permutes the maxterms the same way it permutes
    assignment indices.  Exhaustive over the whole function space for
    n <= 3, seeded random samples above that.
    """
    check_var_count(n)
    if n > GROUP_CHECK_LIMIT:
        raise SizeLimitError(f"group check is capped at n <= {GROUP_CHECK_LIMIT}")
    started = time.perf_counter()
    chk = Checker()
    size = 1 << n
    if n <= 3:
        sample = [BoolFunc(n, t) for t in range(1 << size)]
    else:
        rng = rng or random.Random(0x5EED)
        sample = [BoolFunc(n, rng.getrandbits(size)) for _ in range(48)]

    for a in sample:
        chk.ok(apply_flip(a, 0) == a, lambda a=a: f"identity flip changed {a}")
    for s in range(size):
        for a in sample:
            chk.ok(
                apply_flip(apply_flip(a, s), s) == a,
                lambda s=s, a=a: f"flip {s} applied twice changed {a}",
            )
    pair_sample = sample if n <= 2 else sample[:8]
    for s in range(size):
        for t in range(size):
            want_mask = s ^ t
            for a in pair_sample:
                chk.ok(
                    apply_flip(apply_flip(a, t), s) == apply_flip(a, want_mask),
                    lambda s=s, t=t, a=a: f"flip {s} after flip {t} is not flip {s ^ t} on {a}",
                )
    for s in range(size):
        for j in range(size):
            chk.ok(
                apply_flip(prime(n, j), s) == prime(n, pi(s, j, n).index),
                lambda s=s, j=j: f"flip {s} does not send maxterm {j} to maxterm {s ^ j}",
            )
    return chk.report("flip-group", n, started)


def conservation_check(a: BoolFunc) -> Report:
    """Model count of ``a`` is unchanged by every one of the 2**n flips."""
    started = time.perf_counter()
    chk = Checker()
    want = count_models(a)
    for s in range(1 << a.n):
        got = count_models(apply_flip(a, s))
        chk.ok(
            got == want,
            lambda s=s, got=got, want=want: f"mask {s}: count {got} != {want}",
        )
    return chk.report("conservation", a.n, started)
