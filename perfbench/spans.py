"""Spans and counters around the benchmark's calls into boolring.

A span records name, start, end, parent span and op id; spans stay in
memory and are written when the run ends.  Self time is a span's
duration minus the time its child spans cover.  ``peak=True`` spans
measure the tracemalloc peak of the call, but only on a tracer built
with ``memory=True``, so that allocation tracing never inflates the
timed spans.  ``NULL`` records nothing and is what untraced runs use.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []  # [name, n, start, end, parent index, op id]
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, n: int | None = None, peak: bool = False):
        measure = peak and self.memory
        if measure:
            tracemalloc.start()
        rec = [name, n, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()
            if measure:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def self_times(self) -> dict[tuple[str, int | None], list[float]]:
        """Self time of every span, grouped by (name, n)."""
        child = [0.0] * len(self.spans)
        for name, n, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        grouped: dict[tuple[str, int | None], list[float]] = defaultdict(list)
        for i, (name, n, start, end, parent, op) in enumerate(self.spans):
            grouped[(name, n)].append(end - start - child[i])
        return grouped

    def write(self, path) -> None:
        keys = ("name", "n", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counters": self.counters, "peaks": self.peaks}, fh)


class _NullTracer:
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str, n: int | None = None, peak: bool = False):
        return self._null

    def add(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()
