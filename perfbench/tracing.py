"""In-memory spans around the benchmark's calls into ``hfa``.

A span records the name of the public function called (``layer.function``),
its start and end in nanoseconds, the index of the enclosing span (-1 at top
level) and the id of the operation it belongs to.  Spans stay in memory while
the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[tuple]] = defaultdict(list)
        self.op = None
        self._stack: list[int] = []

    def count(self, name: str, value: float) -> None:
        """Record one observation of a per-call counter, such as states built."""
        self.counts[name].append((self.op, value))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def per_call_ms(self, op_filter=None) -> dict[str, list[float]]:
        """Duration of every span, in ms, grouped by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, op in self.spans:
            if op_filter is None or op_filter(op):
                out[name].append((end - start) / 1e6)
        return out

    def self_ms_by_layer(self, op_filter=None) -> dict[str, float]:
        """Total self time per layer: a span's duration minus the time its
        direct children cover (children never overlap, calls are nested)."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op_filter is None or op_filter(op):
                out[name.split(".")[0]] += (end - start - child_ns[i]) / 1e6
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")
