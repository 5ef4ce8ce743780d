"""In-memory span recorder for the traced benchmark run.

A span is (name, N, start, end, parent, op); N is the population size for
spans that repeat per N and None otherwise.  Spans are kept in a list while the
workload runs and written out once at the end; self time is a span's duration
minus the part of it that its direct children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str, N: int | None = None):
        idx = len(self.spans)
        rec = {"name": name, "N": N, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``self.spans``."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - c for rec, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**rec, "start": rec["start"] - t0, "end": rec["end"] - t0, "self": s}
                for rec, s in zip(self.spans, self.self_times())]
