"""In-memory spans around the benchmark's calls into the library.

A span is (name, start_ns, end_ns, parent index, run).  `run` numbers the
item runs of the traced loop (the item is run modulo the number of items);
set-up spans have run -1.  Spans are kept in a list and written once, when
the run ends.  Self time is a span's duration minus the time its child spans
cover; the benchmark's calls are sequential on one thread, so children never
overlap and their durations simply add up.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    """Tracing off: every call goes straight through, nothing is recorded."""

    item = -1

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, amount=1):
        pass


class Tracer:
    """Tracing on: records a span per call and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self.item = -1
        self._stack: list = []

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def count(self, name, amount=1):
        self.counts.append((name, amount, self.item))

    def counters(self, runs: int) -> dict:
        """name -> total of the counts made in set-up and the first `runs` runs."""
        totals: dict = defaultdict(int)
        for name, amount, item in self.counts:
            if item < runs:
                totals[name] += amount
        return totals

    def layer_table(self, runs: int) -> dict:
        """name -> (calls, self_ns) over set-up and the first `runs` runs."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict = defaultdict(lambda: [0, 0])
        for i, (name, start, end, _, item) in enumerate(self.spans):
            if item >= runs:
                continue
            row = table[name]
            row[0] += 1
            row[1] += end - start - child_ns[i]
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{run}\n")
