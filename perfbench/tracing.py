"""Spans recorded around calls into dflsim, from outside the program.

A :class:`Tracer` replaces a module-level name or a class attribute with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span (-1 at top level).  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its child
spans; calls run on one thread, so children never overlap and their sum is
the part of the parent's interval they cover.
"""

from __future__ import annotations

import csv
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> bool:
        """Replace ``owner.attr`` (a module global or a method) by its traced form.

        Returns False, patching nothing, when ``owner`` has no such attribute,
        so that a later refactor of dflsim leaves the traced run working.
        """
        if not hasattr(owner, attr):
            return False
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        return True

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent"))
            writer.writerows(self.spans)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: number of calls, total seconds and self seconds."""
    stats: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span[2] - span[1]
        entry["self_s"] += own
    return stats


def read_csv(path: str) -> list[list]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [[name, float(start), float(end), int(parent)] for name, start, end, parent in rows]
