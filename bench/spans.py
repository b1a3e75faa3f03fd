"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the pipeline: its name is
``<layer>.<function>``, and it records a start, an end and the id of the
span that caused it. Spans stay in memory until the run ends and are
then written out in one piece.

Timestamps come from ``time.monotonic_ns``, which on Linux reads
CLOCK_MONOTONIC, a clock shared by every process on the machine. That
lets the parent process nest the spans a stage process recorded under
the span it holds for that process.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans for one traced run; not thread-safe."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": time.monotonic_ns(),
            "end_ns": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.monotonic_ns()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by another process under span `parent`."""
        offset = len(self.spans)
        for s in spans:
            s = dict(s, id=s["id"] + offset)
            s["parent"] = parent if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def duration_s(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _subtree(spans: list[dict], root: int | None):
    """(spans under `root`, children-by-parent map); root=None takes all."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    if root is None:
        return list(spans), children
    out, stack = [], list(children[root])
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(children[s["id"]])
    return out, children


def self_times(spans: list[dict], root: int | None = None) -> dict[str, float]:
    """Seconds of self time per layer, over the subtree under `root`.

    A span's self time is its duration minus the part of it that its
    child spans cover. With root=None every span counts.
    """
    todo, children = _subtree(spans, root)
    out: dict[str, float] = defaultdict(float)
    for s in todo:
        kids = [(c["start_ns"], c["end_ns"]) for c in children[s["id"]]]
        own = (s["end_ns"] - s["start_ns"]) - _covered_ns(kids)
        out[layer_of(s["name"])] += own / 1e9
    return dict(out)


def total_by_name(spans: list[dict], root: int | None = None) -> dict[str, float]:
    """Summed duration in seconds of the spans under `root`, by span name."""
    out: dict[str, float] = defaultdict(float)
    for s in _subtree(spans, root)[0]:
        out[s["name"]] += duration_s(s)
    return dict(out)
