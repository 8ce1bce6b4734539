"""In-memory span recorder owned by the benchmark.

A span is ``(id, name, start, end, parent id, op id)``; the root span of
an operation also carries the request it ran as ``label``.  Spans are kept
in a list and written as JSON when the run ends.  A span's *self time*
is its duration minus the part of it its child spans cover, so the self
times of one op's spans add up to the op's wall time.

The recorder wraps calls *into* the program from the benchmark's own
files; it is not the program's ``repro.trace``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: name of the root span of every operation.
OP = "op"


class Recorder:
    """Spans of one caller thread (one recorder per thread, merged with
    :meth:`extend` when the threads have ended)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._op = -1

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            label: Optional[str] = None) -> int:
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "op": self._op}
        if label is not None:
            span["label"] = label
        self.spans.append(span)
        return span["id"]

    def add_reported(self, name: str, start: float, seconds: float,
                     parent: int) -> None:
        """Record a span the program timed itself (a response's
        ``queue_seconds``) under the finished span ``parent``, clipped
        to it: the two clocks were read at slightly different points."""
        limit = self.spans[parent]["end"]
        self.add(name, min(start, limit), min(start + seconds, limit),
                 parent)

    @contextmanager
    def span(self, name: str, label: Optional[str] = None) -> Iterator[int]:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else None
        span_id = self.add(name, time.perf_counter(), 0.0, parent, label)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()
            self._stack.pop()

    def extend(self, other: "Recorder") -> None:
        """Append another thread's spans, renumbering ids and ops."""
        base = len(self.spans)
        op_base = self._op + 1
        for span in other.spans:
            parent = span["parent"]
            self.spans.append({
                **span, "id": span["id"] + base, "op": span["op"] + op_base,
                "parent": None if parent is None else parent + base})
        self._op = op_base + other._op

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``op id → span name → seconds of self time`` (spans of one
        name within an op are added up)."""
        children: Dict[int, List[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        per_op: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            covered, edge = 0.0, span["start"]
            for child in sorted(children[span["id"]],
                                key=lambda item: item["start"]):
                low = max(child["start"], edge)
                high = min(child["end"], span["end"])
                if high > low:
                    covered += high - low
                    edge = high
            per_op[span["op"]][span["name"]] += \
                span["end"] - span["start"] - covered
        return per_op

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "time.perf_counter seconds",
                       "spans": self.spans}, handle)
