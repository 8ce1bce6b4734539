"""Structured, span-based tracing.

The paper's experimental argument (Section 5) is that no physical
algorithm dominates and the choice must be *measured*; this module is
the measurement substrate.  A :class:`Tracer` produces :class:`Trace`\\ s
— one per traced query or served request — each a bounded collection of
nested :class:`Span`\\ s:

* a span has a name, monotonic start/duration, a ``span_id``, its
  ``parent_id`` and typed attributes; parents strictly contain their
  children in time (same clock, closed inside-out);
* point-in-time happenings (governor clock checks, budget trips,
  chooser decisions, prune hits, fallbacks) attach to the *current*
  span as events;
* per-plan-operator wall time and cardinalities are additionally
  aggregated **exactly** into :attr:`Trace.op_stats` (keyed by the plan
  node's ``id``), so ``EXPLAIN ANALYZE`` never suffers from span-buffer
  truncation.

Overhead discipline mirrors :mod:`repro.obs`: a disabled tracer hands
out no traces at all, so every instrumentation site costs one
``is None`` check; an enabled one pays one clock read plus one object
append per span.  Span and event buffers are bounded
(:data:`MAX_SPANS`, :data:`MAX_EVENTS`) with drop counters, so a
pathological query cannot exhaust memory — and because spans are only
ever dropped once the buffer is full (a monotone condition), a stored
span can never reference a dropped parent.

``Trace`` objects are **single-threaded** (one per request/run, the
natural unit in :mod:`repro.serve`); the :class:`Tracer` itself is
thread-safe and additionally keeps cross-trace aggregates (span counts
and total seconds per span name) for the Prometheus exporter.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["MAX_EVENTS", "MAX_SPANS", "RatioSampler", "Span", "Trace",
           "TraceAggregates", "Tracer", "format_seconds", "maybe_span"]

#: default cap on spans stored per trace (drops counted, never silent).
MAX_SPANS = 10_000

#: default cap on span events stored per trace.
MAX_EVENTS = 10_000


@dataclass
class Span:
    """One timed region of a trace."""

    name: str
    span_id: int
    parent_id: Optional[int]
    #: start timestamp on the tracer's clock (``time.perf_counter`` by
    #: default) — monotonic, comparable across spans of one process.
    start: float
    #: seconds from start to :meth:`Trace.end_span`; 0.0 while open.
    duration: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: point events inside this span: ``(offset_seconds, name, attrs)``.
    events: List[Tuple[float, str, Dict[str, Any]]] = \
        field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "span_id": self.span_id,
            "parent_id": self.parent_id, "start": self.start,
            "duration": self.duration, "attrs": dict(self.attrs),
            "events": [{"offset": offset, "name": name, **attrs}
                       for offset, name, attrs in self.events],
        }


@dataclass
class OpStat:
    """Exact per-plan-operator aggregate (never truncated)."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    rows: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "calls": self.calls,
                "seconds": self.seconds, "rows": self.rows}


class Trace:
    """One trace: a root span plus everything nested under it.

    Not thread-safe — a trace belongs to the single thread executing
    the run it observes (the serve workers create one per request).
    """

    def __init__(self, name: str, trace_id: str, *,
                 clock: Callable[[], float] = time.perf_counter,
                 tracer: Optional["Tracer"] = None,
                 max_spans: int = MAX_SPANS,
                 max_events: int = MAX_EVENTS,
                 start_offset: float = 0.0,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self._clock = clock
        self._tracer = tracer
        self.max_spans = max_spans
        self.max_events = max_events
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self.dropped_events = 0
        self._events_stored = 0
        self._next_id = 0
        self._stack: List[Span] = []
        #: exact per-plan-operator aggregates, keyed by ``id(plan_node)``.
        self.op_stats: Dict[int, OpStat] = {}
        self.finished = False
        root = self._make_span(name, parent_id=None,
                               start=clock() + start_offset)
        if attrs:
            root.attrs.update(attrs)
        self.root = root
        self._stack.append(root)

    # -- span lifecycle -----------------------------------------------------

    def _make_span(self, name: str, parent_id: Optional[int],
                   start: float) -> Span:
        span = Span(name=name, span_id=self._next_id, parent_id=parent_id,
                    start=start)
        self._next_id += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1
        return span

    def begin_span(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the current one."""
        parent = self._stack[-1].span_id if self._stack else None
        span = self._make_span(name, parent_id=parent, start=self._clock())
        if attrs:
            span.attrs.update(attrs)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **attrs: Any) -> Span:
        """Close a span (and any forgotten children above it)."""
        now = self._clock()
        while self._stack:
            open_span = self._stack.pop()
            open_span.duration = now - open_span.start
            if open_span is span:
                break
        if attrs:
            span.attrs.update(attrs)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.begin_span(name, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    def add_span(self, name: str, start: float, duration: float,
                 **attrs: Any) -> Span:
        """Record an already-elapsed region (e.g. queue wait) as a
        completed child of the current span; ``start`` is on the
        tracer's clock."""
        parent = self._stack[-1].span_id if self._stack else None
        span = self._make_span(name, parent_id=parent, start=start)
        span.duration = duration
        if attrs:
            span.attrs.update(attrs)
        return span

    # -- events and attributes ----------------------------------------------

    @property
    def current(self) -> Span:
        return self._stack[-1] if self._stack else self.root

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point event to the current span."""
        if self._events_stored >= self.max_events:
            self.dropped_events += 1
            return
        span = self.current
        span.events.append((self._clock() - span.start, name, attrs))
        self._events_stored += 1

    def annotate(self, **attrs: Any) -> None:
        """Merge attributes into the current span."""
        self.current.attrs.update(attrs)

    # -- exact operator aggregation ------------------------------------------

    def record_op(self, op_id: int, name: str, seconds: float,
                  rows: int) -> None:
        stat = self.op_stats.get(op_id)
        if stat is None:
            stat = self.op_stats[op_id] = OpStat(name)
        stat.calls += 1
        stat.seconds += seconds
        stat.rows += rows

    # -- lifecycle -----------------------------------------------------------

    def finish(self, **attrs: Any) -> "Trace":
        """Close every open span (root included) and report the trace to
        its tracer's aggregates.  Idempotent."""
        if self.finished:
            return self
        self.end_span(self.root, **attrs)
        self.finished = True
        if self._tracer is not None:
            self._tracer._absorb(self)
        return self

    @property
    def duration(self) -> float:
        return self.root.duration

    @property
    def started(self) -> float:
        return self.root.start

    # -- views ---------------------------------------------------------------

    def span_children(self) -> Dict[Optional[int], List[Span]]:
        """Stored spans grouped by parent_id (for tree walks/tests)."""
        children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)
        return children

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id, "name": self.name,
            "duration": self.duration,
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
            "spans": [span.to_dict() for span in self.spans],
        }


class RatioSampler:
    """Deterministic head sampler: admits exactly ``ratio`` of traces.

    Uses an error accumulator rather than randomness, so a given ratio
    always samples the same positions in the request sequence —
    reproducible under test and still uniform over time.
    """

    def __init__(self, ratio: float) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"sample ratio must be in [0, 1], got {ratio}")
        self.ratio = ratio
        self._credit = 0.0

    def sample(self) -> bool:
        self._credit += self.ratio
        if self._credit >= 1.0:
            self._credit -= 1.0
            return True
        return False


@dataclass
class TraceAggregates:
    """Cross-trace totals a :class:`Tracer` maintains (for Prometheus)."""

    traces_started: int = 0
    traces_finished: int = 0
    traces_sampled_out: int = 0
    spans_dropped: int = 0
    events_dropped: int = 0
    #: span name → [count, total seconds].
    span_totals: Dict[str, List[float]] = field(default_factory=dict)


class Tracer:
    """Hands out traces; disabled tracers hand out ``None``.

    ``sampler`` may be a float ratio (wrapped in :class:`RatioSampler`),
    any object with a ``sample() -> bool`` method, or ``None`` (trace
    everything).  ``clock`` is injectable for deterministic tests.
    Thread-safe: :meth:`begin` and the aggregate bookkeeping lock; the
    traces themselves are single-threaded by design.
    """

    def __init__(self, enabled: bool = True,
                 sampler: "Optional[RatioSampler | float]" = None,
                 clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = MAX_SPANS,
                 max_events: int = MAX_EVENTS) -> None:
        self.enabled = enabled
        if isinstance(sampler, (int, float)) and not isinstance(sampler,
                                                                bool):
            sampler = RatioSampler(float(sampler))
        self.sampler = sampler
        self.clock = clock
        self.max_spans = max_spans
        self.max_events = max_events
        self.aggregates = TraceAggregates()
        self._lock = threading.Lock()
        self._sequence = 0

    def begin(self, name: str, *, start_offset: float = 0.0,
              **attrs: Any) -> Optional[Trace]:
        """Start a trace, or return ``None`` when disabled/sampled out
        (instrumentation sites then skip all work with one check)."""
        if not self.enabled:
            return None
        with self._lock:
            if self.sampler is not None and not self.sampler.sample():
                self.aggregates.traces_sampled_out += 1
                return None
            self._sequence += 1
            trace_id = f"{self._sequence:08x}"
            self.aggregates.traces_started += 1
        return Trace(name, trace_id, clock=self.clock, tracer=self,
                     max_spans=self.max_spans, max_events=self.max_events,
                     start_offset=start_offset, attrs=attrs or None)

    def _absorb(self, trace: Trace) -> None:
        """Fold a finished trace into the aggregates."""
        with self._lock:
            agg = self.aggregates
            agg.traces_finished += 1
            agg.spans_dropped += trace.dropped_spans
            agg.events_dropped += trace.dropped_events
            for span in trace.spans:
                totals = agg.span_totals.get(span.name)
                if totals is None:
                    totals = agg.span_totals[span.name] = [0, 0.0]
                totals[0] += 1
                totals[1] += span.duration


class _NullContext:
    """A reusable no-op context manager (spans when tracing is off)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


def maybe_span(trace: Optional[Trace], name: str, **attrs: Any):
    """``trace.span(...)`` when tracing, a shared no-op otherwise —
    lets call sites use one ``with`` regardless of tracing state."""
    if trace is None:
        return _NULL_CONTEXT
    return trace.span(name, **attrs)


def format_seconds(seconds: float) -> str:
    """Adaptive µs/ms/s rendering (traces span six orders of magnitude)."""
    if seconds < 0.001:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"
