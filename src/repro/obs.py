"""Execution observability: stage timings, operator counters, plan cache.

The paper's conclusion — *"clearly, an accurate cost model is needed"* —
presupposes visibility into what each physical algorithm actually does.
This module provides that visibility for the whole stack:

* :class:`PipelineMetrics` — wall-clock seconds per compilation stage
  (parse → normalize → rewrite → compile → optimize), recorded by
  :meth:`repro.engine.Engine.compile` and attached to every
  :class:`~repro.engine.CompiledQuery`;
* :class:`ExecMetrics` — runtime counters: algebra operator evaluations
  and tuples/items produced (incremented by :mod:`repro.algebra.eval`),
  per-algorithm nodes visited / stream elements scanned / stack pushes
  (incremented by the :mod:`repro.physical` algorithms), and the
  choosers' decisions — a bounded ring of recent
  :class:`DecisionRecord`\\ s plus an unbounded tally, so long-running
  engines never accumulate unbounded decision logs;
* :class:`PlanCache` — a per-engine view, with its own
  :class:`CacheStats` hit/miss/eviction accounting, on one process-wide
  LRU of compiled plans keyed by ``(query, optimize, options)``, so
  repeated ``Engine.run()`` calls — on any engine — skip recompilation;
* :class:`Run` — one execution attempt's instruments (metrics,
  governor, trace, summary), handed to every pattern algorithm call;
  a kernel reports its work in one :meth:`Run.work` call and a
  chooser its decision in one :meth:`Run.decide`;
* :class:`TracedRun` — the one record ``Engine.run_traced`` returns:
  results plus all of the above, and with a span trace the EXPLAIN
  ANALYZE views (:meth:`~TracedRun.render`, :meth:`~TracedRun.to_dot`).

Counting discipline: the hot loops count in *batches* (once per scan
rather than once per node), through :meth:`Run.work`, and only when the
run is instrumented, so plain ``run()`` calls pay one attribute test
per site.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import (Any, Callable, Deque, Dict, Hashable, Iterator, List,
                    Optional, Tuple, TYPE_CHECKING)

from .trace.tracer import format_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .guard.governor import ResourceGovernor
    from .trace import Trace
    from .xmltree.summary import PathSummary

__all__ = [
    "CacheStats", "DecisionRecord", "ExecMetrics", "PipelineMetrics",
    "PlanCache", "Run", "TracedRun", "DECISION_RING_SIZE", "PIPELINE_STAGES",
]

#: how many individual chooser decisions the ring retains.  The tally in
#: :attr:`ExecMetrics.decision_counts` is exact and unbounded; the ring
#: only bounds the per-decision *detail* log (chooser inputs).
DECISION_RING_SIZE = 256

#: the compilation stages, in pipeline order (paper Figure 2).  None
#: reads the document: a compiled plan is shared by every engine.
PIPELINE_STAGES = ("parse", "normalize", "rewrite", "compile", "optimize")


# -- compile-time metrics ------------------------------------------------------

@dataclass
class PipelineMetrics:
    """Wall-clock seconds per compilation stage."""

    stages: "OrderedDict[str, float]" = field(default_factory=OrderedDict)

    @contextmanager
    def stage(self, name: str,
              trace: "Optional[Trace]" = None) -> Iterator[None]:
        """Time a ``with``-block and record it under ``name``; with a
        ``trace`` the block is a span of that name, and the span's
        duration is what is recorded."""
        span = None if trace is None else trace.begin_span(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start if span is None \
                else trace.end_span(span).duration
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    @property
    def total_seconds(self) -> float:
        return sum(self.stages.values())

    def report(self) -> str:
        width = max((len(name) for name in self.stages), default=5)
        lines = [f"{name.ljust(width)}  {seconds * 1e3:9.3f} ms"
                 for name, seconds in self.stages.items()]
        lines.append(f"{'total'.ljust(width)}  "
                     f"{self.total_seconds * 1e3:9.3f} ms")
        return "\n".join(lines)


# -- run-time metrics ----------------------------------------------------------

@dataclass(frozen=True)
class DecisionRecord:
    """One chooser decision, with the inputs that drove it."""

    chooser: str                              # "auto" or "cost"
    algorithm: str                            # the algorithm chosen
    inputs: Tuple[Tuple[str, float], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"chooser": self.chooser, "algorithm": self.algorithm,
                **dict(self.inputs)}


@dataclass
class ExecMetrics:
    """Counters for one (or more) query executions.

    All counters are monotonically non-decreasing and non-negative; the
    per-algorithm counters are keyed by the algorithm's ``name``
    (``nljoin``, ``twigjoin``, ``scjoin``, ``stacktree``, ``streaming``).
    """

    #: algebra operator evaluations, by plan operator class name.
    operator_evals: Counter = field(default_factory=Counter)
    #: items appended to item-plan results.
    items_produced: int = 0
    #: tuples appended to tuple-plan results.
    tuples_produced: int = 0
    #: pattern kernel invocations: one per input tuple, or one per batch
    #: of tuples where the algorithm has a batch kernel (SCJoin).
    pattern_evals: int = 0
    #: pattern evaluations skipped because the structural summary proved
    #: they cannot match (see :mod:`repro.xmltree.summary`).
    prune_hits: int = 0
    #: prefilter checks that could not rule the pattern out.
    prune_misses: int = 0
    #: nodes an algorithm examined, by algorithm name.
    nodes_visited: Counter = field(default_factory=Counter)
    #: index-stream elements read, by algorithm name.
    stream_scanned: Counter = field(default_factory=Counter)
    #: structural-join stack pushes, by algorithm name.
    stack_pushes: Counter = field(default_factory=Counter)
    #: chooser decisions, by chosen algorithm name (exact, unbounded).
    decision_counts: Counter = field(default_factory=Counter)
    #: the most recent decisions with their inputs (bounded ring).
    decision_ring: Deque[DecisionRecord] = field(
        default_factory=lambda: deque(maxlen=DECISION_RING_SIZE))
    #: graceful-degradation decisions made by ``Engine.execute``
    #: (:class:`repro.guard.FallbackEvent` instances, in order).
    fallbacks: List[Any] = field(default_factory=list)

    # -- recording --------------------------------------------------------

    def record_decision(self, chooser: str, algorithm: str,
                        **inputs: float) -> None:
        self.decision_counts[algorithm] += 1
        self.decision_ring.append(
            DecisionRecord(chooser, algorithm,
                           tuple(sorted(inputs.items()))))

    def record_fallback(self, event: Any) -> None:
        self.fallbacks.append(event)

    # -- views ------------------------------------------------------------

    @property
    def decisions_total(self) -> int:
        """Exact number of chooser decisions ever recorded."""
        return sum(self.decision_counts.values())

    def counters(self) -> Dict[str, int]:
        """A flat ``name → count`` view of every counter (for assertions
        and serialization); all values are non-negative by construction."""
        flat: Dict[str, int] = {
            "items_produced": self.items_produced,
            "tuples_produced": self.tuples_produced,
            "pattern_evals": self.pattern_evals,
            "prune_hits": self.prune_hits,
            "prune_misses": self.prune_misses,
        }
        for prefix, counter in (("operator", self.operator_evals),
                                ("visited", self.nodes_visited),
                                ("scanned", self.stream_scanned),
                                ("pushes", self.stack_pushes),
                                ("decision", self.decision_counts)):
            for key, value in counter.items():
                flat[f"{prefix}.{key}"] = value
        return flat

    def to_dict(self) -> Dict[str, Any]:
        """Serialize every field.

        Field-exhaustive by construction — driven by
        ``dataclasses.fields`` like :meth:`merge`, so a counter added to
        the dataclass can never be silently absent from the dict.  The
        ``decision_ring`` field keeps its historical key ``"decisions"``.
        """
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Counter):
                payload[spec.name] = dict(value)
            elif spec.name == "decision_ring":
                payload["decisions"] = [record.to_dict()
                                        for record in value]
            elif isinstance(value, list):
                payload[spec.name] = [entry.to_dict() for entry in value]
            else:
                payload[spec.name] = value
        return payload

    def merge(self, other: "ExecMetrics") -> "ExecMetrics":
        """Fold another metrics object into this one (for aggregating
        repeated runs); returns ``self``.

        Merging is derived from ``dataclasses.fields``, dispatching on
        each field's runtime type (Counter → update, int → add,
        ring/list → extend): a new counter field merges automatically,
        and an unmergeable field type fails loudly instead of being
        silently dropped.
        """
        for spec in fields(self):
            ours = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(ours, Counter):
                ours.update(theirs)
            elif isinstance(ours, (deque, list)):
                ours.extend(theirs)
            elif isinstance(ours, int):
                setattr(self, spec.name, ours + theirs)
            else:
                raise TypeError(
                    f"ExecMetrics.merge cannot combine field "
                    f"{spec.name!r} of type {type(ours).__name__}; "
                    f"teach merge about it")
        return self

    def report(self) -> str:
        lines = [
            f"operator evaluations : {sum(self.operator_evals.values())}"
            f"  ({_counter_text(self.operator_evals)})",
            f"items produced       : {self.items_produced}",
            f"tuples produced      : {self.tuples_produced}",
            f"pattern evaluations  : {self.pattern_evals}",
            f"summary prefilter    : pruned={self.prune_hits} "
            f"passed={self.prune_misses}",
            f"nodes visited        : {_counter_text(self.nodes_visited)}",
            f"stream elements      : {_counter_text(self.stream_scanned)}",
            f"stack pushes         : {_counter_text(self.stack_pushes)}",
        ]
        if self.decision_counts:
            lines.append(
                f"chooser decisions    : "
                f"{_counter_text(self.decision_counts)}")
        for event in self.fallbacks:
            lines.append(f"strategy fallback    : {event}")
        return "\n".join(lines)


def _counter_text(counter: Counter) -> str:
    if not counter:
        return "-"
    return ", ".join(f"{name}={count}"
                     for name, count in sorted(counter.items()))


# -- one run's instruments -----------------------------------------------------

class Run:
    """One execution's instruments, handed to every algorithm call.

    The engine builds one per attempt; the algorithms keep none of it,
    so one algorithm object serves any number of concurrent runs.  Each
    instrument left ``None`` is switched off: no counting into
    ``metrics``, no charging against ``governor``'s budgets, no spans in
    ``trace``, no structural prefilter from ``summary``.  Frozen."""

    __slots__ = ("metrics", "governor", "trace", "summary", "instrumented")

    metrics: Optional[ExecMetrics]
    governor: Optional[ResourceGovernor]
    trace: "Optional[Trace]"
    summary: Optional[PathSummary]
    #: is any of ``metrics``, ``governor`` and ``trace`` set?  Computed
    #: once, so the evaluator's uninstrumented path is one test.
    instrumented: bool

    def __init__(self, metrics: Optional[ExecMetrics] = None,
                 governor: Optional[ResourceGovernor] = None,
                 trace: "Optional[Trace]" = None,
                 summary: Optional[PathSummary] = None) -> None:
        init = object.__setattr__
        init(self, "metrics", metrics)
        init(self, "governor", governor)
        init(self, "trace", trace)
        init(self, "summary", summary)
        init(self, "instrumented", metrics is not None
             or governor is not None or trace is not None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a Run is frozen: cannot set {name!r}")

    # Kernels report through these two, asked only when ``instrumented``,
    # so an uninstrumented run pays one attribute test per site.

    def work(self, algorithm: str, steps: Optional[int] = None, *,
             visited: Optional[int] = None, scanned: Optional[int] = None,
             pushes: Optional[int] = None) -> None:
        """One kernel's work: ``visited`` nodes, ``scanned`` stream
        entries and stack ``pushes`` counted under ``algorithm``, then
        ``steps`` charged to the budgets.  A count left ``None`` is not
        recorded; a ``0`` still enters its counter."""
        metrics = self.metrics
        if metrics is not None:
            if visited is not None:
                metrics.nodes_visited[algorithm] += visited
            if scanned is not None:
                metrics.stream_scanned[algorithm] += scanned
            if pushes is not None:
                metrics.stack_pushes[algorithm] += pushes
        if steps is not None and self.governor is not None:
            self.governor.tick(steps)

    def decide(self, chooser: str, algorithm: str, inputs: dict) -> None:
        """One chooser decision: recorded with its ``inputs`` (a bounded
        ring and an exact tally), a ``decision`` trace event, a step."""
        if self.metrics is not None:
            self.metrics.record_decision(chooser, algorithm, **inputs)
        if self.trace is not None:
            self.trace.event("decision", chooser=chooser, algorithm=algorithm)
        if self.governor is not None:
            self.governor.tick()


# -- plan cache ----------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)

    def to_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}


class _PlanStore:
    """One LRU of compiled plans, shared by every :class:`PlanCache` of
    its capacity in the process."""

    __slots__ = ("max_size", "entries", "lock", "flights")

    def __init__(self, max_size: int) -> None:
        self.max_size = max_size
        self.entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.lock = threading.Lock()
        #: key → the lock its one in-flight build holds.
        self.flights: Dict[Hashable, threading.Lock] = {}


#: the process-wide stores, by capacity.
_STORES: Dict[int, _PlanStore] = {}
_STORES_LOCK = threading.Lock()


class PlanCache:
    """A view on the process-wide LRU of compiled plans.

    Keys are whatever the engine derives from
    ``(query, optimize, options)`` — the query text, never the document
    — and values are :class:`~repro.engine.CompiledQuery` objects
    (immutable once built, so sharing them is safe).  Every instance of
    one capacity reads and writes the same store, so engines over
    different documents compile a query once per process;
    ``max_size=0`` opts out and touches no store.  :attr:`stats` count
    this instance's own lookups.

    Thread-safe: lookups, insertions and the LRU reordering happen
    under the store's lock, so engines shared across a worker pool
    (see :mod:`repro.serve`) cannot corrupt the ``OrderedDict`` or lose
    evictions to races; :meth:`get_or_build` builds a missing key once
    however many threads miss it together.
    """

    def __init__(self, max_size: int = 64) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self.stats = CacheStats()
        if max_size == 0:
            # Private and never filled: only the miss count is kept.
            self._store = _PlanStore(0)
        else:
            with _STORES_LOCK:
                self._store = _STORES.get(max_size)
                if self._store is None:
                    self._store = _STORES[max_size] = _PlanStore(max_size)

    def __len__(self) -> int:
        with self._store.lock:
            return len(self._store.entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._store.lock:
            return key in self._store.entries

    def _lookup(self, key: Hashable) -> Optional[Any]:
        # Caller holds the store lock; counts a hit, not a miss.
        entries = self._store.entries
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
            self.stats.hits += 1
        return value

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up a plan, counting a hit or a miss."""
        with self._store.lock:
            value = self._lookup(key)
            if value is None:
                self.stats.misses += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        store = self._store
        if store.max_size == 0:
            return
        with store.lock:
            entries = store.entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            while len(entries) > store.max_size:
                entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_build(self, key: Hashable, build: Callable[..., Any],
                     *args: Any) -> Tuple[Any, bool]:
        """``(plan, hit)``: the plan under ``key``, made by
        ``build(*args)`` and stored on a miss.  Callers that miss one
        key together wait for a single build and count a hit."""
        store = self._store
        with store.lock:
            value = self._lookup(key)
            if value is not None:
                return value, True
            if store.max_size == 0:
                self.stats.misses += 1
                flight = None
            else:
                flight = store.flights.setdefault(key, threading.Lock())
        if flight is None:
            return build(*args), False
        with flight:
            with store.lock:
                value = self._lookup(key)
                if value is not None:
                    return value, True
                self.stats.misses += 1
            try:
                value = build(*args)
                self.put(key, value)
            finally:
                with store.lock:
                    if store.flights.get(key) is flight:
                        del store.flights[key]
        return value, False

    def clear(self) -> None:
        """Drop every entry of the shared store (statistics are kept)."""
        with self._store.lock:
            self._store.entries.clear()

    @staticmethod
    def clear_all() -> None:
        """Drop every entry of every process-wide store."""
        with _STORES_LOCK:
            stores = list(_STORES.values())
        for store in stores:
            with store.lock:
                store.entries.clear()


# -- traced runs ---------------------------------------------------------------

#: width of the plan column of an EXPLAIN ANALYZE report.
_LABEL_WIDTH = 46


def _annotation(stat: Any) -> str:
    """An operator's measured calls (omitted for one), time and rows."""
    calls = f"{stat.calls}x " if stat.calls != 1 else ""
    return f"{calls}{format_seconds(stat.seconds)} -> {stat.rows} rows"


@dataclass
class TracedRun:
    """Everything ``Engine.run_traced`` observed about one query run.

    :meth:`report` is the ``query --metrics`` view.  A run given a
    tracer also carries its span :attr:`trace`, and :meth:`render` is
    then EXPLAIN ANALYZE: the optimized plan with every operator's
    measured calls, wall time and rows (from the trace's exact
    ``op_stats``, so buffer truncation never loses a node), the stage
    timings and the events the run emitted; :meth:`to_dot` draws the
    same annotated plan as Graphviz."""

    results: List
    #: the strategy the caller asked for (or the engine default).
    strategy: str
    #: seconds ``Engine.execute`` took.
    wall_seconds: float
    metrics: ExecMetrics
    #: the compile stages this run paid: none on a plan-cache hit.
    pipeline: PipelineMetrics
    cache: CacheStats
    cache_hit: bool
    #: the strategy that actually produced the results — differs from
    #: :attr:`strategy` when graceful fallback re-ran the query.
    effective_strategy: str = ""
    #: the span trace of this run, when ``run_traced`` was given a
    #: tracer that admitted it (see :mod:`repro.trace`); ``None``
    #: otherwise.
    trace: Any = None
    compiled: Any = None    # the CompiledQuery (kept last: verbose repr)

    def __post_init__(self) -> None:
        if not self.effective_strategy:
            self.effective_strategy = self.strategy

    @property
    def fallbacks(self) -> List[Any]:
        """Graceful-degradation decisions taken during this run (see
        :class:`repro.guard.FallbackEvent`)."""
        return self.metrics.fallbacks

    @property
    def op_stats(self) -> Dict[int, Any]:
        """Exact per-plan-operator aggregates, keyed by ``id(node)``
        (empty without a trace)."""
        return self.trace.op_stats if self.trace is not None else {}

    def _spans(self) -> List[Any]:
        return self.trace.spans if self.trace is not None else []

    def stage_seconds(self) -> Dict[str, float]:
        """Stage name → seconds this run paid: the compile stages, then
        the document summary's build when the trace shows one."""
        stages = dict(self.pipeline.stages)
        for span in self._spans():
            if span.name == "summary":
                stages["summary"] = span.duration
                break
        return stages

    def event_counts(self) -> Counter:
        """Trace event name → occurrences across the whole run."""
        return Counter(name for span in self._spans()
                       for _offset, name, _attrs in span.events)

    def report(self) -> str:
        strategy = self.strategy
        if self.effective_strategy != self.strategy:
            strategy += f" (effective: {self.effective_strategy})"
        lines = [f"strategy   : {strategy}",
                 f"wall time  : {self.wall_seconds * 1e3:.3f} ms",
                 f"results    : {len(self.results)} items",
                 f"plan cache : {'hit' if self.cache_hit else 'miss'}"
                 f"  (hits={self.cache.hits} misses={self.cache.misses}"
                 f" evictions={self.cache.evictions})"]
        if self.trace is not None:
            lines.append(f"trace      : {self.trace.trace_id} "
                         f"({len(self.trace.spans)} spans)")
        if self.pipeline.stages:
            lines.append("compile stages:")
            lines.extend("  " + line
                         for line in self.pipeline.report().splitlines())
        lines.append("execution counters:")
        lines.extend("  " + line
                     for line in self.metrics.report().splitlines())
        return "\n".join(lines)

    def render(self) -> str:
        """EXPLAIN ANALYZE when the run carries a trace, else
        :meth:`report`."""
        if self.trace is None:
            return self.report()
        # Imported here: the algebra imports this module (through Run).
        from .algebra.dot import describe_plan
        lines = [
            f"EXPLAIN ANALYZE  {self.compiled.text}",
            f"strategy={self.effective_strategy}  "
            f"items={len(self.results)}  "
            f"total={format_seconds(self.trace.duration)}  "
            f"execute={format_seconds(self.wall_seconds)}",
        ]
        stages = self.stage_seconds()
        if stages:
            lines.append("stages: " + "  ".join(
                f"{name}={format_seconds(seconds)}"
                for name, seconds in stages.items()))
        lines.append("")
        op_stats = self.op_stats

        def walk(node: Any, depth: int, role: str) -> None:
            label, dependents, inputs = describe_plan(node)
            text = "  " * depth + (f"{role}: " if role else "") \
                + label.replace("\\n", " ")
            stat = op_stats.get(id(node))
            lines.append(f"{text}{' ' * max(_LABEL_WIDTH - len(text), 2)}"
                         + ("(not executed)" if stat is None
                            else _annotation(stat)))
            for dependent in dependents:
                walk(dependent, depth + 1, "dep")
            for input_plan in inputs:
                walk(input_plan, depth + 1, "")

        walk(self.compiled.optimized, 0, "")
        events = self.event_counts()
        if events:
            lines.append("")
            lines.append("events: " + "  ".join(
                f"{name}={count}" for name, count in sorted(events.items())))
        for event in self.fallbacks:
            lines.append(f"fallback: {event.from_strategy} -> "
                         f"{event.to_strategy} ({event.error_code})")
        if self.trace.dropped_spans or self.trace.dropped_events:
            lines.append(f"note: trace buffers dropped "
                         f"{self.trace.dropped_spans} spans, "
                         f"{self.trace.dropped_events} events "
                         f"(op stats remain exact)")
        return "\n".join(lines)

    def to_dot(self, name: Optional[str] = None) -> str:
        """The optimized plan as DOT, each executed operator annotated
        with its calls, time and rows."""
        from .algebra.dot import plan_to_dot
        return plan_to_dot(self.compiled.optimized,
                           name=name or self.compiled.text,
                           annotations={op_id: _annotation(stat) for op_id,
                                        stat in self.op_stats.items()})

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "query": self.compiled.text, "strategy": self.strategy,
            "effective_strategy": self.effective_strategy,
            "items": len(self.results), "wall_seconds": self.wall_seconds,
            "cache_hit": self.cache_hit, "cache": self.cache.to_dict(),
            "stages": self.stage_seconds(),
            "metrics": self.metrics.to_dict(),
        }
        if self.trace is not None:
            payload.update(
                total_seconds=self.trace.duration,
                operators=[stat.to_dict()
                           for stat in self.op_stats.values()],
                events=dict(self.event_counts()),
                trace=self.trace.to_dict())
        return payload
