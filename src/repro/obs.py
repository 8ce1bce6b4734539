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
* :class:`TracedRun` — the bundle ``Engine.run_traced`` returns:
  results plus all of the above.

Counting discipline: the hot loops increment in *batches* (``+= len(...)``
once per scan rather than once per node) and only when a metrics object
is attached, so plain ``run()`` calls pay a single ``is None`` check.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import (Any, Callable, Deque, Dict, Hashable, Iterator, List,
                    Optional, Tuple)

__all__ = [
    "CacheStats", "DecisionRecord", "ExecMetrics", "PipelineMetrics",
    "PlanCache", "TracedRun", "DECISION_RING_SIZE", "PIPELINE_STAGES",
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
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with``-block and record it under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    @property
    def total_seconds(self) -> float:
        return sum(self.stages.values())

    def to_dict(self) -> Dict[str, float]:
        return dict(self.stages)

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

@dataclass
class TracedRun:
    """Everything ``Engine.run_traced`` observed about one query run."""

    results: List
    #: the strategy the caller asked for (or the engine default).
    strategy: str
    wall_seconds: float
    metrics: ExecMetrics
    pipeline: Optional[PipelineMetrics]
    cache: CacheStats
    cache_hit: bool
    #: the strategy that actually produced the results — differs from
    #: :attr:`strategy` when graceful fallback re-ran the query.
    effective_strategy: str = ""
    #: the span trace of this run, when ``run_traced`` was given a
    #: tracer (see :mod:`repro.trace`); ``None`` otherwise.
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
        if self.pipeline is not None:
            lines.append("compile stages:")
            lines.extend("  " + line
                         for line in self.pipeline.report().splitlines())
        lines.append("execution counters:")
        lines.extend("  " + line
                     for line in self.metrics.report().splitlines())
        return "\n".join(lines)
