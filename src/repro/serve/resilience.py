"""Resilience primitives for the serving layer.

Four cooperating pieces let :class:`~repro.serve.QueryService` survive
partial failure instead of surfacing every fault to the caller:

* :class:`RetryPolicy` — per-request retry with exponential backoff and
  seeded jitter.  Retries are **deadline-aware** (an attempt is never
  started when its backoff sleep would cross the admission deadline)
  and **error-classified**: transient faults retry on the same
  strategy; nothing else retries.  Deterministic algorithm failures
  already stepped down :meth:`~repro.engine.Engine.execute`'s fallback
  chain (the paper's interchangeable physical algorithms are what make
  that cheap) before the attempt failed.

* :class:`CircuitBreaker` / :class:`BreakerPolicy` — a per-document
  closed/open/half-open breaker over a sliding outcome window.  When a
  document's recent failure rate crosses the threshold the breaker
  opens and requests are rejected *at admission* with a typed
  :class:`~repro.guard.CircuitOpen` — a poisoned document sheds fast
  instead of burning worker threads.  After the cooldown the breaker
  half-opens and lets traffic probe; one success closes it, one
  failure re-opens it.

* :class:`HealthTracker` — per-document outcome counters, breaker
  ownership and probe queries; :meth:`HealthTracker.snapshot` is what
  :meth:`QueryService.health` returns.

* :func:`provably_empty` — the **degraded mode** test: when a
  document's circuit is open but its structural summary is healthy,
  a query whose optimized plan the summary *proves* can match nothing
  is answered with ``[]`` — byte-identical to what the full engine
  would return — instead of being rejected.  The analysis is strictly
  conservative: only plan shapes whose emptiness follows from an
  unsatisfiable bottom tree pattern qualify; everything else raises
  :class:`~repro.guard.CircuitOpen`.

See ``docs/ROBUSTNESS.md`` for the state machines and the
failure-mode table.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Tuple

from ..algebra.ops import (DDOPlan, LetPlan, MapFromItem, MapToItem, Plan,
                           Select, SeqPlan, TreeJoin, TupleTreePattern,
                           VarPlan)
from ..guard import DocumentQuarantined, InjectedFault, InternalError
from ..xmltree.columnar import StorageError

__all__ = [
    "BreakerPolicy", "CircuitBreaker", "DocumentHealth", "HealthTracker",
    "RetryPolicy", "ServiceHealth", "provably_empty",
    "FATAL", "RETRY",
]

#: retry verdicts: give up, or retry on the same strategy.
FATAL = "fatal"
RETRY = "retry"

#: breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: per-document health statuses, in increasing severity (the service
#: status is the worst of its documents').
_STATUS_ORDER = ("healthy", "degraded", "unhealthy")


# -- retry ------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How :class:`~repro.serve.QueryService` retries a failed attempt.

    ``max_attempts`` bounds the total tries (1 = no retry); backoff for
    attempt *n* is ``base_delay * multiplier**(n-1)`` capped at
    ``max_delay``, stretched by up to ``jitter`` (a 0..1 fraction)
    drawn from the service's seeded generator.  A retry runs the
    request's own strategy again: stepping down to another strategy is
    :meth:`~repro.engine.Engine.execute`'s fallback chain, which has run
    by the time an attempt fails.
    """

    max_attempts: int = 3
    base_delay: float = 0.002
    max_delay: float = 0.050
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def classify(self, error: Exception) -> str:
        """The retry verdict for one failed attempt.

        * transient faults (injected chaos, storage reads, wrapped
          internal errors) → :data:`RETRY` on the same strategy;
        * everything else → :data:`FATAL`: caller errors, quarantine,
          an already-open circuit, budget trips and algorithm failures
          — the engine raises those two only after its own fallback
          chain ran out, so running it again would repeat the chain.
        """
        if isinstance(error, DocumentQuarantined):
            return FATAL
        if isinstance(error, (InjectedFault, StorageError, InternalError)):
            return RETRY
        return FATAL

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts are
        1-based, so the first retry sees ``attempt=1``)."""
        base = self.base_delay * self.multiplier ** max(attempt - 1, 0)
        base = min(base, self.max_delay)
        if self.jitter:
            base *= 1.0 + self.jitter * rng.random()
        return base


# -- circuit breaker --------------------------------------------------------

@dataclass(frozen=True)
class BreakerPolicy:
    """When a per-document :class:`CircuitBreaker` trips.

    The breaker opens when at least ``min_samples`` of the last
    ``window`` attempt outcomes are recorded and the failure fraction
    reaches ``failure_threshold``; it stays open ``reset_seconds``,
    then half-opens."""

    window: int = 20
    min_samples: int = 8
    failure_threshold: float = 0.5
    reset_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")


class CircuitBreaker:
    """Closed → open → half-open breaker over a sliding outcome window.

    Thread-safe; time comes from the injectable ``clock`` so tests can
    drive the cooldown deterministically.  In the half-open state
    traffic is allowed through: the first recorded success closes the
    breaker (window cleared), the first failure re-opens it for
    another cooldown.
    """

    def __init__(self, policy: BreakerPolicy,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._opened_at = 0.0
        self._outcomes: Deque[bool] = deque(maxlen=policy.window)

    @property
    def state(self) -> str:
        with self._lock:
            self._poll()
            return self._state

    def allow(self) -> bool:
        """True when a request may proceed (closed, or half-open
        probing)."""
        with self._lock:
            self._poll()
            return self._state != OPEN

    def retry_after(self) -> float:
        """Remaining cooldown seconds; 0 unless open."""
        with self._lock:
            self._poll()
            if self._state != OPEN:
                return 0.0
            elapsed = self._clock() - self._opened_at
            return max(self.policy.reset_seconds - elapsed, 0.0)

    def record_success(self) -> None:
        with self._lock:
            self._poll()
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._outcomes.clear()
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            self._poll()
            if self._state == HALF_OPEN:
                self._trip()
                return
            self._outcomes.append(False)
            if len(self._outcomes) < self.policy.min_samples:
                return
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) \
                    >= self.policy.failure_threshold:
                self._trip()

    def _poll(self) -> None:
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.policy.reset_seconds:
            self._state = HALF_OPEN

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._outcomes.clear()


# -- health tracking --------------------------------------------------------

@dataclass(frozen=True)
class DocumentHealth:
    """One document's health as seen by the service."""

    document: str
    status: str                       # healthy | degraded | unhealthy
    breaker_state: Optional[str]      # None without a breaker policy
    successes: int
    failures: int
    consecutive_failures: int
    last_error: Optional[str]         # code of the last failure
    probes: int
    last_probe_ok: Optional[bool]
    degraded_capable: bool            # summary available for degraded mode

    def to_dict(self) -> Dict[str, Any]:
        return {
            "document": self.document, "status": self.status,
            "breaker": self.breaker_state,
            "successes": self.successes, "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error, "probes": self.probes,
            "last_probe_ok": self.last_probe_ok,
            "degraded_capable": self.degraded_capable,
        }


@dataclass(frozen=True)
class ServiceHealth:
    """The :meth:`QueryService.health` snapshot."""

    status: str
    documents: Tuple[DocumentHealth, ...]
    quarantined: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "documents": [doc.to_dict() for doc in self.documents],
            "quarantined": list(self.quarantined),
        }

    def report(self) -> str:
        lines = [f"service    : {self.status}"]
        for doc in self.documents:
            breaker = f" breaker={doc.breaker_state}" \
                if doc.breaker_state is not None else ""
            lines.append(
                f"  {doc.document:>10}: {doc.status}{breaker} "
                f"ok={doc.successes} fail={doc.failures} "
                f"consecutive={doc.consecutive_failures}"
                + (f" last_error={doc.last_error}"
                   if doc.last_error else ""))
        if self.quarantined:
            lines.append(
                f"quarantined: {', '.join(self.quarantined)}")
        return "\n".join(lines)


class _DocumentState:
    """Mutable per-document counters (guarded by the tracker lock)."""

    def __init__(self, breaker: Optional[CircuitBreaker]) -> None:
        self.breaker = breaker
        self.successes = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self.probes = 0
        self.last_probe_ok: Optional[bool] = None


class HealthTracker:
    """Per-document health: outcome counters, breakers, probe queries.

    With a ``breaker_policy`` every tracked document gets its own
    :class:`CircuitBreaker` (created on first touch); without one,
    :meth:`breaker` returns ``None`` and tracking is purely
    observational.
    """

    def __init__(self, breaker_policy: Optional[BreakerPolicy] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 probe_query: str = "$input") -> None:
        self.breaker_policy = breaker_policy
        self.probe_query = probe_query
        self._clock = clock
        self._lock = threading.Lock()
        self._documents: Dict[str, _DocumentState] = {}

    def _state(self, document: str) -> _DocumentState:
        state = self._documents.get(document)
        if state is None:
            breaker = CircuitBreaker(self.breaker_policy, self._clock) \
                if self.breaker_policy is not None else None
            state = self._documents.setdefault(
                document, _DocumentState(breaker))
        return state

    def breaker(self, document: str) -> Optional[CircuitBreaker]:
        with self._lock:
            return self._state(document).breaker

    def record_success(self, document: str) -> None:
        with self._lock:
            state = self._state(document)
            state.successes += 1
            state.consecutive_failures = 0
            breaker = state.breaker
        if breaker is not None:
            breaker.record_success()

    def record_failure(self, document: str, error: Exception) -> None:
        with self._lock:
            state = self._state(document)
            state.failures += 1
            state.consecutive_failures += 1
            state.last_error = getattr(error, "code",
                                       type(error).__name__)
            breaker = state.breaker
        if breaker is not None:
            breaker.record_failure()

    def probe(self, document: str,
              engine_supplier: Callable[[], Any]) -> bool:
        """Run the cheap probe query against the document's engine and
        record the outcome (feeding the breaker, so a successful probe
        closes a half-open circuit without real traffic)."""
        try:
            engine = engine_supplier()
            engine.run(self.probe_query)
        except Exception as err:
            with self._lock:
                state = self._state(document)
                state.probes += 1
                state.last_probe_ok = False
            self.record_failure(document, err)
            return False
        with self._lock:
            state = self._state(document)
            state.probes += 1
            state.last_probe_ok = True
        self.record_success(document)
        return True

    def document_health(self, document: str,
                        degraded_capable: bool = False) -> DocumentHealth:
        with self._lock:
            state = self._state(document)
            breaker_state = state.breaker.state \
                if state.breaker is not None else None
            return DocumentHealth(
                document=document,
                status=self._status(state, breaker_state,
                                    degraded_capable),
                breaker_state=breaker_state,
                successes=state.successes, failures=state.failures,
                consecutive_failures=state.consecutive_failures,
                last_error=state.last_error, probes=state.probes,
                last_probe_ok=state.last_probe_ok,
                degraded_capable=degraded_capable)

    @staticmethod
    def _status(state: _DocumentState, breaker_state: Optional[str],
                degraded_capable: bool) -> str:
        if breaker_state == OPEN:
            return "degraded" if degraded_capable else "unhealthy"
        if breaker_state == HALF_OPEN or state.consecutive_failures > 0:
            return "degraded"
        return "healthy"

    def snapshot(self, quarantined: Iterable[str] = (),
                 degraded_capable: Iterable[str] = ()) -> ServiceHealth:
        """The full health snapshot.  ``degraded_capable`` names the
        documents whose summary can serve provably-empty answers while
        circuit-open (the service computes this)."""
        capable = set(degraded_capable)
        with self._lock:
            names = sorted(self._documents)
        documents = tuple(
            self.document_health(name, degraded_capable=name in capable)
            for name in names)
        quarantined = tuple(sorted(quarantined))
        status = "healthy"
        for doc in documents:
            if _STATUS_ORDER.index(doc.status) > \
                    _STATUS_ORDER.index(status):
                status = doc.status
        if quarantined and status == "healthy":
            status = "degraded"
        return ServiceHealth(status=status, documents=documents,
                             quarantined=quarantined)


# -- degraded mode: the provably-empty analyzer -----------------------------

def provably_empty(compiled, engine) -> bool:
    """True only when the structural summary *proves* the compiled
    query's result is empty.

    Sound by construction: the only emptiness source accepted is a
    bottom :class:`TupleTreePattern` whose input binds a document-root
    variable and whose pattern path the summary rejects
    (``can_match(...) is False`` — itself conservative), propagated
    upward through operators that map empty input to empty output
    (``MapToItem``, ``TreeJoin``, ``DDO``, ``Select``, nested
    patterns, ``Let`` bodies, all-empty sequences).  Any other shape —
    constants, function calls, arithmetic, unknown operators — returns
    False, so a degraded answer of ``[]`` is always byte-identical to
    what the full engine would have produced.
    """
    if not getattr(engine, "use_summary", False):
        return False
    try:
        summary = engine.document.summary
        if summary is None:
            return False
        root = [engine.document.root]
        roots = {compiled.normalized.context_var}
        roots.update(compiled.normalized.global_vars.values())
        return _item_empty(compiled.optimized, summary, root, roots)
    except Exception:
        return False


def _item_empty(plan: Plan, summary, root, roots) -> bool:
    if isinstance(plan, MapToItem):
        return _tuple_empty(plan.input, summary, root, roots)
    if isinstance(plan, (DDOPlan, TreeJoin)):
        return _item_empty(plan.input, summary, root, roots)
    if isinstance(plan, SeqPlan):
        return all(_item_empty(item, summary, root, roots)
                   for item in plan.items)
    if isinstance(plan, LetPlan):
        return _item_empty(plan.body, summary, root, roots)
    return False


def _tuple_empty(plan: Plan, summary, root, roots) -> bool:
    if isinstance(plan, TupleTreePattern):
        if _tuple_empty(plan.input, summary, root, roots):
            return True
        inner = plan.input
        if isinstance(inner, MapFromItem) \
                and isinstance(inner.input, VarPlan) \
                and inner.input.var in roots:
            # The bottom pattern evaluates against the document root:
            # the summary's verdict is authoritative (and conservative).
            return not summary.can_match(plan.pattern.path, root)
        return False
    if isinstance(plan, Select):
        return _tuple_empty(plan.input, summary, root, roots)
    return False
