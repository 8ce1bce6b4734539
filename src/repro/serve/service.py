"""The concurrent query service: the one request core, and its threads.

:class:`QueryService` turns a :class:`~repro.serve.DocumentCatalog`
into a multi-tenant query endpoint with the three properties a serving
layer needs under load:

* **bounded admission** — requests wait in a fixed-capacity queue; when
  it is full, :meth:`QueryService.submit` sheds the request immediately
  with a typed :class:`~repro.guard.ServiceOverloaded` instead of
  letting work pile up without bound (backpressure, not collapse);
* **deadlines** — a per-request ``timeout`` becomes a wall deadline
  fixed at admission.  Time spent queued counts against it; whatever
  remains when a worker picks the request up is mapped onto
  :class:`~repro.guard.Budgets` so the engine's own governor aborts a
  slow query mid-flight — one slow query cannot starve the pool;
* **request coalescing** — identical in-flight requests (same document,
  query text, strategy and optimize flag) share a single execution: the
  first becomes the *leader*, later duplicates attach to its pending
  result and are never enqueued.  Thundering herds of a hot query cost
  one evaluation.

The class is also the **request core** every transport runs on:
admission, request traces, completion, ``close`` and its sweep,
``stats``, ``health`` and ``probe`` are written here once.  A transport
supplies ``_open``, ``_start``, ``_stop`` and ``_load``; here it is a
thread pool, :class:`~repro.serve.ClusterService` is the other one
(``docs/SERVING.md``, "One request core").

Results are deterministic: workers only ever *read* the shared,
immutable engines (the plan cache and summary builds are internally
locked, see PR notes in :mod:`repro.obs` / :mod:`repro.xmltree.
document`), so a response is byte-identical to a sequential
``engine.run()`` of the same request.

On top sits the **resilience layer** (:mod:`repro.serve.resilience`,
``docs/ROBUSTNESS.md``): with a :class:`~repro.serve.RetryPolicy`
failed attempts retry with deadline-aware exponential backoff (stepping
to the next fallback strategy on deterministic errors); with a
:class:`~repro.serve.BreakerPolicy` each document gets a circuit
breaker that sheds requests at admission with a typed
:class:`~repro.guard.CircuitOpen` once the document's failure rate
trips it — and, while open, queries the structural summary *proves*
empty are still answered (``QueryResponse.degraded``).  Every caller
always sees either a correct result or a typed
:class:`~repro.guard.ReproError` — never a bare exception, never a
hang: unexpected worker exceptions are wrapped in
:class:`~repro.guard.InternalError` and :meth:`QueryService.close`
sweeps abandoned executions to :class:`~repro.guard.ServiceClosed`.
"""

from __future__ import annotations

import queue as queue_module
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..guard import (AlgorithmError, Budgets, BudgetExceeded, CircuitOpen,
                     InjectedFault, InternalError, ServiceClosed,
                     ServiceOverloaded, chaos_point, tighten)
from ..trace import FlightRecorder, FlightSnapshot, Tracer
from ..xmltree.columnar import StorageError
from .catalog import DocumentCatalog
from .metrics import ServiceMetrics, ServiceStats
from .resilience import (BreakerPolicy, DocumentHealth, FATAL,
                         HealthTracker, RetryPolicy,
                         ServiceHealth, provably_empty)

__all__ = ["QueryRequest", "QueryResponse", "PendingQuery", "QueryService"]

#: errors that count against a document's health/breaker: the engine or
#: its storage failed.  Caller errors (bad query, unknown strategy) and
#: deadline trips say nothing about the document.
_HEALTH_ERRORS = (AlgorithmError, InjectedFault, InternalError,
                  StorageError)

#: default admission-queue capacity (requests waiting for a worker).
DEFAULT_QUEUE_LIMIT = 128

#: default worker count.
DEFAULT_WORKERS = 4

_SENTINEL = object()


@dataclass(frozen=True)
class QueryRequest:
    """One query against one named catalog document."""

    document: str
    query: str
    strategy: Optional[str] = None
    #: wall-clock deadline in seconds, measured from admission (queue
    #: wait included); ``None`` inherits only the service's default
    #: budgets.
    timeout: Optional[float] = None
    optimize: bool = True

    def coalesce_key(self) -> Tuple[Hashable, ...]:
        """Requests with equal keys may share one execution.  The
        deadline is deliberately excluded: a follower rides the
        leader's execution whatever its own timeout was."""
        return (self.document, self.query, self.strategy, self.optimize)


@dataclass
class QueryResponse:
    """The outcome of one executed request (shared by coalesced
    followers — ``coalesced`` on the :class:`PendingQuery` handle, not
    here, says how *this caller* got it)."""

    request: QueryRequest
    results: Optional[List] = None
    error: Optional[Exception] = None
    #: seconds from admission to a worker picking the request up.
    queue_seconds: float = 0.0
    #: seconds the worker spent compiling + executing.
    exec_seconds: float = 0.0
    #: id of this request's span trace, when the service traces (and
    #: its sampler admitted this request); ``None`` otherwise.
    trace_id: Optional[str] = None
    #: total execution attempts (1 = no retry was needed).
    attempts: int = 1
    #: True when this is a degraded-mode answer: the document's circuit
    #: was open and the summary proved the result empty (the ``[]`` is
    #: still byte-identical to a full evaluation).
    degraded: bool = False
    #: True when this is a *partial* scatter-gather answer: some shards
    #: of a clustered execution failed and the coordinator merged the
    #: ones that succeeded (see :mod:`repro.serve.cluster`,
    #: ``allow_partial=True``).  Always False on a single-process
    #: service.
    partial: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def total_seconds(self) -> float:
        return self.queue_seconds + self.exec_seconds

    def unwrap(self) -> List:
        """The result sequence, re-raising the execution error if any."""
        if self.error is not None:
            raise self.error
        assert self.results is not None
        return self.results


class _Execution:
    """Shared state of one admitted execution (leader + followers)."""

    def __init__(self, request: QueryRequest, admitted: float,
                 deadline: Optional[float], trace=None) -> None:
        self.request = request
        self.admitted = admitted
        self.deadline = deadline
        #: the request trace, begun at admission (``None`` untraced).
        self.trace = trace
        #: set exactly once, under the admission lock (see ``_claim``).
        self.response: Optional[QueryResponse] = None
        self.done = threading.Event()
        #: followers coalesced onto this execution (admission lock).
        self.coalesced = 0


class PendingQuery:
    """A caller's handle on an admitted (or coalesced) request."""

    def __init__(self, execution: _Execution, coalesced: bool) -> None:
        self._execution = execution
        #: True when this handle attached to an identical in-flight
        #: request instead of enqueueing its own execution.
        self.coalesced = coalesced

    @property
    def request(self) -> QueryRequest:
        return self._execution.request

    def done(self) -> bool:
        return self._execution.done.is_set()

    def response(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block until the execution finishes and return its response
        (errors stay wrapped); raises :class:`TimeoutError` if it does
        not finish within ``timeout`` seconds."""
        if not self._execution.done.wait(timeout):
            raise TimeoutError(
                f"query {self.request.query!r} still pending after "
                f"{timeout} s")
        if self.coalesced:
            chaos_point("serve.wake")
        assert self._execution.response is not None
        return self._execution.response

    def result(self, timeout: Optional[float] = None) -> List:
        """Block for the result sequence, re-raising execution errors."""
        return self.response(timeout).unwrap()


def _finish_trace(trace, response: QueryResponse, **attrs: Any) -> None:
    if response.error is not None:
        trace.annotate(error=getattr(response.error, "code",
                                     type(response.error).__name__))
    trace.finish(rows=len(response.results)
                 if response.results is not None else 0, **attrs)


class QueryService:
    """A thread-pool query service over a :class:`DocumentCatalog`.

    ::

        catalog = DocumentCatalog()
        catalog.add_xml("site", "<site>...</site>")
        with QueryService(catalog, workers=4, queue_limit=64) as service:
            names = service.query("site", "$input//person/name")

    ``default_budgets`` apply to every request (per-request deadlines
    tighten, never loosen, the wall budget).  ``queue_limit`` bounds the
    *waiting* requests only; in-flight executions are bounded by
    ``workers``.

    With a ``tracer`` attached, every admitted request the sampler
    accepts gets a root ``request`` span covering queue wait and
    execution (``QueryResponse.trace_id`` identifies it), and finished
    traces are retained in a :class:`~repro.trace.FlightRecorder`
    (supply your own to size it; snapshot via
    :meth:`flight_recorder`).
    """

    def __init__(self, catalog: DocumentCatalog,
                 workers: int = DEFAULT_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 default_budgets: Optional[Budgets] = None,
                 clock=time.perf_counter,
                 tracer: Optional[Tracer] = None,
                 flight_recorder: Optional[FlightRecorder] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 degraded_mode: bool = True,
                 retry_seed: int = 0) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.catalog = catalog
        self.queue_limit = queue_limit
        self.default_budgets = default_budgets
        self.metrics = ServiceMetrics(clock=clock)
        self.retry_policy = retry_policy
        self.breaker_policy = breaker_policy
        #: with a breaker, serve provably-empty answers while open.
        self.degraded_mode = degraded_mode
        self.health_tracker = HealthTracker(breaker_policy=breaker_policy,
                                            clock=clock)
        self._retry_rng = random.Random(retry_seed)
        self.tracer = tracer
        if flight_recorder is None and tracer is not None:
            flight_recorder = FlightRecorder()
        self._flight = flight_recorder
        self._clock = clock
        self._inflight: Dict[Tuple[Hashable, ...], _Execution] = {}
        self._admission_lock = threading.Lock()
        self._closed = False
        self._workers = self._open(workers)

    # -- admission ----------------------------------------------------------

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit, coalesce or shed a request (never blocks on a thread
        pool; a cluster dispatches from the calling thread).

        Raises :class:`~repro.guard.ServiceOverloaded` when the
        admission queue is full, :class:`~repro.guard.ServiceClosed`
        after :meth:`close`, and :class:`~repro.guard.CircuitOpen` when
        the document's breaker is open and the answer is not provably
        empty (degraded mode, see :mod:`repro.serve.resilience`).
        """
        self.metrics.record_submitted()
        chaos_point("serve.admit")
        breaker = self.health_tracker.breaker(request.document) \
            if self.breaker_policy is not None else None
        if breaker is not None and not breaker.allow():
            # Open circuit: shed at admission — no queue slot, no
            # worker.  (A duplicate that could have coalesced is shed
            # too; with the circuit open there is normally no leader to
            # ride anyway.)
            response = self._degraded_response(request)
            if response is not None:
                self.metrics.record_accepted()
                self.metrics.record_degraded()
                execution = _Execution(request, self._clock(), None)
                self._complete(execution, response)
                return PendingQuery(execution, coalesced=False)
            self.metrics.record_breaker_rejected()
            retry_after = breaker.retry_after()
            raise CircuitOpen(
                f"document {request.document!r} circuit is open "
                f"(retry in {retry_after:.2f} s)",
                document=request.document,
                retry_after_seconds=retry_after)
        key = request.coalesce_key()
        with self._admission_lock:
            if self._closed:
                raise ServiceClosed("query service is closed")
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.record_coalesced()
                existing.coalesced += 1
                return PendingQuery(existing, coalesced=True)
            admitted = self._clock()
            deadline = None
            if request.timeout is not None:
                deadline = admitted + request.timeout
            execution = _Execution(request, admitted, deadline,
                                   self._begin_trace(request))
            self._inflight[key] = execution
        # Outside the lock: a cluster dispatches here, and an inline
        # worker completes the execution before _start returns.
        try:
            self._start(execution)
        except Exception as err:
            self._refuse(execution, err)
            raise
        self.metrics.record_accepted()
        return PendingQuery(execution, coalesced=False)

    def query(self, document: str, query: str,
              strategy: Optional[str] = None,
              timeout: Optional[float] = None,
              optimize: bool = True) -> List:
        """Submit one request and block for its results."""
        pending = self.submit(QueryRequest(document=document, query=query,
                                           strategy=strategy,
                                           timeout=timeout,
                                           optimize=optimize))
        return pending.result()

    def _begin_trace(self, request: QueryRequest):
        if self.tracer is None:
            return None
        return self.tracer.begin(
            "request", document=request.document, query=request.query,
            strategy=request.strategy or "default")

    # -- completion ---------------------------------------------------------

    def _claim(self, execution: _Execution,
               response: QueryResponse) -> bool:
        """Set ``response`` unless the execution already has one (a
        sweep or a refusal got there first) and stop coalescing onto
        it.  True when this caller owns the completion."""
        key = execution.request.coalesce_key()
        with self._admission_lock:
            if execution.response is not None:
                return False
            execution.response = response
            if self._inflight.get(key) is execution:
                del self._inflight[key]
            return True

    def _complete(self, execution: _Execution,
                  response: QueryResponse) -> None:
        """Finish an execution exactly once, whichever transport ran it:
        trace, flight recorder, metrics, then wake the leader and every
        coalesced follower."""
        if not self._claim(execution, response):
            return
        trace = execution.trace
        if trace is not None:
            response.trace_id = trace.trace_id
            _finish_trace(trace, response, coalesced=execution.coalesced)
            if self._flight is not None:
                self._flight.record(trace, latency=response.total_seconds)
        error = response.error
        self.metrics.record_done(
            latency_seconds=response.total_seconds,
            queue_seconds=response.queue_seconds,
            failed=error is not None,
            deadline_expired=isinstance(error, BudgetExceeded)
            and error.kind == "wall")
        execution.done.set()

    def _refuse(self, execution: _Execution, error: Exception) -> None:
        """The transport could not start an admitted execution: it is
        shed, not accepted, and followers that coalesced onto it
        meanwhile get the same error."""
        if isinstance(error, ServiceOverloaded):
            self.metrics.record_shed()
        response = QueryResponse(request=execution.request, error=error)
        if self._claim(execution, response):
            if execution.trace is not None:
                _finish_trace(execution.trace, response)
            execution.done.set()

    # -- the thread-pool transport ------------------------------------------

    def _open(self, workers: int) -> List[Any]:
        """Transport hook: start the pool (here, threads reading the
        admission queue)."""
        self._queue: "queue_module.Queue[Any]" = \
            queue_module.Queue(maxsize=self.queue_limit)
        threads = [threading.Thread(target=self._worker_loop,
                                    name=f"repro-serve-{index}",
                                    daemon=True)
                   for index in range(workers)]
        for thread in threads:
            thread.start()
        return threads

    def _start(self, execution: _Execution) -> None:
        """Transport hook: hand an admitted execution to the pool, or
        raise :class:`~repro.guard.ServiceOverloaded`."""
        try:
            self._queue.put_nowait(execution)
        except queue_module.Full:
            raise ServiceOverloaded(
                f"admission queue full ({self.queue_limit} waiting); "
                f"request shed — retry later or lower concurrency",
                queue_depth=self._queue.qsize(),
                queue_limit=self.queue_limit) from None

    def _stop(self, drain: bool) -> None:
        """Transport hook: stop the pool.  Without ``drain``, requests
        still queued fail with :class:`~repro.guard.ServiceClosed`."""
        if not drain:
            while True:
                try:
                    execution = self._queue.get_nowait()
                except queue_module.Empty:
                    break
                self._queue.task_done()
                self._complete(execution, QueryResponse(
                    request=execution.request,
                    error=ServiceClosed("service closed before execution")))
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for thread in self._workers:
            thread.join()

    def _load(self) -> Tuple[int, int]:
        """Transport hook for :meth:`stats`: (waiting, executing); an
        admitted execution that is not waiting is executing."""
        with self._admission_lock:
            waiting = self._queue.qsize()
            return waiting, max(0, len(self._inflight) - waiting)

    def _worker_loop(self) -> None:
        while True:
            execution = self._queue.get()
            if execution is _SENTINEL:
                self._queue.task_done()
                return
            try:
                self._run(execution)
            finally:
                self._queue.task_done()

    def _run(self, execution: _Execution) -> None:
        started = self._clock()
        queue_seconds = started - execution.admitted
        response = QueryResponse(request=execution.request,
                                 queue_seconds=queue_seconds)
        try:
            # Everything runs inside this try: an exception anywhere
            # before completion must become a typed response, never a
            # dead worker with hanging waiters (the shutdown/coalesce
            # regression).
            trace = execution.trace
            if trace is not None:
                trace.add_span("queue", start=trace.root.start,
                               duration=queue_seconds)
            self._attempt_loop(execution, response, started)
        except Exception as err:  # typed errors travel to the waiters
            response.error = InternalError.wrap(
                err, f"while serving {execution.request.query!r}")
        finally:
            response.exec_seconds = self._clock() - started
            if response.error is None and response.results is None:
                # A BaseException (worker being killed) skipped both
                # branches above: complete the execution typed rather
                # than leave the waiters hanging.
                response.error = InternalError(
                    "execution aborted before completion")
            self._complete(execution, response)

    def _attempt_loop(self, execution: _Execution,
                      response: QueryResponse, started: float) -> None:
        """Execute the request, retrying per :attr:`retry_policy`.

        Transient faults retry on the same strategy; nothing else
        retries, since the engine's own fallback chain has already
        stepped down the strategies.  No retry ever starts when its
        backoff would cross the admission deadline.  Attempt outcomes
        feed the document's health/breaker.
        """
        request = execution.request
        trace = execution.trace
        remaining = None
        if execution.deadline is not None:
            remaining = execution.deadline - started
            if remaining <= 0:
                # The deadline lapsed while queued: charge the wait,
                # skip the execution entirely.
                raise BudgetExceeded.lapsed(request.timeout,
                                            response.queue_seconds)
        policy = self.retry_policy
        attempt = 0
        while True:
            attempt += 1
            response.attempts = attempt
            try:
                chaos_point("serve.execute")
                engine = self.catalog.engine(request.document)
                if execution.deadline is not None:
                    remaining = execution.deadline - self._clock()
                    if remaining <= 0:
                        raise BudgetExceeded.lapsed(
                            request.timeout,
                            self._clock() - execution.admitted)
                compiled = engine.compile(request.query,
                                          optimize=request.optimize,
                                          tracing=trace)
                response.results = engine.execute(
                    compiled, strategy=request.strategy,
                    optimized=request.optimize,
                    budgets=tighten(self.default_budgets, remaining),
                    tracing=trace)
            except Exception as err:
                err = InternalError.wrap(
                    err, f"while serving {request.query!r}")
                if isinstance(err, _HEALTH_ERRORS):
                    self.health_tracker.record_failure(request.document,
                                                       err)
                backoff = self._retry_backoff(policy, err, attempt,
                                              execution)
                if backoff is None:
                    raise err
                self.metrics.record_retried()
                if trace is not None:
                    trace.event("retry", attempt=attempt,
                                error_code=err.code,
                                strategy=request.strategy or "default",
                                backoff_ms=round(backoff * 1e3, 3))
                if backoff > 0:
                    time.sleep(backoff)
            else:
                self.health_tracker.record_success(request.document)
                return

    def _retry_backoff(self, policy: Optional[RetryPolicy],
                       err: Exception, attempt: int,
                       execution: _Execution) -> Optional[float]:
        """Backoff seconds before the next attempt, or ``None`` to give
        up (no policy, attempts exhausted, fatal error, or the sleep
        would cross the admission deadline)."""
        if policy is None or attempt >= policy.max_attempts:
            return None
        if policy.classify(err) == FATAL:
            return None
        backoff = policy.delay(attempt, self._retry_rng)
        if execution.deadline is not None and \
                self._clock() + backoff >= execution.deadline:
            return None
        return backoff

    def _degraded_response(self,
                           request: QueryRequest) -> Optional[QueryResponse]:
        """A provably-empty ``[]`` answer servable while the circuit is
        open, or ``None`` when the summary cannot prove emptiness (the
        engine must already be built — degraded mode never triggers the
        possibly-poisoned load path)."""
        if not self.degraded_mode:
            return None
        engine = self.catalog.engine_if_built(request.document)
        if engine is None:
            return None
        try:
            compiled = engine.compile(request.query, optimize=True)
            if not provably_empty(compiled, engine):
                return None
        except Exception:
            return None
        return QueryResponse(request=request, results=[], degraded=True)

    # -- introspection ------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters (see
        :class:`~repro.serve.metrics.ServiceStats`)."""
        queue_depth, in_flight = self._load()
        return self.metrics.stats(queue_depth=queue_depth,
                                  in_flight=in_flight)

    def flight_recorder(self) -> Optional[FlightSnapshot]:
        """A snapshot of the retained request traces (the K slowest and
        most recent); ``None`` when the service runs untraced."""
        if self._flight is None:
            return None
        return self._flight.snapshot()

    def health(self) -> ServiceHealth:
        """Per-document health: outcome counters, breaker states, the
        catalog's quarantined set, and whether each document can serve
        degraded (provably-empty) answers while circuit-open."""
        return self.health_tracker.snapshot(
            quarantined=self.catalog.quarantined_names(),
            degraded_capable=self._degraded_capable())

    def probe(self, document: str) -> DocumentHealth:
        """Run the health tracker's probe query against ``document``
        and return its refreshed health.  A successful probe closes a
        half-open breaker without waiting for real traffic."""
        self.health_tracker.probe(
            document, lambda: self.catalog.engine(document))
        return self.health_tracker.document_health(
            document,
            degraded_capable=document in self._degraded_capable())

    def _degraded_capable(self) -> set:
        if not self.degraded_mode:
            return set()
        capable = set()
        for name in self.catalog.names():
            engine = self.catalog.engine_if_built(name)
            if engine is not None and engine.use_summary:
                capable.add(name)
        return capable

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admitting requests and shut the workers down.

        With ``drain=True`` (default) queued requests finish first;
        with ``drain=False`` still-queued requests fail with
        :class:`~repro.guard.ServiceClosed`.  Idempotent.
        """
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        self._stop(drain)
        # Sweep what the transport left behind: requests that slipped in
        # after it stopped, and anything a dead worker abandoned —
        # queued executions it never picked up and in-flight ones it
        # never completed (with their coalesced followers).  Waiters
        # get a typed ServiceClosed instead of hanging forever.
        with self._admission_lock:
            abandoned = list(self._inflight.values())
        for execution in abandoned:
            self._complete(execution, QueryResponse(
                request=execution.request,
                error=ServiceClosed(
                    "service closed before the execution completed")))

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
