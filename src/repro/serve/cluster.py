"""Multi-process sharded serving: scatter-gather over columnar shards.

:class:`ClusterService` is the process-parallel sibling of
:class:`~repro.serve.QueryService`: instead of a thread pool sharing
one in-process engine (GIL-bound), it drives a pool of **worker
processes** (:mod:`repro.serve.worker`), each mmap-opening the same
saved columnar shards read-only — the page cache is shared, so N
workers cost one copy of the columns — and runs queries either

* **scattered**: a shardable query is dispatched once per shard of its
  document, evaluated shard-locally (the shards are subtree-closed, see
  :mod:`repro.xmltree.shard`) and the partial results **k-way merged by
  global pre number** — byte-identical to a single-process evaluation;
* **whole-document**: everything else (positional predicates, FLWOR,
  aggregates, patterns whose predicates could need cross-shard
  witnesses) runs as one task on one worker against the full index.
  Requests still parallelize across the pool.

The **scatter planner** (:func:`scatter_plan`) is deliberately
conservative, in the style of
:func:`~repro.serve.resilience.provably_empty`: it admits exactly the
optimized plan shape ``[DDO*] MapToItem(FieldAccess, TupleTreePattern(
pattern, MapFromItem(bind, Var)))`` with downward axes only (child /
descendant / attribute), no positional steps, and no predicated first
step that could match the **root element** — the one node whose
children are split across shards, so an existential witness for it may
live in a different shard than the match.  Anything it cannot prove
shard-safe runs whole-document; wrong answers are never on the menu.

Coordination details:

* **protocol** — length-prefixed pickle frames over the worker's
  stdin/stdout pipes (:func:`~repro.serve.worker.send_frame`);
  ``transport="inline"`` runs the same frame codec and worker code
  in-process for fast differential tests;
* **deadlines** — per-shard deadlines are derived **tighten-only** from
  the admission deadline: each task ships the remaining wall seconds at
  dispatch, which the worker maps onto its engine's
  :class:`~repro.guard.Budgets`;
* **errors** — workers reply with pickled typed REPRO-* errors
  (:mod:`repro.guard.errors` round-trips the whole taxonomy); a dead
  worker surfaces as :class:`~repro.guard.WorkerLost`, its in-flight
  tasks are re-dispatched once, and the pool **respawns** the worker;
* **resilience** — per-worker circuit breakers
  (:class:`~repro.serve.resilience.CircuitBreaker`) steer dispatch away
  from flapping workers; with ``allow_partial=True`` a scatter whose
  shards partially failed still answers with the merged successes and
  ``QueryResponse.partial=True``;
* **chaos** — sites ``cluster.dispatch`` / ``cluster.gather`` fire in
  the coordinator; worker processes re-activate the configured specs
  with seed ``base + worker_index``
  (:func:`~repro.guard.worker_seed`), so ``REPRO_CHAOS_SEED`` sweeps
  are reproducible across the pool;
* **tracing** — one coordinator root span per request plus one
  ``shard`` child span per task (worker-measured duration), stitched
  under the same trace id.

See ``docs/CLUSTER.md`` for the architecture and ``benchmarks/
bench_serve.py`` (E13) for the scaling numbers.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.ops import (DDOPlan, FieldAccess, MapFromItem, MapToItem,
                           TupleTreePattern, VarPlan)
from ..guard import (BudgetExceeded, Budgets, ChaosSpec, CircuitOpen,
                     InjectedFault, InternalError, ReproError,
                     ServiceClosed, ServiceOverloaded, WorkerLost,
                     chaos_point, default_seed)
from ..pattern.tree import PatternPath, TreePattern
from ..trace import (FlightRecorder, FlightSnapshot, TraceContext,
                     Tracer, graft_remote)
from ..xmltree.axes import Axis
from ..xmltree.nodetest import NameTest, TextTest
from ..xmltree.shard import ShardManifest, write_shard_layout
from .catalog import DocumentCatalog
from .metrics import LatencyHistogram, ServiceMetrics, ServiceStats
from .resilience import BreakerPolicy, CircuitBreaker
from .service import (DEFAULT_QUEUE_LIMIT, PendingQuery, QueryRequest,
                      QueryResponse)
from .worker import ShardWorker, recv_frame, send_frame

__all__ = ["ClusterLayout", "ClusterService", "ClusterStats",
           "WorkerStats", "merge_shard_results", "scatter_plan"]

#: axes a scatterable pattern may use: strictly downward, strictly
#: depth-increasing (SELF / DESCENDANT_OR_SELF would let deep steps
#: match the replicated spine, breaking the depth argument below).
_SCATTER_AXES = (Axis.CHILD, Axis.DESCENDANT, Axis.ATTRIBUTE)


# -- layout ------------------------------------------------------------------


@dataclass
class ClusterLayout:
    """The on-disk shard layouts one cluster serves: per document name,
    a :class:`~repro.xmltree.shard.ShardManifest` in ``directory``."""

    directory: str
    manifests: Dict[str, ShardManifest] = field(default_factory=dict)

    @classmethod
    def build(cls, documents: Dict[str, Any], directory: str,
              shard_count: int) -> "ClusterLayout":
        """Shard every document's columns into ``directory`` (see
        :func:`~repro.xmltree.shard.write_shard_layout`)."""
        layout = cls(directory=os.path.abspath(directory))
        for name, columns in documents.items():
            manifest_path = write_shard_layout(columns, layout.directory,
                                               name, shard_count)
            layout.manifests[name] = ShardManifest.load(manifest_path)
        return layout

    @classmethod
    def load(cls, directory: str) -> "ClusterLayout":
        """Scan ``directory`` for ``*.manifest.json`` files."""
        layout = cls(directory=os.path.abspath(directory))
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".manifest.json"):
                manifest = ShardManifest.load(
                    os.path.join(directory, entry))
                layout.manifests[manifest.name] = manifest
        return layout

    def worker_documents(self) -> Dict[str, Dict[str, str]]:
        """The ``documents`` section of a worker init frame."""
        return {name: {"directory": self.directory,
                       "manifest": f"{name}.manifest.json"}
                for name in self.manifests}


# -- scatter planner ---------------------------------------------------------


def scatter_plan(compiled, root_tag: str) -> bool:
    """True when the compiled query's **optimized** plan can be
    evaluated independently per shard and merged by pre number.

    Conservative by construction: admits only the canonical path shape
    (an optional DDO stack over ``MapToItem(FieldAccess(out),
    TupleTreePattern(pattern, MapFromItem(bind, $external)))``) whose
    pattern is downward, position-free, and whose first step cannot be
    a predicated match of the root element (the only non-attribute node
    whose subtree spans shards; ``root_tag`` names it).  Everything
    else — aggregates, FLWOR, positional predicates, Select stacks —
    returns False and runs whole-document.
    """
    plan = compiled.optimized
    while isinstance(plan, DDOPlan):
        plan = plan.input
    if not isinstance(plan, MapToItem):
        return False
    dep = plan.dep
    if not isinstance(dep, FieldAccess):
        return False
    pattern_op = plan.input
    if not isinstance(pattern_op, TupleTreePattern):
        return False
    source = pattern_op.input
    if not isinstance(source, MapFromItem) \
            or source.index_field is not None:
        return False
    if not isinstance(source.input, VarPlan) \
            or source.input.var.origin != "external":
        # Only the engine-bound document root is replicated into every
        # shard; anything else anchors the pattern unpredictably.
        return False
    pattern = pattern_op.pattern
    if source.bind_field != pattern.input_field:
        return False
    if not pattern.is_single_output_at_extraction_point():
        return False
    if pattern.extraction_point.output_field != dep.field:
        return False
    return _pattern_scatterable(pattern, root_tag)


def _pattern_scatterable(pattern: TreePattern, root_tag: str) -> bool:
    if not _path_downward(pattern.path):
        return False
    first = pattern.path.steps[0]
    # Only the first main-path step can match the root element (every
    # admitted axis strictly increases depth, and the context — the
    # document node — sits at depth 0).  A predicate there may need a
    # witness from a child subtree living in another shard.
    if first.predicates and first.axis in (Axis.CHILD, Axis.DESCENDANT) \
            and _may_match_root(first.test, root_tag):
        return False
    return True


def _path_downward(path: PatternPath) -> bool:
    for step in path.steps:
        if step.axis not in _SCATTER_AXES:
            return False
        if step.position is not None:
            return False
        for predicate in step.predicates:
            if not _path_downward(predicate):
                return False
    return True


def _may_match_root(test, root_tag: str) -> bool:
    if isinstance(test, TextTest):
        return False
    if isinstance(test, NameTest):
        return test.name == root_tag
    # Wildcards, kind tests, anything else: assume it can.
    return True


# -- merge -------------------------------------------------------------------


def merge_shard_results(
        streams: Sequence[Sequence[Tuple[str, int]]]) -> List[int]:
    """K-way merge shard result streams into one global-pre list.

    Each stream is the encoded result of one shard — ``("n",
    global_pre)`` pairs in strictly increasing pre order (shard-local
    document order maps monotonically onto global order).  Spine nodes
    appear in several streams; duplicates are dropped, so the merged
    list is exactly the distinct-document-order union.
    """
    merged: List[int] = []
    last = -1
    for tag, pre in heapq.merge(*streams, key=lambda item: item[1]):
        if tag != "n":
            raise InternalError(
                f"scatter stream carries a non-node item tagged "
                f"{tag!r}; the scatter planner admitted a plan it "
                f"should not have")
        if pre != last:
            merged.append(pre)
            last = pre
    return merged


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class WorkerStats:
    """One worker's counters at snapshot time."""

    index: int
    pid: Optional[int]
    alive: bool
    dispatched: int
    completed: int
    failed: int
    queue_depth: int
    breaker_state: str
    #: cumulative worker-self-measured task execution seconds — the
    #: per-worker utilization series on ``/metrics``.
    busy_seconds: float = 0.0


@dataclass
class ClusterStats:
    """Cluster-level counters next to the base :class:`ServiceStats`."""

    workers: List[WorkerStats]
    respawns: int
    partials: int
    scattered: int
    whole_document: int
    #: per ``document/shard`` latency histograms (worker-measured
    #: execution seconds; shard ``-1`` is the whole-document path).
    shard_latency: Dict[str, LatencyHistogram]

    def report(self) -> str:
        lines = [
            f"cluster    : {len(self.workers)} workers, "
            f"respawns={self.respawns} scattered={self.scattered} "
            f"whole={self.whole_document} partials={self.partials}",
        ]
        for worker in self.workers:
            lines.append(
                f"worker {worker.index}   : "
                f"{'alive' if worker.alive else 'dead '} "
                f"pid={worker.pid} dispatched={worker.dispatched} "
                f"completed={worker.completed} failed={worker.failed} "
                f"queue={worker.queue_depth} "
                f"breaker={worker.breaker_state}")
        for key in sorted(self.shard_latency):
            histogram = self.shard_latency[key]
            if histogram.count:
                lines.append(
                    f"shard {key}: n={histogram.count} "
                    f"p50={histogram.quantile(0.5) * 1e3:.2f}ms "
                    f"p95={histogram.quantile(0.95) * 1e3:.2f}ms")
        return "\n".join(lines)


class _ClusterMetrics:
    """Thread-safe per-worker / per-shard counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.dispatched: Dict[int, int] = {}
        self.completed: Dict[int, int] = {}
        self.failed: Dict[int, int] = {}
        self.busy_seconds: Dict[int, float] = {}
        self.respawns = 0
        self.partials = 0
        self.scattered = 0
        self.whole_document = 0
        self.shard_latency: Dict[str, LatencyHistogram] = {}

    def record_dispatched(self, worker: int) -> None:
        with self._lock:
            self.dispatched[worker] = self.dispatched.get(worker, 0) + 1

    def record_result(self, worker: int, document: str, shard: Optional[int],
                      seconds: float, ok: bool) -> None:
        key = f"{document}/{-1 if shard is None else shard}"
        with self._lock:
            if ok:
                self.completed[worker] = self.completed.get(worker, 0) + 1
            else:
                self.failed[worker] = self.failed.get(worker, 0) + 1
            self.busy_seconds[worker] = \
                self.busy_seconds.get(worker, 0.0) + seconds
            histogram = self.shard_latency.get(key)
            if histogram is None:
                histogram = self.shard_latency[key] = LatencyHistogram()
        histogram.record(seconds)

    def record_respawn(self) -> None:
        with self._lock:
            self.respawns += 1

    def record_partial(self) -> None:
        with self._lock:
            self.partials += 1

    def record_mode(self, scattered: bool) -> None:
        with self._lock:
            if scattered:
                self.scattered += 1
            else:
                self.whole_document += 1


# -- executions and tasks ----------------------------------------------------


class _ClusterExecution:
    """Shared state of one admitted request (drop-in for the
    :class:`~repro.serve.service.PendingQuery` handle: ``done``,
    ``response``, ``request``, ``coalesced``)."""

    def __init__(self, request: QueryRequest, admitted: float,
                 deadline: Optional[float], scattered: bool) -> None:
        self.request = request
        self.admitted = admitted
        self.deadline = deadline
        self.scattered = scattered
        self.response: Optional[QueryResponse] = None
        self.done = threading.Event()
        self.coalesced = 0
        self.pending = 0
        self.tasks: List["_Task"] = []
        self.trace = None


class _Task:
    """One dispatched unit: a (document, shard) evaluation."""

    __slots__ = ("task_id", "execution", "shard", "worker", "dispatched",
                 "received", "exec_seconds", "ok", "items", "error",
                 "retried", "finished", "remote_trace")

    def __init__(self, task_id: int, execution: _ClusterExecution,
                 shard: Optional[int]) -> None:
        self.task_id = task_id
        self.execution = execution
        self.shard = shard
        self.worker = -1
        self.dispatched = 0.0
        #: coordinator-clock instant the result frame arrived (0.0 when
        #: the task failed without one) — with ``dispatched`` it bounds
        #: the dispatch→first-frame wait on ONE clock.
        self.received = 0.0
        self.exec_seconds = 0.0
        self.ok = False
        self.items: Optional[List[Tuple[str, Any]]] = None
        self.error: Optional[Exception] = None
        self.retried = False
        self.finished = False
        #: packed worker span payload (:func:`repro.trace.pack_trace`)
        #: when the request was sampled and the worker replied with one.
        self.remote_trace: Optional[Dict[str, Any]] = None


# -- transports --------------------------------------------------------------


class _ProcessTransport:
    """A worker subprocess plus its reader thread."""

    def __init__(self, service: "ClusterService", index: int) -> None:
        self.service = service
        self.index = index
        self._write_lock = threading.Lock()
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = package_root if not existing \
            else package_root + os.pathsep + existing
        # -c instead of -m: the package __init__ imports .worker, and
        # runpy warns when the -m target is already in sys.modules.
        self.process = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.serve.worker import main; "
             "sys.exit(main())"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=None, env=env, cwd=service.layout.directory)
        self.reader = threading.Thread(
            target=self._reader_loop,
            name=f"repro-cluster-reader-{index}", daemon=True)
        #: set by the reader thread when the worker's pipe ends.
        self._dead = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return not self._dead

    def start(self, init: Dict[str, Any]) -> None:
        self.send(init)
        self.reader.start()

    def send(self, message: Dict[str, Any]) -> None:
        with self._write_lock:
            send_frame(self.process.stdin, message)

    def _reader_loop(self) -> None:
        stream = self.process.stdout
        try:
            while True:
                message = recv_frame(stream)
                if message is None:
                    break
                self.service._on_frame(self.index, message)
        except Exception:
            pass
        self._dead = True
        self.service._on_worker_exit(self.index, self)

    def shutdown(self) -> None:
        try:
            self.send({"type": "shutdown"})
        except Exception:
            pass
        try:
            self.process.stdin.close()
        except Exception:
            pass

    def reap(self, timeout: float = 5.0) -> None:
        """Wait for exit, escalating to terminate/kill — the no-orphan
        guarantee behind the CI leak check."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            self.process.stdout.close()
        except Exception:
            pass
        if self.reader.is_alive() and self.reader is not \
                threading.current_thread():
            self.reader.join(timeout=2.0)


class _InlineTransport:
    """The worker code path without the process: frames still go
    through the pickle codec (wire fidelity), execution is synchronous
    in the caller's thread.  For tests — fast, deterministic, and the
    ambient in-process chaos injector applies."""

    def __init__(self, service: "ClusterService", index: int) -> None:
        self.service = service
        self.index = index
        self.worker: Optional[ShardWorker] = None
        self._closed = False

    @property
    def pid(self) -> Optional[int]:
        return os.getpid()

    def alive(self) -> bool:
        return not self._closed

    def start(self, init: Dict[str, Any]) -> None:
        init = pickle.loads(pickle.dumps(init))
        self.worker = ShardWorker.from_init(init)

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed:
            raise BrokenPipeError("inline worker is closed")
        message = pickle.loads(pickle.dumps(message))
        if message.get("type") == "task":
            result = self.worker.handle(message)
            self.service._on_frame(self.index,
                                   pickle.loads(pickle.dumps(result)))

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            if self.worker is not None:
                self.worker.close()

    def reap(self, timeout: float = 5.0) -> None:
        self.shutdown()


# -- the coordinator ---------------------------------------------------------


class ClusterService:
    """Scatter-gather query service over a pool of worker processes.

    ::

        layout = ClusterLayout.build({"site": doc.columns}, tmp, 4)
        with ClusterService(layout, workers=4) as cluster:
            names = cluster.query("site", "$input//person/name")

    The surface mirrors :class:`~repro.serve.QueryService` — ``submit``
    / ``query`` / ``stats`` / ``close(drain=)``, typed REPRO-* errors,
    tighten-only deadlines — so the load generator and benchmarks drive
    either interchangeably.  ``catalog`` supplies the engines used for
    the scatter decision and node rehydration; when omitted, one is
    built from the layout's full indexes (and closed with the
    service).
    """

    def __init__(self, layout: ClusterLayout,
                 workers: int = 4,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 catalog: Optional[DocumentCatalog] = None,
                 transport: str = "process",
                 backend: str = "interpreted",
                 use_summary: bool = True,
                 default_budgets: Optional[Budgets] = None,
                 clock=time.perf_counter,
                 tracer: Optional[Tracer] = None,
                 flight_recorder: Optional[FlightRecorder] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 allow_partial: bool = False,
                 scatter: bool = True,
                 placement: str = "replicate",
                 respawn: bool = True,
                 chaos_specs: Sequence[ChaosSpec] = (),
                 chaos_seed: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if transport not in ("process", "inline"):
            raise ValueError(f"unknown transport {transport!r}; "
                             f"valid: process, inline")
        if placement not in ("replicate", "partition"):
            raise ValueError(f"unknown placement {placement!r}; "
                             f"valid: replicate, partition")
        self.layout = layout
        self.queue_limit = queue_limit
        self.transport = transport
        self.backend = backend
        self.use_summary = use_summary
        self.default_budgets = default_budgets
        self.allow_partial = allow_partial
        self.scatter = scatter
        self.placement = placement
        self.respawn = respawn
        self.breaker_policy = breaker_policy
        self._chaos_specs = tuple(chaos_specs)
        self._chaos_seed = chaos_seed
        self._clock = clock
        self.tracer = tracer
        if flight_recorder is None and tracer is not None:
            flight_recorder = FlightRecorder()
        self._flight = flight_recorder
        self.metrics = ServiceMetrics(clock=clock)
        self.cluster_metrics = _ClusterMetrics()
        self._owns_catalog = catalog is None
        if catalog is None:
            catalog = DocumentCatalog()
            for name, manifest in layout.manifests.items():
                catalog.add_columnar_file(
                    name,
                    os.path.join(layout.directory, manifest.index_file),
                    verify=False)
        self.catalog = catalog
        self._owned_directory: Optional[str] = None

        self._lock = threading.Lock()
        self._closed = False
        self._next_task_id = 0
        self._tasks: Dict[int, _Task] = {}
        self._inflight_per_worker: Dict[int, int] = \
            {index: 0 for index in range(workers)}
        self._rr = 0
        self._breakers: Dict[int, CircuitBreaker] = {}
        if breaker_policy is not None:
            self._breakers = {
                index: CircuitBreaker(breaker_policy, clock=clock)
                for index in range(workers)}
        self._workers: List[Any] = []
        for index in range(workers):
            self._workers.append(self._spawn(index))

    # -- pool management -----------------------------------------------------

    def _spawn(self, index: int):
        transport = _ProcessTransport(self, index) \
            if self.transport == "process" \
            else _InlineTransport(self, index)
        transport.start(self._init_message(index))
        return transport

    def _init_message(self, index: int) -> Dict[str, Any]:
        chaos = None
        if self._chaos_specs and self.transport == "process":
            chaos = {"specs": list(self._chaos_specs),
                     "seed": default_seed() if self._chaos_seed is None
                     else self._chaos_seed}
        return {"type": "init", "worker_index": index,
                "documents": self.layout.worker_documents(),
                "engine": {"backend": self.backend,
                           "use_summary": self.use_summary,
                           "default_budgets": self.default_budgets},
                "chaos": chaos}

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[Optional[int]]:
        return [transport.pid for transport in self._workers]

    @property
    def closed(self) -> bool:
        return self._closed

    # -- admission -----------------------------------------------------------

    def submit(self, request: QueryRequest) -> PendingQuery:
        """Admit a request: decide scatter vs whole-document, dispatch
        its tasks, and return a waitable handle.  Sheds with
        :class:`~repro.guard.ServiceOverloaded` when the in-flight task
        count reaches ``queue_limit``; raises
        :class:`~repro.guard.CircuitOpen` when every worker's breaker
        is open."""
        self.metrics.record_submitted()
        manifest = self.layout.manifests.get(request.document)
        if manifest is None:
            raise ReproError(
                f"unknown cluster document {request.document!r}; "
                f"known: {sorted(self.layout.manifests)}",
                code="REPRO-CLUSTER-DOCUMENT")
        admitted = self._clock()
        deadline = admitted + request.timeout \
            if request.timeout is not None else None

        scattered = False
        if self.scatter and self.placement == "replicate" \
                and request.optimize and manifest.shard_count > 1:
            try:
                engine = self.catalog.engine(request.document)
                compiled = engine.compile(request.query,
                                          optimize=True)
            except ReproError as err:
                return self._fail_immediately(request, admitted, err)
            scattered = scatter_plan(compiled, manifest.root_tag)

        execution = _ClusterExecution(request, admitted, deadline,
                                      scattered)
        shards: List[Optional[int]] = \
            list(range(manifest.shard_count)) if scattered else [None]
        with self._lock:
            if self._closed:
                raise ServiceClosed("cluster service is closed")
            pending_total = len(self._tasks)
            if pending_total + len(shards) > self.queue_limit:
                self.metrics.record_shed()
                raise ServiceOverloaded(
                    f"cluster task queue full ({pending_total} in "
                    f"flight, limit {self.queue_limit}); request shed",
                    queue_depth=pending_total,
                    queue_limit=self.queue_limit)
            targets = []
            for shard in shards:
                worker = self._pick_worker_locked(request.document)
                task = _Task(self._next_task_id, execution, shard)
                self._next_task_id += 1
                task.worker = worker
                execution.tasks.append(task)
                execution.pending += 1
                self._tasks[task.task_id] = task
                self._inflight_per_worker[worker] = \
                    self._inflight_per_worker.get(worker, 0) + 1
                targets.append(task)
        self.metrics.record_accepted()
        self.cluster_metrics.record_mode(scattered)
        execution.trace = self._begin_trace(execution)
        for task in targets:
            self._dispatch(task)
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

    def _fail_immediately(self, request: QueryRequest, admitted: float,
                          error: ReproError) -> PendingQuery:
        self.metrics.record_accepted()
        execution = _ClusterExecution(request, admitted, None, False)
        execution.response = QueryResponse(request=request, error=error)
        execution.done.set()
        self.metrics.record_done(latency_seconds=0.0, queue_seconds=0.0,
                                 failed=True)
        return PendingQuery(execution, coalesced=False)

    def _pick_worker_locked(self, document: str) -> int:
        """The worker for the next task: pinned in ``partition``
        placement, else round-robin over live workers whose breaker
        admits traffic."""
        count = len(self._workers)
        if self.placement == "partition":
            names = sorted(self.layout.manifests)
            return names.index(document) % count
        candidates = []
        for offset in range(count):
            index = (self._rr + offset) % count
            if not self._workers[index].alive():
                continue
            breaker = self._breakers.get(index)
            if breaker is not None and not breaker.allow():
                continue
            candidates.append(index)
        if not candidates:
            retry_after = 0.0
            for breaker in self._breakers.values():
                retry_after = max(retry_after, breaker.retry_after())
            self.metrics.record_breaker_rejected()
            raise CircuitOpen(
                "every cluster worker's circuit is open",
                document=document, retry_after_seconds=retry_after)
        chosen = candidates[0]
        self._rr = (chosen + 1) % count
        return chosen

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, task: _Task) -> None:
        execution = task.execution
        remaining = None
        if execution.deadline is not None:
            remaining = execution.deadline - self._clock()
            if remaining <= 0:
                elapsed = self._clock() - execution.admitted
                self._complete_task(task, error=BudgetExceeded(
                    "wall", execution.request.timeout or 0.0, elapsed,
                    elapsed_seconds=elapsed))
                return
        message = {"type": "task", "task_id": task.task_id,
                   "document": execution.request.document,
                   "query": execution.request.query,
                   "strategy": execution.request.strategy,
                   "optimize": execution.request.optimize,
                   "shard": task.shard,
                   "remaining": remaining,
                   "timeout": execution.request.timeout}
        if execution.trace is not None:
            # Context presence IS the sampling decision: only sampled
            # requests make the workers trace.
            message["trace"] = TraceContext(
                execution.trace.trace_id,
                execution.trace.root.span_id).to_wire()
        task.dispatched = self._clock()
        self.cluster_metrics.record_dispatched(task.worker)
        transport = self._workers[task.worker]
        try:
            chaos_point("cluster.dispatch")
            transport.send(message)
        except InjectedFault as fault:
            self._complete_task(task, error=fault)
        except Exception:
            # The pipe broke mid-write: the worker is gone.  The exit
            # path re-dispatches or fails this task.
            self._on_worker_exit(task.worker, transport)

    # -- gather --------------------------------------------------------------

    def _on_frame(self, worker_index: int, message: Dict[str, Any]) -> None:
        if message.get("type") != "result":
            return
        with self._lock:
            task = self._tasks.get(message.get("task_id"))
        if task is None or task.worker != worker_index:
            return
        task.exec_seconds = message.get("exec_seconds", 0.0)
        task.received = self._clock()
        task.remote_trace = message.get("trace")
        document = task.execution.request.document
        ok = bool(message.get("ok"))
        self.cluster_metrics.record_result(worker_index, document,
                                           task.shard,
                                           task.exec_seconds, ok)
        breaker = self._breakers.get(worker_index)
        if breaker is not None:
            # A frame — success or typed query error — proves the
            # worker itself is healthy.
            breaker.record_success()
        try:
            chaos_point("cluster.gather")
        except InjectedFault as fault:
            self._complete_task(task, error=fault)
            return
        if ok:
            self._complete_task(task, items=message.get("items", []))
        else:
            error = message.get("error")
            if not isinstance(error, Exception):
                error = InternalError(
                    f"worker {worker_index} reported a malformed "
                    f"error payload: {error!r}")
            self._complete_task(task, error=error)

    def _complete_task(self, task: _Task,
                       items: Optional[List[Tuple[str, Any]]] = None,
                       error: Optional[Exception] = None) -> None:
        execution = task.execution
        with self._lock:
            if task.finished:
                return
            task.finished = True
            task.ok = error is None
            task.items = items
            task.error = error
            self._tasks.pop(task.task_id, None)
            if task.worker in self._inflight_per_worker:
                self._inflight_per_worker[task.worker] = max(
                    0, self._inflight_per_worker[task.worker] - 1)
            execution.pending -= 1
            finished = execution.pending == 0
        if finished:
            self._finalize(execution)

    def _finalize(self, execution: _ClusterExecution) -> None:
        request = execution.request
        response = QueryResponse(request=request)
        succeeded = [task for task in execution.tasks if task.ok]
        failed = [task for task in execution.tasks if not task.ok]
        try:
            if failed and not (execution.scattered and succeeded
                               and self.allow_partial):
                response.error = failed[0].error
            else:
                document = self.catalog.engine(request.document).document
                if execution.scattered:
                    merged = merge_shard_results(
                        [task.items for task in succeeded])
                    response.results = [document.node_at(pre)
                                        for pre in merged]
                    if failed:
                        response.partial = True
                        self.cluster_metrics.record_partial()
                        self.metrics.record_degraded()
                else:
                    (task,) = execution.tasks
                    response.results = [
                        document.node_at(value) if tag == "n" else value
                        for tag, value in task.items]
        except Exception as err:
            if not isinstance(err, ReproError):
                wrapped = InternalError(
                    f"unexpected {type(err).__name__} while merging "
                    f"{request.query!r}: {err}")
                wrapped.__cause__ = err
                err = wrapped
            response.error = err
        response.exec_seconds = self._clock() - execution.admitted
        deadline_expired = isinstance(response.error, BudgetExceeded) \
            and response.error.kind == "wall"
        trace = execution.trace
        if trace is not None:
            response.trace_id = trace.trace_id
            for task in execution.tasks:
                # Every instant here is coordinator-clock: the shard
                # span covers dispatch -> result-frame arrival as this
                # process measured it.  The worker's self-measured
                # execution time rides along as ``worker_seconds`` —
                # an attribute, never a position — so clock skew
                # between the two processes cannot produce negative
                # gaps in the stitched tree.
                # Offsets are measured from the trace root's own start
                # (same coordinator clock), not ``execution.admitted``:
                # the trace begins after admission, so admitted-based
                # offsets would push spans past the root span's end.
                dispatch_offset = max(
                    task.dispatched - trace.root.start, 0.0) \
                    if task.dispatched else 0.0
                wait = max(task.received - task.dispatched, 0.0) \
                    if task.dispatched and task.received else 0.0
                payload = task.remote_trace
                duration = wait
                if payload is not None:
                    # Under rate skew the worker may report a longer
                    # execution than the coordinator-observed wait;
                    # widen the envelope so grafted children still
                    # nest inside it.
                    duration = max(duration,
                                   payload.get("duration", 0.0))
                shard_span = trace.add_span(
                    "shard",
                    start=trace.root.start + dispatch_offset,
                    duration=duration,
                    shard=-1 if task.shard is None else task.shard,
                    worker=task.worker, ok=task.ok,
                    wait_seconds=wait,
                    worker_seconds=task.exec_seconds)
                if payload is not None and trace.spans \
                        and trace.spans[-1] is shard_span:
                    # Only graft when the shard span itself survived
                    # the buffer cap — stitching under a dropped span
                    # would break the no-dropped-parent invariant.
                    try:
                        graft_remote(
                            trace, payload,
                            anchor=shard_span.start,
                            parent_id=shard_span.span_id,
                            attrs={"worker": task.worker,
                                   "shard": -1 if task.shard is None
                                   else task.shard})
                    except ValueError as err:
                        trace.event("graft-failed", error=str(err))
            if response.error is not None:
                trace.annotate(error=getattr(
                    response.error, "code",
                    type(response.error).__name__))
            trace.finish(rows=len(response.results)
                         if response.results is not None else 0,
                         scattered=execution.scattered,
                         partial=response.partial)
            if self._flight is not None:
                self._flight.record(trace,
                                    latency=response.exec_seconds)
        execution.response = response
        execution.done.set()
        self.metrics.record_done(latency_seconds=response.exec_seconds,
                                 queue_seconds=0.0,
                                 failed=response.error is not None,
                                 deadline_expired=deadline_expired)

    def _begin_trace(self, execution: _ClusterExecution):
        if self.tracer is None:
            return None
        trace = self.tracer.begin(
            "request",
            document=execution.request.document,
            query=execution.request.query,
            strategy=execution.request.strategy or "default",
            cluster=True)
        return trace

    # -- worker loss ---------------------------------------------------------

    def _on_worker_exit(self, index: int, transport) -> None:
        with self._lock:
            if self._closed:
                return
            if index >= len(self._workers) \
                    or self._workers[index] is not transport:
                return  # already replaced
            lost = [task for task in self._tasks.values()
                    if task.worker == index and not task.finished]
            replacement = None
            if self.respawn:
                self.cluster_metrics.record_respawn()
                replacement = _ProcessTransport(self, index) \
                    if self.transport == "process" \
                    else _InlineTransport(self, index)
                self._workers[index] = replacement
            self._inflight_per_worker[index] = 0
        breaker = self._breakers.get(index)
        if breaker is not None:
            breaker.record_failure()
        if replacement is not None:
            try:
                replacement.start(self._init_message(index))
            except Exception:
                pass
        transport.reap(timeout=0.5)
        for task in lost:
            self._retry_or_fail(task, index)

    def _retry_or_fail(self, task: _Task, dead_index: int) -> None:
        execution = task.execution
        error = WorkerLost(
            f"cluster worker {dead_index} died while evaluating "
            f"{execution.request.query!r}", worker_index=dead_index)
        if task.retried or self._closed:
            self._complete_task(task, error=error)
            return
        with self._lock:
            if task.finished:
                return
            try:
                worker = self._pick_worker_locked(
                    execution.request.document)
            except ReproError:
                worker = None
            if worker is None:
                pass
            else:
                old = task.worker
                task.worker = worker
                task.retried = True
                if old in self._inflight_per_worker:
                    self._inflight_per_worker[old] = max(
                        0, self._inflight_per_worker[old] - 1)
                self._inflight_per_worker[worker] = \
                    self._inflight_per_worker.get(worker, 0) + 1
        if worker is None:
            self._complete_task(task, error=error)
        else:
            self.metrics.record_retried()
            self._dispatch(task)

    # -- introspection -------------------------------------------------------

    def stats(self) -> ServiceStats:
        with self._lock:
            queue_depth = len(self._tasks)
            in_flight = sum(self._inflight_per_worker.values())
        return self.metrics.stats(queue_depth=queue_depth,
                                  in_flight=in_flight)

    def cluster_stats(self) -> ClusterStats:
        metrics = self.cluster_metrics
        with self._lock:
            inflight = dict(self._inflight_per_worker)
            workers = []
            for index, transport in enumerate(self._workers):
                breaker = self._breakers.get(index)
                workers.append(WorkerStats(
                    index=index, pid=transport.pid,
                    alive=transport.alive(),
                    dispatched=metrics.dispatched.get(index, 0),
                    completed=metrics.completed.get(index, 0),
                    failed=metrics.failed.get(index, 0),
                    queue_depth=inflight.get(index, 0),
                    breaker_state=breaker.state if breaker is not None
                    else "disabled",
                    busy_seconds=metrics.busy_seconds.get(index, 0.0)))
        with metrics._lock:
            latency = {key: histogram.snapshot()
                       for key, histogram
                       in metrics.shard_latency.items()}
        return ClusterStats(workers=workers, respawns=metrics.respawns,
                            partials=metrics.partials,
                            scattered=metrics.scattered,
                            whole_document=metrics.whole_document,
                            shard_latency=latency)

    def flight_recorder(self) -> Optional[FlightSnapshot]:
        if self._flight is None:
            return None
        return self._flight.snapshot()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def from_catalog(cls, catalog: DocumentCatalog,
                     directory: Optional[str] = None,
                     shard_count: int = 4,
                     **options) -> "ClusterService":
        """Shard every catalog document into ``directory`` (a private
        temporary directory when omitted — removed on ``close``) and
        build a cluster over the layout.  The catalog's engines serve
        as the coordinator's rehydration/baseline side."""
        owned = directory is None
        if owned:
            directory = tempfile.mkdtemp(prefix="repro-cluster-")
        documents = {name: catalog.engine(name).document.columns
                     for name in catalog.names()}
        layout = ClusterLayout.build(documents, directory, shard_count)
        service = cls(layout, catalog=catalog, **options)
        if owned:
            service._owned_directory = directory
        return service

    def close(self, drain: bool = True) -> None:
        """Stop admitting, settle in-flight work, shut every worker
        down and reap it (no orphan processes, no open pipes).

        ``drain=True`` waits for dispatched tasks to finish first;
        ``drain=False`` fails them with
        :class:`~repro.guard.ServiceClosed`.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._tasks.values())
        if drain:
            for task in pending:
                task.execution.done.wait(timeout=30.0)
        else:
            for task in pending:
                self._complete_task(task, error=ServiceClosed(
                    "cluster service closed before execution"))
        for transport in self._workers:
            transport.shutdown()
        for transport in self._workers:
            transport.reap()
        if self._owns_catalog:
            for name in self.catalog.names():
                engine = self.catalog.engine_if_built(name)
                if engine is not None:
                    engine.document.close()
        if self._owned_directory is not None:
            shutil.rmtree(self._owned_directory, ignore_errors=True)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
