"""Multi-process sharded serving: scatter-gather over columnar shards.

:class:`ClusterService` is the process-parallel transport under
:class:`~repro.serve.QueryService`'s request core (admission,
coalescing, document breakers, deadlines, tracing, metrics, health and
drain are the core's): instead of a thread pool sharing one in-process
engine (GIL-bound), it drives a pool of **worker
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
  tasks are re-dispatched once (or fail typed while closing), and the
  pool **respawns** the worker;
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
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.ops import (DDOPlan, FieldAccess, MapFromItem, MapToItem,
                           TupleTreePattern, VarPlan)
from ..guard import (BudgetExceeded, Budgets, ChaosSpec, CircuitOpen,
                     InjectedFault, InternalError, ReproError,
                     ServiceClosed, ServiceOverloaded, WorkerLost,
                     chaos_point, default_seed)
from ..pattern.tree import PatternPath, TreePattern
from ..trace import FlightRecorder, TraceContext, Tracer, graft_remote
from ..xmltree.axes import Axis
from ..xmltree.nodetest import NameTest, TextTest
from ..xmltree.shard import ShardManifest, write_shard_layout
from .catalog import DocumentCatalog
from .metrics import LatencyHistogram
from .resilience import BreakerPolicy, CircuitBreaker
from .service import (DEFAULT_QUEUE_LIMIT, QueryResponse, QueryService,
                      _HEALTH_ERRORS, _Execution)
from .worker import ShardWorker, recv_frame, send_frame

__all__ = ["ClusterLayout", "ClusterService", "ClusterStats",
           "WorkerStats", "merge_shard_results", "scatter_plan"]

#: axes a scatterable pattern may use: strictly downward, strictly
#: depth-increasing (SELF / DESCENDANT_OR_SELF would let deep steps
#: match the replicated spine, breaking the depth argument below).
_SCATTER_AXES = (Axis.CHILD, Axis.DESCENDANT, Axis.ATTRIBUTE)

#: longest ``close(drain=True)`` waits for dispatched tasks before the
#: workers are shut down and reaped.
_DRAIN_SECONDS = 30.0


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


# -- gathers and tasks -------------------------------------------------------


class _Gather:
    """The cluster side of one admitted execution: its tasks."""

    def __init__(self, execution: _Execution, scattered: bool) -> None:
        self.execution = execution
        self.scattered = scattered
        self.tasks: List["_Task"] = []


class _Task:
    """One dispatched unit: a (document, shard) evaluation."""

    __slots__ = ("task_id", "gather", "shard", "worker", "dispatched",
                 "received", "exec_seconds", "items", "error", "retried",
                 "remote_trace")

    def __init__(self, task_id: int, gather: _Gather,
                 shard: Optional[int]) -> None:
        self.task_id = task_id
        self.gather = gather
        self.shard = shard
        self.worker = -1
        self.dispatched = 0.0
        #: coordinator-clock instant the result frame arrived (0.0 when
        #: the task failed without one) — with ``dispatched`` it bounds
        #: the dispatch→first-frame wait on ONE clock.
        self.received = 0.0
        self.exec_seconds = 0.0
        self.items: Optional[List[Tuple[str, Any]]] = None
        self.error: Optional[Exception] = None
        self.retried = False
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


class ClusterService(QueryService):
    """Scatter-gather query service over a pool of worker processes.

    ::

        layout = ClusterLayout.build({"site": doc.columns}, tmp, 4)
        with ClusterService(layout, workers=4) as cluster:
            names = cluster.query("site", "$input//person/name")

    A transport under :class:`~repro.serve.QueryService`'s request
    core: it dispatches tasks from the submitting thread and merges
    their results on the reader threads.  ``queue_limit`` bounds the
    tasks in flight; a response's ``exec_seconds`` runs from admission
    to merge (``queue_seconds`` is 0).  ``catalog`` supplies the
    engines used for the scatter decision and node rehydration; when
    omitted, one is built from the layout's full indexes (and closed
    with the service).
    """

    def __init__(self, layout: ClusterLayout,
                 workers: int = 4,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 catalog: Optional[DocumentCatalog] = None,
                 transport: str = "process",
                 default_budgets: Optional[Budgets] = None,
                 clock=time.perf_counter,
                 tracer: Optional[Tracer] = None,
                 flight_recorder: Optional[FlightRecorder] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 allow_partial: bool = False,
                 respawn: bool = True,
                 chaos_specs: Sequence[ChaosSpec] = (),
                 chaos_seed: Optional[int] = None) -> None:
        if transport not in ("process", "inline"):
            raise ValueError(f"unknown transport {transport!r}; "
                             f"valid: process, inline")
        self.layout = layout
        self.transport = transport
        self._transport_type = _ProcessTransport \
            if transport == "process" else _InlineTransport
        self.allow_partial = allow_partial
        self.respawn = respawn
        self._chaos_specs = tuple(chaos_specs)
        self._chaos_seed = chaos_seed
        self.cluster_metrics = _ClusterMetrics()
        self._owns_catalog = catalog is None
        if catalog is None:
            catalog = DocumentCatalog()
            for name, manifest in layout.manifests.items():
                catalog.add_columnar_file(
                    name,
                    os.path.join(layout.directory, manifest.index_file),
                    verify=False)
        self._owned_directory: Optional[str] = None
        self._lock = threading.Lock()
        self._next_task_id = 0
        self._tasks: Dict[int, _Task] = {}
        self._rr = 0
        super().__init__(catalog, workers=workers, queue_limit=queue_limit,
                         default_budgets=default_budgets, clock=clock,
                         tracer=tracer, flight_recorder=flight_recorder,
                         breaker_policy=breaker_policy)

    # -- pool management -----------------------------------------------------

    def _open(self, workers: int) -> List[Any]:
        """Transport hook: spawn the worker pool."""
        self._breakers: Dict[int, CircuitBreaker] = {}
        if self.breaker_policy is not None:
            self._breakers = {
                index: CircuitBreaker(self.breaker_policy,
                                      clock=self._clock)
                for index in range(workers)}
        self._workers: List[Any] = []
        for index in range(workers):
            transport = self._transport_type(self, index)
            self._workers.append(transport)
            transport.start(self._init_message(index))
        return self._workers

    def _init_message(self, index: int) -> Dict[str, Any]:
        chaos = None
        if self._chaos_specs and self.transport == "process":
            chaos = {"specs": list(self._chaos_specs),
                     "seed": default_seed() if self._chaos_seed is None
                     else self._chaos_seed}
        return {"type": "init", "worker_index": index,
                "documents": self.layout.worker_documents(),
                "default_budgets": self.default_budgets,
                "chaos": chaos}

    def worker_pids(self) -> List[Optional[int]]:
        return [transport.pid for transport in self._workers]

    # -- scatter and dispatch ------------------------------------------------

    def _start(self, execution: _Execution) -> None:
        """Transport hook: decide scatter vs whole-document and dispatch
        the tasks from the submitting thread.  Raises for an unknown
        document, with :class:`~repro.guard.ServiceOverloaded` when the
        tasks would pass ``queue_limit``, and with
        :class:`~repro.guard.CircuitOpen` when every worker's breaker
        is open."""
        request = execution.request
        manifest = self.layout.manifests.get(request.document)
        if manifest is None:
            raise ReproError(
                f"unknown cluster document {request.document!r}; "
                f"known: {sorted(self.layout.manifests)}",
                code="REPRO-CLUSTER-DOCUMENT")
        scattered = False
        if request.optimize and manifest.shard_count > 1:
            try:
                engine = self.catalog.engine(request.document)
                compiled = engine.compile(request.query, optimize=True)
            except ReproError as err:
                self._complete(execution,
                               QueryResponse(request=request, error=err))
                return
            scattered = scatter_plan(compiled, manifest.root_tag)
        gather = _Gather(execution, scattered)
        shards: List[Optional[int]] = \
            list(range(manifest.shard_count)) if scattered else [None]
        with self._lock:
            pending_total = len(self._tasks)
            if pending_total + len(shards) > self.queue_limit:
                raise ServiceOverloaded(
                    f"cluster task queue full ({pending_total} in "
                    f"flight, limit {self.queue_limit}); request shed",
                    queue_depth=pending_total,
                    queue_limit=self.queue_limit)
            workers = [self._pick_worker_locked(request.document)
                       for _ in shards]
            for shard, worker in zip(shards, workers):
                task = _Task(self._next_task_id, gather, shard)
                self._next_task_id += 1
                task.worker = worker
                gather.tasks.append(task)
                self._tasks[task.task_id] = task
        self.cluster_metrics.record_mode(scattered)
        for task in gather.tasks:
            self._dispatch(task)

    def _pick_worker_locked(self, document: str) -> int:
        """The worker for the next task: round-robin over live workers
        whose breaker admits traffic."""
        count = len(self._workers)
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

    def _dispatch(self, task: _Task) -> None:
        execution = task.gather.execution
        request = execution.request
        remaining = None
        if execution.deadline is not None:
            remaining = execution.deadline - self._clock()
            if remaining <= 0:
                self._complete_task(task, error=BudgetExceeded.lapsed(
                    request.timeout, self._clock() - execution.admitted))
                return
        message = {"type": "task", "task_id": task.task_id,
                   "document": request.document,
                   "query": request.query,
                   "strategy": request.strategy,
                   "optimize": request.optimize,
                   "shard": task.shard,
                   "remaining": remaining,
                   "timeout": request.timeout}
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

    # -- gather and merge ----------------------------------------------------

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
        document = task.gather.execution.request.document
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
        gather = task.gather
        with self._lock:
            if self._tasks.pop(task.task_id, None) is None:
                return  # already finished
            task.items = items
            task.error = error
            finished = not any(other.task_id in self._tasks
                               for other in gather.tasks)
        if finished:
            self._merge(gather)

    def _merge(self, gather: _Gather) -> None:
        execution = gather.execution
        request = execution.request
        response = QueryResponse(request=request)
        succeeded = [task for task in gather.tasks if task.error is None]
        failed = [task for task in gather.tasks if task.error is not None]
        try:
            if failed and not (gather.scattered and succeeded
                               and self.allow_partial):
                response.error = failed[0].error
            else:
                document = self.catalog.engine(request.document).document
                if gather.scattered:
                    merged = merge_shard_results(
                        [task.items for task in succeeded])
                    response.results = [document.node_at(pre)
                                        for pre in merged]
                    if failed:
                        response.partial = True
                        self.cluster_metrics.record_partial()
                        self.metrics.record_degraded()
                else:
                    (task,) = gather.tasks
                    response.results = [
                        document.node_at(value) if tag == "n" else value
                        for tag, value in task.items]
        except Exception as err:
            response.error = InternalError.wrap(
                err, f"while merging {request.query!r}")
        response.exec_seconds = self._clock() - execution.admitted
        if isinstance(response.error, _HEALTH_ERRORS):
            self.health_tracker.record_failure(request.document,
                                               response.error)
        elif response.error is None:
            self.health_tracker.record_success(request.document)
        if execution.trace is not None:
            self._stitch(execution.trace, gather, response)
        self._complete(execution, response)

    def _stitch(self, trace, gather: _Gather,
                response: QueryResponse) -> None:
        """One ``shard`` span per task under the request root, with the
        worker's own spans grafted beneath it."""
        for task in gather.tasks:
            # Every instant here is coordinator-clock: the shard span
            # covers dispatch -> result-frame arrival as this process
            # measured it.  The worker's self-measured execution time
            # rides along as ``worker_seconds`` — an attribute, never a
            # position — so clock skew between the two processes cannot
            # produce negative gaps in the stitched tree.  Offsets are
            # measured from the trace root's own start (same coordinator
            # clock), which may differ from the service clock.
            dispatch_offset = max(
                task.dispatched - trace.root.start, 0.0) \
                if task.dispatched else 0.0
            wait = max(task.received - task.dispatched, 0.0) \
                if task.dispatched and task.received else 0.0
            payload = task.remote_trace
            duration = wait
            if payload is not None:
                # Under rate skew the worker may report a longer
                # execution than the coordinator-observed wait; widen
                # the envelope so grafted children still nest inside it.
                duration = max(duration, payload.get("duration", 0.0))
            shard = -1 if task.shard is None else task.shard
            shard_span = trace.add_span(
                "shard", start=trace.root.start + dispatch_offset,
                duration=duration, shard=shard, worker=task.worker,
                ok=task.error is None, wait_seconds=wait,
                worker_seconds=task.exec_seconds)
            if payload is not None and trace.spans \
                    and trace.spans[-1] is shard_span:
                # Only graft when the shard span itself survived the
                # buffer cap — stitching under a dropped span would
                # break the no-dropped-parent invariant.
                try:
                    graft_remote(trace, payload, anchor=shard_span.start,
                                 parent_id=shard_span.span_id,
                                 attrs={"worker": task.worker,
                                        "shard": shard})
                except ValueError as err:
                    trace.event("graft-failed", error=str(err))
        trace.annotate(scattered=gather.scattered,
                       partial=response.partial)

    # -- worker loss ---------------------------------------------------------

    def _on_worker_exit(self, index: int, transport) -> None:
        """A worker's pipe ended: respawn it unless closing, and
        re-dispatch its tasks once or fail them with ``WorkerLost``."""
        with self._lock:
            if index >= len(self._workers) \
                    or self._workers[index] is not transport:
                return  # already replaced
            lost = [task for task in self._tasks.values()
                    if task.worker == index]
            closing = self._closed
            replacement = None
            if self.respawn and not closing:
                self.cluster_metrics.record_respawn()
                replacement = self._transport_type(self, index)
                self._workers[index] = replacement
        if not closing:
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
        request = task.gather.execution.request
        worker = None
        with self._lock:
            if task.task_id not in self._tasks:
                return  # finished meanwhile
            if not (task.retried or self._closed):
                try:
                    worker = self._pick_worker_locked(request.document)
                except ReproError:
                    pass
            if worker is not None:
                task.worker = worker
                task.retried = True
        if worker is None:
            self._complete_task(task, error=WorkerLost(
                f"cluster worker {dead_index} died while evaluating "
                f"{request.query!r}", worker_index=dead_index))
        else:
            self.metrics.record_retried()
            self._dispatch(task)

    # -- introspection -------------------------------------------------------

    def _load(self) -> Tuple[int, int]:
        """Transport hook for ``stats``: a worker runs one task at a
        time, the rest of its tasks wait in its pipe."""
        with self._lock:
            busy = len({task.worker for task in self._tasks.values()})
            return len(self._tasks) - busy, busy

    def cluster_stats(self) -> ClusterStats:
        metrics = self.cluster_metrics
        with self._lock:
            inflight = Counter(task.worker for task in self._tasks.values())
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

    def _stop(self, drain: bool) -> None:
        """Transport hook: wait for the dispatched tasks (or, without
        ``drain``, fail them), shut every worker down and reap it (no
        orphan processes, no open pipes), then close what it owns."""
        with self._lock:
            pending = list(self._tasks.values())
        if drain:
            give_up = time.monotonic() + _DRAIN_SECONDS
            for task in pending:
                task.gather.execution.done.wait(
                    max(0.0, give_up - time.monotonic()))
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
