"""The traced run: per-layer metrics measured from outside each layer.

This is the only file of the benchmark that imports layer internals.
Every entry point is looked up by name when it is needed; a probe whose
entry point is gone reports its metrics as ``null`` with the reason, so
a change that merges or deletes a layer stays measurable without an
edit here, and the end-to-end run (which never imports this file) is
untouched.

A per-layer ``_ms`` number is milliseconds per operation in that layer:
for every distinct request the median of its samples, then the mean
over one round of the schedule, so that the layers of a workload add up
to its mean operation time.  Counts are per round and repeat exactly.
Times are on the reference host (``harness.ReferenceKernel``), like the
end-to-end numbers.
"""

from __future__ import annotations

import gc
import importlib
import io
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro import CompiledQuery, Engine, ExecMetrics
from repro.serve import QueryRequest, QueryService

import harness
from spans import OP, Recorder
from workloads import (SHARDS, WORKERS, EngineSession, Inputs, LoadSession,
                       Request, ServiceSession, Workload, render)

STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
              "auto", "cost")

#: every per-layer metric: (name, unit, better).  BENCHMARK.json's
#: ``per_layer`` list is this list.
PER_LAYER = [
    # compile pipeline: moves compile_cold, not the warm workloads
    ("xquery.parse_ms", "ms", "lower"),
    ("xqcore.normalize_ms", "ms", "lower"),
    ("rewrite.tpnf_ms", "ms", "lower"),
    ("algebra.compile_ms", "ms", "lower"),
    ("algebra.optimize_ms", "ms", "lower"),
    ("compiled.codegen_ms", "ms", "lower"),
    ("algebra.plan_ops", "count", "lower"),
    ("algebra.optimized_ops", "count", "lower"),
    ("algebra.tree_patterns", "count", "higher"),
    ("rewrite.core_nodes", "count", "lower"),
    ("obs.plan_cache_hit_ratio", "ratio", "higher"),
    # pattern algorithms: the default strategy's row moves pattern_warm
    *[(f"physical.{name}.pattern_ms", "ms", "lower")
      for name in STRATEGIES],
    ("physical.nodes_visited", "count", "lower"),
    ("physical.stream_scanned", "count", "lower"),
    ("physical.pattern_evals", "count", "lower"),
    ("xmltree.summary.prune_hit_ratio", "ratio", "higher"),
    # evaluation: moves flwor_warm
    ("engine.execute_ms", "ms", "lower"),
    ("algebra.eval.residual_ms", "ms", "lower"),
    ("algebra.eval.operator_evals", "count", "lower"),
    ("algebra.eval.tuples_produced", "count", "lower"),
    ("compiled.runtime.execute_ms", "ms", "lower"),
    ("xmltree.serializer.serialize_ms", "ms", "lower"),
    ("xmltree.serializer.bytes_out", "bytes", "lower"),
    # document build and storage: moves doc_load, and setup_s elsewhere
    ("xmltree.parser.parse_ms", "ms", "lower"),
    ("xmltree.parser.mb_per_s", "MB/s", "higher"),
    ("xmltree.document.index_ms", "ms", "lower"),
    ("xmltree.columnar.derive_ms", "ms", "lower"),
    ("xmltree.summary.build_ms", "ms", "lower"),
    ("xmltree.columnar.save_ms", "ms", "lower"),
    ("xmltree.columnar.open_ms", "ms", "lower"),
    ("xmltree.columnar.file_bytes_per_xml_byte", "ratio", "lower"),
    # thread service: moves serve_threads
    ("serve.service.queue_ms", "ms", "lower"),
    ("serve.service.exec_ms", "ms", "lower"),
    ("serve.service.overhead_ms", "ms", "lower"),
    ("serve.service.coalesced_ratio", "ratio", "higher"),
    ("serve.service.shed", "count", "lower"),
    # cluster: moves serve_cluster and must leave serve_threads flat
    ("serve.worker.frame_roundtrip_ms", "ms", "lower"),
    ("serve.worker.frame_bytes", "bytes", "lower"),
    ("serve.cluster.merge_ms", "ms", "lower"),
    ("xmltree.shard.split_ms", "ms", "lower"),
    ("serve.cluster.coordination_ms", "ms", "lower"),
    ("serve.cluster.scattered_ratio", "ratio", "higher"),
    ("serve.cluster.worker_busy_share", "ratio", "higher"),
    ("serve.cluster.respawns", "count", "lower"),
    ("serve.cluster.vs_threads_ratio", "ratio", "higher"),
    # the recorder itself
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
]

#: span name → the ``_ms`` metric its self time is reported as.
SPAN_METRICS = {
    "xquery.parse": "xquery.parse_ms",
    "xqcore.normalize": "xqcore.normalize_ms",
    "rewrite.tpnf": "rewrite.tpnf_ms",
    "algebra.compile": "algebra.compile_ms",
    "algebra.optimize": "algebra.optimize_ms",
    "xmltree.serializer.serialize": "xmltree.serializer.serialize_ms",
    "xmltree.parser.parse": "xmltree.parser.parse_ms",
    "xmltree.document.index": "xmltree.document.index_ms",
    "xmltree.columnar.derive": "xmltree.columnar.derive_ms",
    "xmltree.summary.build": "xmltree.summary.build_ms",
    "xmltree.columnar.save": "xmltree.columnar.save_ms",
    "xmltree.columnar.open": "xmltree.columnar.open_ms",
    "serve.service.queue": "serve.service.queue_ms",
    "serve.service.exec": "serve.service.exec_ms",
    "serve.service.request": "serve.service.overhead_ms",
}


class Unavailable(Exception):
    """A layer entry point the probe needs does not exist."""


def entry(path: str):
    """``"package.module:name"`` → the object, or :class:`Unavailable`."""
    module_name, _, name = path.partition(":")
    try:
        return getattr(importlib.import_module(module_name), name)
    except (ImportError, AttributeError) as err:
        raise Unavailable(f"{path}: {type(err).__name__}: {err}") from None


class Report:
    """Per-layer values gathered so far; what nobody set is ``null``."""

    def __init__(self, kernel: harness.ReferenceKernel) -> None:
        self.kernel = kernel
        self.values: Dict[str, float] = {}
        self.reasons: Dict[str, str] = {}

    def probe(self, names: List[str], function: Callable[[], dict]) -> None:
        """Run one probe; its metrics are ``names``."""
        self.kernel.sample()  # the host while the probes run counts too
        try:
            measured = function()
        except Unavailable as err:
            for name in names:
                self.reasons[name] = f"entry point missing: {err}"
            return
        for name in names:
            if measured.get(name) is None:
                self.reasons.setdefault(name, "not produced by its probe")
            else:
                self.values[name] = measured[name]

    def metrics(self, not_here: str) -> dict:
        slowdown = self.kernel.slowdown()
        out = {}
        for name, unit, _ in PER_LAYER:
            value = self.values.get(name)
            if value is None:
                out[name] = {"value": None, "unit": unit,
                             "reason": self.reasons.get(name, not_here)}
                continue
            if unit == "ms":
                value /= slowdown
            elif unit == "MB/s":
                value *= slowdown
            out[name] = {"value": value, "unit": unit}
        return out


# -- staged replays ----------------------------------------------------------


class CompileStages:
    """The compile pipeline's public entries, one span each."""

    def __init__(self) -> None:
        self.parse = entry("repro.xquery:parse_query")
        self.resolve = entry("repro.xquery.abbrev:resolve_abbreviations")
        self.normalize = entry("repro.xqcore:normalize_query")
        self.rewrite = entry("repro.rewrite:rewrite_to_tpnf")
        self.compile_core = entry("repro.algebra:compile_core")
        self.optimize = entry("repro.algebra:optimize_plan")

    def compile(self, engine: Engine, query: str, span) -> CompiledQuery:
        with span("xquery.parse"):
            surface = self.resolve(self.parse(query))
        with span("xqcore.normalize"):
            normalized = self.normalize(surface)
        with span("rewrite.tpnf"):
            tpnf = self.rewrite(normalized.core,
                                options=engine.rewrite_options)
        with span("algebra.compile"):
            plan = self.compile_core(tpnf)
        with span("algebra.optimize"):
            optimized = self.optimize(plan, options=engine.optimizer_options)
        return CompiledQuery(text=query, surface=surface,
                             normalized=normalized, tpnf=tpnf, plan=plan,
                             optimized=optimized)


def engine_replay(session: EngineSession, cold: bool):
    stages = CompileStages() if cold else None

    def make(recorder: Recorder) -> harness.Op:
        def op(request: Request) -> str:
            engine = session.engine(request.document)
            with recorder.span(OP, request.key):
                if stages is not None:
                    compiled = stages.compile(engine, request.query,
                                              recorder.span)
                else:
                    with recorder.span("obs.plan_cache"):
                        compiled = engine.compile(request.query)
                with recorder.span("engine.execute"):
                    results = engine.execute(compiled)
                with recorder.span("xmltree.serializer.serialize"):
                    return render(results)
        return op
    return make


class LoadStages:
    """Document build, save and open, one span per public entry."""

    def __init__(self) -> None:
        self.parse_xml = entry("repro.xmltree:parse_xml")
        self.document = entry("repro.xmltree:IndexedDocument")
        self.xml_bytes = 0
        self.file_bytes = 0

    def load(self, text: str, path: str, span,
             query: Optional[str]) -> str:
        with span("xmltree.parser.parse"):
            root = self.parse_xml(text)
        with span("xmltree.document.index"):
            document = self.document(root)
        with span("xmltree.columnar.derive"):
            document.columns
        with span("xmltree.summary.build"):
            document.summary
        first = self._answer(Engine(document), query, span)
        with span("xmltree.columnar.save"):
            self.file_bytes += document.save(path)
        self.xml_bytes += len(text.encode("utf-8"))
        with span("xmltree.columnar.open"):
            reopened = self.document.open(path)
        try:
            with span("xmltree.summary.build"):
                reopened.summary
            second = self._answer(Engine(reopened), query, span)
        finally:
            reopened.close()
        if first != second:
            raise AssertionError("answer from the saved file differs")
        return second

    @staticmethod
    def _answer(engine: Engine, query: Optional[str], span) -> str:
        if query is None:
            return ""
        with span("engine.run"):
            results = engine.run(query)
        with span("xmltree.serializer.serialize"):
            return render(results)


def load_replay(session: LoadSession, stages: LoadStages):
    def make(recorder: Recorder) -> harness.Op:
        def op(request: Request) -> str:
            with recorder.span(OP, request.key):
                return stages.load(session.texts[request.document],
                                   session.path, recorder.span,
                                   request.query)
        return op
    return make


def service_replay(session: ServiceSession, cluster: bool):
    """The façade call, reading the response's own timings: a thread
    service reports queue and execution seconds, a cluster the seconds
    from admission to merge on the coordinator."""
    def make(recorder: Recorder) -> harness.Op:
        def op(request: Request) -> str:
            with recorder.span(OP, request.key):
                with recorder.span("serve.cluster.request" if cluster
                                   else "serve.service.request") as parent:
                    begun = time.perf_counter()
                    response = session.service.submit(QueryRequest(
                        document=request.document,
                        query=request.query)).response()
                if cluster:
                    recorder.add_reported("serve.cluster.coordinator", begun,
                                          response.exec_seconds, parent)
                else:
                    recorder.add_reported("serve.service.queue", begun,
                                          response.queue_seconds, parent)
                    recorder.add_reported(
                        "serve.service.exec", begun + response.queue_seconds,
                        response.exec_seconds, parent)
                with recorder.span("xmltree.serializer.serialize"):
                    return render(response.unwrap())
        return op
    return make


def facade_replay(session):
    """Fallback when a staged replay cannot be built: the façade call in
    one span, so coverage and overhead are still measured."""
    def make(recorder: Recorder) -> harness.Op:
        def op(request: Request) -> str:
            with recorder.span(OP, request.key):
                with recorder.span("facade"):
                    return session.run(request)
        return op
    return make


# -- reading spans ---------------------------------------------------------------


def per_op_ms(recorder: Recorder, inputs: Inputs) -> Dict[str, float]:
    """Span name → ms of self time per operation: per request the
    median over its operations, then the mean over one round."""
    labels = {span["op"]: span["label"] for span in recorder.spans
              if span["name"] == OP}
    samples: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for op, names in recorder.self_times().items():
        for name, seconds in names.items():
            samples[name][labels[op]].append(seconds)
    weights = {request.key: request.weight for request in inputs.requests}
    total = sum(weights[key] for key in set(labels.values()))
    return {name: 1e3 * sum(weights[key] * statistics.median(values)
                            for key, values in by_request.items()) / total
            for name, by_request in samples.items()}


def span_metrics(per_op: Dict[str, float], wanted: List[str]) -> dict:
    """The ``wanted`` metrics out of :func:`per_op_ms`'s span times."""
    return {metric: per_op.get(name) for name, metric
            in SPAN_METRICS.items() if metric in wanted}


def coverage(recorder: Recorder) -> float:
    """Share of the operations' wall time that lies inside a layer
    span (the rest is the benchmark's own glue between the spans)."""
    wall = glue = 0.0
    for names in recorder.self_times().values():
        glue += names.get(OP, 0.0)
        wall += sum(names.values())
    return (wall - glue) / wall


# -- side probes -------------------------------------------------------------------


def best_of(function: Callable[[], object], budget: float = 0.25) -> float:
    """Fastest of up to five calls of ``function``, at least two, no
    more once ``budget`` seconds are spent.  A side probe has a handful
    of samples, and on a shared host only the fastest is free of
    stalls."""
    best, spent, calls = float("inf"), 0.0, 0
    while calls < 2 or (calls < 5 and spent < budget):
        begun = time.perf_counter()
        function()
        seconds = time.perf_counter() - begun
        best, spent, calls = min(best, seconds), spent + seconds, calls + 1
    return best


def round_mean(inputs: Inputs, per_request: Dict[str, float]) -> float:
    """Mean over one round of a per-request number (requests without
    one count as zero)."""
    total = sum(request.weight for request in inputs.requests)
    return sum(request.weight * per_request.get(request.key, 0.0)
               for request in inputs.requests) / total


def round_sum(inputs: Inputs, per_request: Dict[str, float]) -> float:
    return sum(request.weight * per_request.get(request.key, 0)
               for request in inputs.requests)


def probe_requests(session, inputs: Inputs):
    """(engine, request) for every request, one engine per document."""
    engines: Dict[str, Engine] = {}
    for request in inputs.requests:
        if request.document not in engines:
            engines[request.document] = session.engine(request.document)
        yield engines[request.document], request


def compile_probe(session, inputs: Inputs, cold: bool,
                  replayed: Recorder) -> dict:
    """Compile-stage times and plan counts.  On compile_cold the times
    are the replayed operations' own spans; elsewhere the stages are
    run beside the operations, five times per request."""
    stages = CompileStages()
    count_nodes = entry("repro.xqcore:count_nodes")
    walk_plan = entry("repro.algebra:walk_plan")
    side = Recorder()
    counts: Dict[str, Dict[str, float]] = defaultdict(dict)
    for engine, request in probe_requests(session, inputs):
        for _ in range(5):
            with side.span(OP, request.key):
                compiled = stages.compile(engine, request.query, side.span)
        counts["algebra.plan_ops"][request.key] = \
            sum(1 for _ in walk_plan(compiled.plan))
        counts["algebra.optimized_ops"][request.key] = \
            sum(1 for _ in walk_plan(compiled.optimized))
        counts["algebra.tree_patterns"][request.key] = \
            compiled.tree_pattern_count()
        counts["rewrite.core_nodes"][request.key] = \
            count_nodes(compiled.tpnf)
    measured = span_metrics(
        per_op_ms(replayed if cold else side, inputs),
        ["xquery.parse_ms", "xqcore.normalize_ms", "rewrite.tpnf_ms",
         "algebra.compile_ms", "algebra.optimize_ms"])
    for name, per_request in counts.items():
        measured[name] = round_sum(inputs, per_request)
    return measured


def execute_probe(session, inputs: Inputs) -> dict:
    """Execution times and counters through ``Engine.execute``, the
    compiled backend, and every pattern algorithm on every tree pattern
    of every request (from the document node, outside the plan)."""
    make_algorithm = entry("repro.physical:make_algorithm")
    compile_plan = entry("repro.compiled:compile_plan")
    codegen_error = entry("repro.compiled:CodegenError")
    ms: Dict[str, Dict[str, float]] = defaultdict(dict)
    counts: Dict[str, Dict[str, float]] = defaultdict(dict)
    prune_hits = prune_checks = 0
    for engine, request in probe_requests(session, inputs):
        key = request.key
        compiled = engine.compile(request.query)
        document = engine.document
        try:
            ms["compiled.codegen_ms"][key] = 1e3 * best_of(
                lambda: compile_plan(compiled.optimized))
        except codegen_error:
            pass  # outside the compilable fragment: no sample
        ms["engine.execute_ms"][key] = 1e3 * best_of(
            lambda: engine.execute(compiled))
        engine.execute(compiled, backend="compiled")  # generates the code
        ms["compiled.runtime.execute_ms"][key] = 1e3 * best_of(
            lambda: engine.execute(compiled, backend="compiled"))
        metrics = ExecMetrics()
        engine.execute(compiled, metrics=metrics)
        counts["physical.nodes_visited"][key] = \
            sum(metrics.nodes_visited.values())
        counts["physical.stream_scanned"][key] = \
            sum(metrics.stream_scanned.values())
        counts["physical.pattern_evals"][key] = metrics.pattern_evals
        counts["algebra.eval.operator_evals"][key] = \
            sum(metrics.operator_evals.values())
        counts["algebra.eval.tuples_produced"][key] = metrics.tuples_produced
        prune_hits += request.weight * metrics.prune_hits
        prune_checks += request.weight * (metrics.prune_hits
                                          + metrics.prune_misses)
        for strategy in STRATEGIES:
            algorithm = make_algorithm(strategy, document)
            ms[f"physical.{strategy}.pattern_ms"][key] = 1e3 * sum(
                best_of(lambda: algorithm.evaluate(
                    document, [document.root], pattern))
                for pattern in compiled.tree_patterns())
        default = engine.default_strategy.value
        ms["algebra.eval.residual_ms"][key] = \
            ms["engine.execute_ms"][key] \
            - ms[f"physical.{default}.pattern_ms"][key]
    measured = {name: round_mean(inputs, per_request)
                for name, per_request in ms.items()}
    measured.update({name: round_sum(inputs, per_request)
                     for name, per_request in counts.items()})
    measured["xmltree.summary.prune_hit_ratio"] = \
        prune_hits / prune_checks if prune_checks else 0.0
    return measured


def plan_cache_probe(session, inputs: Inputs, cold: bool) -> dict:
    """Hit ratio of the engines' plan caches over one more pass; 1 on a
    warm workload and 0 with the cache off, or the workload is not what
    its name says."""
    hits = lookups = 0
    for engine, request in probe_requests(session, inputs):
        before = engine.plan_cache.stats.snapshot()
        engine.compile(request.query)
        after = engine.plan_cache.stats
        hits += after.hits - before.hits
        lookups += after.lookups - before.lookups
    ratio = hits / lookups if lookups else 0.0
    if not isinstance(session, LoadSession) \
            and ratio != (0.0 if cold else 1.0):
        raise AssertionError(f"plan cache hit ratio {ratio}")
    return {"obs.plan_cache_hit_ratio": ratio}


def storage_probe(inputs: Inputs, workdir: str) -> dict:
    """Build, save and open the workload's largest document three times
    (the fastest of each stage counts): what every workload but
    doc_load pays in set-up."""
    stages = LoadStages()
    name, text = max(inputs.texts.items(), key=lambda item: len(item[1]))
    side = Recorder()
    for _ in range(3):
        with side.span(OP, name):
            stages.load(text, f"{workdir}/probe.rpxc", side.span, None)
    loads = side.self_times().values()
    measured = {metric: 1e3 * min(times[span] for times in loads)
                for span, metric in SPAN_METRICS.items()
                if span.startswith("xmltree.")
                and all(span in times for times in loads)}
    return finish_storage(measured, stages, len(text.encode("utf-8")))


def finish_storage(measured: dict, stages: LoadStages,
                   bytes_per_op: float) -> dict:
    measured["xmltree.parser.mb_per_s"] = \
        bytes_per_op / 1e6 / (measured["xmltree.parser.parse_ms"] / 1e3)
    measured["xmltree.columnar.file_bytes_per_xml_byte"] = \
        stages.file_bytes / stages.xml_bytes
    return measured


def cluster_probe(session: ServiceSession, inputs: Inputs) -> dict:
    """Wire and merge cost of every scattered request, on its real
    per-shard result streams, and the cost of sharding a document."""
    send_frame = entry("repro.serve.worker:send_frame")
    recv_frame = entry("repro.serve.worker:recv_frame")
    merge = entry("repro.serve.cluster:merge_shard_results")
    scatter_plan = entry("repro.serve.cluster:scatter_plan")
    split = entry("repro.xmltree.shard:split_document")
    shards: Dict[str, list] = {}
    split_ms = []
    for name in inputs.texts:
        columns = session.engine(name).document.columns
        begun = time.perf_counter()
        parts = split(columns, SHARDS)
        split_ms.append(1e3 * (time.perf_counter() - begun))
        shards[name] = [(part, Engine.from_columnar(part.columns))
                        for part in parts]
    ms: Dict[str, Dict[str, float]] = defaultdict(dict)
    frame_bytes: Dict[str, float] = {}
    for engine, request in probe_requests(session, inputs):
        root_tag = session.service.layout.manifests[
            request.document].root_tag
        if not scatter_plan(engine.compile(request.query), root_tag):
            continue
        streams = [[("n", part.to_global(node.pre))
                    for node in shard_engine.run(request.query)]
                   for part, shard_engine in shards[request.document]]
        size = 0

        def roundtrip() -> None:
            nonlocal size
            size = 0
            for shard, stream in enumerate(streams):
                for frame in (
                        {"type": "task", "task_id": shard,
                         "document": request.document,
                         "query": request.query, "strategy": None,
                         "optimize": True, "shard": shard,
                         "remaining": None, "timeout": None},
                        {"type": "result", "task_id": shard, "ok": True,
                         "items": stream, "exec_seconds": 0.0}):
                    buffer = io.BytesIO()
                    send_frame(buffer, frame)
                    size += buffer.tell()
                    buffer.seek(0)
                    if recv_frame(buffer) != frame:
                        raise AssertionError("frame changed on the wire")

        ms["serve.worker.frame_roundtrip_ms"][request.key] = \
            1e3 * best_of(roundtrip)
        frame_bytes[request.key] = size
        merged: List[int] = []

        def merge_streams() -> None:
            merged[:] = merge(streams)

        ms["serve.cluster.merge_ms"][request.key] = \
            1e3 * best_of(merge_streams)
        if merged != [node.pre for node in engine.run(request.query)]:
            raise AssertionError(
                f"{request.key}: merged shard streams differ from the "
                f"whole-document answer")
    measured = {name: round_mean(inputs, per_request)
                for name, per_request in ms.items()}
    measured["serve.worker.frame_bytes"] = round_sum(inputs, frame_bytes)
    measured["xmltree.shard.split_ms"] = statistics.mean(split_ms)
    return measured


# -- the traced run ------------------------------------------------------------------


def traced_run(workload: Workload, inputs: Inputs, expected: dict,
               session, args, workdir: str):
    """Rounds of untraced operations and rounds of the staged replay,
    taking turns until ``--seconds`` have passed (so that both see the
    same host; their ratio is the tracing overhead), then the side
    probes.  Returns the replay's loop result and the per-layer
    metrics."""
    kernel = harness.ReferenceKernel()
    report = Report(kernel)
    cluster = getattr(session, "cluster", False)

    load_stages = None
    try:
        if isinstance(session, EngineSession):
            make_op = engine_replay(session, workload.cold)
        elif isinstance(session, LoadSession):
            load_stages = LoadStages()
            make_op = load_replay(session, load_stages)
        else:
            make_op = service_replay(session, cluster)
        replay_note = None
    except Unavailable as err:
        make_op, replay_note = facade_replay(session), str(err)

    def loop(make) -> harness.ClosedLoop:
        return harness.ClosedLoop(workload, inputs, expected, args.seed,
                                  make)

    recorders = [Recorder() for _ in range(workload.callers)]
    loops = [loop(lambda index: session.run),
             loop(lambda index: make_op(recorders[index]))]
    threads = None
    if cluster:
        # The same mix through QueryService over the same catalog, for
        # serve.cluster.vs_threads_ratio.
        threads = QueryService(session.catalog, workers=WORKERS)
        loops.append(loop(lambda index: lambda request: render(
            threads.submit(QueryRequest(
                document=request.document,
                query=request.query)).result())))
        for _ in range(harness.WARM_ROUNDS):
            loops[2].round()
        loops[2].result = harness.LoopResult()
    try:
        before = session.service.cluster_stats() if cluster else None
        gc.collect()
        deadline = time.perf_counter() + args.seconds
        order = list(loops)
        while time.perf_counter() < deadline:
            for turn in order:
                turn.round()
                kernel.sample(force=False)
            order.append(order.pop(0))  # nobody always follows the same
        after = session.service.cluster_stats() if cluster else None
    finally:
        if threads is not None:
            threads.close()
    base, traced = loops[0].result, loops[1].result
    recorder = recorders[0]
    for other in recorders[1:]:
        recorder.extend(other)
    if args.spans:
        recorder.dump(args.spans)
    for turn in loops:
        if turn.result.failed:
            raise AssertionError(f"operations failed in the traced run: "
                                 f"{turn.result.errors[:3]}")
    per_op = per_op_ms(recorder, inputs)

    share = coverage(recorder)
    if not 0.9 <= share <= 1.1:
        raise AssertionError(f"trace.coverage {share:.3f} outside "
                             f"[0.9, 1.1]")
    report.values["trace.coverage"] = share
    report.values["trace.overhead_ratio"] = \
        traced.throughput / base.throughput
    report.values["xmltree.serializer.serialize_ms"] = \
        per_op.get("xmltree.serializer.serialize")
    report.values["xmltree.serializer.bytes_out"] = round_sum(
        inputs, {request.key: expected[request.key]["length"]
                 for request in inputs.requests})

    report.probe(["xquery.parse_ms", "xqcore.normalize_ms",
                  "rewrite.tpnf_ms", "algebra.compile_ms",
                  "algebra.optimize_ms", "algebra.plan_ops",
                  "algebra.optimized_ops", "algebra.tree_patterns",
                  "rewrite.core_nodes"],
                 lambda: compile_probe(session, inputs, workload.cold,
                                       recorder))
    report.probe(["compiled.codegen_ms", "engine.execute_ms",
                  "algebra.eval.residual_ms",
                  "compiled.runtime.execute_ms",
                  "physical.nodes_visited", "physical.stream_scanned",
                  "physical.pattern_evals",
                  "algebra.eval.operator_evals",
                  "algebra.eval.tuples_produced",
                  "xmltree.summary.prune_hit_ratio"]
                 + [f"physical.{name}.pattern_ms" for name in STRATEGIES],
                 lambda: execute_probe(session, inputs))
    report.probe(["obs.plan_cache_hit_ratio"],
                 lambda: plan_cache_probe(session, inputs, workload.cold))

    storage = [name for name, _, _ in PER_LAYER
               if name.startswith(("xmltree.parser", "xmltree.document",
                                   "xmltree.columnar",
                                   "xmltree.summary.build"))]
    if load_stages is not None:
        report.probe(storage, lambda: finish_storage(
            span_metrics(per_op, storage), load_stages, load_stages.xml_bytes / len(traced.samples)))
    else:
        report.probe(storage, lambda: storage_probe(inputs, workdir))

    if isinstance(session, ServiceSession) and not cluster:
        stats = session.service.stats()
        report.values.update(span_metrics(
            per_op, ["serve.service.queue_ms",
                     "serve.service.exec_ms",
                     "serve.service.overhead_ms"]))
        report.values["serve.service.coalesced_ratio"] = \
            stats.coalesced / stats.submitted
        report.values["serve.service.shed"] = stats.shed
    if cluster:
        report.probe(["serve.worker.frame_roundtrip_ms",
                      "serve.worker.frame_bytes", "serve.cluster.merge_ms",
                      "xmltree.shard.split_ms"],
                     lambda: cluster_probe(session, inputs))
        # Worker-measured execution seconds of both cluster loops.
        busy = sum(worker.busy_seconds for worker in after.workers) \
            - sum(worker.busy_seconds for worker in before.workers)
        operations = len(base.samples) + len(traced.samples)
        scattered = after.scattered - before.scattered
        whole = after.whole_document - before.whole_document
        request_ms = 1e3 * statistics.mean(
            span["end"] - span["start"] for span in recorder.spans
            if span["name"] == "serve.cluster.request")
        report.values.update({
            "serve.cluster.coordination_ms":
                request_ms - 1e3 * busy / operations,
            "serve.cluster.scattered_ratio": scattered / (scattered + whole),
            "serve.cluster.worker_busy_share":
                busy / ((base.busy + traced.busy) * len(after.workers)),
            "serve.cluster.respawns": after.respawns,
            "serve.cluster.vs_threads_ratio":
                base.throughput / loops[2].result.throughput,
        })

    metrics = report.metrics(
        not_here=f"this layer does no work in {workload.name}")
    if replay_note is not None:
        metrics["trace.coverage"]["reason"] = \
            f"façade replay only: {replay_note}"
    return traced, metrics
