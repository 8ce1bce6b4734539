"""Command-line interface.

::

    python -m repro query   "$input//person/name" --doc site.xml
    python -m repro explain "$input//person[emailaddress]/name"
    python -m repro compare "$input//person/name" --doc site.xml
    python -m repro visualize "$input//person[emailaddress]" --what pattern
    python -m repro generate xmark --size 100 --output site.xml
    python -m repro index site.xml -o site.rpxc --verify
    python -m repro query "$input//person/name" --doc site.rpxc
    python -m repro serve-bench --workers 4 --concurrency 8
    python -m repro serve-bench --cluster --http --http-port 9464
    python -m repro top --url http://127.0.0.1:9464

``query`` evaluates against a document (``--doc``, or a built-in sample
when omitted) and prints the result sequence.  ``explain`` shows every
compilation stage.  ``compare`` times every physical strategy on one
query.  ``generate`` writes a MemBeR-style or XMark-style document.
``index`` saves a document's columnar index, which ``--doc`` later
mmap-opens in O(1) without re-parsing (the file magic tells the two
apart).
``serve-bench`` load-tests the concurrent query service
(:mod:`repro.serve`) with a seeded mixed workload; ``--http`` mounts
the live observability endpoint on it, and ``top`` is the matching
refreshing ops console (see docs/OBSPLANE.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .algebra.optimizer import OptimizerOptions
from .data import deep_member_document, member_document, xmark_document
from .engine import DEFAULT_FALLBACK_CHAIN, Engine
from .guard import Budgets, ReproError
from .physical import Strategy
from .trace import Tracer
from .xmltree import Node, serialize

SAMPLE_DOCUMENT = """<site><people>
<person id="p1"><name>John</name><emailaddress>j@x.example</emailaddress>
<profile><interest category="art"/></profile></person>
<person id="p2"><name>Mary</name>
<profile><interest category="music"/></profile></person>
</people></site>"""

_STRATEGY_CHOICES = [strategy.value for strategy in Strategy]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XQuery engine with algebraic tree-pattern detection "
                    "(reproduction of 'Put a Tree Pattern in Your "
                    "Algebra', ICDE 2007)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="evaluate a query")
    _add_document_options(query)
    query.add_argument("expression", help="the XQuery expression")
    query.add_argument("--strategy", choices=_STRATEGY_CHOICES,
                       default=Strategy.STAIRCASE.value,
                       help="tree-pattern algorithm (default: scjoin)")
    query.add_argument("--no-optimize", action="store_true",
                       help="skip rewriting and tree-pattern detection")
    query.add_argument("--positional", action="store_true",
                       help="enable the positional-pattern extension")
    query.add_argument("--format", choices=["text", "xml"], default="text",
                       help="result rendering (default: text values)")
    query.add_argument("--metrics", action="store_true",
                       help="print stage timings, execution counters and "
                            "plan-cache statistics after the results")
    query.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget for the query (shared "
                            "across fallback attempts)")
    query.add_argument("--max-steps", type=int, default=None, metavar="N",
                       help="evaluation step budget for the query")
    query.add_argument("--strict", action="store_true",
                       help="fail fast: no strategy fallback, original "
                            "algorithm errors propagate")
    query.add_argument("--fallback-chain", default=None, metavar="CHAIN",
                       help="comma-separated strategies to retry on "
                            "algorithm failure (default: "
                            f"{','.join(DEFAULT_FALLBACK_CHAIN)}; "
                            "'none' disables fallback)")

    explain = commands.add_parser(
        "explain", help="show every compilation stage for a query")
    _add_document_options(explain)
    explain.add_argument("expression")
    explain.add_argument("--positional", action="store_true",
                         help="enable the positional-pattern extension")
    explain.add_argument("--metrics", action="store_true",
                         help="include per-stage compile timings")
    explain.add_argument("--analyze", action="store_true",
                         help="EXPLAIN ANALYZE: execute the query once "
                              "under a trace and annotate the plan with "
                              "measured per-operator wall time and "
                              "cardinalities (see docs/TRACING.md)")
    explain.add_argument("--strategy", choices=_STRATEGY_CHOICES,
                         default=None,
                         help="strategy for the --analyze execution")
    explain.add_argument("--dot", default=None, metavar="FILE",
                         help="with --analyze: also write the annotated "
                              "plan graph as Graphviz DOT to FILE")

    compare = commands.add_parser(
        "compare", help="time every strategy on one query")
    _add_document_options(compare)
    compare.add_argument("expression")
    compare.add_argument("--repeats", type=int, default=3)
    compare.add_argument("--metrics", action="store_true",
                         help="show work counters (nodes visited, stream "
                              "elements scanned) next to the timings")

    visualize = commands.add_parser(
        "visualize", help="emit Graphviz DOT for a query's plan/patterns")
    _add_document_options(visualize)
    visualize.add_argument("expression")
    visualize.add_argument("--what", choices=["plan", "pattern"],
                           default="plan")
    visualize.add_argument("--positional", action="store_true",
                           help="enable the positional-pattern extension")

    serve_bench = commands.add_parser(
        "serve-bench",
        help="drive the concurrent query service with a seeded mixed "
             "load and report throughput/latency (see docs/SERVING.md)")
    serve_bench.add_argument("--workers", type=int, default=4,
                             help="service worker threads — or worker "
                                  "processes with --cluster (default: 4)")
    serve_bench.add_argument("--cluster", action="store_true",
                             help="serve from a multi-process sharded "
                                  "cluster (repro.serve.cluster) instead "
                                  "of the in-process thread pool; see "
                                  "docs/CLUSTER.md")
    serve_bench.add_argument("--shards", type=int, default=4,
                             help="with --cluster, shards per document "
                                  "(default: 4)")
    serve_bench.add_argument("--concurrency", type=int, default=8,
                             help="closed-loop client threads "
                                  "(default: 8)")
    serve_bench.add_argument("--requests", type=int, default=25,
                             metavar="N",
                             help="requests per client (default: 25)")
    serve_bench.add_argument("--queue-limit", type=int, default=128,
                             metavar="N",
                             help="admission queue capacity "
                                  "(default: 128)")
    serve_bench.add_argument("--seed", type=int, default=7,
                             help="workload schedule seed (default: 7)")
    serve_bench.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-request deadline (queue wait "
                                  "included)")
    serve_bench.add_argument("--check", action="store_true",
                             help="exit non-zero on any differential "
                                  "mismatch, error or shed request "
                                  "(for CI smoke runs)")
    serve_bench.add_argument("--trace", action="store_true",
                             help="attach a span tracer to the service "
                                  "(per-request traces + flight "
                                  "recorder; see docs/TRACING.md)")
    serve_bench.add_argument("--trace-sample", type=float, default=None,
                             metavar="RATIO",
                             help="trace only this fraction of requests "
                                  "(deterministic sampler; implies "
                                  "--trace)")
    serve_bench.add_argument("--trace-out", default=None, metavar="FILE",
                             help="write every finished request trace "
                                  "as Chrome trace JSON (implies "
                                  "--trace; open in chrome://tracing)")
    serve_bench.add_argument("--prom-out", default=None, metavar="FILE",
                             help="write service metrics + tracer "
                                  "aggregates in Prometheus text format")
    serve_bench.add_argument("--flight-out", default=None, metavar="FILE",
                             help="write the flight recorder's retained "
                                  "traces (K slowest + most recent) as "
                                  "Chrome trace JSON (implies --trace)")
    serve_bench.add_argument("--chaos-rate", type=float, default=0.0,
                             metavar="RATE",
                             help="inject faults at --chaos-site at this "
                                  "rate while the load runs (0 disables; "
                                  "see docs/ROBUSTNESS.md)")
    serve_bench.add_argument("--chaos-site", default="serve.execute",
                             metavar="SITE",
                             help="chaos site to fault (default: "
                                  "serve.execute)")
    serve_bench.add_argument("--chaos-action", default="raise",
                             choices=["raise", "delay"],
                             help="fault action (default: raise)")
    serve_bench.add_argument("--chaos-delay", type=float, default=0.005,
                             metavar="SECONDS",
                             help="delay per fired 'delay' action "
                                  "(default: 0.005)")
    serve_bench.add_argument("--retry", default=True,
                             action=argparse.BooleanOptionalAction,
                             help="retry failed attempts with backoff "
                                  "and strategy fallback (default: on)")
    serve_bench.add_argument("--breaker", default=True,
                             action=argparse.BooleanOptionalAction,
                             help="per-document circuit breaker "
                                  "(default: on)")
    serve_bench.add_argument("--min-availability", type=float,
                             default=0.99, metavar="FRACTION",
                             help="with --check and --chaos-rate > 0, "
                                  "fail below this success fraction "
                                  "(default: 0.99)")
    serve_bench.add_argument("--http", action="store_true",
                             help="serve the live observability "
                                  "endpoint (/metrics, /healthz, "
                                  "/flight, /traces/<id>) while the "
                                  "load runs; see docs/OBSPLANE.md")
    serve_bench.add_argument("--http-port", type=int, default=0,
                             metavar="PORT",
                             help="with --http, bind this port "
                                  "(default: 0 = ephemeral; the bound "
                                  "URL is printed before the load "
                                  "starts)")
    serve_bench.add_argument("--http-hold", type=float, default=0.0,
                             metavar="SECONDS",
                             help="with --http, keep the endpoint (and "
                                  "service) up this long after the "
                                  "load finishes so scrapers can poll "
                                  "the final state")

    top = commands.add_parser(
        "top",
        help="live ops console: poll an observability endpoint and "
             "render qps/p50/p95/p99/shed/breaker tables per document "
             "and per shard (see docs/OBSPLANE.md)")
    top.add_argument("--url", default="http://127.0.0.1:9464",
                     help="endpoint base URL (default: "
                          "http://127.0.0.1:9464)")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="seconds between scrapes (default: 2.0)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N scrapes (default: run until "
                          "interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append refreshes instead of clearing the "
                          "screen (for logs and CI)")

    index = commands.add_parser(
        "index",
        help="parse an XML document and save its columnar index "
             "(mmap-opened in O(1) by --doc / the catalog; "
             "see docs/STORAGE.md)")
    index.add_argument("input", help="XML document file")
    index.add_argument("--output", "-o", default=None, metavar="FILE",
                       help="index file to write "
                            "(default: INPUT with a .rpxc suffix)")
    index.add_argument("--verify", action="store_true",
                       help="re-open the written file, check the "
                            "checksum and every structural invariant, "
                            "and compare all columns against the "
                            "in-memory build")
    index.add_argument("--stats", action="store_true",
                       help="print per-tag stream sizes next to the "
                            "summary line")

    shard = commands.add_parser(
        "shard",
        help="split a document into subtree-closed columnar shards "
             "plus a manifest, servable by the multi-process cluster "
             "(see docs/CLUSTER.md)")
    shard.add_argument("input",
                       help="XML document file or saved .rpxc index")
    shard.add_argument("--shards", type=int, default=4,
                       help="shard count to aim for (default: 4; heavy "
                            "skew may yield fewer)")
    shard.add_argument("--output-dir", "-o", default=None, metavar="DIR",
                       help="layout directory (default: the input's "
                            "directory)")
    shard.add_argument("--name", default=None,
                       help="document name inside the layout "
                            "(default: the input's stem)")

    generate = commands.add_parser(
        "generate", help="write a synthetic benchmark document")
    generate.add_argument("kind", choices=["member", "deep", "xmark"])
    generate.add_argument("--size", type=int, default=1000,
                          help="node count (member/deep) or person count "
                               "(xmark)")
    generate.add_argument("--depth", type=int, default=None)
    generate.add_argument("--tags", type=int, default=100,
                          help="tag count for member documents")
    generate.add_argument("--seed", type=int, default=20070415)
    generate.add_argument("--output", "-o", default="-",
                          help="output file ('-' for stdout)")
    return parser


def _add_document_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--doc", help="document file: XML text or a "
                                      "saved columnar index "
                                      "(default: a built-in sample)")
    parser.add_argument("--no-summary", action="store_true",
                        help="disable the structural path summary "
                             "(pattern prefiltering and selectivity-"
                             "aware costing)")


def _load_engine(args) -> Engine:
    options = OptimizerOptions(
        enable_positional=getattr(args, "positional", False))
    kwargs: dict = {"optimizer_options": options}
    timeout = getattr(args, "timeout", None)
    max_steps = getattr(args, "max_steps", None)
    if timeout is not None or max_steps is not None:
        kwargs["budgets"] = Budgets(wall_seconds=timeout,
                                    max_steps=max_steps)
    if getattr(args, "strict", False):
        kwargs["strict"] = True
    if getattr(args, "no_summary", False):
        kwargs["use_summary"] = False
    chain = getattr(args, "fallback_chain", None)
    if chain is not None:
        kwargs["fallback_chain"] = None if chain.lower() == "none" else chain
    if args.doc:
        return Engine.from_file(args.doc, **kwargs)
    return Engine.from_xml(SAMPLE_DOCUMENT, **kwargs)


def _render_item(item, as_xml: bool) -> str:
    if isinstance(item, Node):
        return serialize(item) if as_xml else item.string_value()
    if isinstance(item, bool):
        return "true" if item else "false"
    return str(item)


def _command_query(args, out) -> int:
    engine = _load_engine(args)
    if args.metrics:
        traced = engine.run_traced(args.expression, strategy=args.strategy,
                                   optimize=not args.no_optimize)
        for item in traced.results:
            print(_render_item(item, args.format == "xml"), file=out)
        print(file=out)
        print(traced.report(), file=out)
        return 0
    result = engine.run(args.expression, strategy=args.strategy,
                        optimize=not args.no_optimize)
    for item in result:
        print(_render_item(item, args.format == "xml"), file=out)
    return 0


def _command_explain(args, out) -> int:
    engine = _load_engine(args)
    if args.analyze:
        traced = engine.run_traced(args.expression, strategy=args.strategy,
                                   tracer=Tracer())
        print(traced.render(), file=out)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(traced.to_dot() + "\n")
            print(file=out)
            print(f"wrote annotated plan graph to {args.dot}", file=out)
        return 0
    compiled = engine.compile(args.expression)
    print(compiled.explain(metrics=args.metrics), file=out)
    print(file=out)
    print(f"tree patterns detected: {compiled.tree_pattern_count()}",
          file=out)
    for pattern in compiled.tree_patterns():
        print(f"  {pattern.to_string()}", file=out)
    return 0


def _command_compare(args, out) -> int:
    from .bench import measure_strategy
    engine = _load_engine(args)
    compiled = engine.compile(args.expression)
    reference: Optional[list] = None
    print(f"query: {args.expression}", file=out)
    print(f"tree patterns: {compiled.tree_pattern_count()}", file=out)
    for strategy in ("nljoin", "twigjoin", "scjoin", "stacktree",
                     "streaming", "auto", "cost"):
        measurement = measure_strategy(engine, compiled, strategy,
                                       repeats=max(args.repeats, 1))
        result = engine.execute(compiled, strategy=strategy)
        keys = [getattr(item, "pre", item) for item in result]
        if reference is None:
            reference = keys
        status = "ok" if keys == reference else "MISMATCH"
        line = (f"  {strategy:>9}: {measurement.seconds * 1000:9.3f} ms  "
                f"({measurement.result_count} items, {status})")
        metrics = measurement.metrics
        if args.metrics and metrics is not None:
            line += (f"  visited={sum(metrics.nodes_visited.values())}"
                     f" scanned={sum(metrics.stream_scanned.values())}"
                     f" pushes={sum(metrics.stack_pushes.values())}")
            if metrics.decision_counts:
                choices = ",".join(
                    f"{name}:{count}" for name, count
                    in sorted(metrics.decision_counts.items()))
                line += f" decisions={choices}"
        print(line, file=out)
    return 0


def _command_visualize(args, out) -> int:
    from .algebra import pattern_to_dot, plan_to_dot
    engine = _load_engine(args)
    compiled = engine.compile(args.expression)
    if args.what == "plan":
        print(plan_to_dot(compiled.optimized, name=args.expression),
              file=out)
        return 0
    patterns = compiled.tree_patterns()
    if not patterns:
        print("// no tree patterns detected", file=out)
        return 1
    for index, pattern in enumerate(patterns):
        print(pattern_to_dot(pattern, name=f"pattern{index}"), file=out)
    return 0


def _command_serve_bench(args, out) -> int:
    from .guard import ChaosSpec, inject
    from .serve import (BreakerPolicy, ClusterService, QueryService,
                        RetryPolicy, default_catalog, mixed_workload,
                        run_load, sequential_baseline)
    from .trace import FlightRecorder, write_chrome_trace, write_prometheus
    from .trace.recorder import DEFAULT_RECENT
    tracing_on = bool(args.trace or args.trace_sample is not None
                      or args.trace_out or args.flight_out)
    tracer = None
    flight = None
    if tracing_on:
        tracer = Tracer(sampler=args.trace_sample)
        recent = DEFAULT_RECENT
        if args.trace_out:
            # --trace-out wants every request trace, so size the ring
            # to the whole (bounded) bench workload.
            recent = max(recent, args.concurrency * args.requests)
        flight = FlightRecorder(recent=recent)
    options = dict(workers=args.workers, queue_limit=args.queue_limit,
                   tracer=tracer, flight_recorder=flight,
                   breaker_policy=BreakerPolicy() if args.breaker else None)
    if args.cluster:
        service = ClusterService.from_catalog(
            default_catalog(seed=args.seed), shard_count=args.shards,
            **options)
    else:
        service = QueryService(
            default_catalog(seed=args.seed),
            retry_policy=RetryPolicy() if args.retry else None, **options)
    observer = None
    if getattr(args, "http", False):
        from .serve import ObservabilityServer
        observer = ObservabilityServer(service,
                                       port=args.http_port).start()
        print(f"observability endpoint: {observer.url}", file=out,
              flush=True)
    try:
        workload = mixed_workload(args.seed)
        # Baseline before any chaos: successes under injection must
        # still match fault-free answers byte for byte.
        expected = sequential_baseline(service, workload)
        if args.chaos_rate > 0:
            spec = ChaosSpec(site=args.chaos_site,
                             action=args.chaos_action,
                             rate=args.chaos_rate,
                             delay_seconds=args.chaos_delay)
            with inject(spec):
                report = run_load(service, workload,
                                  concurrency=args.concurrency,
                                  requests_per_client=args.requests,
                                  seed=args.seed, timeout=args.timeout,
                                  expected=expected)
        else:
            report = run_load(service, workload,
                              concurrency=args.concurrency,
                              requests_per_client=args.requests,
                              seed=args.seed, timeout=args.timeout,
                              expected=expected)
        health = service.health()
        cluster_stats = service.cluster_stats() if args.cluster else None
        if observer is not None and args.http_hold > 0:
            import time as _time
            _time.sleep(args.http_hold)
    finally:
        if observer is not None:
            observer.close()
        service.close()
    print(report.report(), file=out)
    if cluster_stats is not None:
        print(cluster_stats.report(), file=out)
    if args.chaos_rate > 0:
        print(f"chaos      : site={args.chaos_site} "
              f"action={args.chaos_action} rate={args.chaos_rate} "
              f"retry={'on' if args.retry else 'off'} "
              f"breaker={'on' if args.breaker else 'off'}", file=out)
        print(f"health     : {health.status}", file=out)
    snapshot = service.flight_recorder()
    if snapshot is not None:
        print(f"tracing    : {snapshot.recorded} request traces "
              f"({len(snapshot.recent)} retained, "
              f"{len(snapshot.slowest)} slowest)", file=out)
    if args.trace_out:
        traces = [entry.trace for entry in snapshot.recent]
        write_chrome_trace(args.trace_out, traces)
        print(f"wrote Chrome trace of {len(traces)} requests to "
              f"{args.trace_out}", file=out)
    if args.flight_out:
        traces = [entry.trace for entry in snapshot.slowest]
        write_chrome_trace(args.flight_out, traces)
        print(f"wrote flight recorder ({len(traces)} slowest requests) "
              f"to {args.flight_out}", file=out)
    if args.prom_out:
        write_prometheus(args.prom_out, metrics=service.metrics,
                         tracer=tracer, cluster=cluster_stats)
        print(f"wrote Prometheus metrics to {args.prom_out}", file=out)
    if args.check:
        if args.chaos_rate > 0:
            # Under chaos, errors are expected — what must hold is the
            # resilience contract: typed failures only, byte-identical
            # successes, availability above the floor.
            failed = (report.mismatches or report.bare_errors
                      or report.availability < args.min_availability)
            if failed:
                print(f"check FAILED: mismatches={report.mismatches} "
                      f"bare_errors={report.bare_errors} "
                      f"availability={report.availability:.4f} "
                      f"(floor {args.min_availability})", file=out)
                return 1
        elif report.mismatches or report.errors or report.shed:
            print(f"check FAILED: mismatches={report.mismatches} "
                  f"errors={report.errors} shed={report.shed}", file=out)
            return 1
    return 0


def _parse_file(path: str):
    """An XML file as an indexed document (its uri is the path)."""
    from .xmltree import IndexedDocument
    with open(path, "r", encoding="utf-8") as handle:
        return IndexedDocument.from_string(handle.read(), uri=path)


def _command_index(args, out) -> int:
    import time as _time
    from .xmltree import ColumnarDocument
    from .xmltree.columnar import _INT_COLUMNS

    output = args.output
    if output is None:
        stem = args.input[:-4] if args.input.endswith(".xml") \
            else args.input
        output = stem + ".rpxc"
    started = _time.perf_counter()
    document = _parse_file(args.input)
    columns = document.columns
    size = document.save(output)
    elapsed = _time.perf_counter() - started
    print(f"indexed {args.input}: {columns.n} nodes, "
          f"{len(columns.tag_pres)} tags, "
          f"{len(columns.attribute_pres)} attribute names", file=out)
    print(f"wrote {output}: {size} bytes "
          f"in {elapsed * 1000:.1f} ms (parse + save)", file=out)
    if args.stats:
        for tag in sorted(columns.tag_pres):
            print(f"  {tag:>20}: {len(columns.tag_pres[tag])} elements",
                  file=out)
    if args.verify:
        reopened = ColumnarDocument.open(output)
        reopened.validate()
        for name in _INT_COLUMNS + ("path_dir",):
            if list(getattr(reopened, name)) != \
                    list(getattr(columns, name)):
                print(f"verify FAILED: column {name!r} differs",
                      file=out)
                return 1
        if list(reopened.kind) != list(columns.kind) or \
                list(reopened.names) != list(columns.names) or \
                list(reopened.texts) != list(columns.texts):
            print("verify FAILED: dictionaries differ", file=out)
            return 1
        reopened.close()
        print(f"verified {output}: checksum, invariants and all "
              f"columns match (opened in "
              f"{reopened.open_seconds * 1000:.2f} ms)", file=out)
    return 0


def _command_shard(args, out) -> int:
    import time as _time
    from .xmltree import ColumnarDocument, is_columnar_file
    from .xmltree.shard import ShardManifest, write_shard_layout

    if is_columnar_file(args.input):
        columns = ColumnarDocument.open(args.input)
    else:
        columns = _parse_file(args.input).columns
    name = args.name
    if name is None:
        name = os.path.splitext(os.path.basename(args.input))[0]
    directory = args.output_dir or os.path.dirname(
        os.path.abspath(args.input))
    started = _time.perf_counter()
    manifest_path = write_shard_layout(columns, directory, name,
                                       args.shards)
    elapsed = _time.perf_counter() - started
    manifest = ShardManifest.load(manifest_path)
    print(f"sharded {args.input}: {manifest.total_nodes} nodes -> "
          f"{manifest.shard_count} shards (spine {manifest.spine_len}) "
          f"in {elapsed * 1000:.1f} ms", file=out)
    for index, file_name in enumerate(manifest.shard_files):
        nodes = sum(run.length for run in manifest.runs_for(index))
        size = os.path.getsize(os.path.join(directory, file_name))
        print(f"  shard {index}: {nodes} nodes, {size} bytes "
              f"({file_name})", file=out)
    print(f"wrote manifest {manifest_path}", file=out)
    print(f"serve it: ClusterService(ClusterLayout.load"
          f"({directory!r}))", file=out)
    return 0


def _command_generate(args, out) -> int:
    if args.kind == "member":
        document = member_document(args.size, depth=args.depth or 4,
                                   tag_count=args.tags, seed=args.seed)
    elif args.kind == "deep":
        document = deep_member_document(args.size, depth=args.depth or 15)
    else:
        document = xmark_document(args.size, seed=args.seed)
    text = serialize(document.root)
    if args.output == "-":
        print(text, file=out)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {document.size} nodes to {args.output}", file=out)
    return 0


def _command_top(args, out) -> int:
    from .serve.console import run_console
    try:
        return run_console(args.url, interval=args.interval,
                           iterations=args.iterations, out=out,
                           clear=not args.no_clear)
    except KeyboardInterrupt:
        return 0


_COMMANDS = {
    "query": _command_query,
    "explain": _command_explain,
    "compare": _command_compare,
    "visualize": _command_visualize,
    "serve-bench": _command_serve_bench,
    "top": _command_top,
    "index": _command_index,
    "shard": _command_shard,
    "generate": _command_generate,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as err:
        # Structured engine errors render with their code, source span
        # and caret snippet; anything else is a genuine crash.
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
