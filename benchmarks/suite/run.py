"""Run the benchmark.

One workload, as the driver calls it (the last line of standard output
is the result object; the line before it carries the detail)::

    python3 benchmarks/suite/run.py --workload pattern_warm --seed 7 \\
        --seconds 10 --trace 0

The whole suite, every workload in a fresh interpreter, as one JSON
document (input of ``compare.py``)::

    python3 benchmarks/suite/run.py [--seed S] [--repeat N] [--out A.json]

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` replays every operation stage by stage inside the
benchmark's own spans and reports the per-layer metrics (``--spans
FILE`` keeps the spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit(f"run.py: no program to measure: {SOURCE}/repro is missing")
# The checkout's own source, ahead of any installed copy.
sys.path[:0] = [SOURCE, HERE]

import harness  # noqa: E402
import oracle  # noqa: E402
from workloads import (DEFAULT_SEED, HOLDOUT_SEED, SIZES,  # noqa: E402
                       WORKLOADS, Workload)


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def workdir_for(label: str) -> str:
    return harness.fresh_workdir(
        os.path.join(HERE, ".work", f"{label}-{os.getpid()}"))


def run_workload(workload: Workload, args) -> tuple:
    """Measure one workload in this process; returns the result object
    of the driver's contract and the detail object."""
    sizes = SIZES["smoke" if args.smoke else "full"]
    if workload.one_core:
        # Inherited by the worker processes the session spawns.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = workdir_for(workload.name)
    kernel = harness.ReferenceKernel()
    try:
        inputs = workload.inputs(args.seed, sizes)
        expected, source = harness.prepare_expected(
            workload, args.seed, inputs, committed=not args.smoke)
        setup_seconds = []
        kernel.sample(3)
        for _ in range(1 if args.trace or args.smoke
                       else harness.SETUP_REPEATS):
            if setup_seconds:
                session.close()
            # Documents are cyclic garbage: without this, whether the
            # previous set-up's are still around when the next one peaks
            # is up to the collector, and peak_rss_mb doubles or not.
            gc.collect()
            begun = time.perf_counter()
            session, answers = harness.set_up(workload, inputs, expected,
                                              args.seed, workdir)
            setup_seconds.append(time.perf_counter() - begun)
            kernel.sample(3)
        setup_samples = kernel.samples
        try:
            checked = oracle.check_against_etree(inputs, answers)
            if args.trace:
                import layers
                first = {}
                result, metrics = layers.traced_run(
                    workload, inputs, expected, session, args, workdir)
            else:
                result = harness.measure(
                    workload, inputs, expected, args.seed,
                    lambda index: session.run, args.seconds, kernel)
                first = harness.check_samples(inputs, result, args.smoke)
        finally:
            session.close()
    finally:
        harness.remove_workdir(workdir)
    if not args.trace:
        # After close: the workers are reaped, so their peak memory is
        # in RUSAGE_CHILDREN.
        metrics = harness.end_to_end(
            result, setup_seconds, kernel.slowdown(end=setup_samples),
            kernel.slowdown(start=setup_samples))
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke, "host": host(),
              "operation": workload.operation, "callers": workload.callers,
              "expected_from": source, "checked_against_etree": checked,
              "timed_seconds": result.busy,
              "failed_share": result.failed / result.attempted,
              "errors": result.errors[:10], **first, "metrics": metrics}
    contract = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        # Numbers only: a per-layer metric that is null (with its
        # reason) in the detail line is -1 here.
        "metrics": {name: {"value": -1.0 if entry["value"] is None
                           else entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }
    return contract, detail


def check_declared(metrics: dict, declared: list, what: str) -> None:
    names = [entry["name"] for entry in declared]
    if sorted(metrics) != sorted(names):
        raise AssertionError(
            f"{what} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}")
    for entry in declared:
        if metrics[entry["name"]]["unit"] != entry["unit"]:
            raise AssertionError(f"{entry['name']}: unit differs from "
                                 f"BENCHMARK.json")


def write_expected(seed: int) -> None:
    """Record the digests of every workload for ``seed``, after the
    optimizing engine, the unoptimized plan and ElementTree agreed."""
    for workload in WORKLOADS.values():
        inputs = workload.inputs(seed, SIZES["full"])
        digests = oracle.item_digests(inputs)
        workdir = workdir_for("expected")
        try:
            session, answers = harness.set_up(workload, inputs, digests,
                                              seed, workdir)
            session.close()
        finally:
            harness.remove_workdir(workdir)
        checked = oracle.check_against_etree(inputs, answers)
        path = oracle.write_expected(workload.name, seed, inputs, digests)
        print(f"{path}: {len(digests)} answers, {len(checked)} also "
              f"checked against ElementTree", file=sys.stderr)


def run_suite(args) -> dict:
    """Every workload (or ``--workload``'s) ``--repeat`` times with
    tracing off and once traced, each run in a fresh interpreter."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    document = {"schema": 1, "host": host(), "seed": args.seed,
                "seconds": args.seconds, "smoke": args.smoke,
                "workloads": {}}
    for name in names:
        runs = [child(name, args, trace=0) for _ in range(args.repeat)]
        traced = child(name, args, trace=1)
        end_to_end = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                **runs[0]["metrics"][metric],
                "value": statistics.median(values), "values": values}
        document["workloads"][name] = {
            "operation": runs[0]["operation"],
            "failed_share": max(run["failed_share"] for run in runs),
            "timed_seconds": [run["timed_seconds"] for run in runs],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "expected_from": runs[0]["expected_from"],
            "checked_against_etree": runs[0]["checked_against_etree"]}
    return document


def child(name: str, args, trace: int) -> dict:
    """One run in a fresh interpreter; returns its detail object."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.spans:
        command += ["--spans", f"{args.spans}.{name}.json"]
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=True)
    detail_line, contract_line = finished.stdout.strip().splitlines()[-2:]
    contract = json.loads(contract_line)
    if not contract["correct"]:
        raise AssertionError(f"{name}: {contract['failed']} of "
                             f"{contract['attempted']} operations failed")
    return json.loads(detail_line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 1 reports the per-layer "
                             "metrics from a traced run, 0 the end-to-end "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small documents and a 1 s timed phase: "
                             "proves the suite runs, measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: untraced runs per workload")
    parser.add_argument("--out", help="suite mode: also write the JSON "
                                      "document to this file")
    parser.add_argument("--spans", help="traced run: write the spans to "
                                        "this file (suite mode: prefix)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record expected/<workload>.<seed>.json for "
                             "the default and the hold-out seed")
    args = parser.parse_args(argv)
    declaration = load_declaration()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else declaration["run_seconds"]
    if args.write_expected:
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            write_expected(seed)
        return 0
    # The driver passes --workload and --trace; without --trace the
    # call is a person asking for the suite document.
    if args.trace is None:
        document = run_suite(args)
        text = json.dumps(document, indent=1)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        print(text)
        return 0
    if args.workload is None:
        parser.error("--trace needs --workload")
    contract, detail = run_workload(WORKLOADS[args.workload], args)
    check_declared(detail["metrics"],
                   declaration["per_layer" if args.trace else "end_to_end"],
                   "per-layer" if args.trace else "end-to-end")
    print(json.dumps(detail))
    print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
