"""Compare two suite documents written by ``run.py --out``.

    python3 benchmarks/suite/compare.py A.json B.json

For every workload and end-to-end metric, B's median may be worse than
A's by at most the bound BENCHMARK.json fixes; ``failed_share`` may not
rise at all.  A pairing whose run-to-run spread (distance between the
quartiles over the median, in either document) is wider than its bound
is reported as ``unresolved``, not as unchanged.  Per-layer metrics
have no bound; those that moved by more than a quarter (side probes
have a handful of samples each) are listed so the change can be
located.  Exits 1 when a pairing regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def spread(values) -> float:
    """Inter-quartile distance over the median; 0 for a single run,
    whose spread is unknown."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(before: dict, after: dict, declared: list) -> list:
    """Rows ``(workload, metric, before, after, worse by, verdict)``."""
    rows = []
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            rows.append((name, "-", 0.0, 0.0, 0.0, "regression: workload "
                                                   "missing"))
            continue
        worse = new["failed_share"] - old["failed_share"]
        rows.append((name, "failed_share", old["failed_share"],
                     new["failed_share"], worse,
                     "regression" if worse > 0 else "ok"))
        for metric in declared:
            a = old["end_to_end"][metric["name"]]
            b = new["end_to_end"][metric["name"]]
            change = (b["value"] - a["value"]) / a["value"]
            worse = change if metric["better"] == "lower" else -change
            noise = max(spread(a.get("values", [])),
                        spread(b.get("values", [])))
            if noise > metric["bound"]:
                verdict = f"unresolved (spread {noise:.1%})"
            elif worse > metric["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append((name, metric["name"], a["value"], b["value"],
                         worse, verdict))
    return rows


def moved_layers(before: dict, after: dict, threshold: float = 0.25):
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name, {}).get("per_layer", {})
        for metric, a in old["per_layer"].items():
            b = new.get(metric, {}).get("value")
            if a["value"] is None or b is None or a["value"] == b:
                continue
            change = (b - a["value"]) / abs(a["value"]) if a["value"] \
                else float("inf")
            if abs(change) > threshold:
                yield name, metric, a["value"], b, change


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        sys.exit(__doc__)
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    rows = compare(documents[0], documents[1], declared)
    for workload, metric, a, b, worse, verdict in rows:
        print(f"{workload:14s} {metric:18s} {a:12.4f} {b:12.4f} "
              f"{worse:+8.1%}  {verdict}")
    for workload, metric, a, b, change in moved_layers(*documents):
        print(f"layer  {workload:14s} {metric:42s} {a:12.4f} {b:12.4f} "
              f"{change:+8.1%}")
    return 1 if any(row[5].startswith("regression") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
