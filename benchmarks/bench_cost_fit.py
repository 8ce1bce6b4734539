"""Fit of the SCJoin cost weights (``repro.physical.cost``).

The EXPERIMENTS.md §E2 procedure, as a script: nine patterns (three
spines, QE1/3/4/6, two mixed twigs) on the Table-1 documents (depth 4,
100 tags, flat tag statistics) and on dense 6-tag documents (summary
statistics), three sizes each.  Every cell times SCJoin and NLJoin from
the document root; one cost unit is NLJoin's time per visited node on
``descendant::t01`` of the same document (``NL_VISIT = 1``).  The weights
minimise the squared relative error of

    SC_SCAN · streams + SC_BRANCH_PASS · branch_streams

against SCJoin's measured units.  ``python benchmarks/bench_cost_fit.py``
prints the cells and the fitted pair; host noise moves the pair by about
±0.03 / ±0.01 between runs.
"""

from __future__ import annotations

from repro.bench import scaled, time_call
from repro.data import member_document
from repro.pattern import parse_pattern
from repro.physical import CostModel, NLJoin, StaircaseJoin

PATTERNS = {
    "spine1": "descendant::t01{o}",
    "spine2": "descendant::t01/child::t02{o}",
    "spine3": "descendant::t01/descendant::t02/descendant::t03{o}",
    "QE1": "descendant::t01[child::t02[child::t03[child::t04]]]{o}",
    "QE3": "descendant::t01[child::t02[child::t03]"
           "/child::t04[child::t03]]{o}",
    "QE4": "descendant::t01[descendant::t02[descendant::t03"
           "[descendant::t04]]]{o}",
    "QE6": "descendant::t01[descendant::t02[descendant::t03]"
           "/descendant::t04[descendant::t03]]{o}",
    "twig1": "descendant::t01[child::t02]{o}",
    "twig2": "descendant::t01[child::t02][descendant::t03]/child::t04{o}",
}


def measure_cells(repeats: int = 7):
    """``(label, streams, branch_streams, scjoin_units)`` per cell."""
    cells = []
    for count in (scaled(4000), scaled(12000), scaled(20000)):
        sparse = member_document(count, depth=4, tag_count=100,
                                 seed=20070415)
        dense = member_document(count, depth=5, tag_count=6, seed=7)
        for label, document, model in (
                (f"100-tag/{count}", sparse, CostModel(sparse, summary=None)),
                (f"6-tag/{count}", dense, CostModel(dense))):
            contexts = [document.root]
            region = model.region_size(contexts)
            unit = time_call(lambda: NLJoin().match_single(
                document, contexts,
                parse_pattern("IN#d/" + PATTERNS["spine1"]).path),
                repeats=2) / region
            for name, text in PATTERNS.items():
                path = parse_pattern("IN#d/" + text).path
                seconds = time_call(lambda: StaircaseJoin().match_single(
                    document, contexts, path), repeats=repeats)
                cells.append((f"{label} {name}",
                              model.stream_volume(path, region),
                              model.branch_streams(path, region),
                              seconds / unit))
    return cells


def fit(cells):
    """Grid search (step 0.01) for the least squared relative error."""
    def error(weights):
        scan, branch = weights
        return sum(((scan * streams + branch * branches) / units - 1) ** 2
                   for _, streams, branches, units in cells)
    return min(((scan / 100, branch / 100) for scan in range(1, 100)
                for branch in range(0, 100)), key=error)


if __name__ == "__main__":
    measured = measure_cells()
    scan, branch = fit(measured)
    print(f"{'cell':24s} {'streams':>9s} {'branch':>9s} "
          f"{'measured':>9s} {'model':>9s}")
    for label, streams, branches, units in measured:
        print(f"{label:24s} {streams:9.0f} {branches:9.0f} {units:9.0f} "
              f"{scan * streams + branch * branches:9.0f}")
    print(f"SC_SCAN = {scan:.2f}  SC_BRANCH_PASS = {branch:.2f}")
