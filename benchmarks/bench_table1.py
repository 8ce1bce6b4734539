"""Table 1: QE1–QE6 on MemBeR documents × {NL, TJ, SC}.

The paper's Table 1 reports evaluation time for the six Figure 5 queries
on MemBeR documents of depth 4 with 100 uniformly distributed tags, at
five sizes (2.1–11 MB), under the three tree-pattern algorithms.

Run styles:

* ``pytest benchmarks/bench_table1.py --benchmark-only`` — one
  pytest-benchmark entry per (query, strategy) at the middle size;
* ``python benchmarks/bench_table1.py`` — prints the full five-size
  paper-style table (best time per query/size starred, like the paper's
  boldface).

Expected shape (paper Section 5.2): NLJoin is never the fastest; TwigJoin
and SCJoin are within a small constant of each other, with SCJoin
degrading on the complex branching queries.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.bench import (QE_QUERIES, STRATEGIES, STRATEGY_LABELS,
                         render_table, table1_node_counts, time_call)
from repro.data import member_document


@pytest.fixture(scope="module")
def engines(table1_documents):
    return {count: Engine(document)
            for count, document in table1_documents.items()}


@pytest.fixture(scope="module")
def compiled(engines):
    engine = next(iter(engines.values()))
    return {name: engine.compile(query)
            for name, query in QE_QUERIES.items()}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query_name", sorted(QE_QUERIES))
def test_table1(benchmark, engines, compiled, query_name, strategy):
    sizes = sorted(engines)
    middle = sizes[len(sizes) // 2]
    engine = engines[middle]
    plan = compiled[query_name]
    benchmark.extra_info["query"] = QE_QUERIES[query_name]
    benchmark.extra_info["nodes"] = middle
    benchmark(lambda: engine.execute(plan, strategy=strategy))


def generate_table(node_counts=None, repeats=3) -> str:
    """Regenerate Table 1 and return it as text."""
    node_counts = node_counts or table1_node_counts()
    # Without the summary prefilter: on 100-tag documents it proves
    # QE1/3/4/6 empty in ~10 µs, which would time no algorithm at all.
    engines = {count: Engine(member_document(count, depth=4, tag_count=100,
                                             seed=20070415),
                             use_summary=False)
               for count in node_counts}
    some_engine = next(iter(engines.values()))
    compiled = {name: some_engine.compile(query)
                for name, query in QE_QUERIES.items()}
    cells = {}
    row_labels = []
    for query_name in sorted(QE_QUERIES):
        for strategy in STRATEGIES:
            row = f"{query_name} {STRATEGY_LABELS[strategy]}"
            row_labels.append(row)
            for count, engine in engines.items():
                seconds = time_call(
                    lambda e=engine, p=compiled[query_name], s=strategy:
                    e.execute(p, strategy=s),
                    repeats=repeats)
                cells[(row, f"{count} nodes")] = seconds
    columns = [f"{count} nodes" for count in node_counts]
    return render_table(
        "Table 1. Evaluation time (seconds) for the queries in Figure 5",
        row_labels, columns, cells, highlight_best_per_group=3)


if __name__ == "__main__":
    print(generate_table())
