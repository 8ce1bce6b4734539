"""The Section 7 extensions, measured.

Three mini-studies beyond the paper's evaluation:

1. **Positional tree patterns** — QE2/QE5 (whose positional predicates
   the paper leaves outside the fragment) with the rule (g) extension on
   vs off: folding ``[1]`` into the pattern removes the per-context
   pattern-call overhead.
2. **Streaming XPath** — the one-pass matcher against the three paper
   algorithms on rooted XMark paths.
3. **Cost-based choice** — the cost model's pick against every fixed
   algorithm across the three regimes of Section 5.

Run styles:

* ``pytest benchmarks/bench_extensions.py --benchmark-only``;
* ``python benchmarks/bench_extensions.py``.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.algebra.optimizer import OptimizerOptions
from repro.bench import QE_QUERIES, render_table, scaled, time_call
from repro.data import deep_member_document, member_document, xmark_document

POSITIONAL_QUERIES = {name: QE_QUERIES[name] for name in ("QE2", "QE5")}

ALL_STRATEGIES = ["nljoin", "twigjoin", "scjoin", "streaming", "cost"]


@pytest.fixture(scope="module")
def member_engines(table1_documents):
    document = table1_documents[max(table1_documents)]
    return {
        "plain": Engine(document),
        "positional": Engine(document, optimizer_options=OptimizerOptions(
            enable_positional=True)),
    }


@pytest.mark.parametrize("mode", ["plain", "positional"])
@pytest.mark.parametrize("query_name", sorted(POSITIONAL_QUERIES))
def test_positional_extension(benchmark, member_engines, query_name, mode):
    engine = member_engines[mode]
    plan = engine.compile(POSITIONAL_QUERIES[query_name])
    benchmark.extra_info["tree_patterns"] = plan.tree_pattern_count()
    benchmark(lambda: engine.execute(plan, strategy="twigjoin"))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_strategy_spectrum(benchmark, xmark_engine, strategy):
    plan = xmark_engine.compile(
        "$input/site/people/person[emailaddress]/profile/interest")
    benchmark(lambda: xmark_engine.execute(plan, strategy=strategy))


def generate_positional_table(node_count=None, repeats=3) -> str:
    node_count = node_count or scaled(20_000)
    document = member_document(node_count, depth=4, tag_count=100,
                               seed=20070415)
    engines = {
        "off": Engine(document),
        "on": Engine(document, optimizer_options=OptimizerOptions(
            enable_positional=True)),
    }
    cells = {}
    rows = []
    for query_name, query in sorted(POSITIONAL_QUERIES.items()):
        for mode, engine in engines.items():
            plan = engine.compile(query)
            row = f"{query_name} positional={mode}"
            rows.append(row)
            cells[(row, "TTPs")] = float(plan.tree_pattern_count())
            for strategy in ("nljoin", "twigjoin", "scjoin"):
                cells[(row, strategy)] = time_call(
                    lambda e=engine, p=plan, s=strategy:
                    e.execute(p, strategy=s), repeats=repeats)
    return render_table(
        f"Positional tree patterns on QE2/QE5 ({node_count} nodes)",
        rows, ["TTPs", "nljoin", "twigjoin", "scjoin"], cells)


def generate_chooser_table(repeats=3) -> str:
    # Without the summary prefilter, which proves the branching twig
    # empty on a 100-tag document and would time no algorithm.
    flat = Engine(member_document(scaled(15_000), depth=4, tag_count=100),
                  use_summary=False)
    deep = Engine(deep_member_document(scaled(20_000), depth=15))
    xmark = Engine(xmark_document(scaled(300, 50), seed=19992001))
    workloads = [
        ("rooted path", flat, "$input/desc::t01/child::t02"),
        ("branching twig", flat,
         "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]"),
        ("selective chain", deep, "/" + "/".join(["t1[1]"] * 10)),
        ("xmark analytics", xmark,
         "$input/site/people/person[emailaddress]/profile/interest"),
    ]
    cells = {}
    rows = [name for name, _, _ in workloads]
    for name, engine, query in workloads:
        plan = engine.compile(query)
        engine.execute(plan, strategy="cost")  # warm document statistics
        for strategy in ALL_STRATEGIES:
            cells[(name, strategy)] = time_call(
                lambda e=engine, p=plan, s=strategy:
                e.execute(p, strategy=s), repeats=repeats)
    return render_table("Cost-based choice vs fixed algorithms (seconds)",
                        rows, ALL_STRATEGIES, cells)


if __name__ == "__main__":
    print(generate_positional_table())
    print()
    print(generate_chooser_table())
