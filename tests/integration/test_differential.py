"""Cross-strategy differential suite.

The paper's premise is that the physical algorithms are interchangeable
implementations of the same ``TupleTreePattern`` semantics; this suite
enforces it end to end.  Every strategy — the five concrete algorithms
plus both choosers — must produce the *identical* result sequence (node
identities, in order) for the full QE1–QE6 set (paper Figure 5) and the
adapted XMark catalog, with NLJoin-on-the-unoptimized-plan as the
executable reference.

The same wall holds across *execution backends*: every strategy is
re-run through ``Engine.execute(..., backend="compiled")`` (the
produce/consume plan compiler, :mod:`repro.compiled`) against the
interpreted reference, on optimized and unoptimized plans alike.
"""

import pytest

from repro import Engine
from repro.bench import QE_QUERIES, XMARK_CATALOG

ALL_STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree",
                  "streaming", "auto", "cost")


def keys(sequence):
    """Node identities (pre numbers) or plain values, order-preserving."""
    return [getattr(item, "pre", item) for item in sequence]


def run_compiled(engine, query, strategy, optimize=True):
    """The query's plan run as generated code (an uninstrumented
    request, so the compiled backend answers it)."""
    return engine.execute(engine.compile(query, optimize=optimize),
                          strategy=strategy, optimized=optimize,
                          backend="compiled")


@pytest.fixture(scope="module")
def member_engine(small_member_doc):
    return Engine(small_member_doc)


@pytest.fixture(scope="module")
def xmark_engine(small_xmark_doc):
    return Engine(small_xmark_doc)


@pytest.fixture(scope="module")
def qe_references(member_engine):
    return {name: keys(member_engine.run(query, strategy="nljoin",
                                         optimize=False))
            for name, query in QE_QUERIES.items()}


@pytest.fixture(scope="module")
def xmark_references(xmark_engine):
    return {name: keys(xmark_engine.run(entry.query, strategy="nljoin",
                                        optimize=False))
            for name, entry in XMARK_CATALOG.items()}


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("query_name", sorted(QE_QUERIES))
def test_qe_queries_agree(member_engine, qe_references, query_name,
                          strategy):
    query = QE_QUERIES[query_name]
    got = keys(member_engine.run(query, strategy=strategy))
    assert got == qe_references[query_name], (
        f"{query_name} under {strategy} diverged from the NLJoin "
        f"reference")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("query_name", sorted(XMARK_CATALOG))
def test_xmark_catalog_agrees(xmark_engine, xmark_references, query_name,
                              strategy):
    entry = XMARK_CATALOG[query_name]
    got = keys(xmark_engine.run(entry.query, strategy=strategy))
    assert got == xmark_references[query_name], (
        f"{query_name} under {strategy} diverged from the NLJoin "
        f"reference")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_unoptimized_plans_agree_too(member_engine, qe_references,
                                     strategy):
    """The strategies are also interchangeable on unoptimized plans
    (patterns there are single steps, so this exercises the n-way
    composition of many small pattern evaluations)."""
    for name, query in QE_QUERIES.items():
        got = keys(member_engine.run(query, strategy=strategy,
                                     optimize=False))
        assert got == qe_references[name], (name, strategy)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("query_name", sorted(QE_QUERIES))
def test_qe_queries_agree_compiled(member_engine, qe_references,
                                   query_name, strategy):
    query = QE_QUERIES[query_name]
    got = keys(run_compiled(member_engine, query, strategy))
    assert got == qe_references[query_name], (
        f"{query_name} under {strategy} (compiled) diverged from the "
        f"NLJoin reference")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("query_name", sorted(XMARK_CATALOG))
def test_xmark_catalog_agrees_compiled(xmark_engine, xmark_references,
                                       query_name, strategy):
    entry = XMARK_CATALOG[query_name]
    got = keys(run_compiled(xmark_engine, entry.query, strategy))
    assert got == xmark_references[query_name], (
        f"{query_name} under {strategy} (compiled) diverged from the "
        f"NLJoin reference")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_unoptimized_plans_agree_compiled(member_engine, qe_references,
                                          strategy):
    """The compiled backend also covers unoptimized plans (the codegen
    role the ``item`` fallback strategy executes)."""
    for name, query in QE_QUERIES.items():
        got = keys(run_compiled(member_engine, query, strategy,
                                optimize=False))
        assert got == qe_references[name], (name, strategy, "compiled")
