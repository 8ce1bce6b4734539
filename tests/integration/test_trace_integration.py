"""Tracing end to end: results unchanged, EXPLAIN ANALYZE, serve spans.

Tracing is an observer — the central integration guarantee is that a
traced run returns **byte-identical** results to an untraced one, for
every strategy.  On top of that: a run traced through
``Engine.run_traced`` must render EXPLAIN ANALYZE with per-operator
wall times and cardinalities for the full QE1–QE6 set, and a traced ``QueryService`` must stamp responses with trace ids
and feed its flight recorder.
"""

import json

import pytest

from repro import Engine
from repro.bench import QE_QUERIES
from repro.serve import DocumentCatalog, QueryRequest, QueryService
from repro.trace import (FlightRecorder, Tracer, chrome_trace,
                         validate_chrome_trace)

from tests.support.make_golden import render_results

ALL_STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree",
                  "streaming", "auto", "cost", "item")


@pytest.fixture(scope="module")
def member_engine(small_member_doc):
    return Engine(small_member_doc)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("query_name", sorted(QE_QUERIES))
def test_traced_results_byte_identical(member_engine, query_name,
                                       strategy):
    query = QE_QUERIES[query_name]
    compiled = member_engine.compile(query)
    baseline = render_results(
        member_engine.execute(compiled, strategy=strategy))
    trace = Tracer().begin("query")
    try:
        traced = render_results(
            member_engine.execute(compiled, strategy=strategy,
                                  tracing=trace))
    finally:
        trace.finish()
    assert traced == baseline
    assert trace.op_stats, "traced run recorded no operator stats"


@pytest.mark.parametrize("query_name", sorted(QE_QUERIES))
def test_explain_analyze_qe_queries(member_engine, query_name):
    analysis = member_engine.run_traced(QE_QUERIES[query_name],
                                        strategy="twigjoin",
                                        tracer=Tracer())
    rendered = analysis.render()
    assert "EXPLAIN ANALYZE" in rendered
    assert "strategy=twigjoin" in rendered
    assert "TupleTreePattern" in rendered
    assert "rows" in rendered
    # Every executed operator carries a call count and cardinality.
    assert analysis.op_stats
    for stat in analysis.op_stats.values():
        assert stat.calls >= 1
        assert stat.seconds >= 0.0
    # The compile pipeline stages are all accounted for.
    stages = analysis.stage_seconds()
    assert {"parse", "rewrite", "compile"} <= set(stages)
    # The trace exports as a valid, correctly nested Chrome trace.
    data = chrome_trace(analysis.trace)
    validate_chrome_trace(json.loads(json.dumps(data)))


def test_explain_analyze_dot_carries_annotations(member_engine):
    analysis = member_engine.run_traced(QE_QUERIES["QE1"],
                                        tracer=Tracer())
    dot = analysis.to_dot()
    assert "digraph" in dot
    assert "rows" in dot       # per-operator cardinality annotations
    assert "style=bold" in dot


def test_run_traced_attaches_trace(member_engine):
    tracer = Tracer()
    run = member_engine.run_traced(QE_QUERIES["QE1"], tracer=tracer)
    assert run.trace is not None
    assert run.trace.finished
    assert run.trace.trace_id in run.report()


def member_catalog(small_member_doc) -> DocumentCatalog:
    catalog = DocumentCatalog()
    catalog.add_document("member", small_member_doc)
    return catalog


class TestServeTracing:
    @pytest.fixture()
    def service(self, small_member_doc):
        service = QueryService(member_catalog(small_member_doc),
                               workers=2, tracer=Tracer(),
                               flight_recorder=FlightRecorder(recent=64))
        yield service
        service.close()

    def test_responses_carry_trace_ids(self, service):
        queries = [QE_QUERIES["QE1"], QE_QUERIES["QE3"]]
        responses = [
            service.submit(QueryRequest(document="member",
                                        query=query)).response()
            for query in queries]
        for response in responses:
            assert response.error is None
            assert response.trace_id is not None
        assert len({response.trace_id
                    for response in responses}) == len(responses)

    def test_flight_recorder_captures_requests(self, service):
        for _ in range(3):
            service.submit(
                QueryRequest(document="member",
                             query=QE_QUERIES["QE2"])).response()
        snapshot = service.flight_recorder()
        assert snapshot.recorded == 3
        for trace in snapshot.traces():
            names = {span.name for span in trace.spans}
            assert "queue" in names
            assert "execute" in names
        validate_chrome_trace(chrome_trace(snapshot.traces()))

    def test_untraced_service_has_no_recorder(self, small_member_doc):
        service = QueryService(member_catalog(small_member_doc),
                               workers=1)
        try:
            response = service.submit(
                QueryRequest(document="member",
                             query=QE_QUERIES["QE1"])).response()
            assert response.error is None
            assert response.trace_id is None
            assert service.flight_recorder() is None
        finally:
            service.close()
