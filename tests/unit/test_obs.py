"""The observability layer: metrics, plan cache, traced runs."""

import math

import pytest

from repro import Engine
from repro.bench import geometric_mean, measure_strategy, render_measurements
from repro.data import member_document
from repro.obs import (DECISION_RING_SIZE, PIPELINE_STAGES, CacheStats,
                       ExecMetrics, PipelineMetrics, PlanCache, TracedRun)
from repro.pattern import parse_pattern
from repro.physical import CostBasedChooser, HeuristicChooser, Run
from repro.trace import Tracer

QUERY = "$input//person[emailaddress]/name"


# -- PipelineMetrics -----------------------------------------------------------

class TestPipelineMetrics:
    def test_stage_records_elapsed(self):
        metrics = PipelineMetrics()
        with metrics.stage("parse"):
            pass
        assert metrics.stages["parse"] >= 0.0
        assert metrics.total_seconds == pytest.approx(
            sum(metrics.stages.values()))

    def test_repeated_stage_accumulates(self):
        metrics = PipelineMetrics()
        for _ in range(3):
            with metrics.stage("rewrite"):
                pass
        assert list(metrics.stages) == ["rewrite"]

    def test_report_mentions_every_stage(self):
        metrics = PipelineMetrics()
        with metrics.stage("parse"):
            pass
        report = metrics.report()
        assert "parse" in report and "total" in report


# -- PlanCache -----------------------------------------------------------------

class TestPlanCache:
    def test_lru_eviction_order(self):
        cache = PlanCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1     # refresh "a"
        cache.put("c", 3)              # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_hit_miss_accounting(self):
        cache = PlanCache(max_size=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_zero_size_disables_caching(self):
        cache = PlanCache(max_size=0)
        cache.put("k", "v")
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_clear_keeps_stats(self):
        cache = PlanCache(max_size=4)
        cache.put("k", "v")
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_size=-1)


# -- engine integration --------------------------------------------------------

class TestEngineObservability:
    def test_second_run_is_a_cache_hit(self, people_doc):
        engine = Engine(people_doc)
        engine.run(QUERY)
        assert engine.plan_cache.stats.hits == 0
        engine.run(QUERY)
        assert engine.plan_cache.stats.hits == 1
        assert len(engine.plan_cache) == 1

    def test_cache_key_separates_optimize_flag(self, people_doc):
        engine = Engine(people_doc)
        engine.run(QUERY, optimize=True)
        engine.run(QUERY, optimize=False)
        assert engine.plan_cache.stats.hits == 0
        assert len(engine.plan_cache) == 2

    def test_traced_compile_bypasses_cache(self, people_doc):
        engine = Engine(people_doc)
        first = engine.compile(QUERY, trace=True)
        second = engine.compile(QUERY, trace=True)
        assert first is not second
        assert engine.plan_cache.stats.lookups == 0

    def test_run_traced_shape(self, people_doc):
        engine = Engine(people_doc)
        traced = engine.run_traced(QUERY)
        assert isinstance(traced, TracedRun)
        assert [n.string_value() for n in traced.results] == \
            ["John", "John", "Ada"]
        assert traced.cache_hit is False
        # Compile reads no document: the summary is built at execute.
        assert set(traced.pipeline.stages) == \
            {"parse", "normalize", "rewrite", "compile", "optimize"}
        assert traced.pipeline.total_seconds > 0.0
        assert traced.metrics.pattern_evals >= 1
        assert sum(traced.metrics.nodes_visited.values()) > 0
        again = engine.run_traced(QUERY)
        assert again.cache_hit is True
        assert keyed(again.results) == keyed(traced.results)

    def test_a_cache_hit_reports_no_compile_stages(self, people_doc):
        engine = Engine(people_doc)
        engine.run_traced(QUERY)
        again = engine.run_traced(QUERY)
        assert again.cache_hit is True
        # The hit paid no compile: the first run's stage times are not
        # shown as if it had.
        assert dict(again.pipeline.stages) == {}
        assert again.stage_seconds() == {}
        report = again.report()
        assert "plan cache : hit" in report
        assert "compile stages:" not in report

    def test_a_traced_run_compiles_past_the_cache(self, people_doc):
        engine = Engine(people_doc)
        engine.run(QUERY)
        lookups = engine.plan_cache.stats.lookups
        traced = engine.run_traced(QUERY, tracer=Tracer())
        assert traced.cache_hit is False
        assert engine.plan_cache.stats.lookups == lookups
        # Each stage is timed once: its recorded seconds are its span's.
        spans = {span.name: span.duration for span in traced.trace.spans}
        assert dict(traced.pipeline.stages) == \
            {name: spans[name] for name in PIPELINE_STAGES}
        assert set(traced.stage_seconds()) == {*PIPELINE_STAGES, "summary"}
        assert "EXPLAIN ANALYZE" in traced.render()
        assert traced.to_dict()["stages"] == traced.stage_seconds()

    def test_run_traced_report_readable(self, people_doc):
        engine = Engine(people_doc)
        report = engine.run_traced(QUERY, strategy="auto").report()
        for fragment in ("strategy   : auto", "plan cache : miss",
                         "compile stages:", "execution counters:",
                         "chooser decisions"):
            assert fragment in report

    def test_explain_metrics_section(self, people_doc):
        engine = Engine(people_doc)
        compiled = engine.compile(QUERY)
        assert "Stage timings" not in compiled.explain()
        assert "Stage timings" in compiled.explain(metrics=True)

    def test_execute_without_metrics_collects_nothing(self, people_doc):
        engine = Engine(people_doc)
        compiled = engine.compile(QUERY)
        metrics = ExecMetrics()
        engine.execute(compiled)                    # plain run: no counting
        engine.execute(compiled, metrics=metrics)
        assert metrics.pattern_evals == 1
        assert metrics.counters()["visited.scjoin"] > 0


def keyed(sequence):
    return [getattr(item, "pre", item) for item in sequence]


# -- bounded chooser decisions -------------------------------------------------

class TestBoundedDecisions:
    @pytest.fixture(scope="class")
    def doc(self):
        return member_document(300, depth=4, tag_count=3, seed=3)

    @pytest.mark.parametrize("factory", [HeuristicChooser, CostBasedChooser],
                             ids=["auto", "cost"])
    def test_ring_is_bounded_but_tally_exact(self, factory, doc):
        chooser = factory(doc)
        path = parse_pattern("IN#d/descendant::t01{o}").path
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        total = DECISION_RING_SIZE + 25
        for _ in range(total):
            chooser.match_single(doc, [doc.root], path, run)
        # The detail ring stays bounded (no unbounded growth)...
        assert len(run.metrics.decision_ring) == DECISION_RING_SIZE
        # ...while the tally still exposes the exact count.
        assert run.metrics.decisions_total == total

    def test_decision_records_carry_inputs(self, doc):
        chooser = HeuristicChooser(doc)
        path = parse_pattern("IN#d/descendant::t01{o}").path
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        chooser.match_single(doc, [doc.root], path, run)
        record = run.metrics.decision_ring[-1]
        inputs = dict(record.inputs)
        assert record.chooser == "auto"
        assert inputs["region"] >= 1 and inputs["streams"] >= 1
        assert record.to_dict()["algorithm"] == record.algorithm

    def test_cost_decisions_carry_estimates(self, doc):
        chooser = CostBasedChooser(doc)
        path = parse_pattern("IN#d/descendant::t01{o}").path
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        chooser.match_single(doc, [doc.root], path, run)
        inputs = dict(run.metrics.decision_ring[-1].inputs)
        assert {"cost_nljoin", "cost_twigjoin", "cost_scjoin",
                "cost_streaming"} <= set(inputs)


# -- harness helpers -----------------------------------------------------------

class TestHarness:
    def test_geometric_mean_basics(self):
        assert geometric_mean([4, 9]) == pytest.approx(6.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_no_underflow(self):
        # 400 microsecond-scale timings: the old running product
        # underflowed to 0.0 long before the series ended.
        values = [1e-6] * 400
        assert geometric_mean(values) == pytest.approx(1e-6)
        assert geometric_mean([1e300] * 10) == pytest.approx(1e300)

    def test_geometric_mean_skips_non_positive(self):
        assert geometric_mean([0.0, 4.0, 9.0]) == pytest.approx(6.0)
        assert geometric_mean([-1.0, 0.0]) == 0.0

    def test_measure_strategy_collects_counters(self, people_doc):
        engine = Engine(people_doc)
        compiled = engine.compile(QUERY)
        measurement = measure_strategy(engine, compiled, "twigjoin",
                                       repeats=1)
        assert measurement.result_count == 3
        assert measurement.seconds > 0.0
        assert sum(measurement.metrics.stream_scanned.values()) > 0

    def test_render_measurements_includes_work(self, people_doc):
        engine = Engine(people_doc)
        compiled = engine.compile(QUERY)
        rows = {"Q1": [measure_strategy(engine, compiled, strategy, 1)
                       for strategy in ("nljoin", "scjoin")]}
        table = render_measurements("work", rows)
        assert "v=" in table and "s=" in table and "nljoin" in table


# -- field-exhaustive merge / to_dict ------------------------------------------

class TestExecMetricsRoundTrip:
    """merge and to_dict are driven by ``dataclasses.fields`` — a new
    counter field is merged and serialized automatically, and these
    tests fail if either ever drops a field."""

    @staticmethod
    def populated() -> ExecMetrics:
        from repro.guard import FallbackEvent
        metrics = ExecMetrics()
        metrics.operator_evals.update({"Select": 4, "MapToItem": 2})
        metrics.items_produced = 7
        metrics.tuples_produced = 5
        metrics.pattern_evals = 3
        metrics.prune_hits = 2
        metrics.prune_misses = 1
        metrics.nodes_visited.update({"nljoin": 11})
        metrics.stream_scanned.update({"twigjoin": 13})
        metrics.stack_pushes.update({"scjoin": 17})
        metrics.record_decision("auto", "twigjoin", region=3.0)
        metrics.record_fallback(FallbackEvent(
            "scjoin", "twigjoin", "REPRO-ALGO", "boom"))
        return metrics

    def test_every_field_is_populated(self):
        """Guard the fixture itself: a field added with a default value
        must be given a non-default value above (or this suite would
        vacuously pass for it)."""
        from dataclasses import fields
        metrics = self.populated()
        blank = ExecMetrics()
        for spec in fields(metrics):
            assert (getattr(metrics, spec.name)
                    != getattr(blank, spec.name)), (
                f"populated() leaves {spec.name!r} at its default — "
                f"extend it alongside the new field")

    def test_merge_then_to_dict_round_trips(self):
        from dataclasses import fields
        source = self.populated()
        target = ExecMetrics()
        target.merge(source)
        assert target.to_dict() == source.to_dict()
        for spec in fields(source):
            assert (getattr(target, spec.name)
                    == getattr(source, spec.name)), (
                f"merge dropped field {spec.name!r}")

    def test_merge_accumulates(self):
        target = self.populated()
        target.merge(self.populated())
        single = self.populated()
        assert target.items_produced == 2 * single.items_produced
        assert target.operator_evals["Select"] == \
            2 * single.operator_evals["Select"]
        assert len(target.fallbacks) == 2
        assert target.decisions_total == 2 * single.decisions_total

    def test_to_dict_keeps_decisions_key(self):
        payload = self.populated().to_dict()
        assert "decisions" in payload
        assert "decision_ring" not in payload
        assert payload["decisions"][0]["algorithm"] == "twigjoin"

    def test_merge_rejects_unmergeable_field_types(self):
        """The fields-driven merge must fail loudly, not silently skip,
        when a field of an unknown type appears."""
        from dataclasses import dataclass, field as dfield

        @dataclass
        class Widened(ExecMetrics):
            strange: dict = dfield(default_factory=dict)

        with pytest.raises(TypeError):
            Widened().merge(Widened())
