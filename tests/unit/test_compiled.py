"""Unit tests for the compiled (produce/consume) execution backend.

Covers the codegen-level contracts the differential wall cannot see:
where pipeline breakers land, that generated source is snapshot-stable
(no runtime ids, deterministic across compiles), that the closure cache
on :class:`~repro.engine.CompiledQuery` generates each plan exactly
once, and that typed :class:`~repro.guard.ReproError`\\ s (budget trips,
chaos faults) surface from inside compiled loops exactly as they do
from the interpreter.
"""

import re

import pytest

from repro import Engine
from repro.algebra.ops import Const
from repro.compiled import (CodegenError, CompiledPlan, compile_count,
                            compile_plan)
from repro.engine import BACKENDS
from repro.guard import (BudgetExceeded, Budgets, ChaosSpec, InputError,
                         ReproError, inject)
from repro.physical.base import TreePatternAlgorithm

PATTERN_QUERY = "$input//person[emailaddress]/name"
DDO_QUERY = "$input//person[position() = 1]"
AGGREGATE_QUERY = "count($input//person)"
#: matches the ``t01``/``t02``/``t03`` tags of ``member_document`` — the
#: budget/chaos tests need a query the summary prefilter cannot prove
#: empty (a pruned run never reaches the governor or a chaos site).
MEMBER_QUERY = "$input//t01[t02]/t03"


def compiled_for(engine, query) -> CompiledPlan:
    program = engine.compile(query).codegen["optimized"]
    assert isinstance(program, CompiledPlan), program
    return program


class TestBreakerPlacement:
    def test_pattern_is_a_breaker(self, people_doc):
        engine = Engine(people_doc, backend="compiled")
        program = compiled_for(engine, PATTERN_QUERY)
        assert program.breakers == ("pattern",)

    def test_ddo_is_a_breaker(self, people_doc):
        engine = Engine(people_doc, backend="compiled")
        program = compiled_for(engine, DDO_QUERY)
        assert "ddo" in program.breakers

    def test_aggregate_call_is_a_breaker(self, people_doc):
        engine = Engine(people_doc, backend="compiled")
        program = compiled_for(engine, AGGREGATE_QUERY)
        assert "fn:count" in program.breakers

    def test_constant_plan_has_no_breakers(self):
        program = compile_plan(Const(values=(1, 2)))
        assert program.breakers == ()

    def test_every_algorithm_is_a_breaker_boundary(self):
        # Every strategy materializes its binding list in one evaluate()
        # call, so the codegen treats pattern evaluation as a breaker.
        assert TreePatternAlgorithm.is_pipeline_breaker is True


class TestSnapshotStability:
    CONST_SNAPSHOT = (
        "def _compiled(ctx):\n"
        "    _doc = ctx.document\n"
        "    _strategy = ctx.strategy\n"
        "    _lookupv = ctx.lookup_var\n"
        "    _s1 = list(_k0)\n"
        "    return _s1\n")

    def test_const_source_snapshot(self):
        assert compile_plan(Const(values=(1, 2))).source \
            == self.CONST_SNAPSHOT

    @pytest.mark.parametrize("query", [PATTERN_QUERY, DDO_QUERY,
                                       AGGREGATE_QUERY])
    def test_same_query_generates_identical_source(self, people_doc,
                                                   query):
        first = compiled_for(Engine(people_doc, backend="compiled"), query)
        second = compiled_for(Engine(people_doc, backend="compiled"), query)
        assert first.source == second.source
        assert first.instrumented_source == second.instrumented_source
        assert first.breakers == second.breakers

    @pytest.mark.parametrize("query", [PATTERN_QUERY, DDO_QUERY,
                                       AGGREGATE_QUERY])
    def test_source_embeds_no_runtime_ids(self, people_doc, query):
        program = compiled_for(Engine(people_doc, backend="compiled"),
                               query)
        for source in (program.source, program.instrumented_source):
            assert "0x" not in source
            assert "object at" not in source

    def test_instrumented_variant_is_a_superset(self, people_doc):
        program = compiled_for(Engine(people_doc, backend="compiled"),
                               PATTERN_QUERY)
        assert "_m = ctx.run.metrics" in program.instrumented_source
        assert "_gov = ctx.run.governor" in program.instrumented_source
        assert "_m = ctx.run.metrics" not in program.source


class TestClosureCacheReuse:
    def test_repeated_runs_compile_once(self, people_doc):
        engine = Engine(people_doc, backend="compiled")
        engine.run(PATTERN_QUERY)  # compile + codegen
        before = compile_count()
        reference = engine.run(PATTERN_QUERY)
        for _ in range(10):
            assert engine.run(PATTERN_QUERY) == reference
        assert compile_count() == before

    def test_item_strategy_compiles_the_unoptimized_plan_once(
            self, people_doc):
        engine = Engine(people_doc, backend="compiled")
        compiled = engine.compile(PATTERN_QUERY)
        assert set(compiled.codegen) == {"optimized"}
        before = compile_count()
        reference = engine.run(PATTERN_QUERY, strategy="item")
        assert compile_count() == before + 1  # lazy "plan" role
        assert set(engine.compile(PATTERN_QUERY).codegen) \
            == {"optimized", "plan"}
        for _ in range(5):
            assert engine.run(PATTERN_QUERY, strategy="item") == reference
        assert compile_count() == before + 1

    def test_codegen_refusal_is_negatively_cached(self, people_doc,
                                                  monkeypatch):
        calls = []

        def refusing(plan):
            calls.append(plan)
            raise CodegenError("forced refusal")

        monkeypatch.setattr("repro.engine.compile_plan", refusing)
        engine = Engine(people_doc, backend="compiled")
        reference = Engine(people_doc).run(PATTERN_QUERY)
        for _ in range(5):
            assert engine.run(PATTERN_QUERY) == reference
        assert len(calls) == 1  # the CodegenError is cached, not retried

    def test_interpreted_engine_never_generates_code(self, people_doc):
        engine = Engine(people_doc)
        before = compile_count()
        engine.run(PATTERN_QUERY)
        assert compile_count() == before
        assert engine.compile(PATTERN_QUERY).codegen == {}


class TestTypedErrorsFromCompiledLoops:
    def test_step_budget_trips_typed(self, small_member_doc):
        engine = Engine(small_member_doc, backend="compiled",
                        budgets=Budgets(max_steps=5), strict=True)
        with pytest.raises(BudgetExceeded) as exc:
            engine.run(MEMBER_QUERY)
        assert exc.value.code == "REPRO-BUDGET-STEPS"

    def test_output_budget_trips_typed(self, small_member_doc):
        engine = Engine(small_member_doc, backend="compiled",
                        budgets=Budgets(max_output=1), strict=True)
        with pytest.raises(BudgetExceeded) as exc:
            engine.run("$input//t01")
        assert exc.value.code == "REPRO-BUDGET-OUTPUT"

    def test_budget_error_matches_interpreted(self, small_member_doc):
        budgets = Budgets(max_steps=5)
        errors = {}
        for backend in BACKENDS:
            engine = Engine(small_member_doc, backend=backend,
                            budgets=budgets, strict=True)
            with pytest.raises(BudgetExceeded) as exc:
                engine.run(MEMBER_QUERY)
            # The message embeds elapsed wall time; everything else
            # (code, tripped counter, limit, step count) must match.
            message = re.sub(r"elapsed [0-9.]+ ms", "elapsed <t>",
                             str(exc.value))
            errors[backend] = (exc.value.code, message)
        assert errors["compiled"] == errors["interpreted"]

    def test_chaos_fault_surfaces_typed_and_matches_interpreted(
            self, small_member_doc):
        spec = ChaosSpec(site="eval.ttp", action="raise", rate=1.0)
        outcomes = {}
        for backend in BACKENDS:
            engine = Engine(small_member_doc, backend=backend, strict=True)
            with inject(spec, seed=99):
                with pytest.raises(ReproError) as exc:
                    engine.run(MEMBER_QUERY)
            outcomes[backend] = (type(exc.value).__name__, exc.value.code)
        assert outcomes["compiled"] == outcomes["interpreted"]

    def test_chaos_fault_recovers_via_fallback(self, small_member_doc):
        reference = Engine(small_member_doc).run(MEMBER_QUERY)
        assert reference, "expected a non-empty reference result"
        engine = Engine(small_member_doc, backend="compiled")
        spec = ChaosSpec(site="scjoin.match", action="raise", rate=1.0)
        with inject(spec, seed=99):
            traced = engine.run_traced(MEMBER_QUERY, strategy="scjoin")
        assert traced.results == reference
        assert traced.fallbacks, "expected a recorded strategy fallback"

    def test_unknown_backend_rejected(self, people_doc):
        with pytest.raises(InputError) as exc:
            Engine(people_doc, backend="jit")
        assert "jit" in str(exc.value)
        with pytest.raises(InputError):
            Engine(people_doc).run(PATTERN_QUERY, backend="native")

    def test_compile_plan_rejects_non_item_plans_typed(self):
        with pytest.raises(CodegenError) as exc:
            compile_plan("not a plan")
        assert exc.value.code == "REPRO-CODEGEN"
