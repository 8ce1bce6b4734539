"""Unit tests for the compiled (produce/consume) execution backend.

Covers the codegen-level contracts the differential wall cannot see:
where pipeline breakers land, that generated source is snapshot-stable
(no runtime ids, deterministic across compiles, pinned for the golden
corpus), that the closure cache on :class:`~repro.engine.CompiledQuery`
generates each plan exactly once, that typed
:class:`~repro.guard.ReproError`\\ s (budget trips, chaos faults) surface
exactly as they do from the interpreter, and that a request with
metrics, budgets or a trace is interpreted.
"""

import hashlib
import re
from collections import Counter

import pytest

from repro import Engine
from repro.algebra.ops import Const
from repro.compiled import (CodegenError, CompiledPlan, compile_count,
                            compile_plan)
from repro.engine import BACKENDS
from repro.guard import (BudgetExceeded, Budgets, ChaosSpec, InputError,
                         ReproError, inject)
from repro.obs import ExecMetrics
from repro.trace import Tracer

from tests.support.make_golden import golden_queries

PATTERN_QUERY = "$input//person[emailaddress]/name"
DDO_QUERY = "$input//person[position() = 1]"
AGGREGATE_QUERY = "count($input//person)"
#: matches the ``t01``/``t02``/``t03`` tags of ``member_document`` — the
#: budget/chaos tests need a query the summary prefilter cannot prove
#: empty (a pruned run never reaches the governor or a chaos site).
MEMBER_QUERY = "$input//t01[t02]/t03"


def run_compiled(engine, query, strategy=None):
    """Run ``query`` as an uninstrumented compiled-backend request."""
    return engine.execute(engine.compile(query), strategy=strategy,
                          backend="compiled")


def compiled_for(engine, query) -> CompiledPlan:
    run_compiled(engine, query)
    program = engine.compile(query).codegen["optimized"]
    assert isinstance(program, CompiledPlan), program
    return program


class TestBreakerPlacement:
    def test_pattern_is_a_breaker(self, people_doc):
        program = compiled_for(Engine(people_doc), PATTERN_QUERY)
        assert program.breakers == ("pattern",)

    def test_ddo_is_a_breaker(self, people_doc):
        program = compiled_for(Engine(people_doc), DDO_QUERY)
        assert "ddo" in program.breakers

    def test_aggregate_call_is_a_breaker(self, people_doc):
        program = compiled_for(Engine(people_doc), AGGREGATE_QUERY)
        assert "fn:count" in program.breakers

    def test_constant_plan_has_no_breakers(self):
        program = compile_plan(Const(values=(1, 2)))
        assert program.breakers == ()


class TestSnapshotStability:
    CONST_SNAPSHOT = (
        "def _compiled(ctx):\n"
        "    _doc = ctx.document\n"
        "    _strategy = ctx.strategy\n"
        "    _lookupv = ctx.lookup_var\n"
        "    _s1 = list(_k0)\n"
        "    return _s1\n")

    #: sha1 of ``source`` plus the newline-joined ``breakers`` of every
    #: golden query's (optimized, unoptimized) plan; a change to the
    #: code generator that moves one is a change to what runs.
    GOLDEN_SHA1 = {
        "member_QE1": ("d342834d64a5170a571dd6e11dd972385c78a3d6",
                       "142c9004fc47a29943b825829df248388bd39b5b"),
        "member_QE2": ("01f382169a96f14692344dd1eb8410c323ddded1",
                       "67d022a75df8a0321cf73c037341c993576a3e02"),
        "member_QE3": ("d342834d64a5170a571dd6e11dd972385c78a3d6",
                       "411d054e2397ffec33f6cfd70ce057de5cdcbbca"),
        "member_QE4": ("d342834d64a5170a571dd6e11dd972385c78a3d6",
                       "1717f0e774275921fe06ce95dd6f6df0849fe5b4"),
        "member_QE5": ("01f382169a96f14692344dd1eb8410c323ddded1",
                       "5954bdc859df250ccdb2ad15cb19ba81c71710d8"),
        "member_QE6": ("d342834d64a5170a571dd6e11dd972385c78a3d6",
                       "cf43661991f06ed4038e06f4d12ff722be3299a3"),
        "xmark_XQ1": ("c9de9249e8e6b64ec8f851ac1013bdc10e951852",
                      "3ba5abe4f0e3b508b0361d14608f1138034b2c2b"),
        "xmark_XQ13": ("489f2afc0d2a94ab8d74f5df3ced061bbc995403",
                       "57679c170a95f56e98c316f63fbcacdfc673dcc5"),
        "xmark_XQ14": ("60b16b6e6823010155663d9255f7064ef867b508",
                       "4aaa6c4d9135e407ed98450d83ba6f70bc5a23c8"),
        "xmark_XQ15": ("489f2afc0d2a94ab8d74f5df3ced061bbc995403",
                       "e3666e6ad00a6beb4fc0f54e47514ccc618d928b"),
        "xmark_XQ17": ("00f9cdfaae1d0bcba51e88c02e3da13202e06e8e",
                       "18c201e05cc7b0011d41835bf8e07e0dcf49b147"),
        "xmark_XQ19": ("489f2afc0d2a94ab8d74f5df3ced061bbc995403",
                       "6f89dda328827b08e3f65004d776ee7edb2786a1"),
        "xmark_XQ2": ("60ce3d1887bac36909f8395baa3e46ab0a4276ed",
                      "b51f184167a3bb2da3df0bbf2aabd174945b0433"),
        "xmark_XQ20": ("c1c4e289672160368ec72cf4bda2580fb6831f03",
                       "c3c534be968a307575d1815a791e72362917073a"),
        "xmark_XQ3": ("11364bf22f7a6f5a571a67f1eff9156b84d33ac0",
                      "b5b3b72de85b5cc85c688ac40251ccb6f9ccf1d4"),
        "xmark_XQ4": ("489f2afc0d2a94ab8d74f5df3ced061bbc995403",
                      "6255a71ca0eaeffa5e99bb8bcc283d586d516061"),
        "xmark_XQ5": ("7369ba95b99eb979484f2109013ecb21c820dd16",
                      "8d1f2866e81d6a9f03a805dcbe20b9dee5c1fd85"),
        "xmark_XQ6": ("9caa108985d437faed4e3d8353da60dcdbcaa039",
                      "459557914fbf7d790a554c2de1d17ad00c17fa38"),
        "xmark_XQ7": ("5dee8796159718c3ecdb41460f38b7a3433f7aa6",
                      "1c30c96d8386b537d2b87a670a4c0e45d822966d"),
        "xmark_XQ8": ("7e53791028513788852db63eee68a465c7960c2f",
                      "faf96160ef1892334de54e961a8cc168baa44804"),
        "xmark_XQ9": ("ef7c95f6e8ae1dc9ad7c1f2db21381cc33686e95",
                      "849283ba7c1dd03cde215cf27470348cdc049cf4"),
    }

    def test_const_source_snapshot(self):
        assert compile_plan(Const(values=(1, 2))).source \
            == self.CONST_SNAPSHOT

    @pytest.mark.parametrize("query", [PATTERN_QUERY, DDO_QUERY,
                                       AGGREGATE_QUERY])
    def test_same_query_generates_identical_source(self, people_doc,
                                                   query):
        first = compiled_for(Engine(people_doc), query)
        second = compile_plan(first.plan)
        assert first.source == second.source
        assert first.breakers == second.breakers

    @pytest.mark.parametrize("query", [PATTERN_QUERY, DDO_QUERY,
                                       AGGREGATE_QUERY])
    def test_source_embeds_no_runtime_ids(self, people_doc, query):
        source = compiled_for(Engine(people_doc), query).source
        assert "0x" not in source
        assert "object at" not in source

    def test_golden_plans_generate_pinned_source(self):
        engine = Engine.from_xml("<a/>", plan_cache_size=0)
        digests = {}
        for stem, query in golden_queries().items():
            compiled = engine.compile(query)
            pair = []
            for plan in (compiled.optimized, compiled.plan):
                program = compile_plan(plan)
                text = program.source + "\n".join(program.breakers)
                pair.append(hashlib.sha1(text.encode()).hexdigest())
            digests[stem] = tuple(pair)
        assert digests == self.GOLDEN_SHA1


class TestClosureCacheReuse:
    def test_repeated_runs_compile_once(self, people_doc):
        engine = Engine(people_doc)
        run_compiled(engine, PATTERN_QUERY)  # compile + codegen
        before = compile_count()
        reference = run_compiled(engine, PATTERN_QUERY)
        for _ in range(10):
            assert run_compiled(engine, PATTERN_QUERY) == reference
        assert compile_count() == before

    def test_item_strategy_compiles_the_unoptimized_plan_once(
            self, people_doc):
        engine = Engine(people_doc)
        compiled = engine.compile(PATTERN_QUERY)
        assert compiled.codegen == {}
        run_compiled(engine, PATTERN_QUERY)
        assert set(compiled.codegen) == {"optimized"}
        before = compile_count()
        reference = run_compiled(engine, PATTERN_QUERY, strategy="item")
        assert compile_count() == before + 1  # lazy "plan" role
        assert set(engine.compile(PATTERN_QUERY).codegen) \
            == {"optimized", "plan"}
        for _ in range(5):
            assert run_compiled(engine, PATTERN_QUERY,
                                strategy="item") == reference
        assert compile_count() == before + 1

    def test_codegen_refusal_is_negatively_cached(self, people_doc,
                                                  monkeypatch):
        calls = []

        def refusing(plan):
            calls.append(plan)
            raise CodegenError("forced refusal")

        monkeypatch.setattr("repro.engine.compile_plan", refusing)
        engine = Engine(people_doc)
        reference = Engine(people_doc).run(PATTERN_QUERY)
        for _ in range(5):
            assert run_compiled(engine, PATTERN_QUERY) == reference
        assert len(calls) == 1  # the CodegenError is cached, not retried

    def test_interpreted_engine_never_generates_code(self, people_doc):
        engine = Engine(people_doc)
        before = compile_count()
        engine.run(PATTERN_QUERY)
        assert compile_count() == before
        assert engine.compile(PATTERN_QUERY).codegen == {}


class TestTypedErrorsFromCompiledLoops:
    def test_step_budget_trips_typed(self, small_member_doc):
        engine = Engine(small_member_doc, budgets=Budgets(max_steps=5),
                        strict=True)
        with pytest.raises(BudgetExceeded) as exc:
            run_compiled(engine, MEMBER_QUERY)
        assert exc.value.code == "REPRO-BUDGET-STEPS"

    def test_output_budget_trips_typed(self, small_member_doc):
        engine = Engine(small_member_doc, budgets=Budgets(max_output=1),
                        strict=True)
        with pytest.raises(BudgetExceeded) as exc:
            run_compiled(engine, "$input//t01")
        assert exc.value.code == "REPRO-BUDGET-OUTPUT"

    def test_budget_error_matches_interpreted(self, small_member_doc):
        engine = Engine(small_member_doc, budgets=Budgets(max_steps=5),
                        strict=True)
        errors = {}
        for backend in BACKENDS:
            with pytest.raises(BudgetExceeded) as exc:
                engine.execute(engine.compile(MEMBER_QUERY),
                               backend=backend)
            # The message embeds elapsed wall time; everything else
            # (code, tripped counter, limit, step count) must match.
            message = re.sub(r"elapsed [0-9.]+ ms", "elapsed <t>",
                             str(exc.value))
            errors[backend] = (exc.value.code, message)
        assert errors["compiled"] == errors["interpreted"]

    def test_chaos_fault_surfaces_typed_and_matches_interpreted(
            self, small_member_doc):
        spec = ChaosSpec(site="eval.ttp", action="raise", rate=1.0)
        engine = Engine(small_member_doc, strict=True)
        outcomes = {}
        for backend in BACKENDS:
            with inject(spec, seed=99):
                with pytest.raises(ReproError) as exc:
                    engine.execute(engine.compile(MEMBER_QUERY),
                                   backend=backend)
            outcomes[backend] = (type(exc.value).__name__, exc.value.code)
        assert outcomes["compiled"] == outcomes["interpreted"]

    def test_chaos_fault_recovers_via_fallback(self, small_member_doc):
        reference = Engine(small_member_doc).run(MEMBER_QUERY)
        assert reference, "expected a non-empty reference result"
        engine = Engine(small_member_doc)
        compiled = engine.compile(MEMBER_QUERY)
        spec = ChaosSpec(site="scjoin.match", action="raise", rate=1.0)
        metrics = ExecMetrics()
        with inject(spec, seed=99):
            assert run_compiled(engine, MEMBER_QUERY,
                                strategy="scjoin") == reference
            assert engine.execute(compiled, strategy="scjoin",
                                  metrics=metrics,
                                  backend="compiled") == reference
        assert metrics.fallbacks, "expected a recorded strategy fallback"

    def test_unknown_backend_rejected(self, people_doc):
        engine = Engine(people_doc)
        compiled = engine.compile(PATTERN_QUERY)
        with pytest.raises(InputError) as exc:
            engine.execute(compiled, backend="jit")
        assert "jit" in str(exc.value)
        with pytest.raises(InputError):
            engine.execute(compiled, backend="native")

    def test_compile_plan_rejects_non_item_plans_typed(self):
        with pytest.raises(CodegenError) as exc:
            compile_plan("not a plan")
        assert exc.value.code == "REPRO-CODEGEN"


def op_rows(trace):
    """Per-operator (name, calls, rows), identity-free."""
    return Counter((stat.name, stat.calls, stat.rows)
                   for stat in trace.op_stats.values())


class TestInstrumentedRequestsAreInterpreted:
    """Generated code counts, charges and traces nothing, so a request
    with metrics, a trace or budgets is interpreted under
    ``backend="compiled"``: it reports what the interpreter reports and
    generates no code."""

    @pytest.mark.parametrize("query", [MEMBER_QUERY, "count($input//t01)",
                                       "for $a in $input//t01 "
                                       "return count($a//t02)"])
    def test_metrics_and_trace_match_the_interpreter(
            self, small_member_doc, query):
        engine = Engine(small_member_doc)
        compiled = engine.compile(query)
        before = compile_count()
        seen = {}
        for backend in BACKENDS:
            metrics = ExecMetrics()
            trace = Tracer().begin("query")
            results = engine.execute(compiled, metrics=metrics,
                                     tracing=trace, backend=backend)
            trace.finish()
            seen[backend] = (results, metrics.counters(), op_rows(trace))
        assert seen["compiled"] == seen["interpreted"]
        assert seen["compiled"][1]["pattern_evals"] > 0
        assert compile_count() == before
        assert compiled.codegen == {}

    def test_budget_trip_matches_the_interpreter(self, small_member_doc):
        engine = Engine(small_member_doc, fallback_chain=())
        compiled = engine.compile(MEMBER_QUERY)
        before = compile_count()
        trips = {}
        for backend in BACKENDS:
            with pytest.raises(BudgetExceeded) as exc:
                engine.execute(compiled, budgets=Budgets(max_steps=50),
                               backend=backend)
            trips[backend] = (exc.value.code, exc.value.observed)
        assert trips["compiled"] == trips["interpreted"]
        assert compile_count() == before
        assert compiled.codegen == {}
