"""Engine-level guardrails: input validation, budgets, strategy fallback."""

import gc

import pytest

from repro import Engine
from repro.engine import DEFAULT_FALLBACK_CHAIN, ITEM_EVALUATOR
from repro.guard import (BudgetExceeded, Budgets, ChaosSpec, InjectedFault,
                         InputError, inject)
from repro.obs import ExecMetrics
from repro.physical import Strategy

QUERY = "$input//person[emailaddress]/name"

ALL_STRATEGIES = ["nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
                  "auto", "cost"]


def people_values(results):
    return [node.string_value() for node in results]


class TestInputValidation:
    def test_empty_query_rejected(self, people_engine):
        with pytest.raises(InputError) as exc:
            people_engine.run("")
        assert exc.value.code == "REPRO-INPUT"

    def test_whitespace_query_rejected(self, people_engine):
        with pytest.raises(InputError):
            people_engine.run("   \n\t")

    def test_non_string_query_rejected(self, people_engine):
        with pytest.raises(InputError):
            people_engine.run(None)

    def test_unknown_strategy_name(self, people_engine):
        with pytest.raises(InputError) as exc:
            people_engine.run(QUERY, strategy="quantum")
        assert "quantum" in str(exc.value)
        assert "nljoin" in str(exc.value)  # lists the valid names

    def test_wrong_typed_strategy(self, people_engine):
        with pytest.raises(InputError):
            people_engine.run(QUERY, strategy=42)

    def test_strategy_enum_accepted(self, people_engine):
        assert people_engine.run(QUERY, strategy=Strategy.TWIG_JOIN)

    def test_oversized_document_soft_limit(self):
        with pytest.raises(InputError) as exc:
            Engine.from_xml("<a/>" * 1000, max_document_size=100)
        assert exc.value.context["limit"] == 100

    def test_oversized_limit_can_be_disabled(self):
        engine = Engine.from_xml("<a>" + "<b/>" * 50 + "</a>",
                                 max_document_size=None)
        assert engine.document.size > 0

    def test_non_string_document_rejected(self):
        with pytest.raises(InputError):
            Engine.from_xml(b"<a/>")

    def test_bad_fallback_chain_rejected(self, people_doc):
        with pytest.raises(InputError):
            Engine(people_doc, fallback_chain=["nljoin", "quantum"])

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("steps", [900, 2000])
    def test_too_deep_query_is_a_typed_error(self, people_engine, optimize,
                                             steps):
        """Query text is external input: a raw RecursionError from any
        compile stage becomes REPRO-INPUT naming the stage."""
        with pytest.raises(InputError) as exc:
            people_engine.compile("$input" + "/a" * steps,
                                  optimize=optimize, use_cache=False)
        assert exc.value.code == "REPRO-INPUT"
        assert "nests too deeply" in exc.value.message
        assert exc.value.context["stage"] in (
            "parse", "normalize", "rewrite", "compile", "optimize")
        assert isinstance(exc.value.__cause__, RecursionError)

    def test_too_deep_for_a_later_stage_names_that_stage(self,
                                                         people_engine):
        """400 steps parse and normalize; the recursive rule families
        are the first to run out of stack."""
        with pytest.raises(InputError) as exc:
            people_engine.compile("$input" + "/a" * 400, use_cache=False)
        assert exc.value.context["stage"] in ("rewrite", "compile",
                                              "optimize")

    def test_deep_but_walkable_query_compiles(self, people_engine):
        compiled = people_engine.compile("$input" + "/a" * 100,
                                         use_cache=False)
        assert compiled.tree_pattern_count() == 1

    @staticmethod
    def nested(depth):
        return "<a>" * depth + "</a>" * depth

    def test_deep_but_parseable_document_answers(self):
        engine = Engine.from_xml(self.nested(400))
        assert engine.run("count($input//a)") == [400]

    @pytest.mark.parametrize("depth", [400, 500, 5000])
    def test_deep_document_loads_and_answers(self, depth, tmp_path,
                                             capsys):
        """XML text is external input and the parser keeps its own
        stack of open elements: nesting depth is bounded by memory, not
        by the interpreter's recursion limit, at every document entry
        point."""
        from repro.cli import main
        from repro.serve import DocumentCatalog
        from repro.xmltree import IndexedDocument, serialize
        text = self.nested(depth)
        path = tmp_path / "deep.xml"
        path.write_text(text, encoding="utf-8")
        catalog = DocumentCatalog()
        catalog.add_xml("deep", text)
        engines = [Engine.from_xml(text),
                   Engine(IndexedDocument.from_string(text)),
                   Engine.from_file(str(path)),
                   catalog.engine("deep")]
        for engine in engines:
            assert engine.document.size == depth + 1
            assert engine.document.nodes_by_pre[-1].level == depth
        # The innermost element, found by a pattern with a predicate.
        for engine in engines:
            [innermost] = engine.run("$input//a[not(a)]")
            assert innermost.level == depth
            assert serialize(innermost) == "<a/>"
        assert main(["query", "count($input//a)", "--doc", str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(depth)


    def test_deep_document_memory(self):
        """The path summary keeps one path index per element: parsing
        a chain 5 000 deep, its summary and the first query allocate
        in proportion to the depth, not to its square."""
        import tracemalloc
        text = self.nested(5000)
        gc.collect()
        tracemalloc.start()
        try:
            engine = Engine.from_xml(text)
            engine.document.summary
            [innermost] = engine.run("$input//a[not(a)]")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert innermost.level == 5000
        assert peak < 20_000_000


class TestFileErrors:
    """A path ``Engine.from_file`` cannot read as a document is a typed
    ``REPRO-INPUT`` error carrying the path, never a raw ``OSError`` or
    ``UnicodeDecodeError``."""

    @staticmethod
    def refused(path):
        from repro.guard import InputError
        with pytest.raises(InputError) as err:
            Engine.from_file(str(path))
        assert err.value.code == "REPRO-INPUT"
        assert err.value.context["path"] == str(path)
        return str(err.value)

    def test_missing_file(self, tmp_path):
        assert "no such document file" in self.refused(
            tmp_path / "missing.xml")

    def test_directory(self, tmp_path):
        assert "is a directory" in self.refused(tmp_path)

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.xml"
        path.write_bytes("<a>café</a>".encode("latin-1"))
        assert "UTF-8" in self.refused(path)


class TestBudgets:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_step_budget_trips_every_strategy(self, people_engine, strategy):
        compiled = people_engine.compile(QUERY)
        with pytest.raises(BudgetExceeded) as exc:
            people_engine.execute(compiled, strategy=strategy,
                                  budgets=Budgets(max_steps=5))
        err = exc.value
        assert err.code == "REPRO-BUDGET-STEPS"
        assert err.steps > 5
        assert err.elapsed_seconds >= 0.0

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_wall_budget_trips_every_strategy(self, people_engine, strategy):
        compiled = people_engine.compile(QUERY)
        with pytest.raises(BudgetExceeded) as exc:
            people_engine.execute(compiled, strategy=strategy,
                                  budgets=Budgets(wall_seconds=0.0))
        assert exc.value.code == "REPRO-BUDGET-WALL"

    def test_output_budget_trips(self, people_engine):
        with pytest.raises(BudgetExceeded) as exc:
            people_engine.execute(people_engine.compile("$input//*"),
                                  budgets=Budgets(max_output=2))
        assert exc.value.kind == "output"

    def test_generous_budget_passes(self, people_engine):
        compiled = people_engine.compile(QUERY)
        plain = people_engine.execute(compiled)
        governed = people_engine.execute(
            compiled, budgets=Budgets(wall_seconds=60.0, max_steps=10**9,
                                      max_output=10**9, max_depth=10**6))
        assert governed == plain

    def test_engine_level_budgets(self, people_doc):
        engine = Engine(people_doc, budgets=Budgets(max_steps=5))
        with pytest.raises(BudgetExceeded):
            engine.run(QUERY)

    def test_call_overrides_engine_budgets(self, people_doc):
        engine = Engine(people_doc, budgets=Budgets(max_steps=5))
        assert engine.execute(engine.compile(QUERY),
                              budgets=Budgets(max_steps=10**9))


class TestFallback:
    def test_default_chain(self, people_engine):
        assert people_engine.fallback_chain == DEFAULT_FALLBACK_CHAIN

    def test_fault_falls_back_to_identical_results(self, people_engine):
        compiled = people_engine.compile(QUERY)
        baseline = people_engine.execute(compiled, strategy="nljoin")
        metrics = ExecMetrics()
        with inject(ChaosSpec(site="twigjoin.match")):
            recovered = people_engine.execute(compiled, strategy="twigjoin",
                                              metrics=metrics)
        assert people_values(recovered) == people_values(baseline)
        assert len(metrics.fallbacks) == 1
        event = metrics.fallbacks[0]
        assert event.from_strategy == "twigjoin"
        assert event.to_strategy == "nljoin"
        assert event.error_code == "REPRO-ALGO"

    def test_chain_skips_failing_strategies(self, people_engine):
        compiled = people_engine.compile(QUERY)
        baseline = people_engine.execute(compiled, strategy="nljoin")
        metrics = ExecMetrics()
        with inject(ChaosSpec(site="twigjoin.match"),
                    ChaosSpec(site="nljoin.match")):
            recovered = people_engine.execute(compiled, strategy="twigjoin",
                                              metrics=metrics)
        # twigjoin fails, nljoin fails, the item evaluator answers.
        assert people_values(recovered) == people_values(baseline)
        assert [e.to_strategy for e in metrics.fallbacks] \
            == ["nljoin", ITEM_EVALUATOR]

    def test_exhausted_chain_raises_last_error(self, people_doc):
        engine = Engine(people_doc, fallback_chain=["nljoin"])
        compiled = engine.compile(QUERY)
        with inject(ChaosSpec(site="*.match")):
            with pytest.raises(Exception) as exc:
                engine.execute(compiled, strategy="twigjoin")
        assert exc.value.code == "REPRO-ALGO"

    def test_strict_engine_configuration(self, people_doc):
        engine = Engine(people_doc, strict=True)
        with inject(ChaosSpec(site="scjoin.match")):
            with pytest.raises(InjectedFault):
                engine.run(QUERY, strategy="scjoin")

    def test_disabled_chain(self, people_doc):
        engine = Engine(people_doc, fallback_chain=None)
        compiled = engine.compile(QUERY)
        with inject(ChaosSpec(site="twigjoin.match")):
            with pytest.raises(Exception) as exc:
                engine.execute(compiled, strategy="twigjoin")
        assert exc.value.code == "REPRO-ALGO"

    def test_comma_separated_chain(self, people_doc):
        engine = Engine(people_doc, fallback_chain="scjoin, item")
        assert engine.fallback_chain == ("scjoin", ITEM_EVALUATOR)

    def test_wall_trip_never_retries(self, people_engine):
        compiled = people_engine.compile(QUERY)
        metrics = ExecMetrics()
        with pytest.raises(BudgetExceeded) as exc:
            people_engine.execute(compiled, strategy="twigjoin",
                                  budgets=Budgets(wall_seconds=0.0),
                                  metrics=metrics)
        assert exc.value.kind == "wall"
        assert metrics.fallbacks == []

    @staticmethod
    def refuse_codegen(monkeypatch):
        """Make every code generation fail; returns the plans asked for."""
        from repro.compiled import CodegenError
        calls = []

        def refusing(plan):
            calls.append(plan)
            raise CodegenError("forced")

        monkeypatch.setattr("repro.engine.compile_plan", refusing)
        return calls

    def test_codegen_failure_steps_to_interpreted(self, people_doc,
                                                  monkeypatch):
        """A plan the code generator refuses is interpreted with the same
        results, without consuming a strategy retry; the refusal is kept
        on the query, so the plan is not generated again."""
        calls = self.refuse_codegen(monkeypatch)
        baseline = Engine(people_doc).run(QUERY)
        engine = Engine(people_doc)
        compiled = engine.compile(QUERY)
        for _ in range(2):
            results = engine.execute(compiled, backend="compiled")
            assert people_values(results) == people_values(baseline)
        assert len(calls) == 1
        assert compiled.codegen["optimized"].code == "REPRO-CODEGEN"
        metrics = ExecMetrics()
        engine.execute(compiled, metrics=metrics, backend="compiled")
        assert metrics.fallbacks == []

    def test_codegen_failure_falls_back_even_under_strict(self, people_doc,
                                                          monkeypatch):
        # The two backends are semantically identical, so strict mode
        # (which pins the *strategy*) still allows this degradation.
        self.refuse_codegen(monkeypatch)
        baseline = Engine(people_doc).run(QUERY)
        engine = Engine(people_doc, strict=True)
        results = engine.execute(engine.compile(QUERY), backend="compiled")
        assert people_values(results) == people_values(baseline)

    def test_codegen_fallback_visible_in_trace(self, people_doc,
                                               monkeypatch):
        """A traced request is interpreted under either backend: its
        trace shows the interpreter's operator rows, no code is
        generated for it, and so no codegen fallback is recorded."""
        from repro.trace import Tracer
        calls = self.refuse_codegen(monkeypatch)
        engine = Engine(people_doc)
        compiled = engine.compile(QUERY)
        rows = {}
        for backend in ("interpreted", "compiled"):
            trace = Tracer().begin("query")
            engine.execute(compiled, tracing=trace, backend=backend)
            trace.finish()
            rows[backend] = sorted((stat.name, stat.rows)
                                   for stat in trace.op_stats.values())
            assert not [name for span in trace.spans
                        for _, name, _ in span.events
                        if name == "fallback"]
        assert rows["compiled"] == rows["interpreted"] != []
        assert calls == [] and compiled.codegen == {}

    def test_step_trip_can_recover_on_cheaper_strategy(self, people_doc):
        # The streaming matcher charges a step per document event, more
        # than this budget; the item evaluator's per-operator charge
        # fits, so the run recovers (each attempt gets fresh steps).
        engine = Engine(people_doc, fallback_chain=[ITEM_EVALUATOR])
        compiled = engine.compile(QUERY)
        baseline = engine.execute(compiled, strategy="nljoin")
        metrics = ExecMetrics()
        recovered = engine.execute(compiled, strategy="streaming",
                                   budgets=Budgets(max_steps=40),
                                   metrics=metrics)
        assert people_values(recovered) == people_values(baseline)
        assert [e.error_code for e in metrics.fallbacks] \
            == ["REPRO-BUDGET-STEPS"]

    def test_query_errors_do_not_fall_back(self, people_engine):
        metrics = ExecMetrics()
        with pytest.raises(ValueError) as exc:
            people_engine.execute(
                people_engine.compile("let $x := 1 return $x/a"),
                metrics=metrics)
        assert exc.value.code == "REPRO-DYNAMIC"
        assert metrics.fallbacks == []


class TestTracedRunVisibility:
    def test_fallback_visible_in_traced_run(self, people_engine):
        with inject(ChaosSpec(site="twigjoin.match")):
            traced = people_engine.run_traced(QUERY, strategy="twigjoin")
        assert traced.strategy == "twigjoin"
        assert len(traced.fallbacks) == 1
        assert traced.fallbacks[0].to_strategy == "nljoin"
        assert "strategy fallback" in traced.report()
        assert "twigjoin -> nljoin" in traced.report()

    def test_effective_strategy_reports_fallback_target(self,
                                                        people_engine):
        with inject(ChaosSpec(site="twigjoin.match")):
            traced = people_engine.run_traced(QUERY, strategy="twigjoin")
        assert traced.strategy == "twigjoin"
        assert traced.effective_strategy == "nljoin"
        assert "effective: nljoin" in traced.report()

    def test_clean_run_has_no_fallbacks(self, people_engine):
        traced = people_engine.run_traced(QUERY, strategy="twigjoin")
        assert traced.fallbacks == []
        assert "strategy fallback" not in traced.report()
        assert traced.effective_strategy == traced.strategy
        assert "effective:" not in traced.report()

    def test_fallbacks_serialize(self, people_engine):
        with inject(ChaosSpec(site="scjoin.match")):
            traced = people_engine.run_traced(QUERY, strategy="scjoin")
        data = traced.metrics.to_dict()
        assert data["fallbacks"][0]["from"] == "scjoin"


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_timeout_flag(self, capsys):
        code, _, err = self.run_cli(
            ["query", "$input//person/name", "--timeout", "0"], capsys)
        assert code == 2
        assert "REPRO-BUDGET-WALL" in err

    def test_max_steps_flag(self, capsys):
        code, _, err = self.run_cli(
            ["query", "$input//person/name", "--max-steps", "1",
             "--fallback-chain", "none"], capsys)
        assert code == 2
        assert "REPRO-BUDGET-STEPS" in err

    def test_syntax_error_renders_caret(self, capsys):
        code, _, err = self.run_cli(["query", "for $x in"], capsys)
        assert code == 2
        assert "REPRO-XQ-SYNTAX" in err
        assert "^" in err

    def test_unreadable_doc_is_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.xml"
        path.write_bytes(b"<a>caf\xe9</a>")
        for doc in (tmp_path / "missing.xml", tmp_path, path):
            code, _, err = self.run_cli(
                ["query", "$input//a", "--doc", str(doc)], capsys)
            assert code == 2
            assert "REPRO-INPUT" in err and str(doc) in err
            assert "Traceback" not in err

    def test_strict_flag_accepted(self, capsys):
        code, out, _ = self.run_cli(
            ["query", "$input//person/name", "--strict"], capsys)
        assert code == 0
        assert "John" in out
