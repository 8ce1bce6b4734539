"""The four core rewrite families (paper Section 3), rule by rule, and
the change-tracked driver that runs them to the TPNF' fixpoint."""

import importlib
import pathlib
import re

import pytest

import repro.rewrite.facts as facts_module
import repro.rewrite.pipeline as pipeline_module
from repro.algebra import OptimizerOptions, compile_core, optimize_plan
from repro.guard import InternalError
from repro.typing import ItemType, infer_type
from repro.xmltree.axes import Axis
from repro.xmltree.nodetest import NameTest
from repro.xqcore import (CaseClause, CCall, CDDO, CEmpty, CExpr, CFor,
                          CGenCmp, CLet, CLit, CStep, CTypeswitch, CVar, Var,
                          alpha_canonical, count_nodes, fresh_var, pretty,
                          usage_count, walk)
from repro.rewrite import (RewriteOptions, RewriteTrace,
                           remove_redundant_ddo, rewrite_flwor,
                           rewrite_to_tpnf, rewrite_typeswitches,
                           split_loops)
from repro.rewrite.facts import sequence_facts
from tests.support.rewrite_checks import (ABLATION_OPTIONS,
                                          assert_analyses_fresh,
                                          assert_identity_contract,
                                          assert_same_normal_form, chain,
                                          curated_queries, normalized)

#: ``repro.xqcore.pretty`` the attribute is the function; this is the module.
pretty_module = importlib.import_module("repro.xqcore.pretty")


norm = normalized


def tpnf(text):
    return rewrite_to_tpnf(norm(text))


def canon(expr):
    return alpha_canonical(expr)


def step(axis, name, input_expr):
    return CStep(axis, NameTest(name), input_expr)


class TestTypeswitchRules:
    def test_dead_numeric_case_removed(self):
        """Node-typed predicate → numeric case pruned → fn:boolean."""
        dot = fresh_var("dot", origin="focus")
        case_var = fresh_var("v", origin="focus")
        default_var = fresh_var("v", origin="focus")
        position = fresh_var("position", origin="focus")
        switch = CTypeswitch(
            step(Axis.CHILD, "b", CVar(dot)),
            [CaseClause("numeric", case_var,
                        CGenCmp("=", CVar(position), CVar(case_var)))],
            default_var, CCall("fn:boolean", [CVar(default_var)]))
        result = rewrite_typeswitches(switch)
        assert isinstance(result, CLet)
        assert result.var == default_var

    def test_sure_numeric_case_selected(self):
        dot = fresh_var("dot", origin="focus")
        case_var = fresh_var("v", origin="focus")
        default_var = fresh_var("v", origin="focus")
        position = fresh_var("position", origin="focus")
        switch = CTypeswitch(
            CLit(1),
            [CaseClause("numeric", case_var,
                        CGenCmp("=", CVar(position), CVar(case_var)))],
            default_var, CCall("fn:boolean", [CVar(default_var)]))
        result = rewrite_typeswitches(switch)
        assert isinstance(result, CLet)
        assert result.var == case_var

    def test_unknown_type_keeps_typeswitch(self):
        user = fresh_var("u")  # user variable: type unknown
        case_var = fresh_var("v", origin="focus")
        default_var = fresh_var("v", origin="focus")
        switch = CTypeswitch(
            CVar(user),
            [CaseClause("numeric", case_var, CLit(True))],
            default_var, CLit(False))
        result = rewrite_typeswitches(switch)
        assert isinstance(result, CTypeswitch)

    def test_full_query_node_predicate(self):
        result = rewrite_typeswitches(norm("$d/person[emailaddress]"))
        assert not any(isinstance(node, CTypeswitch)
                       for node in walk(result))

    def test_full_query_numeric_predicate(self):
        result = rewrite_typeswitches(norm("$d/person[2]"))
        assert not any(isinstance(node, CTypeswitch)
                       for node in walk(result))
        comparisons = [node for node in walk(result)
                       if isinstance(node, CGenCmp)]
        assert comparisons


class TestFLWORRules:
    def test_dead_let_removed(self):
        x = fresh_var("x")
        expr = CLet(x, CLit(1), CLit(2))
        assert rewrite_flwor(expr) == CLit(2)

    def test_single_use_inlined(self):
        x = fresh_var("x")
        expr = CLet(x, CLit(1), CGenCmp("=", CVar(x), CLit(1)))
        result = rewrite_flwor(expr)
        assert result == CGenCmp("=", CLit(1), CLit(1))

    def test_multi_use_not_inlined(self):
        x = fresh_var("x")
        d = fresh_var("d", origin="external")
        value = step(Axis.CHILD, "a", CVar(d))
        expr = CLet(x, value, CGenCmp("=", CVar(x), CVar(x)))
        result = rewrite_flwor(expr)
        assert isinstance(result, CLet)

    def test_variable_binding_always_inlined(self):
        x, y = fresh_var("x"), fresh_var("y")
        expr = CLet(x, CVar(y), CGenCmp("=", CVar(x), CVar(x)))
        result = rewrite_flwor(expr)
        assert result == CGenCmp("=", CVar(y), CVar(y))

    def test_unused_position_variable_dropped(self):
        x, i = fresh_var("x"), fresh_var("i")
        d = fresh_var("d", origin="external")
        loop = CFor(x, i, step(Axis.CHILD, "a", CVar(d)), None,
                    step(Axis.CHILD, "b", CVar(x)))
        result = rewrite_flwor(loop)
        assert isinstance(result, CFor)
        assert result.position_var is None

    def test_used_position_variable_kept(self):
        x, i = fresh_var("x"), fresh_var("i")
        d = fresh_var("d", origin="external")
        loop = CFor(x, i, step(Axis.CHILD, "a", CVar(d)), None, CVar(i))
        result = rewrite_flwor(loop)
        assert isinstance(result, CFor)
        assert result.position_var == i

    def test_for_identity(self):
        x = fresh_var("x")
        d = fresh_var("d", origin="external")
        source = step(Axis.CHILD, "a", CVar(d))
        loop = CFor(x, None, source, None, CVar(x))
        assert rewrite_flwor(loop) == source

    def test_for_identity_blocked_by_where(self):
        x = fresh_var("x")
        d = fresh_var("d", origin="external")
        loop = CFor(x, None, step(Axis.CHILD, "a", CVar(d)),
                    CCall("fn:boolean", [CVar(x)]), CVar(x))
        result = rewrite_flwor(loop)
        assert isinstance(result, CFor)

    def test_singleton_for_becomes_inline(self):
        x = fresh_var("x")
        d = fresh_var("d", origin="external")  # singleton by convention
        loop = CFor(x, None, CVar(d), None, step(Axis.CHILD, "a", CVar(x)))
        result = rewrite_flwor(loop)
        # for over a singleton → let → inlined
        assert result == step(Axis.CHILD, "a", CVar(d))

    def test_usage_count_loop_counts_as_many(self):
        x, y = fresh_var("x"), fresh_var("y")
        d = fresh_var("d", origin="external")
        loop = CFor(y, None, step(Axis.CHILD, "a", CVar(d)), None, CVar(x))
        assert usage_count(loop, x) == 2


class TestDocOrderRules:
    def test_ddo_of_singleton_removed(self):
        d = fresh_var("d", origin="external")
        assert remove_redundant_ddo(CDDO(CVar(d))) == CVar(d)

    def test_ddo_of_step_from_singleton_removed(self):
        d = fresh_var("d", origin="external")
        expr = CDDO(step(Axis.DESCENDANT, "a", CVar(d)))
        assert remove_redundant_ddo(expr) == step(Axis.DESCENDANT, "a",
                                                  CVar(d))

    def test_top_level_unproven_ddo_kept(self):
        u = fresh_var("u")  # unknown user variable
        expr = CDDO(CVar(u))
        assert isinstance(remove_redundant_ddo(expr), CDDO)

    def test_ddo_under_ddo_removed(self):
        u = fresh_var("u")
        expr = CDDO(CDDO(CVar(u)))
        result = remove_redundant_ddo(expr)
        assert isinstance(result, CDDO)
        assert not isinstance(result.arg, CDDO)

    def test_ddo_under_boolean_removed(self):
        u = fresh_var("u")
        expr = CCall("fn:boolean", [CDDO(CVar(u))])
        result = remove_redundant_ddo(expr)
        assert result == CCall("fn:boolean", [CVar(u)])

    def test_ddo_under_count_kept(self):
        u = fresh_var("u")
        expr = CCall("fn:count", [CDDO(CVar(u))])
        result = remove_redundant_ddo(expr)
        assert isinstance(result.args[0], CDDO)

    def test_ddo_in_comparison_removed(self):
        u = fresh_var("u")
        expr = CGenCmp("=", CDDO(CVar(u)), CLit("x"))
        result = remove_redundant_ddo(expr)
        assert result == CGenCmp("=", CVar(u), CLit("x"))

    def test_for_source_under_outer_ddo_removed(self):
        u = fresh_var("u")
        x = fresh_var("x")
        loop = CFor(x, None, CDDO(CVar(u)), None,
                    step(Axis.CHILD, "a", CVar(x)))
        result = remove_redundant_ddo(CDDO(loop))
        inner = result.arg if isinstance(result, CDDO) else result
        assert not isinstance(inner.source, CDDO)

    def test_for_source_with_position_var_kept(self):
        u = fresh_var("u")
        x, i = fresh_var("x"), fresh_var("i")
        loop = CFor(x, i, CDDO(CVar(u)), None,
                    CGenCmp("=", CVar(i), CLit(1)))
        result = remove_redundant_ddo(CDDO(loop))
        inner = result.arg if isinstance(result, CDDO) else result
        assert isinstance(inner.source, CDDO)

    def test_full_query_single_outer_ddo_for_descendant(self):
        result = tpnf("$d//person/name")
        ddos = [node for node in walk(result) if isinstance(node, CDDO)]
        assert len(ddos) <= 1


class TestFacts:
    def test_child_chain_is_separated(self):
        core = tpnf("$d/site/people/person")
        facts = sequence_facts(core)
        assert facts.ord_nodup
        assert facts.separated

    def test_descendant_not_separated(self):
        core = tpnf("$d//person")
        facts = sequence_facts(core)
        assert facts.ord_nodup
        assert not facts.separated

    def test_descendant_then_child_sorted(self):
        # //person/name is sorted only thanks to the re-sorting ddo
        core = tpnf("$d//person/name")
        facts = sequence_facts(core)
        assert facts.ord_nodup  # because the outer ddo survives


class TestLoopSplit:
    def build_nested(self, with_positions=False):
        d = fresh_var("d", origin="external")
        x, y = fresh_var("x"), fresh_var("y")
        i = fresh_var("i") if with_positions else None
        inner = CFor(y, i, step(Axis.CHILD, "b", CVar(x)), None, CVar(y))
        return CFor(x, None, step(Axis.DESCENDANT, "a", CVar(d)), None,
                    inner), x, y

    def test_splits_nested_loops(self):
        loop, x, y = self.build_nested()
        result = split_loops(loop)
        assert isinstance(result, CFor)
        assert result.var == y
        assert isinstance(result.source, CFor)
        assert result.source.var == x

    def test_blocked_by_position_variable(self):
        loop, x, y = self.build_nested(with_positions=True)
        result = split_loops(loop)
        assert result.var == x  # unchanged

    def test_blocked_by_outer_var_in_inner_body(self):
        d = fresh_var("d", origin="external")
        x, y = fresh_var("x"), fresh_var("y")
        inner = CFor(y, None, step(Axis.CHILD, "b", CVar(x)), None, CVar(x))
        loop = CFor(x, None, step(Axis.DESCENDANT, "a", CVar(d)), None, inner)
        result = split_loops(loop)
        assert result.var == x

    def test_where_clauses_travel(self):
        d = fresh_var("d", origin="external")
        x, y = fresh_var("x"), fresh_var("y")
        cond = CCall("fn:boolean", [step(Axis.CHILD, "c", CVar(y))])
        inner = CFor(y, None, step(Axis.CHILD, "b", CVar(x)), cond, CVar(y))
        loop = CFor(x, None, step(Axis.DESCENDANT, "a", CVar(d)), None, inner)
        result = split_loops(loop)
        assert result.var == y
        assert result.where is cond


class TestPipeline:
    def test_figure1_variants_converge(self):
        variants = [
            "$d//person[emailaddress]/name",
            "(for $x in $d//person[emailaddress] return $x)/name",
            "let $x := (for $y in $d//person where $y/emailaddress "
            "return $y) return $x/name",
        ]
        canons = {canon(tpnf(text)) for text in variants}
        assert len(canons) == 1

    def test_q5_differs_from_q1(self):
        q1 = canon(tpnf("$d//person[emailaddress]/name"))
        q5 = canon(tpnf(
            "for $x in $d//person[emailaddress] return $x/name"))
        assert q1 != q5

    def test_options_disable_families(self):
        core = norm("$d//person[emailaddress]/name")
        untouched = rewrite_to_tpnf(core, options=RewriteOptions.none())
        assert canon(untouched) == canon(core)

    def test_pipeline_is_idempotent(self):
        result = tpnf("$d//person[emailaddress]/name")
        assert canon(rewrite_to_tpnf(result)) == canon(result)

    def test_positional_query_keeps_position(self):
        result = tpnf("$d//person[position() = 1]")
        loops = [node for node in walk(result)
                 if isinstance(node, CFor) and node.position_var is not None]
        assert loops


class TestTypeInference:
    def test_literals(self):
        assert infer_type(CLit(1)) is ItemType.NUMERIC
        assert infer_type(CLit("x")) is ItemType.STRING
        assert infer_type(CLit(True)) is ItemType.BOOLEAN
        assert infer_type(CEmpty()) is ItemType.EMPTY

    def test_steps_are_nodes(self):
        d = fresh_var("d", origin="external")
        assert infer_type(step(Axis.CHILD, "a", CVar(d))) is ItemType.NODES

    def test_functions(self):
        assert infer_type(CCall("fn:count", [CEmpty()])) is ItemType.NUMERIC
        assert infer_type(CCall("fn:boolean", [CEmpty()])) is ItemType.BOOLEAN
        assert infer_type(CCall("fn:mystery", [])) is ItemType.ANY

    def test_let_propagates(self):
        x = fresh_var("x")
        expr = CLet(x, CLit(1), CVar(x))
        assert infer_type(expr) is ItemType.NUMERIC

    def test_for_body_type(self):
        d = fresh_var("d", origin="external")
        x = fresh_var("x")
        loop = CFor(x, None, step(Axis.CHILD, "a", CVar(d)), None,
                    CCall("fn:count", [CVar(x)]))
        assert infer_type(loop) is ItemType.NUMERIC

    def test_unknown_user_variable_any(self):
        assert infer_type(CVar(fresh_var("u"))) is ItemType.ANY

    def test_union_type(self):
        assert ItemType.NUMERIC.union(ItemType.NUMERIC) is ItemType.NUMERIC
        assert ItemType.NUMERIC.union(ItemType.STRING) is ItemType.ANY
        assert ItemType.EMPTY.union(ItemType.NODES) is ItemType.NODES


# -- the change-tracked driver --------------------------------------------------

CURATED = curated_queries()


def counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestIdentityFixpoint:
    """``rewrite_to_tpnf`` stops on ``is``, never on a printed form."""

    @pytest.mark.parametrize("name", sorted(CURATED))
    def test_families_return_a_normal_form_itself(self, name):
        assert_identity_contract(normalized(CURATED[name]))

    @pytest.mark.parametrize("name", sorted(CURATED))
    def test_the_optimizer_returns_an_optimized_plan_itself(self, name):
        """``optimize_plan`` reaches a true fixpoint: one more pass over
        its own output fires nothing, with and without rule (g)."""
        plan = compile_core(rewrite_to_tpnf(normalized(CURATED[name])))
        for options in (OptimizerOptions(),
                        OptimizerOptions(enable_positional=True)):
            optimized = optimize_plan(plan, options)
            assert optimize_plan(optimized, options) is optimized

    @pytest.mark.parametrize("name", sorted(CURATED))
    def test_same_normal_form_as_the_string_fixpoint(self, name):
        core = normalized(CURATED[name])
        for options in ABLATION_OPTIONS.values():
            assert_same_normal_form(core, options)

    def test_a_normal_form_costs_one_quiet_round(self, monkeypatch):
        tpnf = rewrite_to_tpnf(normalized(chain("/t1[1]", 8)))
        calls = [counted(monkeypatch, pipeline_module, name)
                 for name in ("rewrite_typeswitches", "rewrite_flwor",
                              "remove_redundant_ddo", "split_loops")]
        trace = RewriteTrace()
        assert rewrite_to_tpnf(tpnf, trace=trace) is tpnf
        assert [len(family) for family in calls] == [1, 1, 1, 1]
        assert trace.steps == []

    def test_no_options_returns_the_input(self):
        core = normalized("$d//a[b]/c")
        assert rewrite_to_tpnf(core, options=RewriteOptions.none()) is core

    def test_a_rule_that_rebuilds_without_changing_is_a_typed_error(
            self, monkeypatch):
        monkeypatch.setattr(
            pipeline_module, "split_loops",
            lambda expr: expr.replace_children(expr.children()))
        with pytest.raises(InternalError) as caught:
            rewrite_to_tpnf(normalized("$d/a/b"))
        assert caught.value.code == "REPRO-INTERNAL"
        assert caught.value.context["stage"] == "rewrite"
        assert "must return its input" in caught.value.message

    def test_rule_code_does_not_mention_a_printer(self):
        """What the CI hygiene job greps for: nothing under
        ``repro/rewrite`` (the ``annotate`` renderer aside) nor the
        algebraic optimizer can print to decide."""
        package = pathlib.Path(pipeline_module.__file__).parent
        sources = [path for path in package.glob("*.py")
                   if path.name != "annotate.py"]
        sources.append(package.parent / "algebra" / "optimizer.py")
        printers = re.compile(
            r"\b(pretty|alpha_canonical|plan_canonical|plan_to_string)\b")
        assert len(sources) == 9
        for path in sources:
            assert not printers.search(path.read_text(encoding="utf-8")), \
                path.name


class TestWorkIsCountedNotTimed:
    """Passes and analysis evaluations per compile are O(rounds × nodes)."""

    def work(self, monkeypatch, text):
        core = normalized(text)
        with monkeypatch.context() as patch:
            derived = counted(patch, facts_module, "_derive")
            passes = [counted(patch, pipeline_module, name)
                      for name in ("rewrite_typeswitches", "rewrite_flwor",
                                   "remove_redundant_ddo", "split_loops")]
            rewrite_to_tpnf(core)
        return count_nodes(core), sum(map(len, passes)), len(derived)

    def test_doubling_a_path_doubles_the_analysis(self, monkeypatch):
        nodes30, passes30, derived30 = self.work(monkeypatch,
                                                 chain("/a", 30))
        nodes60, passes60, derived60 = self.work(monkeypatch,
                                                 chain("/a", 60))
        assert passes60 == passes30 <= 8
        assert nodes60 <= 2 * nodes30
        # the parent commit re-derived the whole left-nested source at
        # every binder: 4× and more per doubling.
        assert derived60 <= 2.2 * derived30
        assert derived60 <= 4 * nodes60

    @pytest.mark.parametrize("step", ["/t1[1]", "/*[1]"])
    def test_the_paper_chain_of_fifteen(self, monkeypatch, step):
        """§5.3's k = 15 point: 5.6 s at the parent commit."""
        nodes, passes, derived = self.work(monkeypatch, chain(step, 15))
        assert passes <= 8
        assert derived <= 4 * nodes


class TestPerPassAnalyses:
    """Memoised facts, types and free variables equal fresh ones on every
    node, after every pass."""

    @pytest.mark.parametrize("name", sorted(
        name for name in CURATED
        if "^" not in name or int(name.split("^")[1]) <= 6))
    def test_memos_agree_with_fresh_analyses(self, name):
        core = normalized(CURATED[name])
        trace = RewriteTrace()
        rewrite_to_tpnf(core, trace=trace)
        for expr in [core] + [snapshot for _, snapshot in trace.steps]:
            assert_analyses_fresh(expr)

    def test_typeswitch_clause_variables_are_unknown_in_every_family(self):
        """``sequence_facts`` binds clause variables to UNKNOWN; the
        rewriters must see the same facts or the memo would depend on who
        asked first: a loop over ``$v`` stays a loop."""
        user = fresh_var("u")
        case_var = fresh_var("v", origin="focus")
        default_var = fresh_var("v", origin="focus")
        x = fresh_var("x")
        loop = CFor(x, None, CVar(default_var), None,
                    step(Axis.CHILD, "a", CVar(x)))
        switch = CTypeswitch(CVar(user),
                             [CaseClause("numeric", case_var, CLit(1))],
                             default_var, CDDO(loop))
        assert rewrite_flwor(switch) is switch
        assert remove_redundant_ddo(switch) is switch


class TestPrinterIsLinear:
    EXPECTED = pathlib.Path(__file__).with_name("data") / "chain15_core.txt"

    def test_chain_of_fifteen_prints_what_it_always_printed(self,
                                                            monkeypatch):
        core = normalized(chain("/t1[1]", 15))
        renders = counted(monkeypatch, pretty_module._Printer, "lines")
        text = pretty(core)
        assert text + "\n" == self.EXPECTED.read_text(encoding="utf-8")
        # every node is rendered at most once (exponential before: each
        # nested ddo(...) rendered its argument twice).
        assert len(renders) <= count_nodes(core)
