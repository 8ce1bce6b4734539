"""The algebraic tree-pattern rules (a)–(f) and the paper's plan shapes."""

import pytest

from repro.algebra import (Compare, Const, DDOPlan, FieldAccess, FnCall,
                           InputTuple, Logical, MapFromItem, MapToItem,
                           Select, TreeJoin, TupleTreePattern, VarPlan,
                           compile_core, count_operators, optimize_plan,
                           plan_canonical, plan_to_string, walk_plan)
from repro.algebra.optimizer import OptimizerOptions
from repro.pattern import parse_pattern
from repro.rewrite import rewrite_to_tpnf
from repro.xmltree.axes import Axis
from repro.xmltree.nodetest import NameTest
from repro.xqcore import fresh_var, normalize_query
from repro.xquery import parse_query
from repro.xquery.abbrev import resolve_abbreviations


def optimized(text, options=None):
    core = normalize_query(resolve_abbreviations(parse_query(text))).core
    return optimize_plan(compile_core(rewrite_to_tpnf(core)),
                         options=options)


def ttp_count(plan):
    return count_operators(plan, TupleTreePattern)


def patterns_of(plan):
    return [node.pattern.to_string() for node in walk_plan(plan)
            if isinstance(node, TupleTreePattern)]


class TestFixpoint:
    """``optimize_plan`` detects "nothing fired" by identity."""

    def test_a_pass_that_fires_nothing_returns_its_input(self):
        plan = optimized("$d//person[emailaddress]/name")
        assert optimize_plan(plan) is plan

    def test_plans_without_patterns_are_returned_as_is(self):
        plan = TreeJoin(Axis.PARENT, NameTest("a"), FieldAccess("dot"))
        assert optimize_plan(plan) is plan

    def test_a_rule_that_rebuilds_without_changing_is_a_typed_error(
            self, monkeypatch):
        from repro.algebra import optimizer
        from repro.guard import InternalError
        monkeypatch.setattr(
            optimizer._Optimizer, "settle",
            lambda self, plan, ctx: plan.replace_children(plan.children()))
        var = fresh_var("d", origin="external")
        with pytest.raises(InternalError) as caught:
            optimize_plan(DDOPlan(VarPlan(var)))
        assert caught.value.code == "REPRO-INTERNAL"
        assert caught.value.context["stage"] == "optimize"
        assert "must return its input" in caught.value.message


class TestIndividualRules:
    def test_rule_a_dependent_input(self):
        plan = FnCall("fn:boolean",
                      [TreeJoin(Axis.CHILD, NameTest("b"),
                                FieldAccess("dot"))])
        result = optimize_plan(plan)
        ttps = [n for n in walk_plan(result)
                if isinstance(n, TupleTreePattern)]
        assert len(ttps) == 1
        assert ttps[0].pattern.input_field == "dot"
        assert isinstance(ttps[0].input, InputTuple)

    def test_rule_a_independent_input(self):
        var = fresh_var("d", origin="external")
        plan = TreeJoin(Axis.DESCENDANT, NameTest("a"), VarPlan(var))
        result = optimize_plan(plan)
        assert isinstance(result, MapToItem)
        ttp = result.input
        assert isinstance(ttp, TupleTreePattern)
        assert isinstance(ttp.input, MapFromItem)

    def test_rule_a_skips_reverse_axes(self):
        plan = TreeJoin(Axis.PARENT, NameTest("a"), FieldAccess("dot"))
        result = optimize_plan(plan)
        assert isinstance(result, TreeJoin)

    def test_rule_b_reuses_maptoitem(self):
        var = fresh_var("d", origin="external")
        plan = MapToItem(
            TreeJoin(Axis.CHILD, NameTest("b"), FieldAccess("dot")),
            MapFromItem("dot", VarPlan(var)))
        result = optimize_plan(plan)
        assert isinstance(result, MapToItem)
        assert isinstance(result.dep, FieldAccess)
        assert isinstance(result.input, TupleTreePattern)

    def test_rule_c_eliminates_conversions(self):
        var = fresh_var("d", origin="external")
        inner = TupleTreePattern(
            parse_pattern("IN#in/descendant::a{o}"),
            MapFromItem("in", VarPlan(var)))
        plan = MapFromItem("renamed", MapToItem(FieldAccess("o"), inner))
        # Drive through a consuming Select so the optimizer visits it.
        full = MapToItem(FieldAccess("renamed"),
                         Select(Compare("=", FieldAccess("renamed"),
                                        Const(("x",))), plan))
        result = optimize_plan(full)
        assert ttp_count(result) == 1
        pattern = patterns_of(result)[0]
        assert "{renamed}" in pattern
        # The MapFromItem/MapToItem round trip is gone.
        selects = [n for n in walk_plan(result) if isinstance(n, Select)]
        assert isinstance(selects[0].input, TupleTreePattern)

    def test_rule_c_applies_to_dependent_input(self):
        inner = TupleTreePattern(
            parse_pattern("IN#in/descendant::a{o}"), InputTuple())
        plan = MapToItem(
            FieldAccess("renamed"),
            MapFromItem("renamed", MapToItem(FieldAccess("o"), inner)))
        result = optimize_plan(plan)
        # Either rule (c) renames the output or the map-identity cleanup
        # collapses the round trip first; both leave a single pattern
        # with no residual MapFromItem.
        assert ttp_count(result) == 1
        assert not any(isinstance(n, MapFromItem) for n in walk_plan(result))

    def test_rule_d_merges_under_ddo(self):
        var = fresh_var("d", origin="external")
        inner = TupleTreePattern(parse_pattern("IN#in/descendant::a{mid}"),
                                 MapFromItem("in", VarPlan(var)))
        outer = TupleTreePattern(parse_pattern("IN#mid/child::b{out}"),
                                 inner)
        plan = DDOPlan(MapToItem(FieldAccess("out"), outer))
        result = optimize_plan(plan)
        assert ttp_count(result) == 1
        assert "descendant::a/child::b{out}" in patterns_of(result)[0]

    def test_rule_d_blocked_without_order_safety(self):
        var = fresh_var("d", origin="external")
        inner = TupleTreePattern(parse_pattern("IN#in/descendant::a{mid}"),
                                 MapFromItem("in", VarPlan(var)))
        outer = TupleTreePattern(parse_pattern("IN#mid/child::b{out}"),
                                 inner)
        plan = MapToItem(FieldAccess("out"), outer)  # no ddo above
        result = optimize_plan(plan)
        assert ttp_count(result) == 2

    def test_rule_d_allowed_for_separated_spine(self):
        var = fresh_var("d", origin="external")
        inner = TupleTreePattern(parse_pattern("IN#in/child::a{mid}"),
                                 MapFromItem("in", VarPlan(var)))
        outer = TupleTreePattern(parse_pattern("IN#mid/child::b{out}"),
                                 inner)
        plan = MapToItem(FieldAccess("out"), outer)  # no ddo above
        result = optimize_plan(plan)
        assert ttp_count(result) == 1

    def test_rule_e_folds_boolean_select(self):
        var = fresh_var("d", origin="external")
        spine = TupleTreePattern(parse_pattern("IN#in/descendant::a{dot}"),
                                 MapFromItem("in", VarPlan(var)))
        predicate = FnCall("fn:boolean", [MapToItem(
            FieldAccess("t"),
            TupleTreePattern(parse_pattern("IN#dot/child::b{t}"),
                             InputTuple()))])
        plan = MapToItem(FieldAccess("dot"), Select(predicate, spine))
        result = optimize_plan(plan)
        assert ttp_count(result) == 1
        assert "[child::b]" in patterns_of(result)[0]

    def test_rule_e_keeps_value_predicates(self):
        var = fresh_var("d", origin="external")
        spine = TupleTreePattern(parse_pattern("IN#in/descendant::a{dot}"),
                                 MapFromItem("in", VarPlan(var)))
        predicate = Compare("=", FieldAccess("dot"), Const(("x",)))
        plan = MapToItem(FieldAccess("dot"), Select(predicate, spine))
        result = optimize_plan(plan)
        assert any(isinstance(n, Select) for n in walk_plan(result))

    def test_rule_e_splits_mixed_conjunction(self):
        var = fresh_var("d", origin="external")
        spine = TupleTreePattern(parse_pattern("IN#in/descendant::a{dot}"),
                                 MapFromItem("in", VarPlan(var)))
        existential = FnCall("fn:boolean", [MapToItem(
            FieldAccess("t"),
            TupleTreePattern(parse_pattern("IN#dot/child::b{t}"),
                             InputTuple()))])
        value = Compare("=", FieldAccess("dot"), Const(("x",)))
        plan = MapToItem(FieldAccess("dot"),
                         Select(Logical("and", existential, value), spine))
        result = optimize_plan(plan)
        selects = [n for n in walk_plan(result) if isinstance(n, Select)]
        assert len(selects) == 1
        assert isinstance(selects[0].predicate, Compare)
        assert "[child::b]" in patterns_of(result)[0]

    def test_rule_f_removes_outer_ddo(self):
        var = fresh_var("d", origin="external")
        ttp = TupleTreePattern(
            parse_pattern("IN#in/descendant::a[child::b]/child::c{out}"),
            MapFromItem("in", VarPlan(var)))
        plan = DDOPlan(MapToItem(FieldAccess("out"), ttp))
        result = optimize_plan(plan)
        assert not any(isinstance(n, DDOPlan) for n in walk_plan(result))

    def test_rule_f_kept_for_many_tuple_input(self):
        var = fresh_var("d", origin="external")
        inner = TupleTreePattern(parse_pattern("IN#in/descendant::a{mid}"),
                                 MapFromItem("in", VarPlan(var)))
        residual = Select(Compare("=", FieldAccess("mid"), Const(("x",))),
                          inner)
        outer = TupleTreePattern(parse_pattern("IN#mid/child::b{out}"),
                                 residual)
        plan = DDOPlan(MapToItem(FieldAccess("out"), outer))
        result = optimize_plan(plan)
        assert any(isinstance(n, DDOPlan) for n in walk_plan(result))

    def test_options_disable_everything(self):
        plan = optimized("$d//person[emailaddress]/name",
                         options=OptimizerOptions(enable_tree_patterns=False))
        assert ttp_count(plan) == 0


class TestPaperPlans:
    def test_q1a_produces_p5(self):
        plan = optimized("$d//person[emailaddress]/name")
        assert ttp_count(plan) == 1
        (pattern,) = patterns_of(plan)
        assert "descendant::person" in pattern
        assert "[child::emailaddress]" in pattern
        assert "child::name" in pattern
        assert isinstance(plan, MapToItem)
        assert not any(isinstance(n, DDOPlan) for n in walk_plan(plan))
        assert not any(isinstance(n, TreeJoin) for n in walk_plan(plan))

    def test_q1_variants_identical_plans(self):
        plans = [plan_canonical(optimized(q)) for q in (
            "$d//person[emailaddress]/name",
            "(for $x in $d//person[emailaddress] return $x)/name",
            "let $x := (for $y in $d//person where $y/emailaddress "
            "return $y) return $x/name")]
        assert len(set(plans)) == 1

    def test_q2_two_patterns_with_select(self):
        plan = optimized('$d//person[name = "John"]/emailaddress')
        patterns = patterns_of(plan)
        # person spine, emailaddress continuation, name inside the Select
        assert len(patterns) == 3
        assert any(isinstance(n, Select) for n in walk_plan(plan))
        assert any("descendant::person" in p for p in patterns)
        assert any("child::emailaddress" in p for p in patterns)

    def test_q3_positional_fragments(self):
        plan = optimized("$d//person[1]/name")
        assert ttp_count(plan) >= 1
        assert any(isinstance(n, Select) for n in walk_plan(plan))

    def test_q5_two_patterns_through_map(self):
        plan = optimized("for $x in $d//person[emailaddress] return $x/name")
        assert ttp_count(plan) == 2
        assert not any(isinstance(n, DDOPlan) for n in walk_plan(plan))

    def test_figure4_path_single_pattern(self):
        plan = optimized(
            "$input/site/people/person[emailaddress]/profile/interest")
        assert ttp_count(plan) == 1
        (pattern,) = patterns_of(plan)
        assert pattern.count("child::") == 6  # 5 spine + 1 branch

    def test_qe1_single_pattern_with_nested_branches(self):
        plan = optimized(
            "$input/desc::t01[child::t02[child::t03[child::t04]]]")
        assert ttp_count(plan) == 1
        (pattern,) = patterns_of(plan)
        assert "[child::t02[child::t03[child::t04]]]" in pattern

    def test_qe3_branch_with_continuation(self):
        plan = optimized(
            "$input/desc::t01[child::t02[child::t03]/child::t04"
            "[child::t03]]")
        assert ttp_count(plan) == 1
        (pattern,) = patterns_of(plan)
        assert "[child::t02[child::t03]/child::t04[child::t03]]" in pattern

    def test_qe2_positional_split(self):
        plan = optimized(
            "$input/desc::t01/child::t02[1]/child::t03[child::t04]")
        assert ttp_count(plan) >= 2

    def test_attribute_predicate(self):
        plan = optimized("$d//interest[@category]")
        (pattern,) = patterns_of(plan)
        assert "[attribute::category]" in pattern

    def test_optimization_grows_patterns_monotonically(self):
        """Rules only ever merge: no plan has more TreeJoins after."""
        for query in ("$d//a/b/c", "$d//a[b]/c", "$d/a/b[c][d]/e"):
            plan = optimized(query)
            assert not any(isinstance(n, TreeJoin) for n in walk_plan(plan))

    def test_plan_to_string_contains_operator_names(self):
        plan = optimized("$d//person[emailaddress]/name")
        text = plan_to_string(plan)
        assert "TupleTreePattern" in text
        assert "MapFromItem" in text
