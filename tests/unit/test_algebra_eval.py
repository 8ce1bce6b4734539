"""Evaluation of the individual algebra operators."""

import pytest

from repro.algebra import (Arith, Compare, Const, DDOPlan, DynamicError,
                           EvalContext, FieldAccess, FnCall, IfPlan,
                           InputTuple, LetPlan, Logical, MapFromItem,
                           MapToItem, Select, SeqPlan, TreeJoin,
                           TupleTreePattern, VarPlan, eval_item, eval_tuples)
from repro.algebra.ops import TypeswitchCase, TypeswitchPlan
from repro.pattern import parse_pattern
from repro.obs import ExecMetrics
from repro.physical import NLJoin, Run, Strategy, make_algorithm
from repro.xmltree import IndexedDocument
from repro.xmltree.axes import Axis
from repro.xmltree.nodetest import NameTest
from repro.xqcore import fresh_var

DOC = IndexedDocument.from_string(
    "<a><b i='1'>x</b><c><b i='2'>y</b></c></a>")


def ctx(**globals_by_name):
    return EvalContext(document=DOC, strategy=NLJoin())


class TestItemOperators:
    def test_const(self):
        assert eval_item(Const((1, "a")), ctx()) == [1, "a"]
        assert eval_item(Const(()), ctx()) == []

    def test_var_lookup(self):
        var = fresh_var("d", origin="external")
        context = ctx()
        context.globals[var] = [42]
        assert eval_item(VarPlan(var), context) == [42]

    def test_unbound_var_raises(self):
        with pytest.raises(DynamicError):
            eval_item(VarPlan(fresh_var("nope")), ctx())

    def test_tree_join(self):
        var = fresh_var("d", origin="external")
        context = ctx()
        context.globals[var] = [DOC.root]
        plan = TreeJoin(Axis.DESCENDANT, NameTest("b"), VarPlan(var))
        result = eval_item(plan, context)
        assert [n.get_attribute("i") for n in result] == ["1", "2"]

    def test_tree_join_over_non_node_raises(self):
        with pytest.raises(DynamicError):
            eval_item(TreeJoin(Axis.CHILD, NameTest("b"), Const((1,))),
                      ctx())

    def test_ddo(self):
        b1, b2 = DOC.stream("b")
        var = fresh_var("v")
        context = ctx()
        context.globals[var] = [b2, b1, b2]
        result = eval_item(DDOPlan(VarPlan(var)), context)
        assert result == [b1, b2]

    def test_fncall(self):
        assert eval_item(FnCall("fn:count", [Const((1, 2, 3))]), ctx()) == [3]

    def test_compare_existential(self):
        plan = Compare("=", Const((1, 2)), Const((2, 5)))
        assert eval_item(plan, ctx()) == [True]
        plan = Compare(">", Const((1, 2)), Const((5,)))
        assert eval_item(plan, ctx()) == [False]

    def test_logical_short_circuit(self):
        # right operand would raise, but the left decides
        bad = FnCall("fn:no-such", [])
        assert eval_item(Logical("and", Const((False,)), bad), ctx()) == [False]
        assert eval_item(Logical("or", Const((True,)), bad), ctx()) == [True]

    def test_arith(self):
        assert eval_item(Arith("+", Const((2,)), Const((3,))), ctx()) == [5]
        assert eval_item(Arith("*", Const((2,)), Const((3,))), ctx()) == [6]
        assert eval_item(Arith("+", Const(()), Const((3,))), ctx()) == []

    def test_if(self):
        plan = IfPlan(Const((True,)), Const((1,)), Const((2,)))
        assert eval_item(plan, ctx()) == [1]
        plan = IfPlan(Const(()), Const((1,)), Const((2,)))
        assert eval_item(plan, ctx()) == [2]

    def test_let(self):
        var = fresh_var("x")
        plan = LetPlan(var, Const((5,)),
                       Arith("+", VarPlan(var), VarPlan(var)))
        assert eval_item(plan, ctx()) == [10]

    def test_let_scoping_restored(self):
        var = fresh_var("x")
        context = ctx()
        context.variables[var] = [1]
        plan = LetPlan(var, Const((2,)), VarPlan(var))
        assert eval_item(plan, context) == [2]
        assert context.variables[var] == [1]

    def test_seq(self):
        plan = SeqPlan([Const((1,)), Const((2, 3))])
        assert eval_item(plan, ctx()) == [1, 2, 3]

    def test_typeswitch_numeric_dispatch(self):
        case_var = fresh_var("v")
        default_var = fresh_var("v")
        plan = TypeswitchPlan(
            Const((5,)),
            [TypeswitchCase("numeric", case_var, VarPlan(case_var))],
            default_var, Const(("default",)))
        assert eval_item(plan, ctx()) == [5]
        plan = TypeswitchPlan(
            Const(("str",)),
            [TypeswitchCase("numeric", case_var, VarPlan(case_var))],
            default_var, Const(("default",)))
        assert eval_item(plan, ctx()) == ["default"]


class TestTupleOperators:
    def test_map_from_item(self):
        plan = MapFromItem("f", Const((10, 20)))
        tuples = eval_tuples(plan, ctx())
        assert tuples == [{"f": [10]}, {"f": [20]}]

    def test_map_from_item_with_index(self):
        plan = MapFromItem("f", Const(("a", "b")), index_field="i")
        tuples = eval_tuples(plan, ctx())
        assert tuples == [{"f": ["a"], "i": [1]}, {"f": ["b"], "i": [2]}]

    def test_map_to_item_concatenates(self):
        plan = MapToItem(FieldAccess("f"), MapFromItem("f", Const((1, 2))))
        assert eval_item(plan, ctx()) == [1, 2]

    def test_select_filters(self):
        plan = Select(Compare("=", FieldAccess("f"), Const((2,))),
                      MapFromItem("f", Const((1, 2, 3))))
        tuples = eval_tuples(plan, ctx())
        assert tuples == [{"f": [2]}]

    def test_input_tuple_outside_dependent_raises(self):
        with pytest.raises(DynamicError):
            eval_tuples(InputTuple(), ctx())

    def test_field_access_through_scope_chain(self):
        # inner map reads a field bound by the outer map
        inner = MapToItem(FieldAccess("outer"),
                          MapFromItem("inner", Const((9,))))
        plan = MapToItem(inner, MapFromItem("outer", Const((1, 2))))
        assert eval_item(plan, ctx()) == [1, 2]

    def test_ttp_single_output(self):
        var = fresh_var("d", origin="external")
        context = ctx()
        context.globals[var] = [DOC.root]
        pattern = parse_pattern("IN#dot/descendant::b{out}")
        plan = MapToItem(FieldAccess("out"),
                         TupleTreePattern(pattern,
                                          MapFromItem("dot", VarPlan(var))))
        result = eval_item(plan, context)
        assert [n.get_attribute("i") for n in result] == ["1", "2"]

    def test_ttp_extends_input_tuple(self):
        var = fresh_var("d", origin="external")
        context = ctx()
        context.globals[var] = [DOC.root]
        pattern = parse_pattern("IN#dot/descendant::b{out}")
        plan = TupleTreePattern(pattern, MapFromItem("dot", VarPlan(var)))
        tuples = eval_tuples(plan, context)
        assert len(tuples) == 2
        for tuple_ in tuples:
            assert set(tuple_) == {"dot", "out"}

    def test_ttp_drops_non_matching_tuples(self):
        var = fresh_var("d", origin="external")
        context = ctx()
        context.globals[var] = [DOC.root]
        pattern = parse_pattern("IN#dot/child::zzz{out}")
        plan = TupleTreePattern(pattern, MapFromItem("dot", VarPlan(var)))
        assert eval_tuples(plan, context) == []

    def test_ttp_multi_output_bindings(self):
        """The paper's Section 4.1 example semantics."""
        doc = IndexedDocument.from_string(
            '<r><a><c id="1"><d id="2"/><d id="3"/></c></a>'
            '<a><c/></a>'
            '<a><c id="4"><d id="5"/></c><c id="6"/></a></r>')
        contexts = doc.stream("a")
        var = fresh_var("d", origin="external")
        context = EvalContext(document=doc, strategy=NLJoin())
        context.globals[var] = contexts
        pattern = parse_pattern(
            "IN#x/descendant-or-self::a/child::c{y}[@id]/child::d{z}")
        plan = TupleTreePattern(pattern, MapFromItem("x", VarPlan(var)))
        tuples = eval_tuples(plan, context)
        ids = [(t["y"][0].get_attribute("id"), t["z"][0].get_attribute("id"))
               for t in tuples]
        # first tuple matches twice, second not at all, third once
        assert ids == [("1", "2"), ("1", "3"), ("4", "5")]

    @pytest.mark.parametrize("strategy", list(Strategy), ids=str)
    def test_ttp_multi_output_bindings_under_every_strategy(self, strategy):
        """Every strategy answers the Section 4.1 example with NLJoin's
        tuples, and a chooser decides nothing for it."""
        doc = IndexedDocument.from_string(
            '<r><a><c id="1"><d id="2"/><d id="3"/></c></a>'
            '<a><c/></a>'
            '<a><c id="4"><d id="5"/></c><c id="6"/></a></r>')
        var = fresh_var("d", origin="external")
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        context = EvalContext(document=doc, strategy=make_algorithm(strategy),
                              run=run)
        context.globals[var] = doc.stream("a")
        pattern = parse_pattern(
            "IN#x/descendant-or-self::a/child::c{y}[@id]/child::d{z}")
        plan = TupleTreePattern(pattern, MapFromItem("x", VarPlan(var)))
        ids = [(t["y"][0].get_attribute("id"), t["z"][0].get_attribute("id"))
               for t in eval_tuples(plan, context)]
        assert ids == [("1", "2"), ("1", "3"), ("4", "5")]
        assert run.metrics.decisions_total == 0

    def test_enclosing_tuple_from_the_context(self):
        """A plan evaluated on its own starts from ``ctx.tuple_stack``:
        ``IN``, outer fields at any nesting, and fields the plan binds
        itself all resolve."""
        context = ctx()
        context.tuple_stack.append({"outer": [7]})
        assert eval_tuples(InputTuple(), context) == [{"outer": [7]}]
        assert eval_item(FieldAccess("outer"), context) == [7]
        plan = MapToItem(SeqPlan([FieldAccess("outer"), FieldAccess("f")]),
                         MapFromItem("f", Const((1, 2))))
        assert eval_item(plan, context) == [7, 1, 7, 2]
        context.tuple_stack.append({"inner": [8]})
        assert eval_tuples(InputTuple(), context) \
            == [{"outer": [7], "inner": [8]}]
        assert eval_item(SeqPlan([FieldAccess("inner"),
                                  FieldAccess("outer")]), context) == [8, 7]

    def test_ttp_over_a_supplied_context_sequence(self):
        """Only a caller-supplied tuple holds more than one context node
        in a field: the pattern then has XPath semantics over the whole
        sequence (document order, no duplicates)."""
        b1, b2 = DOC.stream("b")
        context = ctx()
        context.tuple_stack.append({"dot": [b2, DOC.root, b1]})
        pattern = parse_pattern("IN#dot/descendant-or-self::b{out}")
        tuples = eval_tuples(TupleTreePattern(pattern, InputTuple()),
                             context)
        assert [t["out"] for t in tuples] == [[b1], [b2]]
        assert all(t["dot"] == [b2, DOC.root, b1] for t in tuples)
        context.tuple_stack[-1] = {"dot": []}
        assert eval_tuples(TupleTreePattern(pattern, InputTuple()),
                           context) == []

    def test_ttp_context_that_is_not_a_node_is_a_dynamic_error(self):
        """The batch path (one item per row) and a caller-supplied
        sequence both check the context column before any pattern runs."""
        pattern = parse_pattern("IN#dot/descendant::b{out}")
        var = fresh_var("d", origin="external")
        context = ctx()
        context.globals[var] = [DOC.root, 5, DOC.stream("b")[0]]
        batch = TupleTreePattern(pattern, MapFromItem("dot", VarPlan(var)))
        supplied = ctx()
        supplied.tuple_stack.append({"dot": [DOC.root, "x"]})
        for plan, context in ((batch, context),
                              (TupleTreePattern(pattern, InputTuple()),
                               supplied)):
            with pytest.raises(DynamicError,
                               match="tree pattern context is not a node") \
                    as err:
                eval_tuples(plan, context)
            assert err.value.code == "REPRO-DYNAMIC"

    def test_results_are_copies_at_the_boundary(self):
        context = ctx()
        context.tuple_stack.append({"f": [1, 2]})
        result = eval_item(FieldAccess("f"), context)
        result.append(3)
        assert context.tuple_stack[0]["f"] == [1, 2]
        constant = Const((1,))
        eval_item(constant, context).append(2)
        assert eval_item(constant, context) == [1]


# -- the loop-lifted evaluator: per-tuple semantics over batches --------------

BOOM = Arith("div", Const((1,)), Const((0,)))           # 1 div 0
TWO_ATOMS = FnCall("fn:boolean", [Const((1, 2))])       # EBV of (1, 2)


def over(values, dep):
    """``dep`` once per value, the value in field ``f``."""
    return MapToItem(dep, MapFromItem("f", Const(tuple(values))))


class TestLaziness:
    """An operand or branch is evaluated for exactly the tuples that
    need it — whatever else shares their batch."""

    IS_ZERO = Compare("=", FieldAccess("f"), Const((0,)))
    INVERSE = Arith("div", Const((1,)), FieldAccess("f"))   # raises on 0

    def test_or_skips_the_tuples_the_left_decides(self):
        plan = over([0, 1, 0, 2], Logical(
            "or", self.IS_ZERO, Compare(">", self.INVERSE, Const((0,)))))
        assert eval_item(plan, ctx()) == [True, True, True, True]

    def test_and_skips_the_tuples_the_left_decides(self):
        plan = over([0, 1, 0, 2], Logical(
            "and", Compare("!=", FieldAccess("f"), Const((0,))),
            Compare("<", self.INVERSE, Const((1,)))))
        assert eval_item(plan, ctx()) == [False, False, False, True]

    def test_right_operand_unreached_when_every_tuple_is_decided(self):
        for op, left in (("or", True), ("and", False)):
            for bad in (BOOM, TWO_ATOMS):
                plan = over([1, 2, 3], Logical(op, Const((left,)), bad))
                assert eval_item(plan, ctx()) == [left] * 3

    def test_right_operand_raises_for_an_undecided_tuple(self):
        plan = over([1, 2, 0], Logical(
            "or", Compare("=", FieldAccess("f"), Const((1,))),
            Compare(">", self.INVERSE, Const((0,)))))
        with pytest.raises(DynamicError, match="division by zero"):
            eval_item(plan, ctx())

    def test_if_evaluates_each_branch_over_its_own_tuples(self):
        plan = over([0, 4, 0, 2],
                    IfPlan(self.IS_ZERO, Const(("zero",)), self.INVERSE))
        assert eval_item(plan, ctx()) == ["zero", 0.25, "zero", 0.5]
        plan = over([1, 2], IfPlan(self.IS_ZERO, TWO_ATOMS, Const((9,))))
        assert eval_item(plan, ctx()) == [9, 9]
        plan = over([1, 0], IfPlan(self.IS_ZERO, TWO_ATOMS, Const((9,))))
        with pytest.raises(DynamicError, match="effective boolean"):
            eval_item(plan, ctx())

    def test_the_first_failing_tuple_decides_the_error(self):
        plan = over([1, 0], IfPlan(self.IS_ZERO, TWO_ATOMS, BOOM))
        with pytest.raises(DynamicError, match="division by zero"):
            eval_item(plan, ctx())
        plan = over([0, 1], IfPlan(self.IS_ZERO, TWO_ATOMS, BOOM))
        with pytest.raises(DynamicError, match="effective boolean"):
            eval_item(plan, ctx())

    def typeswitch(self, numeric_body, default_body):
        case_var, default_var = fresh_var("v"), fresh_var("v")
        return TypeswitchPlan(
            FieldAccess("f"),
            [TypeswitchCase("numeric", case_var, numeric_body(case_var))],
            default_var, default_body(default_var))

    def test_typeswitch_routes_each_tuple_with_its_own_value(self):
        plan = over([5, "a", 7, "b"], self.typeswitch(
            lambda var: Arith("+", VarPlan(var), Const((1,))),
            lambda var: FnCall("fn:concat", [VarPlan(var), Const(("!",))])))
        assert eval_item(plan, ctx()) == [6, "a!", 8, "b!"]

    def test_typeswitch_untaken_case_is_not_evaluated(self):
        plan = over([5, 7], self.typeswitch(VarPlan, lambda var: BOOM))
        assert eval_item(plan, ctx()) == [5, 7]
        plan = over(["a", "b"], self.typeswitch(lambda var: BOOM, VarPlan))
        assert eval_item(plan, ctx()) == ["a", "b"]
        plan = over([5, "a"], self.typeswitch(VarPlan, lambda var: BOOM))
        with pytest.raises(DynamicError, match="division by zero"):
            eval_item(plan, ctx())

    def test_let_binds_a_value_per_tuple(self):
        var = fresh_var("x")
        plan = over([1, 2, 3], LetPlan(
            var, Arith("*", FieldAccess("f"), Const((10,))),
            over([1, 2], Arith("+", VarPlan(var), FieldAccess("f")))))
        assert eval_item(plan, ctx()) == [11, 12, 21, 22, 31, 32]

    @pytest.mark.parametrize("query", [
        "for $v in $input//v return ($v = 0 or 1 div $v > 0)",
        "for $v in $input//v return ($v != 0 and 1 div $v < 1)",
        "for $v in $input//v return if ($v = 0) then 0 else 1 div $v",
        "$input//v[. = 0 or 1 div . > 0]",
        "for $v in $input//v where $v >= 0 or boolean((1, 2)) return $v",
    ])
    def test_same_answer_as_the_unoptimized_plan(self, query):
        from repro import Engine
        engine = Engine.from_xml(
            "<r><v>0</v><v>1</v><v>0</v><v>4</v><v>0</v></r>")
        answer = engine.run(query)
        assert answer == engine.run(query, optimize=False)
        assert answer == engine.execute(engine.compile(query),
                                        backend="compiled")
        assert len(answer) == 5

    def test_a_query_whose_right_operand_must_raise(self):
        from repro import Engine
        engine = Engine.from_xml("<r><v>1</v><v>0</v></r>")
        for optimize in (True, False):
            with pytest.raises(DynamicError, match="division by zero"):
                engine.run("for $v in $input//v "
                           "return ($v = 1 or 1 div $v > 0)",
                           optimize=optimize)


# -- column batches: the rows an operator chain produces ----------------------

ROWS = IndexedDocument.from_string(
    '<r><p n="1"><q>a</q><q>b</q></p><p n="2"><q>c</q></p><p n="3"/></r>')


def rows_context():
    """One enclosing tuple, given in two parts: ``outer`` and ``dot``."""
    context = EvalContext(document=ROWS, strategy=NLJoin())
    context.tuple_stack.append({"outer": [7]})
    context.tuple_stack.append({"dot": [ROWS.root]})
    return context


def fields(rows):
    """The rows, each as its ``(field, sequence)`` pairs in key order."""
    return [list(row.items()) for row in rows]


def chain():
    """``x``/``i`` × ``p`` × ``q`` under the enclosing tuple: four
    batches deep, six rows."""
    numbered = MapFromItem("x", Const((1, 2)), index_field="i")
    people = TupleTreePattern(parse_pattern("IN#dot/descendant::p{p}"),
                              numbered)
    return TupleTreePattern(parse_pattern("IN#p/child::q{q}"), people)


def chain_rows(*kept):
    """What :func:`chain` produces, cut to the ``x`` values in ``kept``."""
    p1, p2, _ = ROWS.stream("p")
    qa, qb, qc = ROWS.stream("q")
    return [[("outer", [7]), ("dot", [ROWS.root]), ("x", [x]), ("i", [x]),
             ("p", [p]), ("q", [q])]
            for x in kept for p, q in ((p1, qa), (p1, qb), (p2, qc))]


def nested(depth):
    """``depth`` dependent plans inside one another: the innermost reads
    a field of each level and of the enclosing tuple."""
    names = ["a", "b", "c"][:depth]
    plan = SeqPlan([FieldAccess("outer")]
                   + [FieldAccess(name) for name in names])
    for level, name in reversed(list(enumerate(names))):
        scale = 10 ** level
        plan = MapToItem(plan, MapFromItem(name, Const((scale, 2 * scale))))
    return plan


def check_hand_built_plans():
    """Rows and answers as tuple-at-a-time evaluation gives them: every
    field of every row, inherited ones first, in binding order."""
    context = rows_context()
    assert fields(eval_tuples(chain(), context)) == chain_rows(1, 2)
    # Select: all rows, none, some — the predicate reads a field two
    # batches up, the survivors keep every inherited field.
    every = Select(Const((True,)), chain())
    assert fields(eval_tuples(every, context)) == chain_rows(1, 2)
    assert eval_tuples(Select(Const(()), chain()), context) == []
    some = Select(Compare("=", FieldAccess("i"), Const((2,))), every)
    assert fields(eval_tuples(some, context)) == chain_rows(2)
    by_text = Select(Compare("=", FieldAccess("q"), Const(("b", "c"))),
                     chain())
    assert fields(eval_tuples(by_text, context)) \
        == [row for row in chain_rows(1, 2)
            if row[-1][1][0].string_value() in ("b", "c")]
    # Two and three dependent plans deep.
    assert eval_item(nested(2), context) == [
        item for a in (1, 2) for b in (10, 20) for item in (7, a, b)]
    assert eval_item(nested(3), context) == [
        item for a in (1, 2) for b in (10, 20) for c in (100, 200)
        for item in (7, a, b, c)]
    # An inner input and an inner predicate that read outer fields.
    doubled = MapToItem(
        MapToItem(Arith("+", FieldAccess("a"), FieldAccess("b")),
                  Select(Compare("<", Arith("+", FieldAccess("a"),
                                            FieldAccess("b")),
                                 FieldAccess("outer")),
                         MapFromItem("b", SeqPlan([FieldAccess("a"),
                                                   FieldAccess("i")])))),
        MapFromItem("a", Const((1, 3, 5)), index_field="i"))
    assert eval_item(doubled, context) == [2, 2, 6, 5]


class TestColumnBatches:
    """A batch is columns; what a plan answers does not show it."""

    def test_hand_built_plans(self):
        check_hand_built_plans()

    def test_multi_output_pattern_lists_its_fields_in_binding_order(self):
        doc = IndexedDocument.from_string(
            '<r><a><c id="1"><d id="2"/><d id="3"/></c></a><a><c/></a></r>')
        context = EvalContext(document=doc, strategy=NLJoin())
        context.tuple_stack.append({"x": doc.stream("a")[:1]})
        pattern = parse_pattern(
            "IN#x/descendant-or-self::a/child::c{y}[@id]/child::d{z}")
        rows = eval_tuples(TupleTreePattern(pattern, InputTuple()), context)
        (c1, _), (d2, d3) = doc.stream("c"), doc.stream("d")
        assert fields(rows) == [
            [("x", doc.stream("a")[:1]), ("y", [c1]), ("z", [d])]
            for d in (d2, d3)]

    def test_let_and_both_typeswitch_variables_reach_inner_plans(self):
        let_var, case_var, default_var = (fresh_var("x"), fresh_var("v"),
                                          fresh_var("v"))

        def inner(var):
            # Read two dependent plans further in, past a Select.
            return MapToItem(
                SeqPlan([VarPlan(var), VarPlan(let_var), FieldAccess("g")]),
                Select(Compare("!=", FieldAccess("g"), VarPlan(let_var)),
                       MapFromItem("g", Const((1, 2)))))

        plan = over([1, "2", 2], LetPlan(
            let_var, FieldAccess("f"), TypeswitchPlan(
                FieldAccess("f"),
                [TypeswitchCase("numeric", case_var, inner(case_var))],
                default_var, inner(default_var))))
        assert eval_item(plan, ctx()) == [1, 1, 2, "2", "2", 1, 2, 2, 1]

    def test_a_branch_no_row_takes_is_not_evaluated(self):
        taken = over([1, 2], Arith("+", FieldAccess("f"), FieldAccess("g")))
        plan = MapToItem(IfPlan(Compare(">", FieldAccess("g"), Const((0,))),
                                taken, BOOM),
                         MapFromItem("g", Const((10, 20, 30))))
        assert eval_item(plan, ctx()) == [11, 12, 21, 22, 31, 32]
        some = MapToItem(IfPlan(Compare("=", FieldAccess("g"), Const((20,))),
                                FieldAccess("g"), taken),
                         MapFromItem("g", Const((10, 20, 30))))
        assert eval_item(some, ctx()) == [11, 12, 20, 31, 32]

    @pytest.mark.parametrize("count", [255, 256, 257, 513])
    def test_rows_across_block_edges(self, count):
        context = ctx()
        context.tuple_stack.append({"k": [3]})
        plan = Select(
            Compare("=", Arith("mod", FieldAccess("f"), FieldAccess("k")),
                    Const((0,))),
            MapFromItem("f", Const(tuple(range(count))), index_field="i"))
        assert fields(eval_tuples(plan, context)) == [
            [("k", [3]), ("f", [value]), ("i", [value + 1])]
            for value in range(0, count, 3)]

    def test_positions_past_the_shared_table(self):
        from repro.algebra.eval import _POSITIONS
        count = len(_POSITIONS) + 3
        rows = eval_tuples(MapFromItem("f", Const(("v",) * count),
                                       index_field="i"), ctx())
        assert [row["i"] for row in rows] \
            == [[index] for index in range(1, count + 1)]
        assert _POSITIONS[-1] == [len(_POSITIONS)]

    def test_the_first_failing_row_decides_the_error_across_blocks(self):
        from repro.algebra.eval import BLOCK
        values = [1] * (BLOCK + 1) + [0, "x"]   # both in the second block
        plan = over(values, Arith("div", Const((1,)), FieldAccess("f")))
        with pytest.raises(DynamicError, match="division by zero"):
            eval_item(plan, ctx())
        plan = over(values[:-2] + ["x", 0],
                    Arith("div", Const((1,)), FieldAccess("f")))
        with pytest.raises(DynamicError, match="cannot cast"):
            eval_item(plan, ctx())

    @pytest.mark.parametrize("plan", [
        InputTuple(),
        TupleTreePattern(parse_pattern("IN#dot/child::b{o}"), InputTuple()),
        MapToItem(Const((1,)), InputTuple()),
    ], ids=["in", "pattern", "map"])
    def test_in_outside_a_dependent_plan_is_a_dynamic_error(self, plan):
        from repro.algebra import evaluate_plan
        with pytest.raises(DynamicError, match="outside a dependent") as err:
            evaluate_plan(plan, ctx())
        assert err.value.code == "REPRO-DYNAMIC"


def positional_document(count):
    """``count`` ``p`` elements, each with two ``q`` children numbered
    ``<p index>.<q index>``."""
    return IndexedDocument.from_string("<r>" + "".join(
        f'<p><q n="{index}.1"/><q n="{index}.2"/></p>'
        for index in range(count)) + "</r>")


class TestBlocks:
    """The block size is not observable: answers are those of
    tuple-at-a-time evaluation whatever it is."""

    @pytest.fixture(params=[1, 2, 3, 10_000])
    def block(self, request, monkeypatch):
        import repro.algebra.eval as evaluator
        monkeypatch.setattr(evaluator, "BLOCK", request.param)
        return request.param

    def test_golden_corpus_is_block_invariant(self, block):
        from tests.support.make_golden import (GOLDEN_DIR, golden_queries,
                                               reference_engines,
                                               render_results)
        engines = reference_engines()
        for stem, query in sorted(golden_queries().items()):
            expected = (GOLDEN_DIR / f"{stem}.xml").read_text(
                encoding="utf-8")
            engine = engines[stem.split("_", 1)[0]]
            assert render_results(engine.run(query)) == expected, (
                f"{stem} differs with blocks of {block}")

    def test_hand_built_plans_are_block_invariant(self, block):
        check_hand_built_plans()

    @pytest.mark.parametrize("count", [255, 256, 257, 513])
    def test_dependent_positional_step_across_block_edges(self, count):
        from repro import Engine
        engine = Engine(positional_document(count))
        for position in (1, 2):
            # ``q[n]`` stays a per-tuple Select under a dependent plan.
            query = f"$input/r/p/q[{position}]"
            assert engine.compile(query).tree_pattern_count() > 1
            assert [node.get_attribute("n") for node in engine.run(query)] \
                == [f"{index}.{position}" for index in range(count)]
        assert engine.run("$input/r/p/q[3]") == []


class TestCounting:
    """Work is counted, not timed: the counters read per tuple
    activation, the kernels run per batch."""

    QUERY = "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]"

    @pytest.fixture(scope="class")
    def engine(self):
        from repro import Engine
        from repro.data import member_document
        return Engine(member_document(600, depth=5, tag_count=4, seed=7))

    def test_pattern_kernels_run_per_block_not_per_tuple(self, engine):
        from repro.algebra.eval import BLOCK
        from repro.obs import ExecMetrics
        metrics = ExecMetrics()
        engine.execute(engine.compile(self.QUERY), metrics=metrics)
        tuples = metrics.operator_evals["InputTuple"]   # the t01 stream
        assert tuples == 149
        assert metrics.pattern_evals <= 3 * (1 + -(-tuples // BLOCK))
        # ... while every evaluator counter reads as it did one tuple at
        # a time (186 pattern evaluations then).
        assert sum(metrics.operator_evals.values()) == 2190
        assert metrics.tuples_produced == 999
        assert metrics.items_produced == 1681
        assert (metrics.prune_hits, metrics.prune_misses) == (123, 63)

    def test_no_counter_for_an_operator_never_activated(self, engine):
        from repro.obs import ExecMetrics
        metrics = ExecMetrics()
        engine.execute(engine.compile(
            "for $x in $input//nosuch return count($x/t01)"),
            metrics=metrics)
        assert "FnCall" not in metrics.operator_evals
        assert all(metrics.operator_evals.values())

    def test_one_span_and_one_op_record_per_batch(self, engine):
        from repro.trace import Tracer
        run = engine.run_traced(self.QUERY, tracer=Tracer())
        stats = {stat.name: stat for stat in run.trace.op_stats.values()}
        assert stats["InputTuple"].rows == 149
        assert stats["InputTuple"].calls == 1
        patterns = [span for span in run.trace.spans
                    if span.name == "pattern:scjoin"]
        assert len(patterns) == run.metrics.pattern_evals == 3
        assert sorted(span.attrs["contexts"] for span in patterns) \
            == [1, 36, 149]     # 186 tuples in all


def member_forest(blocks, seed=20070415):
    """The benchmark suite's MemBeR forest: independent 200-node trees
    of depth 5 over six tags."""
    from repro import Engine
    from repro.data import member_document
    from repro.xmltree import serialize
    return Engine.from_xml("<forest>" + "".join(
        serialize(member_document(200, depth=5, tag_count=6,
                                  seed=seed * 100003 + index).root)
        for index in range(blocks)) + "</forest>")


class TestPinnedCounters:
    """What the evaluator counts and charges for the tuple-heavy
    benchmark queries, pinned to the values list-of-dict batches gave:
    ``operator_evals``, ``items_produced``, ``tuples_produced``,
    ``pattern_evals``, the steps the evaluator charges, rows."""

    PINNED = {
        "QE2": ({"Compare": 154, "Const": 154, "DDOPlan": 1,
                 "FieldAccess": 426, "InputTuple": 835, "MapFromItem": 837,
                 "MapToItem": 1672, "Select": 835, "TupleTreePattern": 837,
                 "VarPlan": 1}, 1125, 2210, 6, 5752, 5),
        "QE5": ({"Compare": 1135, "Const": 1135, "DDOPlan": 1,
                 "FieldAccess": 2430, "InputTuple": 835, "MapFromItem": 837,
                 "MapToItem": 1672, "Select": 835, "TupleTreePattern": 837,
                 "VarPlan": 1}, 6156, 4242, 6, 9718, 19),
        "XQ2": ({"Compare": 123, "Const": 123, "FieldAccess": 342,
                 "InputTuple": 60, "MapFromItem": 62, "MapToItem": 122,
                 "Select": 60, "TupleTreePattern": 62, "VarPlan": 1},
                856, 511, 3, 955, 48),
        "XQ9": ({"Compare": 42, "FieldAccess": 86, "InputTuple": 84,
                 "MapFromItem": 8, "MapToItem": 92, "Select": 7,
                 "TupleTreePattern": 99, "VarPlan": 8}, 224, 229, 5, 426, 2),
        "chain-12": ({"Compare": 23, "Const": 23, "FieldAccess": 58,
                      "InputTuple": 11, "MapFromItem": 24, "MapToItem": 35,
                      "Select": 12, "TupleTreePattern": 12, "VarPlan": 1},
                     151, 81, 12, 199, 1),
    }

    @pytest.fixture(scope="class")
    def requests(self):
        from repro import Engine
        from repro.bench import QE_QUERIES, catalog_queries
        from repro.data import deep_member_document, xmark_document
        member = member_forest(25)
        queries = catalog_queries()
        return {
            "QE2": (member, QE_QUERIES["QE2"]),
            "QE5": (member, QE_QUERIES["QE5"]),
            "XQ2": (Engine(xmark_document(60, seed=20070416)),
                    queries["XQ2"]),
            "XQ9": (Engine(xmark_document(15, seed=19992001)),
                    queries["XQ9"]),
            "chain-12": (Engine(deep_member_document(3000, depth=15)),
                         "$input" + "/t1[1]" * 12),
        }

    class Uncharged:
        """SCJoin, handed the run's summary and nothing else: its own
        charge (the stream entries it visits) stays out of the count."""

        name = "scjoin"

        def evaluate_each(self, document, contexts, pattern, run):
            from repro.physical import Run, make_algorithm
            return make_algorithm(self.name).evaluate_each(
                document, contexts, pattern, Run(summary=run.summary))

    @classmethod
    def evaluator_steps(cls, engine, compiled):
        """The steps the evaluator itself charges: the governor is in
        the evaluator's run only, not in the pattern algorithm's."""
        from repro.guard import Budgets
        from repro.guard.governor import ResourceGovernor
        from repro.physical import Run
        root = [engine.document.root]
        bindings = {var: root
                    for var in compiled.normalized.global_vars.values()}
        bindings[compiled.normalized.context_var] = root
        governor = ResourceGovernor(Budgets(max_steps=10**9))
        eval_item(compiled.optimized, EvalContext(
            document=engine.document, strategy=cls.Uncharged(),
            globals=bindings,
            run=Run(governor=governor, summary=engine.document.summary)))
        return governor.steps

    @pytest.mark.parametrize("name", list(PINNED))
    def test_counters_read_as_they_did(self, requests, name):
        from repro.obs import ExecMetrics
        engine, query = requests[name]
        compiled = engine.compile(query)
        metrics = ExecMetrics()
        rows = engine.execute(compiled, metrics=metrics)
        assert (dict(metrics.operator_evals), metrics.items_produced,
                metrics.tuples_produced, metrics.pattern_evals,
                self.evaluator_steps(engine, compiled), len(rows)) \
            == self.PINNED[name]


class TestSharedState:
    """What evaluations on several threads share: the position table
    and each node's one-item sequence, both read-only after creation."""

    def test_eight_threads_agree_with_one(self):
        import sys
        import threading
        from repro.bench import QE_QUERIES
        engine = member_forest(25)
        query = QE_QUERIES["QE5"]
        expected = [node.pre for node in engine.run(query)]
        assert expected
        answers = [None] * 8

        def work(slot):
            answers[slot] = [[node.pre for node in engine.run(query)]
                             for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [[expected] * 3] * 8


class TestAllocation:
    """The gate against a container per produced tuple: generation-0
    collections count surviving container allocations, whatever the
    host's speed.  One warm round of QE2 + QE5 + XQ2 on the benchmark
    suite's documents, run and serialized, made 46 of them with
    list-of-dict batches (229 in five rounds)."""

    def test_a_round_makes_at_most_half_the_collections(self):
        import gc
        from repro import Engine
        from repro.bench import QE_QUERIES, catalog_queries
        from repro.data import xmark_document
        from repro.xmltree import serialize
        member = member_forest(100)
        site = Engine.from_xml(
            serialize(xmark_document(400, seed=20070416).root))
        requests = [(member, QE_QUERIES["QE2"]), (member, QE_QUERIES["QE5"]),
                    (site, catalog_queries()["XQ2"])]

        def one_round():
            for engine, query in requests:
                "\n".join(serialize(node) for node in engine.run(query))

        one_round()
        one_round()
        assert gc.isenabled()
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        for _ in range(5):
            one_round()
        assert gc.get_stats()[0]["collections"] - before <= 229 // 2


class TestBudgets:
    """Budgets keep their meaning: steps per activation, output per
    activation, the clock at least once per batch."""

    @pytest.fixture(scope="class")
    def engine(self):
        from repro import Engine
        from repro.data import member_document
        return Engine(member_document(600, depth=5, tag_count=4, seed=7),
                      fallback_chain=())

    def run(self, engine, **budgets):
        from repro.guard import Budgets
        return engine.execute(engine.compile(TestCounting.QUERY),
                              budgets=Budgets(**budgets))

    def test_max_output_bounds_one_activation(self, engine):
        from repro.guard import BudgetExceeded
        # The widest activation is the 149-tuple t01 stream (the whole
        # run produces 999 tuples).
        assert len(self.run(engine, max_output=149)) == 4
        with pytest.raises(BudgetExceeded) as trip:
            self.run(engine, max_output=148)
        assert trip.value.code == "REPRO-BUDGET-OUTPUT"
        assert trip.value.observed == 149

    def test_max_steps_trips_within_a_block_of_tuple_at_a_time(self, engine):
        from repro.algebra.eval import BLOCK
        from repro.guard import BudgetExceeded
        # Tuple-at-a-time evaluation charged 3023 steps for this run and
        # tripped a budget of n at n + 1.
        assert len(self.run(engine, max_steps=3023 + BLOCK)) == 4
        with pytest.raises(BudgetExceeded):
            self.run(engine, max_steps=3023 - BLOCK)
        for limit in (1000, 2000):
            with pytest.raises(BudgetExceeded) as trip:
                self.run(engine, max_steps=limit)
            assert trip.value.code == "REPRO-BUDGET-STEPS"
            assert limit < trip.value.steps <= limit + BLOCK

    def test_wall_budget_stops_a_join(self):
        from repro import Engine
        from repro.bench.xmark_queries import catalog_queries
        from repro.data import xmark_document
        from repro.guard import BudgetExceeded, Budgets
        engine = Engine(xmark_document(40, seed=11))
        compiled = engine.compile(catalog_queries()["XQ9"])
        assert engine.execute(compiled)
        with pytest.raises(BudgetExceeded) as trip:
            engine.execute(compiled, budgets=Budgets(wall_seconds=0.001))
        assert trip.value.code == "REPRO-BUDGET-WALL"
