"""Core AST utilities: traversal, the child layout of every Core and
plan class, free variables, substitution, alpha-canonical printing;
plus evaluator error paths."""

import dataclasses
import itertools

import pytest

from repro.algebra import (Const, DDOPlan, DynamicError, EvalContext,
                           FieldAccess, TreeJoin, eval_item, eval_tuples)
from repro.algebra.ops import InputTuple, TypeswitchCase
from repro.pattern import parse_pattern
from repro.physical import NLJoin
from repro.xmltree import IndexedDocument
from repro.xmltree.axes import Axis
from repro.xmltree.nodetest import NameTest
from repro.xqcore import (CaseClause, CCall, CDDO, CExpr, CFor, CGenCmp,
                          CLet, CLit, CSeq,
                          CStep, CVar, alpha_canonical, count_nodes,
                          free_vars, fresh_var, normalize_query, pretty,
                          substitute, usage_count, walk)
from repro.xqcore.cast import Term
from repro.xquery import parse_query


def step(name, input_expr):
    return CStep(Axis.CHILD, NameTest(name), input_expr)


class TestWalk:
    def test_preorder(self):
        x = fresh_var("x")
        expr = CLet(x, CLit(1), CSeq([CVar(x), CLit(2)]))
        kinds = [type(node).__name__ for node in walk(expr)]
        assert kinds == ["CLet", "CLit", "CSeq", "CVar", "CLit"]

    def test_count_nodes(self):
        x = fresh_var("x")
        expr = CLet(x, CLit(1), CVar(x))
        assert count_nodes(expr) == 3


def _concrete(base):
    """Every dataclass below ``base``: each node class, found anew."""
    for kind in base.__subclasses__():
        if dataclasses.is_dataclass(kind):
            yield kind
        yield from _concrete(kind)


def _sample(kind, where=True):
    """An instance of ``kind``, every child a distinct leaf."""
    numbers = itertools.count(1)

    def leaf():
        number = next(numbers)
        return CLit(number) if issubclass(kind, CExpr) else Const((number,))

    samples = {"Var": fresh_var("v"), "str": "s", "Axis": Axis.CHILD,
               "NodeTest": NameTest("a"),
               "TreePattern": parse_pattern("IN#f/child::b{o}")}
    values = []
    for field in dataclasses.fields(kind):
        optional = field.type.startswith("Optional[")
        name = field.type[len("Optional["):-1] if optional else field.type
        if name in ("List[CaseClause]", "List[TypeswitchCase]"):
            case = CaseClause if issubclass(kind, CExpr) else TypeswitchCase
            values.append([case("numeric", fresh_var("c"), leaf()),
                           case("string", fresh_var("c"), leaf())])
        elif name.startswith("List["):
            values.append([leaf(), leaf()])
        elif name.endswith(("CExpr", "Plan")):
            values.append(leaf() if where or not optional else None)
        else:
            values.append(samples.get(name, (1,) if "Tuple" in name else "v"))
    return kind(*values)


def _held(value):
    """The nodes a field value holds, flattened in order."""
    if isinstance(value, Term):
        return [value]
    if isinstance(value, list):
        return [node for item in value for node in _held(item)]
    if dataclasses.is_dataclass(value):   # a typeswitch case
        return [node for field in dataclasses.fields(value)
                for node in _held(getattr(value, field.name))]
    return []


_NODES = [_sample(kind) for kind in _concrete(Term)] + [
    _sample(kind, where=False) for kind in _concrete(Term)
    if any(field.type == "Optional[CExpr]"
           for field in dataclasses.fields(kind))]


class TestChildLayout:
    """What each class's ``child_fields`` (or hand-written pair) gives."""

    @pytest.mark.parametrize(
        "node", _NODES, ids=lambda node: type(node).__name__ + (
            "-no-where" if getattr(node, "where", 0) is None else ""))
    def test_children_are_the_node_fields_and_rebuild_one_at_a_time(
            self, node):
        fields = [field.name for field in dataclasses.fields(node)]
        held = {name: _held(getattr(node, name)) for name in fields}
        children = list(node.children())
        expected = [child for name in fields for child in held[name]]
        assert [id(child) for child in children] == \
            [id(child) for child in expected]

        rebuilt = node.replace_children(node.children())
        assert rebuilt is not node
        assert type(rebuilt) is type(node)
        assert rebuilt == node

        for index, old in enumerate(children):
            fresh = CLit("new") if isinstance(node, CExpr) \
                else Const(("new",))
            new_children = children[:index] + [fresh] + children[index + 1:]
            changed = node.replace_children(new_children)
            assert type(changed) is type(node)
            assert [id(child) for child in changed.children()] == \
                [id(child) for child in new_children]
            for name in fields:
                moved = any(child is old for child in held[name])
                assert (getattr(changed, name) == getattr(node, name)) \
                    is not moved, name


class TestFreeVars:
    def test_bound_variables_excluded(self):
        x = fresh_var("x")
        expr = CLet(x, CLit(1), CVar(x))
        assert free_vars(expr) == set()

    def test_free_variable_found(self):
        x, y = fresh_var("x"), fresh_var("y")
        expr = CLet(x, CVar(y), CVar(x))
        assert free_vars(expr) == {y}

    def test_for_binders(self):
        x, i, d = fresh_var("x"), fresh_var("i"), fresh_var("d")
        loop = CFor(x, i, CVar(d), None,
                    CGenCmp("=", CVar(i), CLit(1)))
        assert free_vars(loop) == {d}

    def test_identity_based_no_shadowing(self):
        # two distinct vars named "x": no capture confusion
        x1, x2 = fresh_var("x"), fresh_var("x")
        expr = CLet(x1, CLit(1), CLet(x2, CVar(x1), CVar(x2)))
        assert free_vars(expr) == set()


class TestSubstitute:
    def test_replaces_target(self):
        x = fresh_var("x")
        result = substitute(CSeq([CVar(x), CLit(2)]), x, CLit(9))
        assert result == CSeq([CLit(9), CLit(2)])

    def test_leaves_other_vars(self):
        x, y = fresh_var("x"), fresh_var("y")
        result = substitute(CVar(y), x, CLit(9))
        assert result == CVar(y)

    def test_shares_unchanged_subtrees(self):
        x = fresh_var("x")
        untouched = CSeq([CLit(1), CLit(2)])
        expr = CSeq([untouched, CVar(x)])
        result = substitute(expr, x, CLit(9))
        assert result.items[0] is untouched

    def test_usage_count_basics(self):
        x = fresh_var("x")
        expr = CSeq([CVar(x), CVar(x), CLit(1)])
        assert usage_count(expr, x) == 2


class TestAlphaCanonical:
    def parse_core(self, text):
        return normalize_query(parse_query(text)).core

    def test_identical_for_renamed_queries(self):
        # same query normalized twice → different Var identities, same
        # canonical string
        one = alpha_canonical(self.parse_core("$d//a[b]/c"))
        two = alpha_canonical(self.parse_core("$d//a[b]/c"))
        assert one == two

    def test_distinguishes_different_queries(self):
        one = alpha_canonical(self.parse_core("$d//a[b]/c"))
        two = alpha_canonical(self.parse_core("$d//a[c]/b"))
        assert one != two

    def test_pretty_assigns_numbered_duplicates(self):
        text = pretty(self.parse_core("$d/a/b/c"))
        assert "$seq" in text
        assert "$seq2" in text


class TestEvaluatorErrors:
    DOC = IndexedDocument.from_string("<a><b/></a>")

    def ctx(self):
        return EvalContext(document=self.DOC, strategy=NLJoin())

    def test_ddo_over_atomics_raises(self):
        with pytest.raises(DynamicError):
            eval_item(DDOPlan(Const((1, 2))), self.ctx())

    def test_treejoin_over_atomics_raises(self):
        plan = TreeJoin(Axis.CHILD, NameTest("b"), Const((1,)))
        with pytest.raises(DynamicError):
            eval_item(plan, self.ctx())

    def test_unknown_field_raises(self):
        context = self.ctx()
        context.tuple_stack.append({"known": [1]})
        with pytest.raises(DynamicError):
            eval_item(FieldAccess("unknown"), context)

    def test_input_tuple_without_stack_raises(self):
        with pytest.raises(DynamicError):
            eval_tuples(InputTuple(), self.ctx())

    def test_ttp_over_non_node_context_raises(self):
        from repro.algebra import MapFromItem, TupleTreePattern
        from repro.pattern import parse_pattern
        plan = TupleTreePattern(parse_pattern("IN#f/child::b{o}"),
                                MapFromItem("f", Const((42,))))
        with pytest.raises(DynamicError):
            eval_tuples(plan, self.ctx())

    def test_ttp_without_document_raises(self):
        from repro.algebra import MapFromItem, TupleTreePattern
        from repro.pattern import parse_pattern
        plan = TupleTreePattern(parse_pattern("IN#f/child::b{o}"),
                                MapFromItem("f", Const((1,))))
        context = EvalContext(document=None, strategy=NLJoin())
        with pytest.raises(DynamicError):
            eval_tuples(plan, context)
