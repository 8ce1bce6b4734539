"""Algebraic tree-pattern detection (paper Section 4.2, Figure 3).

The optimizer introduces and grows ``TupleTreePattern`` operators with
the paper's rules:

* (a)/(b) replace navigational ``TreeJoin`` operators by single-step
  ``TupleTreePattern``s — (b) reuses an existing ``MapToItem``, (a)
  introduces one;
* (c) eliminates item/tuple conversions (``MapFromItem`` over
  ``MapToItem`` over an independent ``TupleTreePattern``);
* (d) merges consecutive single-step patterns along the spine;
* (e) folds existential ``Select`` predicates into predicate branches;
* (f) removes the outer ``fs:ddo``, whose semantics a single-output
  ``TupleTreePattern`` already provides.

The rules are "always directed in a way that creates bigger tree
patterns" and preserve intermediate operators (e.g. the value ``Select``
of the paper's Q2) — both properties the paper states in Section 2.

Order-sensitivity guards (a deviation documented in DESIGN.md): rule (d)
changes the order/multiplicity of the composed result exactly when
pattern steps can nest (the paper's Q5 discussion), so it only fires in
an order/duplicate-insensitive context — under a ``ddo`` spine or an
effective-boolean-value consumer.  Rule (f) fires when the pattern
operator's input carries at most one tuple (then the per-tuple XPath
semantics of the single-output pattern makes the ``ddo`` the identity,
as in the paper's P5).

The rules are data: ``_RULES`` lists each operator class's rules in
firing order, each with the option that enables it.  ``_Optimizer`` is
one :class:`repro.rewrite.pipeline.RulePass` whose scope gives each
child its order-sensitivity and live fields, and :func:`optimize_plan`
repeats it through the same ``fixpoint`` as the Core rewritings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..pattern import PatternPath, TreePattern, single_step_pattern
from ..rewrite.pipeline import _EBV_FUNCTIONS, RulePass, fixpoint
from ..xmltree.axes import Axis
from .ops import (Arith, Compare, Const, DDOPlan, FieldAccess, FnCall,
                  IfPlan, InputTuple, ItemPlan, LetPlan, Logical,
                  MapFromItem, MapToItem, Plan, Select, SeqPlan, TreeJoin,
                  TuplePlan, TupleTreePattern, TypeswitchPlan, VarPlan,
                  walk_plan)

#: axes that map separated (ancestor-free) context sets to separated
#: result sets — see repro.rewrite.facts.SEPARATED_PRESERVING_AXES.
_SEPARATION_PRESERVING_AXES = frozenset({
    Axis.CHILD, Axis.ATTRIBUTE, Axis.SELF,
})

#: (insensitive, live fields): may the subtree's result be reordered and
#: deduplicated, and which junction fields does a consumer above read.
_Context = Tuple[bool, FrozenSet[str]]


@dataclass(frozen=True)
class OptimizerOptions:
    """Feature toggles, used by the ablation benchmarks.  Frozen: an
    instance is part of the plan-cache key."""

    enable_tree_patterns: bool = True
    enable_merge: bool = True          # rules (d)/(e)
    enable_ddo_removal: bool = True    # rule (f)
    #: the positional-pattern extension (the paper's Section 7 future
    #: work): fold ``step[n]`` selections into the pattern (rule (g)).
    #: Off by default to keep the paper's Figure 1/Q3 plan shapes.
    enable_positional: bool = False


class _FieldNamer:
    """Fresh output-field names for rules (a)/(b)."""

    def __init__(self, plan: Plan) -> None:
        self._used = set()
        for node in walk_plan(plan):
            if isinstance(node, FieldAccess):
                self._used.add(node.field)
            elif isinstance(node, MapFromItem):
                self._used.add(node.bind_field)
                if node.index_field is not None:
                    self._used.add(node.index_field)
            elif isinstance(node, TupleTreePattern):
                self._used.add(node.pattern.input_field)
                self._used.update(node.pattern.output_fields())
        self._counter = count(1)

    def fresh(self, base: str = "out") -> str:
        name = base
        while name in self._used:
            name = f"{base}{next(self._counter)}"
        self._used.add(name)
        return name


def optimize_plan(plan: ItemPlan,
                  options: OptimizerOptions | None = None) -> ItemPlan:
    """Run the Figure 3 rules to fixpoint."""
    options = options or OptimizerOptions()
    if not options.enable_tree_patterns:
        return plan
    optimizer = _Optimizer(options, _FieldNamer(plan))
    top: _Context = (False, frozenset())   # the result order matters
    return fixpoint(plan, [("optimize", lambda p: optimizer.run(p, top))],
                    "optimize")


def _fields_read(plan: Plan) -> FrozenSet[str]:
    """All tuple fields a plan subtree may read (conservative)."""
    fields = set()
    for node in walk_plan(plan):
        if isinstance(node, FieldAccess):
            fields.add(node.field)
        elif isinstance(node, TupleTreePattern):
            fields.add(node.pattern.input_field)
    return frozenset(fields)


def _item_singleton(plan: ItemPlan) -> bool:
    """Does this item plan always produce exactly one item?"""
    if isinstance(plan, VarPlan):
        return plan.var.origin in ("external", "focus")
    if isinstance(plan, Const):
        return len(plan.values) == 1
    if isinstance(plan, FnCall):
        return plan.name in ("fn:root", "fn:doc", "fn:count", "fn:boolean",
                             "fn:not", "fn:exists", "fn:empty", "fn:string",
                             "fn:true", "fn:false")
    if isinstance(plan, (Compare, Logical)):
        return True
    return False


def _field_is_singleton(plan: TuplePlan, field_name: str) -> bool:
    """Does every tuple of ``plan`` hold at most one item in ``field``?"""
    if isinstance(plan, MapFromItem):
        return field_name in (plan.bind_field, plan.index_field)
    if isinstance(plan, Select):
        return _field_is_singleton(plan.input, field_name)
    if isinstance(plan, TupleTreePattern):
        if field_name in plan.pattern.output_fields():
            return True
        return _field_is_singleton(plan.input, field_name)
    return False


def _tuple_cardinality_at_most_one(plan: TuplePlan) -> bool:
    """Does this tuple plan always produce at most one tuple?"""
    if isinstance(plan, InputTuple):
        return True
    if isinstance(plan, MapFromItem):
        return _item_singleton(plan.input)
    if isinstance(plan, Select):
        return _tuple_cardinality_at_most_one(plan.input)
    return False


#: The rules each operator class fires, in firing order, each with the
#: ``OptimizerOptions`` field that enables it (None: always on).
_RULES = (
    (MapToItem, "_rule_b", None),
    (MapToItem, "_rule_g", "enable_positional"),
    (MapToItem, "_cleanup_hoist_dependent_map", None),
    (MapToItem, "_cleanup_map_identity", None),
    (TreeJoin, "_rule_a", None),
    (MapFromItem, "_rule_c", None),
    (TupleTreePattern, "_cleanup_retuple", None),
    (TupleTreePattern, "_rule_d", "enable_merge"),
    (Select, "_rule_e", "enable_merge"),
    (DDOPlan, "_cleanup_ddo_of_ddo", None),
    (DDOPlan, "_rule_f", "enable_ddo_removal"),
)


class _Optimizer(RulePass):
    def __init__(self, options: OptimizerOptions, namer: _FieldNamer) -> None:
        self.namer = namer
        self.pre: Dict[type, List[Callable]] = {}
        for kind, rule, option in _RULES:
            if option is None or getattr(options, option):
                self.pre.setdefault(kind, []).append(getattr(_Optimizer, rule))

    def _scope(self, plan: Plan, index: int, done: List[Plan],
               ctx: _Context) -> _Context:
        """The order-sensitivity and live fields child ``index`` of
        ``plan`` is rewritten under (``done``: its rewritten elders);
        ``TreeJoin`` and ``SeqPlan`` pass their own on."""
        insensitive, live = ctx
        if isinstance(plan, MapToItem):
            return insensitive, _fields_read(done[0]) if index else frozenset()
        if isinstance(plan, MapFromItem):
            return insensitive and plan.index_field is None, frozenset()
        if isinstance(plan, Select):
            if index == 0:
                return True, frozenset()
            return insensitive, live | _fields_read(done[0])
        if isinstance(plan, TupleTreePattern):
            return insensitive, live | {plan.pattern.input_field}
        if isinstance(plan, (DDOPlan, Compare, Logical)):
            return True, live
        if isinstance(plan, FnCall):
            return plan.name in _EBV_FUNCTIONS, live
        if isinstance(plan, (Arith, TypeswitchPlan)):
            return False, live
        if isinstance(plan, IfPlan):
            return index == 0 or insensitive, live
        if isinstance(plan, LetPlan):
            return index > 0 and insensitive, live
        return ctx

    scopes = dict.fromkeys((MapToItem, MapFromItem, Select, TupleTreePattern,
                            DDOPlan, Compare, Logical, FnCall, Arith,
                            TypeswitchPlan, IfPlan, LetPlan), _scope)

    # -- the Figure 3 rules ---------------------------------------------------

    def _rule_a(self, plan: TreeJoin, ctx: _Context) -> Plan:
        """TreeJoin[step](IN#in) → MapToItem{IN#out}(TTP[...](IN)).

        Generalized to independent inputs (no tuple-field reads), where
        the rule introduces the ``MapFromItem{[in : IN]}`` seen at the
        bottom of the paper's P5: a per-item single-node context makes
        the pattern's per-tuple XPath semantics coincide with TreeJoin's
        concatenation semantics.
        """
        if not plan.axis.is_downward:
            return plan
        if isinstance(plan.input, FieldAccess):
            out = self.namer.fresh()
            pattern = single_step_pattern(plan.input.field, plan.axis,
                                          plan.test, out)
            return MapToItem(FieldAccess(out),
                             TupleTreePattern(pattern, InputTuple()))
        if not _fields_read(plan.input) and not any(
                isinstance(node, InputTuple)
                for node in walk_plan(plan.input)):
            out = self.namer.fresh()
            in_field = self.namer.fresh("dot")
            pattern = single_step_pattern(in_field, plan.axis,
                                          plan.test, out)
            return MapToItem(
                FieldAccess(out),
                TupleTreePattern(pattern,
                                 MapFromItem(in_field, plan.input)))
        return plan

    def _rule_b(self, plan: MapToItem, ctx: _Context) -> Plan:
        """MapToItem{TreeJoin[step](IN#in)}(Op) →
        MapToItem{IN#out}(TTP[...](Op))."""
        dep = plan.dep
        if not isinstance(dep, TreeJoin):
            return plan
        if not isinstance(dep.input, FieldAccess):
            return plan
        if not dep.axis.is_downward:
            return plan
        out = self.namer.fresh()
        pattern = single_step_pattern(dep.input.field, dep.axis, dep.test, out)
        return MapToItem(FieldAccess(out),
                         TupleTreePattern(pattern, plan.input))

    def _rule_c(self, plan: MapFromItem, ctx: _Context) -> Plan:
        """MapFromItem{[f1 : IN]}(MapToItem{IN#f2}(TTP[p{f2}](Op))) →
        TTP[p{f1}](Op).

        The item/tuple round-trip rebinds the pattern's (singleton)
        output under a new field name; feeding the consumers straight
        from the renamed pattern is equivalent.  Dependent ``Op`` (e.g.
        the ``IN`` of a predicate conjunct) is fine: both sides evaluate
        ``Op`` in the same enclosing tuple context, and the extra fields
        the right-hand side keeps are unreadable copies of values the
        enclosing tuple supplies anyway (field names are unique).
        """
        ttp = _mapped_pattern(plan.input)
        if plan.index_field is not None or ttp is None:
            return plan
        pattern = ttp.pattern
        renamed = TreePattern(
            pattern.input_field,
            pattern.path.replace_last(
                pattern.path.last.with_output(plan.bind_field)))
        return TupleTreePattern(renamed, ttp.input)

    def _rule_d(self, plan: TupleTreePattern, ctx: _Context) -> Plan:
        """Merge consecutive patterns along the spine."""
        insensitive, live = ctx
        inner = plan.input
        if not isinstance(inner, TupleTreePattern):
            return plan
        outer_pattern, inner_pattern = plan.pattern, inner.pattern
        if not insensitive and not self._composition_order_safe(inner):
            # Composing two patterns reorders/duplicates results exactly
            # when the inner pattern's matches can nest (the paper's Q5);
            # merge only when a downstream ddo/EBV consumer absorbs the
            # difference, or when the inner spine provably yields
            # *separated* nodes (child/attribute/self steps from a
            # singleton context — disjoint subtrees in document order).
            return plan
        if not inner_pattern.is_single_output_at_extraction_point():
            return plan
        if not outer_pattern.is_single_output_at_extraction_point():
            return plan
        junction = inner_pattern.extraction_point.output_field
        if outer_pattern.input_field != junction:
            return plan
        if junction in live:
            # A consumer above still reads the junction field.
            return plan
        if not (outer_pattern.is_downward() and inner_pattern.is_downward()):
            return plan
        out = outer_pattern.extraction_point.output_field
        merged = inner_pattern.append_path(outer_pattern.path, out)
        return TupleTreePattern(merged, inner.input)

    def _composition_order_safe(self, inner: TupleTreePattern) -> bool:
        """Is composing another pattern on top of ``inner`` guaranteed to
        preserve document order and duplicate-freedom?

        True when the inner spine uses only separation-preserving axes
        (child/attribute/self) from a singleton context field: the
        matches then live in pairwise-disjoint subtrees in document
        order, so per-match continuations concatenate in order.
        """
        pattern = inner.pattern
        if not _field_is_singleton(inner.input, pattern.input_field):
            return False
        return all(step.axis in _SEPARATION_PRESERVING_AXES
                   for step in pattern.path.steps)

    def _rule_e(self, plan: Select, ctx: _Context) -> Plan:
        """Fold existential tree-pattern conjuncts into predicate branches."""
        inner = plan.input
        if not isinstance(inner, TupleTreePattern):
            return plan
        pattern = inner.pattern
        if not pattern.is_single_output_at_extraction_point():
            return plan
        if pattern.extraction_point.position is not None:
            # A pattern step applies its branches *before* its position;
            # this Select filters *after* the positional selection, so
            # folding it in would reorder the two.
            return plan
        out = pattern.extraction_point.output_field
        conjuncts = _flatten_and(plan.predicate)
        branches: list[PatternPath] = []
        residual: list[ItemPlan] = []
        for conjunct in conjuncts:
            branch = self._as_existential_branch(conjunct, out)
            if branch is not None:
                branches.append(branch)
            else:
                residual.append(conjunct)
        if not branches:
            return plan
        merged = TupleTreePattern(pattern.add_predicates(branches),
                                  inner.input)
        if residual:
            return Select(_rebuild_and(residual), merged)
        return merged

    def _as_existential_branch(self, conjunct: ItemPlan,
                               context_field: str) -> Optional[PatternPath]:
        """Match ``fn:boolean(MapToItem{IN#ok}(TTP[IN#ctx/path{ok}](IN)))``."""
        if not (isinstance(conjunct, FnCall)
                and conjunct.name in ("fn:boolean", "fn:exists")
                and len(conjunct.args) == 1):
            return None
        ttp = _mapped_pattern(conjunct.args[0])
        if (ttp is None or not isinstance(ttp.input, InputTuple)
                or ttp.pattern.input_field != context_field
                or not ttp.pattern.is_downward()):
            return None
        return ttp.pattern.path

    def _rule_f(self, plan: DDOPlan, ctx: _Context) -> Plan:
        """fs:ddo(MapToItem{IN#out}(TTP[p](Op))) → MapToItem(...) when the
        single-output pattern's per-tuple XPath semantics makes the ddo
        the identity (at most one input tuple)."""
        ttp = _mapped_pattern(plan.input)
        if ttp is None or not _tuple_cardinality_at_most_one(ttp.input):
            return plan
        return plan.input

    def _rule_g(self, plan: MapToItem, ctx: _Context) -> Plan:
        """Positional extension: fold ``[position() = n]`` selections.

        Detects the shape predicate normalization + compilation produce
        for ``step[n]``::

            MapToItem{IN#g}
              (Select{IN#pos = n}
                (MapFromItem{[g : IN; pos : INDEX]}
                  (MapToItem{IN#o}(TTP[IN#ctx/step{o}](Op)))))

        and rewrites it to
        ``MapToItem{IN#o2}(TTP[IN#ctx/step[n]{o2}](Op))``.  Sound
        because every tuple field in compiled plans holds exactly one
        item, so the per-evaluation index equals the per-context-node
        position the annotation denotes.
        """
        if not isinstance(plan.dep, FieldAccess):
            return plan
        select = plan.input
        if not isinstance(select, Select):
            return plan
        retuple = select.input
        if not (isinstance(retuple, MapFromItem)
                and retuple.index_field is not None
                and retuple.bind_field == plan.dep.field):
            return plan
        position = _match_position_filter(select.predicate,
                                          retuple.index_field)
        if position is None:
            return plan
        ttp = _mapped_pattern(retuple.input)
        if ttp is None:
            return plan
        pattern = ttp.pattern
        if len(pattern.path.steps) != 1:
            # Positions count per preceding context node; only a
            # single-step pattern keeps that granularity.
            return plan
        step = pattern.path.steps[0]
        if step.position is not None:
            return plan
        out = self.namer.fresh()
        positional = TreePattern(
            pattern.input_field,
            pattern.path.replace_last(
                step.with_position(position).with_output(out)))
        return MapToItem(FieldAccess(out),
                         TupleTreePattern(positional, ttp.input))

    # -- cleanups ---------------------------------------------------------------

    def _cleanup_hoist_dependent_map(self, plan: MapToItem,
                                     ctx: _Context) -> Plan:
        """MapToItem{MapToItem{IN#o}(TTP[p](IN))}(Op) →
        MapToItem{IN#o}(TTP[p](Op)).

        A dependent pattern evaluated per tuple of ``Op`` is the pattern
        applied to ``Op``'s stream directly (``TupleTreePattern``
        processes tuples independently).
        """
        dep = plan.dep
        if not (isinstance(dep, MapToItem)
                and isinstance(dep.dep, FieldAccess)
                and isinstance(dep.input, TupleTreePattern)
                and isinstance(dep.input.input, InputTuple)):
            return plan
        return MapToItem(dep.dep,
                         TupleTreePattern(dep.input.pattern, plan.input))

    def _cleanup_retuple(self, plan: TupleTreePattern,
                         ctx: _Context) -> Plan:
        """TTP[IN#a/p](MapFromItem{[a : IN]}(MapToItem{IN#g}(Op))) →
        TTP[IN#g/p](Op).

        The item/tuple round-trip re-binds field ``g`` under a new name;
        when ``g`` is singleton-valued per tuple (a pattern output or a
        ``MapFromItem`` binding), feeding the pattern straight from
        ``Op`` is equivalent — this is what connects the paper's Q2
        patterns directly across the value ``Select``.
        """
        source = plan.input
        if not (isinstance(source, MapFromItem)
                and source.index_field is None
                and source.bind_field == plan.pattern.input_field
                and isinstance(source.input, MapToItem)
                and isinstance(source.input.dep, FieldAccess)):
            return plan
        inner_field = source.input.dep.field
        op = source.input.input
        if not _field_is_singleton(op, inner_field):
            return plan
        renamed = TreePattern(inner_field, plan.pattern.path)
        return TupleTreePattern(renamed, op)

    def _cleanup_ddo_of_ddo(self, plan: DDOPlan, ctx: _Context) -> Plan:
        """fs:ddo(fs:ddo(item)) → fs:ddo(item)."""
        if isinstance(plan.input, DDOPlan):
            return plan.input
        return plan

    def _cleanup_map_identity(self, plan: MapToItem, ctx: _Context) -> Plan:
        """MapToItem{IN#f}(MapFromItem{[f : IN]}(item)) → item."""
        if not isinstance(plan.dep, FieldAccess):
            return plan
        inner = plan.input
        if not isinstance(inner, MapFromItem):
            return plan
        if inner.index_field is not None:
            return plan
        if inner.bind_field != plan.dep.field:
            return plan
        return inner.input


def _mapped_pattern(plan: Plan) -> Optional[TupleTreePattern]:
    """The pattern operator of ``MapToItem{IN#f}(TTP[p{f}](Op))``, whose
    one output ``f``, at the extraction point, is what the map reads."""
    if not (isinstance(plan, MapToItem) and isinstance(plan.dep, FieldAccess)
            and isinstance(plan.input, TupleTreePattern)):
        return None
    pattern = plan.input.pattern
    if (pattern.is_single_output_at_extraction_point()
            and pattern.extraction_point.output_field == plan.dep.field):
        return plan.input
    return None


def _match_position_filter(predicate: ItemPlan,
                           index_field: str) -> Optional[int]:
    """``IN#index = n`` (either side) with a positive integer constant."""
    if not (isinstance(predicate, Compare) and predicate.op == "="):
        return None
    left, right = predicate.left, predicate.right
    if isinstance(right, FieldAccess) and right.field == index_field:
        left, right = right, left
    if not (isinstance(left, FieldAccess) and left.field == index_field):
        return None
    if not (isinstance(right, Const) and len(right.values) == 1):
        return None
    value = right.values[0]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        return None
    return value


def _flatten_and(plan: ItemPlan) -> List[ItemPlan]:
    if isinstance(plan, Logical) and plan.op == "and":
        return _flatten_and(plan.left) + _flatten_and(plan.right)
    return [plan]


def _rebuild_and(conjuncts: List[ItemPlan]) -> ItemPlan:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = Logical("and", result, conjunct)
    return result
