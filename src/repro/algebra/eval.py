"""Plan evaluation, set-at-a-time (loop-lifted).

Every operator is evaluated once for a whole *batch* of tuples — the
``iter``-tagged input table of Grust et al.'s loop-lifting — and answers
per tuple: an item operator maps ``tuples → [one item sequence per
tuple]``, a tuple operator ``tuples → (output tuples, owners)``, where
``owners[k]`` is the index of the input tuple that output tuple ``k``
belongs to (non-decreasing: operators keep input order).

A dependent sub-plan (``MapToItem.dep``, ``Select.predicate``) runs over
the tuples its operator's input produced, at most :data:`BLOCK` at a
time.  A tuple produced inside a dependent plan carries the fields of
its enclosing tuple (field names are uniquified at compile time, so this
is a merge, never a shadow): ``IN#f`` is a plain read of the current
tuple.  ``LetPlan``/typeswitch variables are per-tuple values and ride
in the tuple under their :class:`~repro.xqcore.cast.Var` (never equal to
a field name).  Laziness is per tuple: ``Logical`` evaluates its right
operand, and ``IfPlan``/``TypeswitchPlan`` each branch, only over the
tuples that need it.  Result sequences are shared between tuples and
operators and never mutated; :func:`eval_item` copies once, at the API
boundary.  The one-item sequence that binds a node to a field is shared
furthest: it is made once per node and kept on it (:func:`_one`), so
binding a node allocates the tuple and nothing else.

``TupleTreePattern`` hands the context nodes of all its input tuples to
the :class:`~repro.physical.base.TreePatternAlgorithm` carried by the
evaluation context in one ``evaluate_each`` call — this is the paper's
"choosing a tree pattern algorithm" seam.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, \
    TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace import Trace

from ..guard.chaos import chaos_point
from ..guard.errors import AlgorithmError
from ..guard.governor import BudgetExceeded, ResourceGovernor
from ..obs import ExecMetrics
from ..physical.base import TreePatternAlgorithm
from ..xmltree.axes import step as axis_step
from ..xmltree.document import IndexedDocument, ddo
from ..xmltree.node import Node
from ..xqcore.cast import Var
from .functions import call_function
from .ops import (Arith, Compare, Const, DDOPlan, FieldAccess, FnCall,
                  IfPlan, InputTuple, ItemPlan, LetPlan, Logical,
                  MapFromItem, MapToItem, Plan, Select, SeqPlan, TreeJoin,
                  TuplePlan, TupleTreePattern, TypeswitchPlan, VarPlan)
from .runtime import (DynamicError, Sequence_, effective_boolean_value,
                      general_compare, arithmetic)

Tuple_ = Dict[str, Sequence_]

#: what a tuple operator returns: its output tuples and, per output
#: tuple, the index of the input tuple it belongs to.
Owned = Tuple[List[Tuple_], Sequence[int]]

#: a dependent sub-plan sees at most this many tuples per call.  Bounding
#: the batch is what keeps lifting a win inside a large process: the
#: tuples of an unbounded inner batch (17 k for QE5) outlive the young
#: collector generations, and the full collections they trigger cost
#: more than lifting saves (docs/PIPELINE.md §6 has the measurement).
BLOCK = 256

#: the one tuple of an evaluation outside every dependent plan.
_NO_TUPLE: Tuple_ = {}

_TRUE: Sequence_ = [True]
_FALSE: Sequence_ = [False]


def _one(node: Node) -> Sequence_:
    """``[node]``, the same list every time.  A list per binding was a
    third of what a tuple-heavy plan keeps alive between young
    collections, and that volume is what brings on full ones (see
    :data:`BLOCK`)."""
    sequence = node.singleton
    if sequence is None:
        sequence = node.singleton = [node]
    return sequence


@dataclass
class EvalContext:
    """Everything a plan needs at runtime."""

    document: Optional[IndexedDocument]
    strategy: TreePatternAlgorithm
    globals: Dict[Var, Sequence_] = field(default_factory=dict)
    variables: Dict[Var, Sequence_] = field(default_factory=dict)
    #: the enclosing tuples of a plan evaluated on its own, outermost
    #: first (empty: the plan is not a dependent one).
    tuple_stack: List[Tuple_] = field(default_factory=list)
    #: when set, the evaluator counts operator evaluations and
    #: items/tuples produced into it (see :mod:`repro.obs`).
    metrics: Optional[ExecMetrics] = None
    #: when set, the evaluator charges steps/recursion/output against
    #: its budgets and raises :class:`BudgetExceeded` on a trip
    #: (see :mod:`repro.guard.governor`).
    governor: Optional[ResourceGovernor] = None
    #: when set, the evaluator opens one span per plan-operator
    #: evaluation (a batch of tuples) — carrying output cardinality —
    #: and aggregates exact per-operator wall time into
    #: :attr:`repro.trace.Trace.op_stats` (see :mod:`repro.trace`).
    trace: Optional["Trace"] = None

    def lookup_var(self, var: Var) -> Sequence_:
        if var in self.variables:
            return self.variables[var]
        if var in self.globals:
            return self.globals[var]
        raise DynamicError(f"unbound variable ${var.name}")


def evaluate_plan(plan: Plan, context: EvalContext):
    """Evaluate a plan of either sort."""
    if isinstance(plan, ItemPlan):
        return eval_item(plan, context)
    return eval_tuples(plan, context)


def eval_item(plan: ItemPlan, ctx: EvalContext) -> Sequence_:
    """The plan's item sequence for the one tuple ``ctx`` describes."""
    return list(_eval(plan, [_scope(ctx)], ctx)[0])


def eval_tuples(plan: TuplePlan, ctx: EvalContext) -> List[Tuple_]:
    """The plan's tuple stream for the one tuple ``ctx`` describes."""
    return _eval(plan, [_scope(ctx)], ctx)[0]


def _scope(ctx: EvalContext) -> Tuple_:
    """The tuple a plan evaluated on its own starts from: the fields of
    ``ctx.tuple_stack``, merged."""
    merged: Tuple_ = {}
    for tuple_ in ctx.tuple_stack:
        merged.update(tuple_)
    return merged if ctx.tuple_stack else _NO_TUPLE


def _eval(plan: Plan, tuples: List[Tuple_], ctx: EvalContext):
    """One operator over a non-empty batch of tuples.  Counters and the
    step budget are charged per tuple *activation* (``len(tuples)``), so
    they read as they would tuple-at-a-time; a span, a ``record_op`` call
    and a clock poll happen once per batch."""
    try:
        kernel = _KERNELS[type(plan)]
    except KeyError:
        raise DynamicError(
            f"cannot evaluate {type(plan).__name__}") from None
    metrics = ctx.metrics
    governor = ctx.governor
    trace = ctx.trace
    if metrics is None and governor is None and trace is None:
        return kernel(plan, tuples, ctx)
    name = type(plan).__name__
    item = isinstance(plan, ItemPlan)
    if metrics is not None:
        metrics.operator_evals[name] += len(tuples)
    span = trace.begin_span(name) if trace is not None else None
    try:
        if governor is None:
            result = kernel(plan, tuples, ctx)
        else:
            governor.tick(len(tuples))
            governor.enter()
            try:
                result = kernel(plan, tuples, ctx)
            finally:
                governor.leave()
            # ``max_output`` bounds what one activation materializes.
            governor.note_output(
                max(map(len, result)) if item
                else max(Counter(result[1]).values(), default=0))
    except BaseException:
        if span is not None:
            trace.end_span(span, error=True)
        raise
    if item:
        rows = sum(map(len, result))
        if metrics is not None:
            metrics.items_produced += rows
    else:
        rows = len(result[0])
        if metrics is not None:
            metrics.tuples_produced += rows
    if span is not None:
        trace.end_span(span, rows=rows)
        trace.record_op(id(plan), name, span.duration, rows)
    return result


def _dependent(plan: ItemPlan, tuples: List[Tuple_],
               ctx: EvalContext) -> List[Sequence_]:
    """A dependent sub-plan over the tuples its operator's input
    produced, :data:`BLOCK` at a time; never called for no tuples (an
    operator that is not activated leaves no trace in the counters)."""
    if len(tuples) <= BLOCK:
        return _eval(plan, tuples, ctx) if tuples else []
    results: List[Sequence_] = []
    for start in range(0, len(tuples), BLOCK):
        results.extend(_eval(plan, tuples[start:start + BLOCK], ctx))
    return results


def _routed(plans: Sequence[ItemPlan], taken: List[int],
            tuples: List[Tuple_], ctx: EvalContext) -> List[Sequence_]:
    """Tuple ``i`` takes branch ``plans[taken[i]]``: evaluate each
    branch over exactly the tuples that take it and put the answers back
    in batch order.  The branch of the earliest tuple goes first, so the
    error the first failing tuple raises is the one that surfaces."""
    routes: Dict[int, List[int]] = {}
    for index, choice in enumerate(taken):
        routes.setdefault(choice, []).append(index)
    results: list = [None] * len(tuples)
    for choice, indices in routes.items():
        if len(indices) == len(tuples):
            return _eval(plans[choice], tuples, ctx)
        answers = _eval(plans[choice],
                        [tuples[index] for index in indices], ctx)
        for index, sequence in zip(indices, answers):
            results[index] = sequence
    return results


# -- item operators: tuples → one sequence per tuple -------------------------


def _const(plan: Const, tuples, ctx) -> List[Sequence_]:
    return [list(plan.values)] * len(tuples)


def _var(plan: VarPlan, tuples, ctx) -> List[Sequence_]:
    var = plan.var
    if var in tuples[0]:
        return [tuple_[var] for tuple_ in tuples]
    return [ctx.lookup_var(var)] * len(tuples)


def _gather(tuples: List[Tuple_], name: str) -> List[Sequence_]:
    """``IN#name`` of every tuple."""
    try:
        return [tuple_[name] for tuple_ in tuples]
    except KeyError:
        raise DynamicError(f"unknown tuple field {name}") from None


def _nodes(sequences: List[Sequence_], otherwise: str) -> List[Sequence_]:
    """The sequences, checked to hold nothing but nodes."""
    for items in sequences:
        for item in items:
            if not isinstance(item, Node):
                raise DynamicError(otherwise)
    return sequences


def _tree_join(plan: TreeJoin, tuples, ctx) -> List[Sequence_]:
    axis, test = plan.axis, plan.test
    return [[node for item in items for node in axis_step(item, axis, test)]
            for items in _nodes(_eval(plan.input, tuples, ctx),
                                "TreeJoin over a non-node item")]


def _ddo(plan: DDOPlan, tuples, ctx) -> List[Sequence_]:
    return [ddo(items) for items in _nodes(_eval(plan.input, tuples, ctx),
                                           "fs:ddo over a non-node item")]


def _map_to_item(plan: MapToItem, tuples, ctx) -> List[Sequence_]:
    produced, owners = _eval(plan.input, tuples, ctx)
    results: List[Sequence_] = [[] for _ in tuples]
    for owner, items in zip(owners, _dependent(plan.dep, produced, ctx)):
        results[owner].extend(items)
    return results


def _fn_call(plan: FnCall, tuples, ctx) -> List[Sequence_]:
    name = plan.name
    if not plan.args:
        return [call_function(name, []) for _ in tuples]
    args = [_eval(arg, tuples, ctx) for arg in plan.args]
    return [call_function(name, list(per_tuple)) for per_tuple in zip(*args)]


def _compare(plan: Compare, tuples, ctx) -> List[Sequence_]:
    op = plan.op
    left = _eval(plan.left, tuples, ctx)
    right = _eval(plan.right, tuples, ctx)
    return [_TRUE if general_compare(op, *pair) else _FALSE
            for pair in zip(left, right)]


def _logical(plan: Logical, tuples, ctx) -> List[Sequence_]:
    # ``and`` is decided by a false left operand, ``or`` by a true one;
    # the right operand sees only the tuples still undecided.
    decided = plan.op == "or"
    results = [_TRUE if decided else _FALSE] * len(tuples)
    undecided = [
        index for index, left in enumerate(_eval(plan.left, tuples, ctx))
        if effective_boolean_value(left) != decided]
    if undecided:
        rest = tuples if len(undecided) == len(tuples) \
            else [tuples[index] for index in undecided]
        for index, right in zip(undecided, _eval(plan.right, rest, ctx)):
            results[index] = \
                _TRUE if effective_boolean_value(right) else _FALSE
    return results


def _arith(plan: Arith, tuples, ctx) -> List[Sequence_]:
    op = plan.op
    left = _eval(plan.left, tuples, ctx)
    right = _eval(plan.right, tuples, ctx)
    return [arithmetic(op, *pair) for pair in zip(left, right)]


def _if(plan: IfPlan, tuples, ctx) -> List[Sequence_]:
    conditions = _eval(plan.condition, tuples, ctx)
    return _routed((plan.then_branch, plan.else_branch),
                   [0 if effective_boolean_value(condition) else 1
                    for condition in conditions], tuples, ctx)


def _bound(tuples: List[Tuple_], values: List[Sequence_],
           *variables: Var) -> List[Tuple_]:
    """The tuples, each with its own value bound to ``variables``."""
    bound = []
    for tuple_, value in zip(tuples, values):
        tuple_ = dict(tuple_)
        for var in variables:
            tuple_[var] = value
        bound.append(tuple_)
    return bound


def _let(plan: LetPlan, tuples, ctx) -> List[Sequence_]:
    values = _eval(plan.value, tuples, ctx)
    return _eval(plan.body, _bound(tuples, values, plan.var), ctx)


def _seq(plan: SeqPlan, tuples, ctx) -> List[Sequence_]:
    results: List[Sequence_] = [[] for _ in tuples]
    for item_plan in plan.items:
        for result, items in zip(results, _eval(item_plan, tuples, ctx)):
            result.extend(items)
    return results


def _typeswitch(plan: TypeswitchPlan, tuples, ctx) -> List[Sequence_]:
    values = _eval(plan.input, tuples, ctx)
    numeric = next((case for case in plan.cases
                    if case.seqtype == "numeric"), None)
    if numeric is None:
        return _eval(plan.default_body,
                     _bound(tuples, values, plan.default_var), ctx)
    # Both clause variables are bound on every tuple: a body reads its
    # own only.
    return _routed((numeric.body, plan.default_body),
                   [0 if _is_numeric_singleton(value) else 1
                    for value in values],
                   _bound(tuples, values, numeric.var, plan.default_var),
                   ctx)


def _is_numeric_singleton(value: Sequence_) -> bool:
    return (len(value) == 1 and isinstance(value[0], (int, float))
            and not isinstance(value[0], bool))


# -- tuple operators: tuples → (output tuples, owners) -----------------------


def _input_tuple(plan: InputTuple, tuples, ctx) -> Owned:
    if tuples[0] is _NO_TUPLE:
        raise DynamicError("IN used outside a dependent plan")
    return tuples, range(len(tuples))


def _map_from_item(plan: MapFromItem, tuples, ctx) -> Owned:
    bind_field, index_field = plan.bind_field, plan.index_field
    produced: List[Tuple_] = []
    owners: List[int] = []
    for owner, (outer, items) in enumerate(
            zip(tuples, _eval(plan.input, tuples, ctx))):
        for index, item in enumerate(items, start=1):
            tuple_ = dict(outer)
            tuple_[bind_field] = _one(item) if isinstance(item, Node) \
                else [item]
            if index_field is not None:
                tuple_[index_field] = [index]
            produced.append(tuple_)
        owners.extend([owner] * len(items))
    return produced, owners


def _select(plan: Select, tuples, ctx) -> Owned:
    produced, owners = _eval(plan.input, tuples, ctx)
    kept: List[Tuple_] = []
    kept_owners: List[int] = []
    for tuple_, owner, verdict in zip(
            produced, owners, _dependent(plan.predicate, produced, ctx)):
        if effective_boolean_value(verdict):
            kept.append(tuple_)
            kept_owners.append(owner)
    return kept, kept_owners


def _ttp(plan: TupleTreePattern, tuples, ctx) -> Owned:
    document, strategy, pattern = ctx.document, ctx.strategy, plan.pattern
    if document is None:
        raise DynamicError("TupleTreePattern requires an indexed document")
    inputs, input_owners = _eval(plan.input, tuples, ctx)
    produced: List[Tuple_] = []
    owners: List[int] = []
    if not inputs:
        return produced, owners
    contexts = _nodes(_gather(inputs, pattern.input_field),
                      "tree pattern context is not a node")
    try:
        if all(len(nodes) == 1 for nodes in contexts):
            matches = strategy.evaluate_each(
                document, [nodes[0] for nodes in contexts], pattern)
        else:   # only a caller-supplied tuple holds a longer sequence
            matches = [strategy.evaluate(document, nodes, pattern)
                       for nodes in contexts]
        matches = chaos_point("eval.ttp", matches)
    except (BudgetExceeded, DynamicError):
        raise
    except Exception as err:
        # Wrap so the engine can tell an algorithm failure (eligible
        # for strategy fallback) from a query error (propagated).
        name = getattr(strategy, "name", type(strategy).__name__)
        raise AlgorithmError(
            f"physical algorithm {name!r} failed: {err}",
            algorithm=name) from err
    for tuple_, owner, bindings in zip(inputs, input_owners, matches):
        for binding in bindings:
            extended = dict(tuple_)
            for field_name, node in binding.items():
                extended[field_name] = _one(node)
            produced.append(extended)
        owners.extend([owner] * len(bindings))
    return produced, owners


_KERNELS: Dict[type, Callable] = {
    Const: _const, VarPlan: _var, TreeJoin: _tree_join, DDOPlan: _ddo,
    FieldAccess: lambda plan, tuples, ctx: _gather(tuples, plan.field),
    MapToItem: _map_to_item,
    FnCall: _fn_call, Compare: _compare, Logical: _logical, Arith: _arith,
    IfPlan: _if, LetPlan: _let, SeqPlan: _seq, TypeswitchPlan: _typeswitch,
    InputTuple: _input_tuple, MapFromItem: _map_from_item,
    Select: _select, TupleTreePattern: _ttp,
}
