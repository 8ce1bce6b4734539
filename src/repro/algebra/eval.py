"""Plan evaluation, set-at-a-time (loop-lifted), over column batches.

Every operator is evaluated once for a whole *batch* of tuples — the
``iter``-tagged input table of Grust et al.'s loop-lifting — and answers
per row: an item operator maps ``batch → [one item sequence per row]``,
a tuple operator ``batch → (output batch, owners)``, where ``owners[k]``
is the index of the input row that output row ``k`` belongs to
(non-decreasing: operators keep input order).

A batch (:class:`Batch`) is that table held by column, ``field → list``
with one item sequence per row, and no record is made per tuple.  A
batch made from another one — by ``MapFromItem``, ``TupleTreePattern``,
``Select``, a ``LetPlan``/typeswitch binding, a branch's subset of the
rows, a block — holds the columns it adds, the batch it came from and
the row of that batch each of its rows continues.  So "a tuple produced
inside a dependent plan carries the fields of its enclosing tuple"
(field names are uniquified at compile time: a merge, never a shadow)
costs nothing until an inherited field is read, and then one gather of
its column — a slice for a block, the parent's list itself for a
binding; ``IN#f`` is a column read.  ``LetPlan``/typeswitch variables
are columns under their :class:`~repro.xqcore.cast.Var` (never equal to
a field name).  Rows become ``dict``s at the API boundary only
(:func:`eval_tuples`).

A dependent sub-plan (``MapToItem.dep``, ``Select.predicate``) runs over
the rows its operator's input produced, at most :data:`BLOCK` at a time.
Laziness is per row: ``Logical`` evaluates its right operand, and
``IfPlan``/``TypeswitchPlan`` each branch, only over the rows that need
it.  Columns and result sequences are shared between batches and
operators and never mutated; :func:`eval_item` copies once, at the API
boundary.  The one-item sequence that binds a node to a field is shared
furthest: it is made once per node and kept on it (:func:`_one`), and a
``position`` is cut from one table of ``[1], [2], …``, so a binding
allocates a slot in a column and nothing else.

``TupleTreePattern`` hands the context nodes of all its input rows, one
column, to the :class:`~repro.physical.base.TreePatternAlgorithm` of the
context in one ``evaluate_each`` call and gets integers back — one match
column of ``pre``s plus offsets — the paper's "choosing a tree pattern
algorithm" seam; nodes are made once, for the output column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..guard.chaos import chaos_point
from ..guard.errors import AlgorithmError
from ..guard.governor import BudgetExceeded
from ..physical.base import NO_RUN, Run, TreePatternAlgorithm
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

#: a dependent sub-plan sees at most this many rows per call: the bound
#: on how far past a deadline or a step budget one kernel call can run.
#: It is no longer what keeps tail latency down — rows are not objects,
#: so an unbounded batch gives the collector nothing to trip over
#: (unbounded: 7 % less throughput, the same ``latency_p95_ms``;
#: docs/PIPELINE.md §6 has the measurement).
BLOCK = 256

_TRUE: Sequence_ = [True]
_FALSE: Sequence_ = [False]
_EMPTY: Sequence_ = []

#: ``[1], [2], …``: ``MapFromItem``'s ``position`` column is cut from
#: this table, so a position costs a list slot.  Fixed size and built at
#: import: the ``QueryService`` threads share it, and growing it on
#: demand would race between them.  Longer sequences get fresh lists
#: past its end.
_POSITIONS: List[Sequence_] = [[index] for index in range(1, 1025)]


def _one(node: Node) -> Sequence_:
    """``[node]``, the same list every time: binding a node to a field
    allocates a slot in the field's column and nothing else.  (The two
    per-row loops read ``node.singleton`` first and call only on a
    node's first binding.)"""
    sequence = node.singleton
    if sequence is None:
        sequence = node.singleton = [node]
    return sequence


class Batch:
    """``size`` tuples held as columns: ``columns[f][k]`` is the item
    sequence of row ``k`` in field (or ``Var``) ``f``.  A batch made
    from another one holds the columns it *adds*; every other field of
    row ``k`` is that of row ``owners[k]`` of ``parent`` (of row ``k``
    when ``owners`` is ``None``) and is gathered into ``columns`` the
    first time it is read.  Columns, and the sequences in them, are
    shared between batches and operators and never mutated."""

    __slots__ = ("size", "columns", "added", "parent", "owners")

    def __init__(self, size: int, columns: Dict[object, List[Sequence_]],
                 parent: Optional["Batch"] = None,
                 owners: Optional[Sequence[int]] = None) -> None:
        self.size = size
        self.columns = columns
        #: the fields this batch adds, in the order a row lists them
        #: (``columns`` also caches the inherited ones it has read).
        self.added = tuple(columns)
        self.parent = parent
        self.owners = owners

    def column(self, name) -> Optional[List[Sequence_]]:
        """Field ``name`` of every row; ``None`` if the rows have none."""
        column = self.columns.get(name)
        if column is None and self.parent is not None:
            column = self.parent.column(name)
            if column is not None:
                owners = self.owners
                if type(owners) is range:   # a block: consecutive rows
                    column = column[owners.start:owners.stop]
                elif owners is not None:
                    column = list(map(column.__getitem__, owners))
                self.columns[name] = column
        return column

    def take(self, rows: Sequence[int]) -> "Batch":
        """The rows at the given (ascending) indices, as a batch."""
        return Batch(len(rows), {}, self, rows)

    def rows(self) -> List[Tuple_]:
        """Every row as a ``dict``: inherited fields first, outermost
        batch first (the API boundary's view, :func:`eval_tuples`)."""
        if self.parent is None:
            rows: List[Tuple_] = [{} for _ in range(self.size)]
        else:
            inherited = self.parent.rows()
            rows = [dict(inherited[owner])
                    for owner in (self.owners if self.owners is not None
                                  else range(self.size))]
        for name in self.added:
            for row, sequence in zip(rows, self.columns[name]):
                row[name] = sequence
        return rows


#: what a tuple operator returns: its output batch and, per output row,
#: the index of the input row it belongs to.
Owned = Tuple[Batch, Sequence[int]]

#: the one row of an evaluation outside every dependent plan.  Shared
#: between threads and never written: it has no parent to gather from.
_ROOT = Batch(1, {})


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
    #: the execution's instruments, handed to every pattern evaluation
    #: as well.  With ``metrics`` set the evaluator counts operator
    #: evaluations and items/tuples produced (see :mod:`repro.obs`);
    #: with ``governor`` set it charges steps/recursion/output against
    #: the budgets and raises :class:`BudgetExceeded` on a trip (see
    #: :mod:`repro.guard.governor`); with ``trace`` set it opens one
    #: span per plan-operator evaluation (a batch of tuples) — carrying
    #: output cardinality — and aggregates exact per-operator wall time
    #: into :attr:`repro.trace.Trace.op_stats` (see :mod:`repro.trace`).
    run: Run = NO_RUN

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
    return list(_eval(plan, _scope(ctx), ctx)[0])


def eval_tuples(plan: TuplePlan, ctx: EvalContext) -> List[Tuple_]:
    """The plan's tuple stream for the one tuple ``ctx`` describes."""
    return _eval(plan, _scope(ctx), ctx)[0].rows()


def _scope(ctx: EvalContext) -> Batch:
    """The one-row batch a plan evaluated on its own starts from: the
    fields of ``ctx.tuple_stack``, merged."""
    if not ctx.tuple_stack:
        return _ROOT
    merged: Tuple_ = {}
    for tuple_ in ctx.tuple_stack:
        merged.update(tuple_)
    return Batch(1, {name: [sequence] for name, sequence in merged.items()})


def _eval(plan: Plan, batch: Batch, ctx: EvalContext):
    """One operator over a non-empty batch.  Counters and the step
    budget are charged per tuple *activation* (``batch.size``), so they
    read as they would tuple-at-a-time; a span, a ``record_op`` call and
    a clock poll happen once per batch."""
    try:
        kernel = _KERNELS[type(plan)]
    except KeyError:
        raise DynamicError(
            f"cannot evaluate {type(plan).__name__}") from None
    run = ctx.run
    if not run.instrumented:
        return kernel(plan, batch, ctx)
    metrics, governor, trace = run.metrics, run.governor, run.trace
    name = type(plan).__name__
    item = isinstance(plan, ItemPlan)
    if metrics is not None:
        metrics.operator_evals[name] += batch.size
    span = trace.begin_span(name) if trace is not None else None
    try:
        if governor is None:
            result = kernel(plan, batch, ctx)
        else:
            governor.tick(batch.size)
            governor.enter()
            try:
                result = kernel(plan, batch, ctx)
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
        rows = result[0].size
        if metrics is not None:
            metrics.tuples_produced += rows
    if span is not None:
        trace.end_span(span, rows=rows)
        trace.record_op(id(plan), name, span.duration, rows)
    return result


def _dependent(plan: ItemPlan, batch: Batch,
               ctx: EvalContext) -> List[Sequence_]:
    """A dependent sub-plan over the rows its operator's input produced,
    :data:`BLOCK` at a time; never evaluated for no rows (an operator
    that is not activated leaves no trace in the counters)."""
    size = batch.size
    if size <= BLOCK:
        return _eval(plan, batch, ctx) if size else []
    results: List[Sequence_] = []
    for start in range(0, size, BLOCK):
        block = batch.take(range(start, min(start + BLOCK, size)))
        results.extend(_eval(plan, block, ctx))
    return results


def _routed(plans: Sequence[ItemPlan], taken: List[int],
            batch: Batch, ctx: EvalContext) -> List[Sequence_]:
    """Row ``i`` takes branch ``plans[taken[i]]``: evaluate each branch
    over exactly the rows that take it and put the answers back in batch
    order.  The branch of the earliest row goes first, so the error the
    first failing row raises is the one that surfaces."""
    routes: Dict[int, List[int]] = {}
    for index, choice in enumerate(taken):
        routes.setdefault(choice, []).append(index)
    results: list = [None] * batch.size
    for choice, indices in routes.items():
        if len(indices) == batch.size:
            return _eval(plans[choice], batch, ctx)
        answers = _eval(plans[choice], batch.take(indices), ctx)
        for index, sequence in zip(indices, answers):
            results[index] = sequence
    return results


# -- item operators: batch → one sequence per row ----------------------------


def _const(plan: Const, batch, ctx) -> List[Sequence_]:
    return [list(plan.values)] * batch.size


def _var(plan: VarPlan, batch, ctx) -> List[Sequence_]:
    column = batch.column(plan.var)
    if column is None:
        column = [ctx.lookup_var(plan.var)] * batch.size
    return column


def _field(batch: Batch, name: str) -> List[Sequence_]:
    """``IN#name`` of every row."""
    column = batch.column(name)
    if column is None:
        raise DynamicError(f"unknown tuple field {name}")
    return column


def _nodes(sequences: List[Sequence_], otherwise: str) -> List[Sequence_]:
    """The sequences, checked to hold nothing but nodes."""
    for items in sequences:
        for item in items:
            if not isinstance(item, Node):
                raise DynamicError(otherwise)
    return sequences


def _tree_join(plan: TreeJoin, batch, ctx) -> List[Sequence_]:
    axis, test = plan.axis, plan.test
    return [[node for item in items for node in axis_step(item, axis, test)]
            for items in _nodes(_eval(plan.input, batch, ctx),
                                "TreeJoin over a non-node item")]


def _ddo(plan: DDOPlan, batch, ctx) -> List[Sequence_]:
    return [ddo(items) for items in _nodes(_eval(plan.input, batch, ctx),
                                           "fs:ddo over a non-node item")]


def _map_to_item(plan: MapToItem, batch, ctx) -> List[Sequence_]:
    produced, owners = _eval(plan.input, batch, ctx)
    # A row's answer is the one non-empty sequence its produced rows
    # gave, itself (sequences are shared), or a new list of several.
    results: List[Sequence_] = [_EMPTY] * batch.size
    joined = -1     # the row whose answer is a list made here
    for owner, items in zip(owners, _dependent(plan.dep, produced, ctx)):
        if not items:
            continue
        if results[owner] is _EMPTY:
            results[owner] = items
        elif owner == joined:
            results[owner].extend(items)
        else:
            results[owner] = results[owner] + items
            joined = owner
    return results


def _fn_call(plan: FnCall, batch, ctx) -> List[Sequence_]:
    name = plan.name
    if not plan.args:
        return [call_function(name, []) for _ in range(batch.size)]
    args = [_eval(arg, batch, ctx) for arg in plan.args]
    return [call_function(name, list(per_row)) for per_row in zip(*args)]


def _compare(plan: Compare, batch, ctx) -> List[Sequence_]:
    op = plan.op
    left = _eval(plan.left, batch, ctx)
    right = _eval(plan.right, batch, ctx)
    return [_TRUE if general_compare(op, left_items, right_items) else _FALSE
            for left_items, right_items in zip(left, right)]


def _logical(plan: Logical, batch, ctx) -> List[Sequence_]:
    # ``and`` is decided by a false left operand, ``or`` by a true one;
    # the right operand sees only the rows still undecided.
    decided = plan.op == "or"
    results = [_TRUE if decided else _FALSE] * batch.size
    undecided = [
        index for index, left in enumerate(_eval(plan.left, batch, ctx))
        if effective_boolean_value(left) != decided]
    if undecided:
        rest = batch if len(undecided) == batch.size \
            else batch.take(undecided)
        for index, right in zip(undecided, _eval(plan.right, rest, ctx)):
            results[index] = \
                _TRUE if effective_boolean_value(right) else _FALSE
    return results


def _arith(plan: Arith, batch, ctx) -> List[Sequence_]:
    op = plan.op
    left = _eval(plan.left, batch, ctx)
    right = _eval(plan.right, batch, ctx)
    return [arithmetic(op, *pair) for pair in zip(left, right)]


def _if(plan: IfPlan, batch, ctx) -> List[Sequence_]:
    conditions = _eval(plan.condition, batch, ctx)
    return _routed((plan.then_branch, plan.else_branch),
                   [0 if effective_boolean_value(condition) else 1
                    for condition in conditions], batch, ctx)


def _bound(batch: Batch, values: List[Sequence_], *variables: Var) -> Batch:
    """The rows, each with its own value bound to ``variables``."""
    return Batch(batch.size, {var: values for var in variables}, batch)


def _let(plan: LetPlan, batch, ctx) -> List[Sequence_]:
    values = _eval(plan.value, batch, ctx)
    return _eval(plan.body, _bound(batch, values, plan.var), ctx)


def _seq(plan: SeqPlan, batch, ctx) -> List[Sequence_]:
    results: List[Sequence_] = [[] for _ in range(batch.size)]
    for item_plan in plan.items:
        for result, items in zip(results, _eval(item_plan, batch, ctx)):
            result.extend(items)
    return results


def _typeswitch(plan: TypeswitchPlan, batch, ctx) -> List[Sequence_]:
    values = _eval(plan.input, batch, ctx)
    numeric = next((case for case in plan.cases
                    if case.seqtype == "numeric"), None)
    if numeric is None:
        return _eval(plan.default_body,
                     _bound(batch, values, plan.default_var), ctx)
    # Both clause variables are bound on every row: a body reads its
    # own only.
    return _routed((numeric.body, plan.default_body),
                   [0 if _is_numeric_singleton(value) else 1
                    for value in values],
                   _bound(batch, values, numeric.var, plan.default_var),
                   ctx)


def _is_numeric_singleton(value: Sequence_) -> bool:
    return (len(value) == 1 and isinstance(value[0], (int, float))
            and not isinstance(value[0], bool))


# -- tuple operators: batch → (output batch, owners) -------------------------


def _input_tuple(plan: InputTuple, batch, ctx) -> Owned:
    if batch is _ROOT:
        raise DynamicError("IN used outside a dependent plan")
    return batch, range(batch.size)


def _map_from_item(plan: MapFromItem, batch, ctx) -> Owned:
    index_field = plan.index_field
    bound: List[Sequence_] = []
    positions: List[Sequence_] = []
    owners: List[int] = []
    for owner, items in enumerate(_eval(plan.input, batch, ctx)):
        count = len(items)
        if not count:
            continue
        for item in items:
            bound.append((item.singleton or _one(item))
                         if isinstance(item, Node) else [item])
        owners.extend([owner] * count)
        if index_field is not None:
            positions.extend(_POSITIONS[:count])
            if count > len(_POSITIONS):
                positions.extend([index] for index in range(
                    len(_POSITIONS) + 1, count + 1))
    columns = {plan.bind_field: bound}
    if index_field is not None:
        columns[index_field] = positions
    return Batch(len(bound), columns, batch, owners), owners


def _select(plan: Select, batch, ctx) -> Owned:
    produced, owners = _eval(plan.input, batch, ctx)
    kept = [row for row, verdict
            in enumerate(_dependent(plan.predicate, produced, ctx))
            if verdict is _TRUE or (verdict is not _FALSE
                                    and effective_boolean_value(verdict))]
    if len(kept) == produced.size:
        return produced, owners
    return produced.take(kept), [owners[row] for row in kept]


def _ttp(plan: TupleTreePattern, batch, ctx) -> Owned:
    document, strategy, pattern = ctx.document, ctx.strategy, plan.pattern
    if document is None:
        raise DynamicError("TupleTreePattern requires an indexed document")
    inputs, input_owners = _eval(plan.input, batch, ctx)
    if not inputs.size:
        return inputs, input_owners
    contexts = _field(inputs, pattern.input_field)
    out_field = pattern.single_output_field
    # Multi-output patterns and caller-supplied sequences go per row.
    each = out_field is not None and set(map(len, contexts)) == {1}
    if each:
        contexts = list(map(itemgetter(0), contexts))
    if not all(map(isinstance, contexts if each
                   else chain.from_iterable(contexts), repeat(Node))):
        raise DynamicError("tree pattern context is not a node")
    try:
        if each:
            matches, offsets = strategy.evaluate_each(document, contexts,
                                                      pattern, ctx.run)
        else:
            matches = [strategy.evaluate(document, nodes, pattern, ctx.run)
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
    if each:
        # Each match's input row (as many as matches: chaos may drop one).
        rows = list(islice(chain.from_iterable(map(
            repeat, range(len(contexts)), map(sub, offsets[1:], offsets))),
            len(matches)))
        columns = {out_field: [node.singleton or _one(node)
                               for node in document._nodes_at(matches)]}
    else:
        rows, columns = [], {}
        for row, bindings in enumerate(matches):
            for binding in bindings:
                for field_name, node in binding.items():
                    columns.setdefault(field_name, []).append(_one(node))
            rows.extend([row] * len(bindings))
    return (Batch(len(rows), columns, inputs, rows),
            list(map(input_owners.__getitem__, rows)))


_KERNELS: Dict[type, Callable] = {
    Const: _const, VarPlan: _var, TreeJoin: _tree_join, DDOPlan: _ddo,
    FieldAccess: lambda plan, batch, ctx: _field(batch, plan.field),
    MapToItem: _map_to_item,
    FnCall: _fn_call, Compare: _compare, Logical: _logical, Arith: _arith,
    IfPlan: _if, LetPlan: _let, SeqPlan: _seq, TypeswitchPlan: _typeswitch,
    InputTuple: _input_tuple, MapFromItem: _map_from_item,
    Select: _select, TupleTreePattern: _ttp,
}
