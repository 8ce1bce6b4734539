"""The tuple algebra, extended with ``TupleTreePattern`` (paper Section 4).

The algebra is two-sorted, following [28] (Re, Siméon & Fernández):

* *item plans* produce sequences of XDM items;
* *tuple plans* produce streams of tuples (finite maps from field names
  to item sequences).

Dependent sub-plans (written in curly braces in the paper's functional
notation) are evaluated once per tuple/item of the operator's input;
``IN`` denotes the current tuple (the :class:`InputTuple` leaf for
tuple-sorted positions, :class:`FieldAccess` for field reads).

The operator set:

=====================  ======  ====================================================
operator               sort    meaning
=====================  ======  ====================================================
``Const``              item    a constant sequence
``VarPlan``            item    a variable (external binding or ``LetPlan``)
``FieldAccess``        item    ``IN#f`` — read field ``f`` of the current tuple
``TreeJoin``           item    navigational step ``axis::test`` over an item plan
``DDOPlan``            item    ``fs:ddo`` — document order + duplicate removal
``MapToItem``          item    concatenate a dependent item plan over tuples
``FnCall``             item    built-in function call
``Compare``            item    general comparison (existential)
``Logical``            item    ``and`` / ``or`` over effective boolean values
``Arith``              item    arithmetic
``IfPlan``             item    conditional
``LetPlan``            item    local binding
``SeqPlan``            item    sequence construction
``TypeswitchPlan``     item    residual runtime type dispatch
``InputTuple``         tuple   ``IN`` — the current tuple, as a one-tuple stream
``MapFromItem``        tuple   build ``[field : IN]`` tuples from an item plan
``Select``             tuple   filter tuples by a dependent predicate
``TupleTreePattern``   tuple   the paper's tree-pattern operator
=====================  ======  ====================================================

An operator names its child fields once, in ``child_fields``
(``MapToItem``: ``("dep", "input")``), and inherits ``children()`` and
``replace_children()`` from :class:`repro.xqcore.cast.Term`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..pattern import TreePattern
from ..xmltree.axes import Axis
from ..xmltree.nodetest import NodeTest
from ..xqcore.cast import Term, Var, count_nodes, walk


class Plan(Term):
    """Base class of all algebraic operators."""

    sort = "item"  # overridden to "tuple" by tuple operators


class ItemPlan(Plan):
    sort = "item"


class TuplePlan(Plan):
    sort = "tuple"


# -- item operators -----------------------------------------------------------


@dataclass
class Const(ItemPlan):
    """A constant item sequence."""

    values: Tuple[Union[str, int, float, bool], ...]


@dataclass
class VarPlan(ItemPlan):
    """A variable reference (external binding or ``LetPlan`` binding)."""

    var: Var


@dataclass
class FieldAccess(ItemPlan):
    """``IN#field`` — the field's item sequence in the current tuple."""

    field: str


@dataclass
class TreeJoin(ItemPlan):
    """Navigational step: apply ``axis::test`` to each input item."""

    axis: Axis
    test: NodeTest
    input: ItemPlan
    child_fields = ("input",)


@dataclass
class DDOPlan(ItemPlan):
    """``fs:ddo`` over an item plan."""

    input: ItemPlan
    child_fields = ("input",)


@dataclass
class MapToItem(ItemPlan):
    """Evaluate ``dep`` per input tuple, concatenating the results."""

    dep: ItemPlan
    input: TuplePlan
    child_fields = ("dep", "input")


@dataclass
class FnCall(ItemPlan):
    name: str
    args: List[ItemPlan]
    child_fields = ("args",)


@dataclass
class Compare(ItemPlan):
    op: str
    left: ItemPlan
    right: ItemPlan
    child_fields = ("left", "right")


@dataclass
class Logical(ItemPlan):
    op: str
    left: ItemPlan
    right: ItemPlan
    child_fields = ("left", "right")


@dataclass
class Arith(ItemPlan):
    op: str
    left: ItemPlan
    right: ItemPlan
    child_fields = ("left", "right")


@dataclass
class IfPlan(ItemPlan):
    condition: ItemPlan
    then_branch: ItemPlan
    else_branch: ItemPlan
    child_fields = ("condition", "then_branch", "else_branch")


@dataclass
class LetPlan(ItemPlan):
    var: Var
    value: ItemPlan
    body: ItemPlan
    child_fields = ("value", "body")


@dataclass
class SeqPlan(ItemPlan):
    items: List[ItemPlan]
    child_fields = ("items",)


@dataclass
class TypeswitchCase:
    seqtype: str
    var: Var
    body: ItemPlan


@dataclass
class TypeswitchPlan(ItemPlan):
    """Residual runtime type dispatch (rarely survives optimization)."""

    input: ItemPlan
    cases: List[TypeswitchCase]
    default_var: Var
    default_body: ItemPlan

    def children(self) -> Sequence[Plan]:
        parts: list[Plan] = [self.input]
        parts.extend(case.body for case in self.cases)
        parts.append(self.default_body)
        return parts

    def replace_children(self, new_children: Sequence[Plan]) -> "TypeswitchPlan":
        input_plan = new_children[0]
        bodies = new_children[1:-1]
        default_body = new_children[-1]
        cases = [TypeswitchCase(case.seqtype, case.var, body)
                 for case, body in zip(self.cases, bodies)]
        return TypeswitchPlan(input_plan, cases, self.default_var, default_body)


# -- tuple operators ----------------------------------------------------------


@dataclass
class InputTuple(TuplePlan):
    """``IN`` in tuple position: the current tuple as a one-tuple stream."""


@dataclass
class MapFromItem(TuplePlan):
    """``MapFromItem{[field : IN]}(input)`` — one tuple per input item.

    ``index_field``, when set, additionally binds the 1-based position of
    the item (used to compile ``for ... at $i``).
    """

    bind_field: str
    input: ItemPlan
    index_field: Optional[str] = None
    child_fields = ("input",)


@dataclass
class Select(TuplePlan):
    """Keep the tuples whose dependent predicate has EBV true."""

    predicate: ItemPlan
    input: TuplePlan
    child_fields = ("predicate", "input")


@dataclass
class TupleTreePattern(TuplePlan):
    """The tree-pattern operator (paper Section 4.1).

    For each input tuple, evaluates the pattern against the context
    nodes held in the pattern's input field and emits one output tuple
    per match: the input tuple extended with the pattern's output
    fields.  With a single output field on the extraction point, the
    per-tuple result follows XPath semantics (document order, no
    duplicates); with several output fields, bindings come in
    root-to-leaf lexical order, consistent with TwigJoins.
    """

    pattern: TreePattern
    input: TuplePlan
    child_fields = ("input",)


#: the Core functions, which walk any :class:`repro.xqcore.cast.Term`.
walk_plan = walk
count_operators = count_nodes
