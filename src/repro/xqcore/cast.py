"""XQuery Core AST.

The Core is the target of normalization (paper Section 2): a small
explicitly-scoped calculus with ``let``, ``for`` (with optional
positional variable and ``where`` clause, as in the paper's examples),
``typeswitch``, conditionals, navigation steps, calls to built-in
functions, and the special function ``fs:distinct-doc-order`` (``ddo``).

Variables are *identity-based*: every binder introduces a fresh
:class:`Var` object, so rewrites never capture.  Display names (``dot``,
``seq``, ``position``, ``last``, …) are kept for pretty-printing in the
paper's concrete syntax.

Every Core class and plan operator (:mod:`repro.algebra.ops`) derives
from :class:`Term`: a new node class is a dataclass that names its child
fields once, in field order (``child_fields = ("left", "right")``), and
inherits ``children()`` and ``replace_children()`` written from that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_not
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..xmltree.axes import Axis
from ..xmltree.nodetest import NodeTest

_var_counter = itertools.count(1)


class Var:
    """A core variable with a stable identity.

    ``origin`` records provenance: ``"user"`` for variables written in
    the query, ``"external"`` for free query variables bound by the
    engine (always nodes in this engine), and ``"focus"`` for the
    normalization-introduced context variables (``$dot``, ``$seq``,
    ``$position``, ``$last``), whose types are known by construction.
    """

    __slots__ = ("name", "uid", "origin")

    def __init__(self, name: str, uid: Optional[int] = None,
                 origin: str = "user") -> None:
        self.name = name
        self.uid = uid if uid is not None else next(_var_counter)
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"${self.name}_{self.uid}"

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.uid == self.uid


def fresh_var(name: str, origin: str = "user") -> Var:
    return Var(name, origin=origin)


class Term:
    """Base of Core expressions and plan operators.  ``children()`` lists
    a node's children in field order; ``replace_children(new)`` builds a
    new node of the same class, leaves too, with ``new`` in their place.
    Both are written for each class, when it is made, from its
    ``child_fields``; a class that writes its own pair keeps it."""

    #: the fields that hold children, in field order.  A ``List[...]``
    #: field, the class's only one, stands for all of its elements; an
    #: ``Optional[...]`` field, at most one, counts when it is not None.
    child_fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "children" in cls.__dict__:
            return
        # Generated source, as dataclasses writes __init__: as fast as
        # the same code by hand.  The annotations give the field order.
        kids = cls.child_fields
        fields = cls.__dict__.get("__annotations__", {})
        get = "(" + "".join(f"self.{name}, " for name in kids) + ")"
        put = "(" + "".join(f"{name}, " for name in kids) + ") = new_children"
        for index, name in enumerate(kids):
            if fields[name].startswith("List["):   # the one child field
                get, put = f"self.{name}", f"{name} = list(new_children)"
            elif fields[name].startswith("Optional["):
                short = get.replace(f"self.{name}, ", "")
                get = f"{short} if self.{name} is None else {get}"
                put += (f" if self.{name} is not None else (*new_children"
                        f"[:{index}], None, *new_children[{index}:])")
        call = ", ".join(name if name in kids else f"self.{name}"
                         for name in fields)
        namespace: Dict[str, object] = {}
        exec(f"def children(self):\n    return {get}\n"
             f"def replace_children(self, new_children):\n    {put}\n"
             f"    return cls({call})\n", {"cls": cls}, namespace)
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)


class CExpr(Term):
    """Base class of core expressions."""

    def bound_vars(self) -> Sequence[Var]:
        """Variables bound *by this node* (scoping over some children)."""
        return ()


@dataclass
class CLit(CExpr):
    """A literal constant (string, int, float or bool)."""

    value: Union[str, int, float, bool]


@dataclass
class CEmpty(CExpr):
    """The empty sequence ``()``."""


@dataclass
class CVar(CExpr):
    """A variable reference."""

    var: Var


@dataclass
class CSeq(CExpr):
    """Sequence construction ``E1, E2, ...``."""

    items: List[CExpr]
    child_fields = ("items",)


@dataclass
class CLet(CExpr):
    """``let $var := value return body``."""

    var: Var
    value: CExpr
    body: CExpr
    child_fields = ("value", "body")

    def bound_vars(self) -> Sequence[Var]:
        return (self.var,)


@dataclass
class CFor(CExpr):
    """``for $var (at $pos)? in source (where cond)? return body``.

    The optional ``where`` clause is part of the node, exactly as in the
    paper's core examples (Q1a-n line 11), because the loop-split and
    tree-pattern rewrites treat the filtered loop as one unit.
    """

    var: Var
    position_var: Optional[Var]
    source: CExpr
    where: Optional[CExpr]
    body: CExpr
    child_fields = ("source", "where", "body")

    def bound_vars(self) -> Sequence[Var]:
        if self.position_var is not None:
            return (self.var, self.position_var)
        return (self.var,)


@dataclass
class CIf(CExpr):
    """``if (cond) then t else e`` — cond uses effective boolean value."""

    condition: CExpr
    then_branch: CExpr
    else_branch: CExpr
    child_fields = ("condition", "then_branch", "else_branch")


@dataclass
class CStep(CExpr):
    """A navigation step ``input/axis::test`` from every node of ``input``.

    The dynamic semantics is the XPath step applied to each item of the
    input sequence in turn, concatenating results in input order — the
    navigational primitive that compiles to the ``TreeJoin`` operator.
    With a *single* context node the result is in document order and
    duplicate-free.
    """

    axis: Axis
    test: NodeTest
    input: CExpr
    child_fields = ("input",)


@dataclass
class CDDO(CExpr):
    """``fs:distinct-doc-order(arg)`` — sort by document order + dedup."""

    arg: CExpr
    child_fields = ("arg",)


@dataclass
class CCall(CExpr):
    """A call to a built-in function (``fn:count``, ``fn:boolean``, …)."""

    name: str
    args: List[CExpr]
    child_fields = ("args",)


@dataclass
class CGenCmp(CExpr):
    """General comparison with existential semantics over atomized values."""

    op: str  # "=" "!=" "<" "<=" ">" ">="
    left: CExpr
    right: CExpr
    child_fields = ("left", "right")


@dataclass
class CArith(CExpr):
    """Arithmetic on atomized singletons (empty-propagating)."""

    op: str  # "+" "-" "*" "div" "mod"
    left: CExpr
    right: CExpr
    child_fields = ("left", "right")


@dataclass
class CLogical(CExpr):
    """``and`` / ``or`` over effective boolean values."""

    op: str  # "and" | "or"
    left: CExpr
    right: CExpr
    child_fields = ("left", "right")


@dataclass
class CaseClause:
    """One ``case $var as seqtype return body`` clause.

    ``seqtype`` is a coarse sequence type from the small type system in
    :mod:`repro.typing` — the paper only needs ``numeric()``.
    """

    seqtype: str
    var: Var
    body: CExpr


@dataclass
class CTypeswitch(CExpr):
    """``typeswitch (input) case ... default $var return body``."""

    input: CExpr
    cases: List[CaseClause]
    default_var: Var
    default_body: CExpr

    def children(self) -> Sequence[CExpr]:
        parts: list[CExpr] = [self.input]
        parts.extend(case.body for case in self.cases)
        parts.append(self.default_body)
        return parts

    def replace_children(self, new_children: Sequence[CExpr]) -> "CTypeswitch":
        input_expr = new_children[0]
        case_bodies = new_children[1:-1]
        default_body = new_children[-1]
        cases = [CaseClause(case.seqtype, case.var, body)
                 for case, body in zip(self.cases, case_bodies)]
        return CTypeswitch(input_expr, cases, self.default_var, default_body)

    def bound_vars(self) -> Sequence[Var]:
        return tuple(case.var for case in self.cases) + (self.default_var,)


# -- traversal utilities -------------------------------------------------------


def walk(expr: Term) -> Iterable[Term]:
    """All nodes of a Core expression or a plan, pre-order, including
    ``expr`` itself (``repro.algebra.walk_plan`` is this function)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def free_vars(expr: CExpr) -> set[Var]:
    """The free variables of ``expr``.

    Because binders are identity-based, shadowing cannot occur and the
    computation is a simple set difference over the whole tree.
    """
    used: set[Var] = set()
    bound: set[Var] = set()
    for node in walk(expr):
        if isinstance(node, CVar):
            used.add(node.var)
        bound.update(node.bound_vars())
    return used - bound


def usage_count(expr: CExpr, var: Var) -> int:
    """How many times ``var`` is referenced in ``expr``.

    This is the auxiliary judgment of the paper's FLWOR rewritings.
    Occurrences inside loops count as *many* (2) because inlining a
    non-trivial expression into a loop body would duplicate work and,
    for ``at``-counted loops, change positions — matching the usage
    analysis implemented in Galax.
    """

    def count(node: CExpr, multiplier: int) -> int:
        if isinstance(node, CVar):
            return multiplier if node.var == var else 0
        total = 0
        if isinstance(node, CFor):
            total += count(node.source, multiplier)
            inner = 2  # conservatively "many" inside the loop
            if node.where is not None:
                total += count(node.where, inner)
            total += count(node.body, inner)
            return total
        for child in node.children():
            total += count(child, multiplier)
        return total

    return count(expr, 1)


#: ``id(node)`` → (node, its :func:`usage_counts`); lives for one traversal.
UsageMemo = Dict[int, Tuple[CExpr, Dict[Var, int]]]


def usage_counts(expr: CExpr, memo: UsageMemo) -> Dict[Var, int]:
    """:func:`usage_count` of every free variable of ``expr`` at once,
    saturating at 2 ("many"); the keys are exactly :func:`free_vars`.

    Computed bottom-up and remembered per node in ``memo``, so a pass
    that asks at every binder walks each node once.  The entry holds the
    node, which keeps its ``id`` from being reused while the memo lives.
    """
    if isinstance(expr, CVar):
        return {expr.var: 1}
    known = memo.get(id(expr))
    if known is not None:
        return known[1]
    counts: Dict[Var, int] = {}
    loop = isinstance(expr, CFor)
    for index, child in enumerate(expr.children()):
        if loop and index:   # a loop's where and body count as many
            counts.update(dict.fromkeys(usage_counts(child, memo), 2))
            continue
        for var, uses in usage_counts(child, memo).items():
            uses += counts.get(var, 0)
            counts[var] = 2 if uses > 2 else uses
    for var in expr.bound_vars():
        counts.pop(var, None)
    memo[id(expr)] = (expr, counts)
    return counts


def substitute(expr: CExpr, var: Var, replacement: CExpr) -> CExpr:
    """Capture-free substitution ``[expr | var => replacement]``.

    Binder identities make capture impossible; the replacement is shared
    (not copied), which is safe because rewrites only inline single-use
    bindings or bindings of binder-free expressions.
    """
    if isinstance(expr, CVar):
        return replacement if expr.var == var else expr
    children = expr.children()
    if not children:
        return expr
    new_children = [substitute(child, var, replacement) for child in children]
    if any(map(is_not, new_children, children)):
        return expr.replace_children(new_children)
    return expr


def count_nodes(expr: Term, kind: type | None = None) -> int:
    """Number of nodes (optionally of one class) of a Core expression or
    a plan (``repro.algebra.count_operators`` is this function)."""
    if kind is None:
        return sum(1 for _ in walk(expr))
    return sum(1 for node in walk(expr) if isinstance(node, kind))


def smart_ddo(expr: CExpr) -> CExpr:
    """Build ``ddo(expr)``, collapsing ``ddo(ddo(E))`` to ``ddo(E)``."""
    if isinstance(expr, CDDO):
        return expr
    return CDDO(expr)


def ebv_call(expr: CExpr) -> CExpr:
    """Wrap in ``fn:boolean`` unless already boolean-producing."""
    if isinstance(expr, (CGenCmp, CLogical)):
        return expr
    if isinstance(expr, CCall) and expr.name in (
            "fn:boolean", "fn:exists", "fn:empty", "fn:not", "fn:true",
            "fn:false"):
        return expr
    if isinstance(expr, CLit) and isinstance(expr.value, bool):
        return expr
    return CCall("fn:boolean", [expr])
