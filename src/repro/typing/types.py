"""A small static type system for Core expressions.

The paper's type rewritings (Section 3) need exactly enough typing to
decide, for a ``typeswitch`` scrutinee, whether its type is *disjoint
from* or *subsumed by* ``numeric()``.  We use a coarse item-type lattice:

    EMPTY < {NUMERIC, NODES, BOOLEAN, STRING} < ANY

``EMPTY`` is the type of the empty sequence, ``ANY`` means statically
unknown.  Sequence cardinalities are not tracked — the two typeswitch
rules only require item-type information (an empty sequence never
matches ``numeric()`` either, so ``EMPTY`` counts as disjoint).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

from ..xqcore.cast import (CCall, CDDO, CEmpty, CExpr, CFor, CGenCmp, CIf,
                           CArith, CLet, CLit, CLogical, CSeq, CStep,
                           CTypeswitch, CVar, Var)


class ItemType(Enum):
    EMPTY = "empty"
    NUMERIC = "numeric"
    NODES = "nodes"
    BOOLEAN = "boolean"
    STRING = "string"
    ANY = "any"

    def union(self, other: "ItemType") -> "ItemType":
        if self is other:
            return self
        if self is ItemType.EMPTY:
            return other
        if other is ItemType.EMPTY:
            return self
        return ItemType.ANY

    def is_disjoint_from_numeric(self) -> bool:
        """Sound check for the dead-case typeswitch rule."""
        return self in (ItemType.NODES, ItemType.BOOLEAN, ItemType.STRING,
                        ItemType.EMPTY)

    def is_subtype_of_numeric(self) -> bool:
        """Sound check for the sure-case typeswitch rule."""
        return self is ItemType.NUMERIC


_FUNCTION_TYPES: Dict[str, ItemType] = {
    "fn:count": ItemType.NUMERIC,
    "fn:sum": ItemType.NUMERIC,
    "fn:avg": ItemType.NUMERIC,
    "fn:min": ItemType.ANY,
    "fn:max": ItemType.ANY,
    "fn:number": ItemType.NUMERIC,
    "fn:string-length": ItemType.NUMERIC,
    "op:to": ItemType.NUMERIC,
    "fn:boolean": ItemType.BOOLEAN,
    "fn:not": ItemType.BOOLEAN,
    "fn:exists": ItemType.BOOLEAN,
    "fn:empty": ItemType.BOOLEAN,
    "fn:contains": ItemType.BOOLEAN,
    "fn:starts-with": ItemType.BOOLEAN,
    "fn:true": ItemType.BOOLEAN,
    "fn:false": ItemType.BOOLEAN,
    "fn:string": ItemType.STRING,
    "fn:name": ItemType.STRING,
    "fn:local-name": ItemType.STRING,
    "fn:concat": ItemType.STRING,
    "fn:root": ItemType.NODES,
    "fn:doc": ItemType.NODES,
    "op:union": ItemType.NODES,
    "fn:reverse": ItemType.ANY,
    "fn:subsequence": ItemType.ANY,
    "fn:distinct-values": ItemType.ANY,
    "fn:data": ItemType.ANY,
    "fn:zero-or-one": ItemType.ANY,
    "fn:exactly-one": ItemType.ANY,
}


class TypeEnv:
    """Maps variables to item types.  Holds ``bindings`` itself, not a
    copy: a rewriting pass types against the environment it grows."""

    def __init__(self, bindings: Dict[Var, ItemType] | None = None) -> None:
        self.bindings = {} if bindings is None else bindings

    def bind(self, var: Var, item_type: ItemType) -> "TypeEnv":
        return TypeEnv({**self.bindings, var: item_type})

    def lookup(self, var: Var) -> ItemType:
        return self.bindings.get(var, ItemType.ANY)


#: ``id(node)`` → (node, its type), for the nodes typed so far in one
#: traversal; same lifetime rule as :data:`repro.rewrite.facts.FactsMemo`
#: (a rewritten binding changes its variable's type).
TypeMemo = Dict[int, Tuple[CExpr, ItemType]]


def infer_type(expr: CExpr, env: TypeEnv | None = None,
               memo: TypeMemo | None = None) -> ItemType:
    """Infer the coarse item type of a core expression.

    Global (externally bound) variables default to ``NODES`` because in
    this engine external variables always hold documents or nodes —
    matching Galax, where the typeswitch rules rely on the static type of
    the document.  A rewriting pass hands all its calls one ``memo``.
    """
    return _infer(expr, env or TypeEnv(), {} if memo is None else memo)


def _infer(expr: CExpr, env: TypeEnv, memo: TypeMemo) -> ItemType:
    if isinstance(expr, (CSeq, CLet, CFor, CIf, CTypeswitch)):
        known = memo.get(id(expr))
        if known is None:
            known = memo[id(expr)] = (expr, _infer_nested(expr, env, memo))
        return known[1]
    if isinstance(expr, CLit):
        if isinstance(expr.value, bool):
            return ItemType.BOOLEAN
        if isinstance(expr.value, (int, float)):
            return ItemType.NUMERIC
        return ItemType.STRING
    if isinstance(expr, CEmpty):
        return ItemType.EMPTY
    if isinstance(expr, CVar):
        bound = env.bindings.get(expr.var)
        if bound is not None:
            return bound
        return _default_var_type(expr.var)
    if isinstance(expr, (CStep, CDDO)):
        return ItemType.NODES
    if isinstance(expr, CCall):
        return _FUNCTION_TYPES.get(expr.name, ItemType.ANY)
    if isinstance(expr, (CGenCmp, CLogical)):
        return ItemType.BOOLEAN
    if isinstance(expr, CArith):
        return ItemType.NUMERIC
    return ItemType.ANY


def _infer_nested(expr: CExpr, env: TypeEnv, memo: TypeMemo) -> ItemType:
    """The types that depend on sub-expressions (the five classes
    :func:`_infer` remembers)."""
    if isinstance(expr, CSeq):
        result = ItemType.EMPTY
        for item in expr.items:
            result = result.union(_infer(item, env, memo))
        return result
    if isinstance(expr, CLet):
        value_type = _infer(expr.value, env, memo)
        return _infer(expr.body, env.bind(expr.var, value_type), memo)
    if isinstance(expr, CFor):
        source_type = _infer(expr.source, env, memo)
        inner = env.bind(expr.var, source_type)
        if expr.position_var is not None:
            inner = inner.bind(expr.position_var, ItemType.NUMERIC)
        return _infer(expr.body, inner, memo)
    if isinstance(expr, CIf):
        return _infer(expr.then_branch, env, memo).union(
            _infer(expr.else_branch, env, memo))
    # CTypeswitch: the union of its clauses.
    result = ItemType.EMPTY
    input_type = _infer(expr.input, env, memo)
    for case in expr.cases:
        case_type = (ItemType.NUMERIC if case.seqtype == "numeric"
                     else ItemType.ANY)
        result = result.union(
            _infer(case.body, env.bind(case.var, case_type), memo))
    return result.union(
        _infer(expr.default_body,
               env.bind(expr.default_var, input_type), memo))


def _default_var_type(var: Var) -> ItemType:
    """Fallback typing for variables bound outside the expression.

    Normalization-introduced focus variables carry their types by
    construction; external query variables hold documents (nodes) in
    this engine; user variables whose binder we have not seen stay
    untyped (``ANY``) so that no typeswitch rule fires unsoundly.
    """
    if var.origin == "focus":
        if var.name in ("position", "last"):
            return ItemType.NUMERIC
        return ItemType.NODES
    if var.origin == "external":
        return ItemType.NODES
    return ItemType.ANY
