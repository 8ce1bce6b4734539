"""Type rewritings (paper Section 3, "Type rewritings").

Two rules over ``typeswitch`` expressions, driven by the static type of
the scrutinee:

* *dead case*: if ``type(E0) ∩ Type1 = ∅`` the case clause can never be
  selected and is removed;
* *sure case*: if ``type(E0) ⊂ Type1`` the first case is always selected
  and the typeswitch collapses to ``let $v1 := E0 return Expr1``.

When every case clause of a typeswitch has been removed, the default
clause is all that remains and the typeswitch likewise collapses to a
``let``.  In the paper's pipeline this is what turns the positional
dispatch produced by predicate normalization into either a plain
``fn:boolean`` filter (non-numeric predicates) or a position comparison
(numeric predicates).
"""

from __future__ import annotations

from typing import List

from ..typing import ItemType, TypeEnv, TypeMemo, infer_type
from ..xqcore.cast import CaseClause, CExpr, CFor, CLet, CTypeswitch, Var
from .pipeline import CorePass


def rewrite_typeswitches(expr: CExpr) -> CExpr:
    """Apply both typeswitch rules everywhere, threading a type env."""
    return _Typeswitch().run(expr, None)


class _Typeswitch(CorePass):
    def __init__(self) -> None:
        super().__init__()
        self.types: TypeMemo = {}
        self.type_env = TypeEnv(self.env)

    def bind(self, node: CExpr, var: Var, done: List[CExpr]) -> ItemType:
        if isinstance(node, CTypeswitch):
            for case in node.cases:
                if case.var is var:
                    numeric = case.seqtype == "numeric"
                    return ItemType.NUMERIC if numeric else ItemType.ANY
        elif isinstance(node, CFor) and var is node.position_var:
            return ItemType.NUMERIC
        # a let or for variable, or the default clause's: the value's type
        return infer_type(done[0], self.type_env, self.types)

    def _typeswitch(self, expr: CTypeswitch, ctx: None) -> CExpr:
        input_type = infer_type(expr.input, self.type_env, self.types)
        remaining: list[CaseClause] = []
        for case in expr.cases:
            if case.seqtype != "numeric":
                remaining.append(case)
                continue
            if input_type.is_disjoint_from_numeric():
                # Dead case: drop the clause entirely.
                continue
            if input_type.is_subtype_of_numeric() and not remaining:
                # Sure case: the first remaining clause is always selected.
                return CLet(case.var, expr.input, case.body)
            remaining.append(case)
        if not remaining:
            return CLet(expr.default_var, expr.input, expr.default_body)
        if len(remaining) == len(expr.cases):
            return expr
        return CTypeswitch(expr.input, remaining, expr.default_var,
                           expr.default_body)

    post = {CTypeswitch: _typeswitch}
