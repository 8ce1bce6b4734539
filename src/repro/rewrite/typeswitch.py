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

from ..typing import ItemType, TypeEnv, TypeMemo, infer_type
from ..xqcore.cast import (CaseClause, CExpr, CFor, CLet, CTypeswitch, CVar)


def rewrite_typeswitches(expr: CExpr) -> CExpr:
    """Apply both typeswitch rules everywhere, threading a type env."""
    return _rewrite(expr, TypeEnv(), {})


def _rewrite(expr: CExpr, env: TypeEnv, memo: TypeMemo) -> CExpr:
    """``memo``: the types inferred so far in this traversal (each node is
    typed once per pass; see :data:`repro.typing.types.TypeMemo`)."""
    expr = _rewrite_children(expr, env, memo)
    if not isinstance(expr, CTypeswitch):
        return expr
    input_type = infer_type(expr.input, env, memo)
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


def _rewrite_children(expr: CExpr, env: TypeEnv,
                      memo: TypeMemo) -> CExpr:
    """Recurse into children with the right type bindings in scope."""
    if isinstance(expr, CLet):
        value = _rewrite(expr.value, env, memo)
        inner = env.bind(expr.var, infer_type(value, env, memo))
        body = _rewrite(expr.body, inner, memo)
        if value is expr.value and body is expr.body:
            return expr
        return CLet(expr.var, value, body)
    if isinstance(expr, CFor):
        source = _rewrite(expr.source, env, memo)
        inner = env.bind(expr.var, infer_type(source, env, memo))
        if expr.position_var is not None:
            inner = inner.bind(expr.position_var, ItemType.NUMERIC)
        where = (None if expr.where is None
                 else _rewrite(expr.where, inner, memo))
        body = _rewrite(expr.body, inner, memo)
        if source is expr.source and where is expr.where and body is expr.body:
            return expr
        return CFor(expr.var, expr.position_var, source, where, body)
    if isinstance(expr, CTypeswitch):
        input_expr = _rewrite(expr.input, env, memo)
        input_type = infer_type(input_expr, env, memo)
        cases = []
        changed = input_expr is not expr.input
        for case in expr.cases:
            case_type = (ItemType.NUMERIC if case.seqtype == "numeric"
                         else ItemType.ANY)
            body = _rewrite(case.body, env.bind(case.var, case_type), memo)
            changed = changed or body is not case.body
            cases.append(CaseClause(case.seqtype, case.var, body))
        default_body = _rewrite(expr.default_body,
                                env.bind(expr.default_var, input_type), memo)
        changed = changed or default_body is not expr.default_body
        if not changed:
            return expr
        return CTypeswitch(input_expr, cases, expr.default_var, default_body)
    children = expr.children()
    if not children:
        return expr
    new_children = [_rewrite(child, env, memo) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.replace_children(new_children)
