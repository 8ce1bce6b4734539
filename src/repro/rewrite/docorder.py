"""Document order rewritings (paper Section 3, "Document order rewritings").

Removes redundant calls to ``fs:distinct-doc-order`` (``ddo``) using the
two halves of the analysis in the paper's [19]:

* the *fact* half (:mod:`repro.rewrite.facts`): ``ddo(E)`` is the
  identity when ``E`` is statically sorted and duplicate-free;
* the *context* half (this module): ``ddo(E)`` can be dropped when the
  value only flows into consumers that are insensitive to order and
  (node-)duplicates — an enclosing ``ddo`` along the sequence spine, an
  effective-boolean-value test (``fn:boolean``/``where``/``if``), or an
  existential general comparison.

The insensitivity flag is propagated top-down along the "spine" through
which the sequence value reaches its consumer:

=================== ==========================================================
construct           propagation
=================== ==========================================================
``ddo(E)``          E is insensitive (the ddo re-sorts and dedups anyway)
``for``             body inherits; source inherits when there is no ``at``
                    variable (dropping source duplicates only drops duplicate
                    iterations, whose node results a downstream dedup removes);
                    ``where`` is an EBV consumer, hence insensitive
``let``             body inherits; the bound value is conservatively sensitive
``if``              the condition is an EBV consumer; branches inherit
``E1, E2``          items inherit
steps               the step input inherits (per-item results concatenate)
``fn:boolean`` etc. argument insensitive (EBV never depends on node order or
                    node duplicates: reordering an all-node sequence keeps its
                    EBV, and ddo is a type error on non-node sequences)
comparisons         both operands insensitive (existential semantics)
``fn:count``        argument *sensitive* (duplicates change the count)
everything else     sensitive
=================== ==========================================================
"""

from __future__ import annotations

from typing import Dict

from ..xqcore.cast import (CCall, CDDO, CExpr, CFor, CGenCmp, CIf, CLet,
                           CLogical, CSeq, CStep, CTypeswitch, Var)
from .facts import (Facts, FactsMemo, SINGLETON, UNKNOWN,
                    sequence_facts)

#: built-ins that consume only the effective boolean value of their argument.
_EBV_FUNCTIONS = frozenset({"fn:boolean", "fn:exists", "fn:empty", "fn:not"})


def remove_redundant_ddo(expr: CExpr) -> CExpr:
    """Remove every ``ddo`` proven redundant; the top level is sensitive."""
    return _rewrite(expr, False, {}, {})


def _rewrite(expr: CExpr, insensitive: bool, env: Dict[Var, Facts],
             memo: FactsMemo) -> CExpr:
    """``memo``: the facts derived so far in this traversal (each node is
    analysed once per pass; see :data:`repro.rewrite.facts.FactsMemo`)."""
    if isinstance(expr, CDDO):
        arg = _rewrite(expr.arg, True, env, memo)
        if insensitive or sequence_facts(arg, env, memo).ord_nodup:
            return arg
        if arg is expr.arg:
            return expr
        return CDDO(arg)
    if isinstance(expr, CLet):
        value = _rewrite(expr.value, False, env, memo)
        inner = {**env, expr.var: sequence_facts(value, env, memo)}
        body = _rewrite(expr.body, insensitive, inner, memo)
        if value is expr.value and body is expr.body:
            return expr
        return CLet(expr.var, value, body)
    if isinstance(expr, CFor):
        source_insensitive = insensitive and expr.position_var is None
        source = _rewrite(expr.source, source_insensitive, env, memo)
        inner = dict(env)
        inner[expr.var] = SINGLETON
        if expr.position_var is not None:
            inner[expr.position_var] = SINGLETON
        where = (None if expr.where is None
                 else _rewrite(expr.where, True, inner, memo))
        body = _rewrite(expr.body, insensitive, inner, memo)
        if source is expr.source and where is expr.where and body is expr.body:
            return expr
        return CFor(expr.var, expr.position_var, source, where, body)
    if isinstance(expr, CIf):
        condition = _rewrite(expr.condition, True, env, memo)
        then_branch = _rewrite(expr.then_branch, insensitive, env, memo)
        else_branch = _rewrite(expr.else_branch, insensitive, env, memo)
        if (condition is expr.condition and then_branch is expr.then_branch
                and else_branch is expr.else_branch):
            return expr
        return CIf(condition, then_branch, else_branch)
    if isinstance(expr, CStep):
        input_expr = _rewrite(expr.input, insensitive, env, memo)
        if input_expr is expr.input:
            return expr
        return CStep(expr.axis, expr.test, input_expr)
    if isinstance(expr, CSeq):
        items = [_rewrite(item, insensitive, env, memo)
                 for item in expr.items]
        if all(new is old for new, old in zip(items, expr.items)):
            return expr
        return CSeq(items)
    if isinstance(expr, CCall):
        if expr.name in _EBV_FUNCTIONS and len(expr.args) == 1:
            arg = _rewrite(expr.args[0], True, env, memo)
            if arg is expr.args[0]:
                return expr
            return CCall(expr.name, [arg])
        args = [_rewrite(arg, False, env, memo)
                for arg in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return CCall(expr.name, args)
    if isinstance(expr, CGenCmp):
        left = _rewrite(expr.left, True, env, memo)
        right = _rewrite(expr.right, True, env, memo)
        if left is expr.left and right is expr.right:
            return expr
        return CGenCmp(expr.op, left, right)
    if isinstance(expr, CLogical):
        left = _rewrite(expr.left, True, env, memo)
        right = _rewrite(expr.right, True, env, memo)
        if left is expr.left and right is expr.right:
            return expr
        return CLogical(expr.op, left, right)
    if isinstance(expr, CTypeswitch):
        # The scrutinee value is re-consumed through the clause
        # variables: stay conservative on it.  The clause bodies inherit,
        # under the bindings sequence_facts gives their variables.
        inner = {**env, **dict.fromkeys(expr.bound_vars(), UNKNOWN)}
        children = expr.children()
        new_children = [_rewrite(children[0], False, env, memo)] + [
            _rewrite(body, insensitive, inner, memo)
            for body in children[1:]]
        if all(new is old for new, old in zip(new_children, children)):
            return expr
        return expr.replace_children(new_children)
    children = expr.children()
    if not children:
        return expr
    new_children = [_rewrite(child, False, env, memo)
                    for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.replace_children(new_children)
