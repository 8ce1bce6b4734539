"""FLWOR rewritings (paper Section 3, "FLWOR rewritings").

The rules, all driven by the variable-usage judgment of
:func:`repro.xqcore.cast.usage_count`:

* dead ``let`` elimination — ``let $x := E1 return E2`` with ``$x``
  unused becomes ``E2`` (the fragment is pure, so dropping ``E1`` is
  sound);
* single-use ``let`` inlining — with exactly one (non-loop) use, the
  binding is substituted away;
* trivial inlining — bindings to variables or literals are always
  inlined (no work is duplicated);
* unused positional-variable removal — ``for $x at $i in E`` drops
  ``$i`` when unused, which is what later *enables* the loop-split
  rewrite (Section 3 notes the split is blocked by index variables);
* ``for``-identity — ``for $x in E return $x`` (no ``where``, no
  position) is just ``E``; this collapse is what makes syntactic
  variants like the paper's Q1b converge;
* singleton ``for`` — a ``for`` over a provably-singleton sequence with
  no ``where`` runs exactly once and is a ``let``.

Sequence facts (for the singleton rule) are threaded through binders so
that, e.g., a loop over another loop's variable is recognized as
degenerate — needed for variants like the paper's Q1c.
"""

from __future__ import annotations

from typing import Dict

from ..xqcore.cast import (CExpr, CFor, CLet, CLit, CTypeswitch, CVar,
                           UsageMemo, substitute, usage_counts)
from .facts import FactsMemo, SINGLETON, UNKNOWN, sequence_facts


def rewrite_flwor(expr: CExpr) -> CExpr:
    """Apply the FLWOR rules bottom-up, in one traversal.

    Returns ``expr`` itself when no rule fired; the caller
    (:func:`repro.rewrite.pipeline.rewrite_to_tpnf`) owns the fixpoint.
    """
    return _rewrite(expr, {}, {}, {})


def _rewrite(expr: CExpr, env: Dict, facts: FactsMemo,
             uses: UsageMemo) -> CExpr:
    """``facts``/``uses``: the analyses derived so far in this traversal
    (once per node per pass; :data:`repro.rewrite.facts.FactsMemo`)."""
    if isinstance(expr, CLet):
        value = _rewrite(expr.value, env, facts, uses)
        inner = {**env, expr.var: sequence_facts(value, env, facts)}
        body = _rewrite(expr.body, inner, facts, uses)
        if value is not expr.value or body is not expr.body:
            expr = CLet(expr.var, value, body)
        return _rewrite_let(expr, uses)
    if isinstance(expr, CFor):
        source = _rewrite(expr.source, env, facts, uses)
        inner = {**env, expr.var: SINGLETON}
        if expr.position_var is not None:
            inner[expr.position_var] = SINGLETON
        where = (None if expr.where is None
                 else _rewrite(expr.where, inner, facts, uses))
        body = _rewrite(expr.body, inner, facts, uses)
        if (source is not expr.source or where is not expr.where
                or body is not expr.body):
            expr = CFor(expr.var, expr.position_var, source, where, body)
        return _rewrite_for(expr, env, facts, uses)
    children = expr.children()
    if not children:
        return expr
    if isinstance(expr, CTypeswitch):
        # the bindings sequence_facts gives the clause variables
        env = {**env, **dict.fromkeys(expr.bound_vars(), UNKNOWN)}
    new_children = [_rewrite(child, env, facts, uses) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.replace_children(new_children)


def _rewrite_let(expr: CLet, uses: UsageMemo) -> CExpr:
    count = usage_counts(expr.body, uses).get(expr.var, 0)
    if count == 0:
        return expr.body
    if count == 1 or isinstance(expr.value, (CVar, CLit)):
        return substitute(expr.body, expr.var, expr.value)
    return expr


def _rewrite_for(expr: CFor, env: Dict, facts: FactsMemo,
                 uses: UsageMemo) -> CExpr:
    if expr.position_var is not None:
        if (expr.position_var in usage_counts(expr.body, uses)
                or (expr.where is not None and expr.position_var
                    in usage_counts(expr.where, uses))):
            return expr
        expr = CFor(expr.var, None, expr.source, expr.where, expr.body)
    # for-identity: ``for $x in E return $x`` ≡ E (no filter attached).
    if (expr.where is None and isinstance(expr.body, CVar)
            and expr.body.var == expr.var):
        return expr.source
    # singleton source: the loop runs exactly once, so it is a let —
    # which the let rules may remove at once.
    if expr.where is None and sequence_facts(expr.source, env,
                                             facts).singleton:
        return _rewrite_let(CLet(expr.var, expr.source, expr.body), uses)
    return expr
