"""The loop-split rewrite (paper Section 3, "Loop split").

::

    for $x in Expr1 (where Cond1)? return
      for $y in Expr2 (where Cond2)? return Expr3
    ──────────────────────────────────────────────
    for $y in
      (for $x in Expr1 (where Cond1)? return Expr2)
    (where Cond2)? return Expr3

Side conditions (from the paper):

* neither loop carries a positional (``at``) variable — splitting would
  change what the position is counted against (the paper's
  ``$d//person[position()=1]`` example);
* ``$x`` must not occur free in ``Cond2`` or ``Expr3`` (it goes out of
  scope for them).

The rewrite imposes the left-deep loop nesting that the algebraic
compilation phase expects (the paper's Q1-tp shape).
"""

from __future__ import annotations

from ..xqcore.cast import CExpr, CFor, UsageMemo, usage_counts


def split_loops(expr: CExpr) -> CExpr:
    """Apply loop splitting everywhere, in one top-down traversal.

    Returns ``expr`` itself when nothing split; a split can enable
    another one above it, which the caller's fixpoint loop
    (:func:`repro.rewrite.pipeline.rewrite_to_tpnf`) picks up.
    """
    return _rewrite(expr, {})


def _rewrite(expr: CExpr, memo: UsageMemo) -> CExpr:
    """``memo``: free variables per node, derived once per traversal."""
    expr = _split_here(expr, memo)
    children = expr.children()
    if not children:
        return expr
    new_children = [_rewrite(child, memo) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.replace_children(new_children)


def _split_here(expr: CExpr, memo: UsageMemo) -> CExpr:
    while (isinstance(expr, CFor) and expr.position_var is None
           and isinstance(expr.body, CFor)
           and expr.body.position_var is None):
        outer, inner = expr, expr.body
        x = outer.var
        if inner.where is not None and x in usage_counts(inner.where, memo):
            break
        if x in usage_counts(inner.body, memo):
            break
        new_source = CFor(x, None, outer.source, outer.where, inner.source)
        expr = CFor(inner.var, None, new_source, inner.where, inner.body)
    return expr
