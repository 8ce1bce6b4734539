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
from .pipeline import RulePass


def split_loops(expr: CExpr) -> CExpr:
    """Apply loop splitting everywhere, in one top-down traversal.

    Returns ``expr`` itself when nothing split; a split can enable
    another one above it, which the caller's fixpoint loop
    (:func:`repro.rewrite.pipeline.rewrite_to_tpnf`) picks up.
    """
    return _LoopSplit().run(expr, None)


class _LoopSplit(RulePass):
    def __init__(self) -> None:
        self.uses: UsageMemo = {}   # free variables per node

    def _split(self, outer: CFor, ctx: None) -> CExpr:
        inner = outer.body
        if (outer.position_var is not None or not isinstance(inner, CFor)
                or inner.position_var is not None):
            return outer
        x = outer.var
        if inner.where is not None and x in usage_counts(inner.where,
                                                         self.uses):
            return outer
        if x in usage_counts(inner.body, self.uses):
            return outer
        new_source = CFor(x, None, outer.source, outer.where, inner.source)
        return CFor(inner.var, None, new_source, inner.where, inner.body)

    pre = {CFor: (_split,)}
