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

from ..xqcore.cast import (CExpr, CFor, CLet, CLit, CVar, UsageMemo,
                           substitute, usage_counts)
from .pipeline import FactsPass


def rewrite_flwor(expr: CExpr) -> CExpr:
    """Apply the FLWOR rules bottom-up, in one traversal.

    Returns ``expr`` itself when no rule fired; the caller
    (:func:`repro.rewrite.pipeline.rewrite_to_tpnf`) owns the fixpoint.
    """
    return _Flwor().run(expr, None)


class _Flwor(FactsPass):
    def __init__(self) -> None:
        super().__init__()
        self.uses: UsageMemo = {}

    def _let(self, expr: CLet, ctx: None = None) -> CExpr:
        count = usage_counts(expr.body, self.uses).get(expr.var, 0)
        if count == 0:
            return expr.body
        if count == 1 or isinstance(expr.value, (CVar, CLit)):
            return substitute(expr.body, expr.var, expr.value)
        return expr

    def _for(self, expr: CFor, ctx: None) -> CExpr:
        if expr.position_var is not None:
            if (expr.position_var in usage_counts(expr.body, self.uses)
                    or (expr.where is not None and expr.position_var
                        in usage_counts(expr.where, self.uses))):
                return expr
            expr = CFor(expr.var, None, expr.source, expr.where, expr.body)
        # for-identity: ``for $x in E return $x`` ≡ E (no filter attached).
        if (expr.where is None and isinstance(expr.body, CVar)
                and expr.body.var == expr.var):
            return expr.source
        # singleton source: the loop runs exactly once, so it is a let —
        # which the let rules may remove at once.
        if expr.where is None and self.facts_of(expr.source).singleton:
            return self._let(CLet(expr.var, expr.source, expr.body))
        return expr

    post = {CLet: _let, CFor: _for}
