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
``typeswitch``      clause bodies inherit; the scrutinee is sensitive (the
                    clause variables re-consume it)
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

from typing import List

from ..xqcore.cast import (CCall, CDDO, CExpr, CFor, CGenCmp, CIf, CLet,
                           CLogical, CSeq, CStep, CTypeswitch)
from .pipeline import _EBV_FUNCTIONS, FactsPass


def remove_redundant_ddo(expr: CExpr) -> CExpr:
    """Remove every ``ddo`` proven redundant; the top level is sensitive."""
    return _DocOrder().run(expr, False)


class _DocOrder(FactsPass):
    inherit = frozenset({CStep, CSeq})

    def scope(self, node: CExpr, index: int, done: List[CExpr],
              insensitive: bool) -> bool:
        """Is child ``index`` of ``node`` in an insensitive context (the
        table in the module docstring)?"""
        if isinstance(node, (CLet, CFor, CTypeswitch)):
            super().scope(node, index, done, insensitive)
            if not isinstance(node, CFor):
                return index > 0 and insensitive
            if index == 0:
                return insensitive and node.position_var is None
            return insensitive or (index == 1 and node.where is not None)
        if isinstance(node, CCall):
            return node.name in _EBV_FUNCTIONS and len(node.args) == 1
        if isinstance(node, CIf):
            return index == 0 or insensitive
        return isinstance(node, (CDDO, CGenCmp, CLogical))

    def _ddo(self, expr: CDDO, insensitive: bool) -> CExpr:
        if insensitive or self.facts_of(expr.arg).ord_nodup:
            return expr.arg
        return expr

    post = {CDDO: _ddo}
