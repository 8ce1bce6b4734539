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

from ..xqcore.cast import (CArith, CCall, CDDO, CExpr, CFor, CGenCmp, CIf,
                           CLet, CLogical, CTypeswitch)
from .pipeline import _EBV_FUNCTIONS, FactsPass


def remove_redundant_ddo(expr: CExpr) -> CExpr:
    """Remove every ``ddo`` proven redundant; the top level is sensitive."""
    return _DocOrder().run(expr, False)


class _DocOrder(FactsPass):
    """Each scope says whether child ``index`` of a node is in an
    insensitive context (the table in the module docstring); steps and
    sequences pass their own on.  A Core class with children that is
    neither must have a scope here."""

    def _for(self, node: CFor, index: int, done: List[CExpr],
             insensitive: bool) -> bool:
        if index == 0:
            return insensitive and node.position_var is None
        if index == 1:
            self.enter(node, done)
            return insensitive or node.where is not None
        return insensitive

    def _body(self, node: CExpr, index: int, done: List[CExpr],
              insensitive: bool) -> bool:
        """``let`` and ``typeswitch``: the bodies after the value."""
        if index == 1:
            self.enter(node, done)
        return index > 0 and insensitive

    def _if(self, node: CIf, index: int, done: List[CExpr],
            insensitive: bool) -> bool:
        return index == 0 or insensitive

    def _call(self, node: CCall, index: int, done: List[CExpr],
              insensitive: bool) -> bool:
        return node.name in _EBV_FUNCTIONS and len(node.args) == 1

    def _consumer(self, node: CExpr, index: int, done: List[CExpr],
                  insensitive: bool) -> bool:
        """``ddo``, comparisons and ``and``/``or``."""
        return True

    def _sensitive(self, node: CExpr, index: int, done: List[CExpr],
                   insensitive: bool) -> bool:
        return False

    scopes = {CFor: _for, CLet: _body, CTypeswitch: _body, CIf: _if,
              CCall: _call, CDDO: _consumer, CGenCmp: _consumer,
              CLogical: _consumer, CArith: _sensitive}

    def _ddo(self, expr: CDDO, insensitive: bool) -> CExpr:
        if insensitive or self.facts_of(expr.arg).ord_nodup:
            return expr.arg
        return expr

    post = {CDDO: _ddo}
