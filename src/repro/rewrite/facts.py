"""Static sequence facts: document order, duplicates, separation, cardinality.

This is the fact half of the document-order analysis of Hidders,
Michiels, Siméon & Vercammen (the paper's [19]): a sound bottom-up
judgment of whether a core expression always yields a sequence that is

* ``ord_nodup`` — sorted in document order and duplicate-free (so that
  ``fs:distinct-doc-order`` on it is the identity),
* ``separated`` — contains no two nodes related by ancestorship (the
  TR's key refinement: child steps from separated, sorted contexts stay
  sorted and separated, which is why FLWOR spellings of child-only paths
  need no re-sorting), and
* ``singleton`` — exactly one item (so iteration is degenerate).

The crucial composite rule (the "loop rule"): for
``for $x in E (where C)? return B`` where

* ``E`` is sorted, duplicate-free and separated, and
* ``B``'s results are confined to the subtree of ``$x``
  (:func:`confined_to_subtree`), and
* ``B`` is per-iteration sorted and duplicate-free,

the concatenated loop result is sorted and duplicate-free — successive
iterations produce blocks from disjoint subtrees in document order.
The rules are deliberately conservative (``False`` is always sound).

The rewriting passes ask at every binder and every ``ddo``; so that a
pass derives each node's facts once, it hands all its calls one
:data:`FactsMemo`, which lives for that traversal only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..xmltree.axes import Axis
from ..xqcore.cast import (CCall, CDDO, CEmpty, CExpr, CFor, CGenCmp, CIf,
                           CArith, CLet, CLit, CLogical, CSeq, CStep,
                           CTypeswitch, CVar, Var)


@dataclass(frozen=True)
class Facts:
    """Sequence-level facts about a core expression's value."""

    ord_nodup: bool
    singleton: bool
    separated: bool


UNKNOWN = Facts(ord_nodup=False, singleton=False, separated=False)
SINGLETON = Facts(ord_nodup=True, singleton=True, separated=True)
ORDERED = Facts(ord_nodup=True, singleton=False, separated=False)
ORDERED_SEPARATED = Facts(ord_nodup=True, singleton=False, separated=True)

#: Facts already derived during one traversal, by ``id(node)``.  Binders
#: are identity-based and never shadow, so within one pass a node always
#: sits under the same bindings and its facts are a function of the node.
#: Lifetime rule: one memo per traversal, never kept across passes — a
#: rewritten ``let`` value changes the facts of its variable.  The entry
#: holds the node so that its ``id`` cannot be reused while the memo lives.
FactsMemo = Dict[int, Tuple[CExpr, Facts]]

#: axes whose result from a *single* context node is in document order
#: and duplicate-free.
_ORDERED_FROM_SINGLETON = frozenset({
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.SELF,
    Axis.ATTRIBUTE, Axis.FOLLOWING_SIBLING, Axis.FOLLOWING, Axis.PARENT,
})

#: axes that map a separated context set to a separated result set.
SEPARATED_PRESERVING_AXES = frozenset({
    Axis.CHILD, Axis.ATTRIBUTE, Axis.SELF, Axis.FOLLOWING_SIBLING,
})

#: downward axes: results stay within the context node's subtree.
_CONFINED_AXES = frozenset({
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.SELF,
    Axis.ATTRIBUTE,
})

#: functions that always return exactly one item.
_SINGLETON_FUNCTIONS = frozenset({
    "fn:count", "fn:boolean", "fn:not", "fn:exists", "fn:empty",
    "fn:string", "fn:name", "fn:local-name", "fn:number", "fn:concat",
    "fn:contains", "fn:starts-with", "fn:string-length", "fn:true",
    "fn:false", "fn:sum", "fn:root", "fn:doc", "fn:exactly-one",
})

#: functions whose results are in distinct document order.
_ORDERED_FUNCTIONS = frozenset({"op:union"}) | _SINGLETON_FUNCTIONS


def sequence_facts(expr: CExpr, env: Dict[Var, Facts] | None = None,
                   memo: FactsMemo | None = None) -> Facts:
    """Compute the facts for ``expr`` under variable-fact bindings.

    A rewriting pass hands every call of one traversal the same ``memo``
    so that each node is analysed once per pass (see :data:`FactsMemo`).
    """
    return _facts(expr, env or {}, {} if memo is None else memo)


def _facts(expr: CExpr, env: Dict[Var, Facts], memo: FactsMemo) -> Facts:
    if isinstance(expr, (CLit, CGenCmp, CLogical, CArith)):
        return SINGLETON
    if isinstance(expr, CEmpty):
        return ORDERED_SEPARATED
    if isinstance(expr, CVar):
        bound = env.get(expr.var)
        return _default_var_facts(expr.var) if bound is None else bound
    known = memo.get(id(expr))
    if known is None:
        known = memo[id(expr)] = (expr, _derive(expr, env, memo))
    return known[1]


def _derive(expr: CExpr, env: Dict[Var, Facts], memo: FactsMemo) -> Facts:
    if isinstance(expr, CDDO):
        inner = _facts(expr.arg, env, memo)
        # Sorting and deduplicating is a set operation: separation is
        # preserved, never created.
        return Facts(ord_nodup=True, singleton=inner.singleton,
                     separated=inner.separated)
    if isinstance(expr, CStep):
        return _step_facts(expr, env, memo)
    if isinstance(expr, CLet):
        value_facts = _facts(expr.value, env, memo)
        return _facts(expr.body, {**env, expr.var: value_facts}, memo)
    if isinstance(expr, CFor):
        return _for_facts(expr, env, memo)
    if isinstance(expr, CIf):
        then_facts = _facts(expr.then_branch, env, memo)
        else_facts = _facts(expr.else_branch, env, memo)
        return Facts(
            ord_nodup=then_facts.ord_nodup and else_facts.ord_nodup,
            singleton=then_facts.singleton and else_facts.singleton,
            separated=then_facts.separated and else_facts.separated)
    if isinstance(expr, CCall):
        return Facts(ord_nodup=expr.name in _ORDERED_FUNCTIONS,
                     singleton=expr.name in _SINGLETON_FUNCTIONS,
                     separated=expr.name in _SINGLETON_FUNCTIONS)
    if isinstance(expr, CSeq):
        if len(expr.items) == 1:
            return _facts(expr.items[0], env, memo)
        return UNKNOWN
    if isinstance(expr, CTypeswitch):
        # each clause body under its variable (``bound_vars`` order)
        branch_facts = [_facts(body, {**env, var: UNKNOWN}, memo) for body, var
                        in zip(expr.children()[1:], expr.bound_vars())]
        return Facts(
            ord_nodup=all(facts.ord_nodup for facts in branch_facts),
            singleton=all(facts.singleton for facts in branch_facts),
            separated=all(facts.separated for facts in branch_facts))
    return UNKNOWN


def _step_facts(expr: CStep, env: Dict[Var, Facts],
                memo: FactsMemo) -> Facts:
    input_facts = _facts(expr.input, env, memo)
    axis = expr.axis
    if input_facts.singleton:
        if axis in _ORDERED_FROM_SINGLETON:
            # A step never guarantees "exactly one" (even self can miss).
            return Facts(ord_nodup=True, singleton=False,
                         separated=axis in SEPARATED_PRESERVING_AXES
                         or axis is Axis.PARENT)
        return UNKNOWN
    if (input_facts.ord_nodup and input_facts.separated
            and axis in SEPARATED_PRESERVING_AXES):
        # The TR's refinement: child/attribute/self from a separated,
        # sorted context sequence yields disjoint blocks in document
        # order — sorted, duplicate-free and separated again.
        return ORDERED_SEPARATED
    if (input_facts.ord_nodup and input_facts.separated
            and axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF)):
        # Disjoint subtree blocks in order: sorted and duplicate-free,
        # but descendants of one context are related to each other.
        return ORDERED
    return UNKNOWN


def _for_facts(expr: CFor, env: Dict[Var, Facts],
               memo: FactsMemo) -> Facts:
    source_facts = _facts(expr.source, env, memo)
    inner_env = dict(env)
    inner_env[expr.var] = SINGLETON
    if expr.position_var is not None:
        inner_env[expr.position_var] = SINGLETON
    body_facts = _facts(expr.body, inner_env, memo)
    if source_facts.singleton and expr.where is None:
        # Exactly one iteration: the loop's value is the body's.
        return body_facts
    if isinstance(expr.body, CVar) and expr.body.var == expr.var:
        # Filtering loop (``return $dot``): a subsequence of the source
        # keeps order, duplicate-freedom and separation.
        return Facts(ord_nodup=source_facts.ord_nodup, singleton=False,
                     separated=source_facts.separated)
    if (source_facts.ord_nodup and source_facts.separated
            and body_facts.ord_nodup
            and confined_to_subtree(expr.body, frozenset({expr.var}))):
        # The loop rule (see module docstring).
        return Facts(ord_nodup=True, singleton=False,
                     separated=body_facts.separated)
    return UNKNOWN


def confined_to_subtree(expr: CExpr, roots: FrozenSet[Var]) -> bool:
    """Are all result nodes of ``expr`` inside the subtree of one of the
    ``roots`` variables' values?  (Atomic results count as *not*
    confined — the property is only used for node sequences.)"""
    if isinstance(expr, CVar):
        return expr.var in roots
    if isinstance(expr, CEmpty):
        return True
    if isinstance(expr, CStep):
        return (expr.axis in _CONFINED_AXES
                and confined_to_subtree(expr.input, roots))
    if isinstance(expr, CDDO):
        return confined_to_subtree(expr.arg, roots)
    if isinstance(expr, CSeq):
        return all(confined_to_subtree(item, roots) for item in expr.items)
    if isinstance(expr, CIf):
        return (confined_to_subtree(expr.then_branch, roots)
                and confined_to_subtree(expr.else_branch, roots))
    if isinstance(expr, CLet):
        inner = roots
        if confined_to_subtree(expr.value, roots):
            inner = roots | {expr.var}
        return confined_to_subtree(expr.body, inner)
    if isinstance(expr, CFor):
        inner = roots
        if confined_to_subtree(expr.source, roots):
            inner = roots | {expr.var}
        return confined_to_subtree(expr.body, inner)
    return False


def _default_var_facts(var: Var) -> Facts:
    """Facts for variables bound outside the analyzed expression.

    Focus ``$dot`` variables are always bound to one item by ``for``;
    external variables hold a single document node in this engine.
    """
    if var.origin == "focus":
        if var.name in ("dot", "fs:dot", "position", "last", "v"):
            return SINGLETON
        return UNKNOWN
    if var.origin == "external":
        return SINGLETON
    return UNKNOWN
