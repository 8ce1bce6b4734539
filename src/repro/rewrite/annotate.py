"""Annotated rendering of the document-order analysis.

The paper's document-order rewritings work "by introducing and
propagating annotations" (Section 3, citing [19]).  This module makes
those annotations visible: every binder and every ``ddo`` call in a core
expression is rendered together with the facts the analysis derived for
its subject — whether the sequence is sorted and duplicate-free
(``ord``), ancestor-free (``sep``), and a singleton (``one``).

Used by ``python -m repro explain`` debugging sessions and the
pedagogical examples; the rewriting itself consumes the facts directly
(:mod:`repro.rewrite.facts`).
"""

from __future__ import annotations

from typing import Dict

from ..xqcore.cast import CDDO, CExpr, CFor, CLet
from ..xqcore.pretty import pretty
from .facts import Facts, sequence_facts
from .pipeline import FactsPass


def facts_label(facts: Facts) -> str:
    """Compact rendering: e.g. ``ord,sep`` or ``one`` or ``-``."""
    parts = []
    if facts.singleton:
        parts.append("one")
    if facts.ord_nodup:
        parts.append("ord")
    if facts.separated:
        parts.append("sep")
    return ",".join(parts) if parts else "-"


def annotated_pretty(expr: CExpr) -> str:
    """Render a core expression with per-construct fact annotations.

    Annotations appear as ``(* ... *)`` comments after the line that
    introduces the annotated value, e.g.::

        for $dot in $d/descendant::person (* source: ord *)
    """
    annotations = collect_annotations(expr)
    base = pretty(expr)
    lines = base.splitlines()
    annotated = []
    for line in lines:
        stripped = line.strip()
        note = None
        for needle, label in annotations.items():
            if needle and needle in stripped:
                note = label
                break
        if note:
            annotated.append(f"{line}  (* {note} *)")
        else:
            annotated.append(line)
    return "\n".join(annotated)


def collect_annotations(expr: CExpr) -> Dict[str, str]:
    """Map printed-line fragments to fact labels.

    Returns entries like ``{"for $dot in …": "source: ord,sep"}``; used
    by :func:`annotated_pretty` and directly testable.
    """
    annotations = _Annotations()
    annotations.run(expr, None)
    return annotations.notes


class _Annotations(FactsPass):
    """A pass that rewrites nothing: its rules note the facts of each
    ``ddo`` argument (the first only) and binder value, in pre-order."""

    def __init__(self) -> None:
        super().__init__()
        self.notes: Dict[str, str] = {}

    def _ddo(self, node: CDDO, ctx: None) -> CExpr:
        self.notes.setdefault(
            "ddo(", f"ddo argument: {facts_label(self.facts_of(node.arg))}")
        return node

    def _let(self, node: CLet, ctx: None) -> CExpr:
        self.notes[f"let ${node.var.name}"] = \
            f"value: {facts_label(self.facts_of(node.value))}"
        return node

    def _for(self, node: CFor, ctx: None) -> CExpr:
        self.notes[f"for ${node.var.name}"] = \
            f"source: {facts_label(self.facts_of(node.source))}"
        return node

    pre = {CDDO: (_ddo,), CLet: (_let,), CFor: (_for,)}


def whole_expression_facts(expr: CExpr) -> str:
    """The facts of the whole expression, rendered."""
    return facts_label(sequence_facts(expr))
