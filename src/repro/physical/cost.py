"""A cost model for tree-pattern algorithm selection.

The paper closes its evaluation with: *"A combination of parameters,
including the form of the query and the shape and size of the documents
must be taken into account to predict which XPath join algorithms
performs best. Clearly, an accurate cost model is needed."*  This module
provides that model for the reproduction's four algorithms.

Cost formulas (unit: abstract "node touches"; the constants are relative
weights fitted to this engine's measured per-node costs, see
EXPERIMENTS.md §E4/E2):

=============  ==============================================================
algorithm      estimated cost per evaluation
=============  ==============================================================
NLJoin         ``NL_VISIT · visited``, where ``visited`` is the region the
               navigation can touch: the full context subtrees for
               descendant spines, only ``fanout^steps`` for child-only
               spines (the Section 5.3 effect)
TwigJoin       ``TJ_SETUP + TJ_SCAN · streams`` — every query node's
               region-restricted stream is swept once, with a fixed
               per-evaluation machinery cost
SCJoin         ``SC_SCAN · streams + SC_BRANCH_PASS · branch_streams`` —
               one array scan per query node, plus one bottom-up pass
               per predicate branch; that pass reads the branch steps'
               whole tag streams inside the region, because it is not
               narrowed by the steps above it ("each branch adds a
               pass", Section 5.2)
Streaming      ``ST_SCAN · region`` — one pass over every event in the
               context region
=============  ==============================================================

``streams`` is the stream volume inside the context regions.  With a
structural summary attached (the default through the engine; see
:mod:`repro.xmltree.summary`) it is estimated from summary-derived
per-query-node cardinalities — the number of nodes that can actually
match each query node given the steps above it — scaled by the region
fraction; without one it falls back to the document-wide tag statistics.
The relative weights were re-checked against the EXPERIMENTS.md §E4/E2
procedure after the summary switch-over: the summary estimates are
uniformly ≤ the tag-count estimates and preserve every regime boundary
(NLJoin on selective child chains, SCJoin/TwigJoin on rooted descendant
paths, the branch penalty on SCJoin), so the NLJoin, TwigJoin and
Streaming constants carry over unchanged.  The two SCJoin weights were
refitted when its branches became set-at-a-time semi-joins
(``benchmarks/bench_cost_fit.py``, EXPERIMENTS.md §E2): a branch used to
cost a pass over *everything* (``SC_BRANCH_PASS · streams · branches``)
and now costs a pass over its own streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..pattern import PatternPath
from ..xmltree.document import IndexedDocument
from ..xmltree.node import Node
from ..xmltree.axes import Axis
from ..xmltree.nodetest import NameTest
from ..xmltree.summary import PathSummary

#: relative per-unit weights (fitted on this engine; see module docstring).
NL_VISIT = 1.0
TJ_SCAN = 0.45
TJ_SETUP = 120.0
SC_SCAN = 0.24
SC_BRANCH_PASS = 0.07
ST_SCAN = 0.9

_CHILD_LIKE = (Axis.CHILD, Axis.ATTRIBUTE, Axis.SELF)


@dataclass(frozen=True)
class CostEstimate:
    """Estimated costs, one entry per algorithm name."""

    costs: Dict[str, float]

    def best(self) -> str:
        return min(self.costs, key=self.costs.get)

    def __getitem__(self, name: str) -> float:
        return self.costs[name]


class CostModel:
    """Estimates per-algorithm evaluation cost from document statistics."""

    _UNSET = object()

    def __init__(self, document: IndexedDocument,
                 summary: "Optional[PathSummary]" = _UNSET) -> None:
        self.document = document
        #: structural summary feeding per-query-node cardinalities; the
        #: default builds (or reuses) the document's own summary, pass
        #: ``None`` explicitly for flat tag-count statistics only.
        self.path_summary = document.summary \
            if summary is CostModel._UNSET else summary
        self.size = max(document.size, 1)
        # Children per element, counted on the columns: a node that is
        # no attribute and whose parent is not the document node.
        columns = document.columns
        parent = columns.parent
        children = sum(1 for pre in columns.non_attribute_pres
                       if parent[pre] > 0)
        elements = len(columns.element_pres)
        self.average_fanout = children / elements if elements else 1.0

    # -- statistics -----------------------------------------------------------

    def region_size(self, contexts: List[Node]) -> int:
        return sum(max(context.end - context.pre, 1)
                   for context in contexts)

    def stream_volume(self, path: PatternPath, region: int) -> float:
        """Stream elements the index algorithms touch inside the region.

        With a summary, per-query-node cardinalities (what can actually
        match each step under its prefix) stand in for the flat tag
        counts; both are scaled by the region fraction.
        """
        fraction = min(region / self.size, 1.0)
        if self.path_summary is not None:
            volume = self.path_summary.pattern_volume(path)
            if volume is not None:
                return volume * fraction
        return self._tag_count_volume(path, region)

    def _tag_count_volume(self, path: PatternPath, region: int) -> float:
        """The summary-free fallback: document-wide tag statistics, read
        from the tag streams' lengths (no node is made)."""
        fraction = min(region / self.size, 1.0)
        tag_pres = self.document.tag_pres
        total = 0.0
        for step in path.steps:
            if isinstance(step.test, NameTest):
                total += len(tag_pres.get(step.test.name, ())) * fraction
            else:
                total += self.size * fraction
            for branch in step.predicates:
                total += self._tag_count_volume(branch, region)
        return total

    def branch_streams(self, path: PatternPath, region: int) -> float:
        """Stream elements SCJoin's bottom-up branch passes read inside
        the region: the flat tag statistics of every step below a
        predicate of the spine."""
        return sum(self._tag_count_volume(branch, region)
                   for step in path.steps for branch in step.predicates)

    def branch_count(self, path: PatternPath) -> int:
        total = 0
        for step in path.steps:
            for branch in step.predicates:
                total += 1 + self.branch_count(branch)
        return total

    def navigation_visits(self, contexts: List[Node],
                          path: PatternPath) -> float:
        """Nodes navigation touches: child-only spines touch only the
        fanout frontier per step; any descendant step opens the whole
        region."""
        region = self.region_size(contexts)
        if all(step.axis in _CHILD_LIKE for step in path.steps):
            frontier = float(len(contexts))
            visited = 0.0
            for _ in path.steps:
                frontier *= max(self.average_fanout, 1.0)
                visited += frontier
            branch_factor = 1 + self.branch_count(path)
            return min(visited * branch_factor, float(region))
        return float(region) * (1 + self.branch_count(path))

    # -- the model --------------------------------------------------------------

    def estimate(self, contexts: List[Node],
                 path: PatternPath) -> CostEstimate:
        region = self.region_size(contexts)
        streams = self.stream_volume(path, region)
        return CostEstimate({
            "nljoin": NL_VISIT * self.navigation_visits(contexts, path),
            "twigjoin": TJ_SETUP + TJ_SCAN * streams,
            "scjoin": (SC_SCAN * streams
                       + SC_BRANCH_PASS * self.branch_streams(path, region)),
            "streaming": ST_SCAN * region,
        })
