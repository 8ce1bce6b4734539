"""Choosing a tree pattern algorithm (paper Sections 2 and 5).

The paper's last compilation phase picks the physical algorithm for each
``TupleTreePattern``.  Its experiments yield heuristics rather than a
single winner:

* simple rooted path patterns → SCJoin or TwigJoin (never NLJoin);
* complex/branching patterns → TwigJoin ("always well-behaved");
* patterns embedded in maps and evaluated per-context on small regions
  (e.g. selective positional chains like ``(/t1[1])^k``) → NLJoin,
  whose cost tracks the visited region instead of the index streams.

:class:`HeuristicChooser` encodes those findings; the paper's own
conclusion — "clearly, an accurate cost model is needed" — is reflected
in the simple stream-statistics cost model it consults.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..guard.chaos import chaos_point
from ..obs import ExecMetrics
from ..pattern import PatternPath, TreePattern
from ..xmltree.document import IndexedDocument
from ..xmltree.nodetest import NameTest
from .base import TreePatternAlgorithm
from .cost import CostModel
from .nljoin import NLJoin
from .stacktree import StackTreeJoin
from .staircase import StaircaseJoin
from .streaming import StreamingXPath
from .twigjoin import TwigJoin


class Strategy(str, Enum):
    """Physical strategies for ``TupleTreePattern`` operators."""

    NESTED_LOOP = "nljoin"
    TWIG_JOIN = "twigjoin"
    STAIRCASE = "scjoin"
    STACK_TREE = "stacktree"
    STREAMING = "streaming"
    AUTO = "auto"
    COST = "cost"

    def __str__(self) -> str:
        return self.value


_INSTANCES = {
    Strategy.NESTED_LOOP: NLJoin,
    Strategy.TWIG_JOIN: TwigJoin,
    Strategy.STAIRCASE: StaircaseJoin,
    Strategy.STACK_TREE: StackTreeJoin,
    Strategy.STREAMING: StreamingXPath,
}


def make_algorithm(strategy: Strategy | str,
                   document: Optional[IndexedDocument] = None
                   ) -> TreePatternAlgorithm:
    """Instantiate the algorithm for a strategy (AUTO/COST need a
    document)."""
    strategy = Strategy(strategy)
    if strategy is Strategy.AUTO:
        return HeuristicChooser(document)
    if strategy is Strategy.COST:
        return CostBasedChooser(document)
    return _INSTANCES[strategy]()


def pattern_complexity(path: PatternPath) -> int:
    """Steps + branches, a rough size measure for the heuristics."""
    total = 0
    for step in path.steps:
        total += 1
        for branch in step.predicates:
            total += pattern_complexity(branch)
    return total


def estimated_stream_size(document: IndexedDocument,
                          path: PatternPath) -> int:
    """Total size of the streams a holistic scan would read, counted
    on the columns (no node is made)."""
    total = 0
    for step in path.steps:
        if isinstance(step.test, NameTest):
            total += len(document.tag_pres.get(step.test.name, ()))
        else:
            total += document.size
        for branch in step.predicates:
            total += estimated_stream_size(document, branch)
    return total


class HeuristicChooser(TreePatternAlgorithm):
    """Per-evaluation dispatch between NL, Twig and Staircase.

    The decision uses the heuristics derived in Section 5:

    * when the context is a small subtree relative to the streams the
      index-based algorithms would scan, navigation wins → NLJoin;
    * branching patterns favour the holistic TwigJoin;
    * plain spines favour SCJoin.
    """

    name = "auto"

    #: visit/scan cost ratio below which navigation is preferred.
    NAVIGATION_THRESHOLD = 0.25

    def __init__(self, document: Optional[IndexedDocument] = None) -> None:
        self.document = document
        self.nljoin = NLJoin()
        self.twigjoin = TwigJoin()
        self.scjoin = StaircaseJoin()
        # Decision recording lives in ExecMetrics (bounded ring + exact
        # tally) so long-running engines never leak; the engine swaps in
        # its own metrics object via attach_metrics.
        self.attach_metrics(ExecMetrics())
        if document is not None:
            self.attach_summary(document.summary)

    def attach_metrics(self, metrics) -> None:
        if metrics is None:   # choosers always record decisions
            metrics = ExecMetrics()
        super().attach_metrics(metrics)
        self.nljoin.attach_metrics(metrics)
        self.twigjoin.attach_metrics(metrics)
        self.scjoin.attach_metrics(metrics)

    def attach_governor(self, governor) -> None:
        super().attach_governor(governor)
        self.nljoin.attach_governor(governor)
        self.twigjoin.attach_governor(governor)
        self.scjoin.attach_governor(governor)

    def attach_summary(self, summary) -> None:
        super().attach_summary(summary)
        self.nljoin.attach_summary(summary)
        self.twigjoin.attach_summary(summary)
        self.scjoin.attach_summary(summary)

    def attach_trace(self, trace) -> None:
        super().attach_trace(trace)
        self.nljoin.attach_trace(trace)
        self.twigjoin.attach_trace(trace)
        self.scjoin.attach_trace(trace)

    @property
    def decisions(self) -> list:
        """Recently chosen algorithm names (bounded; the exact tally is
        ``self.metrics.decision_counts``)."""
        return [record.algorithm for record in self.metrics.decision_ring]

    def choose(self, document: IndexedDocument, contexts,
               path: PatternPath) -> TreePatternAlgorithm:
        region = sum(max(context.end - context.pre, 1)
                     for context in contexts)
        streams = max(estimated_stream_size(document, path), 1)
        if region < streams * self.NAVIGATION_THRESHOLD:
            chosen: TreePatternAlgorithm = self.nljoin
        elif any(step.predicates for step in path.steps):
            chosen = self.twigjoin
        else:
            chosen = self.scjoin
        self.metrics.record_decision(self.name, chosen.name,
                                     region=region, streams=streams)
        if self.trace is not None:
            self.trace.event("decision", chooser=self.name,
                             algorithm=chosen.name)
        if self.governor is not None:
            self.governor.tick()
        chaos_point("auto.choose", chosen.name)
        return chosen

    def match_single(self, document, contexts, path):
        return self.choose(document, contexts, path).match_single(
            document, contexts, path)

    def enumerate_bindings(self, document, context, path):
        return self.choose(document, [context], path).enumerate_bindings(
            document, context, path)


class CostBasedChooser(TreePatternAlgorithm):
    """Per-evaluation dispatch driven by the cost model of
    :mod:`repro.physical.cost` — the "accurate cost model" the paper's
    conclusion calls for, covering all four algorithms (including the
    streaming matcher)."""

    name = "cost"

    def __init__(self, document: Optional[IndexedDocument] = None) -> None:
        self.document = document
        self._model: Optional["CostModel"] = None
        self.algorithms: dict[str, TreePatternAlgorithm] = {
            "nljoin": NLJoin(),
            "twigjoin": TwigJoin(),
            "scjoin": StaircaseJoin(),
            "streaming": StreamingXPath(),
        }
        self.attach_metrics(ExecMetrics())
        if document is not None:
            self.attach_summary(document.summary)

    def attach_metrics(self, metrics) -> None:
        if metrics is None:   # choosers always record decisions
            metrics = ExecMetrics()
        super().attach_metrics(metrics)
        for algorithm in self.algorithms.values():
            algorithm.attach_metrics(metrics)

    def attach_governor(self, governor) -> None:
        super().attach_governor(governor)
        for algorithm in self.algorithms.values():
            algorithm.attach_governor(governor)

    def attach_summary(self, summary) -> None:
        super().attach_summary(summary)
        # The cost model is summary-aware too: detaching the summary
        # (the --no-summary escape hatch) also reverts its estimates to
        # the flat tag-count statistics.
        self._model = None
        for algorithm in self.algorithms.values():
            algorithm.attach_summary(summary)

    def attach_trace(self, trace) -> None:
        super().attach_trace(trace)
        for algorithm in self.algorithms.values():
            algorithm.attach_trace(trace)

    @property
    def decisions(self) -> list:
        """Recently chosen algorithm names (bounded; the exact tally is
        ``self.metrics.decision_counts``)."""
        return [record.algorithm for record in self.metrics.decision_ring]

    def model_for(self, document: IndexedDocument) -> "CostModel":
        use_summary = (self.summary is not None
                       and self.summary.document is document)
        if (self._model is None or self._model.document is not document
                or (self._model.summary is not None) != use_summary):
            # Statistics gathering is linear in the document; cache the
            # model on the document (one slot per statistics source) so
            # repeated queries and fresh chooser instances reuse it.
            slot = "_cost_model" if use_summary else "_cost_model_plain"
            cached = getattr(document, slot, None)
            if cached is None:
                cached = CostModel(
                    document,
                    summary=self.summary if use_summary else None)
                setattr(document, slot, cached)
            self._model = cached
        return self._model

    def choose(self, document: IndexedDocument, contexts,
               path: PatternPath) -> TreePatternAlgorithm:
        estimate = self.model_for(document).estimate(list(contexts), path)
        name = estimate.best()
        self.metrics.record_decision(
            self.name, name,
            **{f"cost_{algo}": cost for algo, cost in estimate.costs.items()})
        if self.trace is not None:
            self.trace.event("decision", chooser=self.name,
                             algorithm=name)
        if self.governor is not None:
            self.governor.tick()
        chaos_point("cost.choose", name)
        return self.algorithms[name]

    def match_single(self, document, contexts, path):
        return self.choose(document, contexts, path).match_single(
            document, contexts, path)

    def enumerate_bindings(self, document, context, path):
        return self.choose(document, [context], path).enumerate_bindings(
            document, context, path)
