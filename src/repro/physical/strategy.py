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
from typing import Optional, Tuple

from ..guard.chaos import chaos_point
from ..obs import ExecMetrics
from ..pattern import PatternPath
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


class Chooser(TreePatternAlgorithm):
    """Per-evaluation dispatch between member algorithms.

    Owns what both choosers share: the members (one instance each, made
    through :func:`make_algorithm`'s table), the decision bookkeeping
    and the delegation.  A subclass names its ``member_strategies`` and
    implements :meth:`pick`."""

    member_strategies: tuple = ()
    records_decisions = True

    def __init__(self, document: Optional[IndexedDocument] = None) -> None:
        super().__init__()
        self.document = document
        self.members: dict[str, TreePatternAlgorithm] = {
            strategy.value: _INSTANCES[strategy]()
            for strategy in self.member_strategies}
        self.parts = tuple(self.members.values())
        self._chaos_site = f"{self.name}.choose"
        # Decision recording lives in ExecMetrics (bounded ring + exact
        # tally) so long-running engines never leak; the engine swaps in
        # its own metrics object via attach_metrics.
        self.attach_metrics(ExecMetrics())
        if document is not None:
            self.attach_summary(document.summary)

    @property
    def decisions(self) -> list:
        """Recently chosen algorithm names (bounded; the exact tally is
        ``self.metrics.decision_counts``)."""
        return [record.algorithm for record in self.metrics.decision_ring]

    def pick(self, document: IndexedDocument, contexts,
             path: PatternPath) -> Tuple[str, dict]:
        """The member to evaluate ``path`` from ``contexts`` and the
        inputs the decision is recorded with."""
        raise NotImplementedError

    def choose(self, document: IndexedDocument, contexts,
               path: PatternPath) -> TreePatternAlgorithm:
        name, inputs = self.pick(document, contexts, path)
        self.metrics.record_decision(self.name, name, **inputs)
        if self.trace is not None:
            self.trace.event("decision", chooser=self.name, algorithm=name)
        if self.governor is not None:
            self.governor.tick()
        chaos_point(self._chaos_site, name)
        return self.members[name]

    def _match(self, document, contexts, path):
        return self.choose(document, contexts, path).match_single(
            document, contexts, path)

    def _enumerate(self, document, context, path):
        return self.choose(document, [context], path).enumerate_bindings(
            document, context, path)


class HeuristicChooser(Chooser):
    """Per-evaluation dispatch between NL, Twig and Staircase.

    The decision uses the heuristics derived in Section 5:

    * when the context is a small subtree relative to the streams the
      index-based algorithms would scan, navigation wins → NLJoin;
    * branching patterns favour the holistic TwigJoin;
    * plain spines favour SCJoin.
    """

    name = "auto"
    member_strategies = (Strategy.NESTED_LOOP, Strategy.TWIG_JOIN,
                         Strategy.STAIRCASE)

    #: visit/scan cost ratio below which navigation is preferred.
    NAVIGATION_THRESHOLD = 0.25

    def pick(self, document: IndexedDocument, contexts,
             path: PatternPath) -> Tuple[str, dict]:
        region = sum(max(context.end - context.pre, 1)
                     for context in contexts)
        streams = max(estimated_stream_size(document, path), 1)
        if region < streams * self.NAVIGATION_THRESHOLD:
            name = Strategy.NESTED_LOOP.value
        elif any(step.predicates for step in path.steps):
            name = Strategy.TWIG_JOIN.value
        else:
            name = Strategy.STAIRCASE.value
        return name, {"region": region, "streams": streams}


class CostBasedChooser(Chooser):
    """Per-evaluation dispatch driven by the cost model of
    :mod:`repro.physical.cost` — the "accurate cost model" the paper's
    conclusion calls for, covering all four algorithms (including the
    streaming matcher)."""

    name = "cost"
    member_strategies = (Strategy.NESTED_LOOP, Strategy.TWIG_JOIN,
                         Strategy.STAIRCASE, Strategy.STREAMING)

    def __init__(self, document: Optional[IndexedDocument] = None) -> None:
        self._model: Optional[CostModel] = None
        super().__init__(document)

    def model_for(self, document: IndexedDocument) -> CostModel:
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

    def pick(self, document: IndexedDocument, contexts,
             path: PatternPath) -> Tuple[str, dict]:
        estimate = self.model_for(document).estimate(list(contexts), path)
        return estimate.best(), {f"cost_{algo}": cost
                                 for algo, cost in estimate.costs.items()}
