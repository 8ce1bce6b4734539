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
from ..pattern import PatternPath
from ..xmltree.document import IndexedDocument
from ..xmltree.nodetest import NameTest
from .base import NLJOIN, NO_RUN, Run, TreePatternAlgorithm
from .cost import CostModel
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

    Owns what both choosers share: the decision bookkeeping and the
    delegation to a member — the shared instance :func:`make_algorithm`
    hands out.  A subclass implements :meth:`pick` and names the
    ``chaos_site`` each decision passes.

    A chooser made for a ``document`` prunes and estimates with that
    document's summary when a call comes without a :class:`Run`; that
    reference is all it keeps."""

    def __init__(self, document: Optional[IndexedDocument] = None) -> None:
        self.document = document

    def _own(self, run: Run) -> Run:
        """``run``, or the document's summary for a call without one."""
        if run is NO_RUN and self.document is not None:
            return Run(summary=self.document.summary)
        return run

    def _invoke(self, kernel, document, contexts, pattern, each, run):
        return super()._invoke(kernel, document, contexts, pattern, each,
                               self._own(run))

    def pick(self, document: IndexedDocument, contexts, path: PatternPath,
             run: Run) -> Tuple[str, dict]:
        """The member to evaluate ``path`` from ``contexts`` and the
        inputs the decision is recorded with."""
        raise NotImplementedError

    def choose(self, document: IndexedDocument, contexts, path: PatternPath,
               run: Run) -> TreePatternAlgorithm:
        name, inputs = self.pick(document, contexts, path, run)
        if run.instrumented:
            run.decide(self.name, name, inputs)
        chaos_point(self.chaos_site, name)
        return _INSTANCES[name]

    def _match(self, document, contexts, path, run):
        return self.choose(document, contexts, path, run).match_single(
            document, contexts, path, run)


class HeuristicChooser(Chooser):
    """Per-evaluation dispatch between NL, Twig and Staircase.

    The decision uses the heuristics derived in Section 5:

    * when the context is a small subtree relative to the streams the
      index-based algorithms would scan, navigation wins → NLJoin;
    * branching patterns favour the holistic TwigJoin;
    * plain spines favour SCJoin.
    """

    name = "auto"
    chaos_site = "auto.choose"

    #: visit/scan cost ratio below which navigation is preferred.
    NAVIGATION_THRESHOLD = 0.25

    def pick(self, document: IndexedDocument, contexts, path: PatternPath,
             run: Run) -> Tuple[str, dict]:
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
    """Per-evaluation dispatch between NL, Twig, Staircase and the
    streaming matcher, driven by the cost model of
    :mod:`repro.physical.cost` — the "accurate cost model" the paper's
    conclusion calls for."""

    name = "cost"
    chaos_site = "cost.choose"

    def model_for(self, document: IndexedDocument,
                  run: Run = NO_RUN) -> CostModel:
        """The document's cost model, with the run's summary statistics
        when the summary is the document's.  Statistics gathering is
        linear in the document, so the model is cached on the document
        (one slot per statistics source) and every query and chooser
        reuses it."""
        summary = self._own(run).summary
        if summary is not None and summary.document is not document:
            summary = None
        slot = "_cost_model_plain" if summary is None else "_cost_model"
        model = getattr(document, slot, None)
        if model is None:
            model = CostModel(document, summary=summary)
            setattr(document, slot, model)
        return model

    def pick(self, document: IndexedDocument, contexts, path: PatternPath,
             run: Run) -> Tuple[str, dict]:
        estimate = self.model_for(document, run).estimate(list(contexts),
                                                          path)
        return estimate.best(), {f"cost_{algo}": cost
                                 for algo, cost in estimate.costs.items()}


#: One shared instance per strategy: an algorithm keeps no per-run
#: state, so every engine, thread and chooser uses these.
_INSTANCES = {algorithm.name: algorithm for algorithm in (
    NLJOIN, TwigJoin(), StaircaseJoin(), StackTreeJoin(), StreamingXPath(),
    HeuristicChooser(), CostBasedChooser())}


def make_algorithm(strategy: Strategy | str,
                   document: Optional[IndexedDocument] = None
                   ) -> TreePatternAlgorithm:
    """The shared algorithm of a strategy.  Given a ``document``, AUTO
    and COST get a chooser of their own that prunes and estimates with
    its summary on calls made without a :class:`Run`."""
    algorithm = _INSTANCES[Strategy(strategy)]
    if document is not None and isinstance(algorithm, Chooser):
        return type(algorithm)(document)
    return algorithm
