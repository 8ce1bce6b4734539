"""Interface shared by the physical tree-pattern algorithms.

Every algorithm answers two requests about a
:class:`~repro.pattern.TreePattern`'s path:

* :meth:`match_single` — the XPath result of the main path (with its
  existential predicate branches) from a *sequence* of context nodes:
  document order, duplicate-free.  This is the semantics the optimizer
  relies on for the single-output patterns it generates (Section 4.1:
  "the semantics coincide with the XPath semantics in the case there is
  only an output field on the extraction point").
* :meth:`enumerate_bindings` — all bindings of the pattern's annotated
  nodes from a single context node, in root-to-leaf lexical order
  (the multi-output semantics illustrated in Section 4.1's example).

:meth:`evaluate` is the template method that dispatches between the
two semantics for one input tuple; :meth:`evaluate_each`, which the
``TupleTreePattern`` operator calls, answers a whole batch of tuples —
by looping over :meth:`evaluate` unless the algorithm has a batch
kernel (SCJoin does).

Each algorithm declares the fragment it evaluates as class data
(:attr:`TreePatternAlgorithm.axes` and three flags) and implements
:meth:`~TreePatternAlgorithm._match` and, if it enumerates,
:meth:`~TreePatternAlgorithm._enumerate`.  This module alone decides who
evaluates a path: the algorithm inside its fragment, its one NLJoin
outside — whose work counts under ``nljoin`` and passes the ``nljoin.*``
chaos sites.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from ..guard.governor import ResourceGovernor
from ..obs import ExecMetrics
from ..pattern import PatternPath, TreePattern
from ..xmltree.axes import Axis
from ..xmltree.document import IndexedDocument
from ..xmltree.node import AttributeNode, Node
from ..xmltree.summary import PathSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace import Trace

Binding = Dict[str, Node]

_ALL_AXES = frozenset(Axis)


class TreePatternAlgorithm:
    """Base class of the pattern algorithms and the choosers."""

    name = "abstract"

    #: every algorithm materializes its binding lists before returning
    #: from :meth:`evaluate`/:meth:`evaluate_each` (the join's build
    #: side).  The interpreter hands over a whole batch of tuples and
    #: gets a list per tuple back; the compiled backend
    #: (:mod:`repro.compiled`), which pushes tuples one at a time, treats
    #: each pattern evaluation as a pipeline breaker: the bindings
    #: materialize here and downstream code resumes per binding.
    is_pipeline_breaker = True

    #: counters this algorithm's work is recorded into; ``None`` (the
    #: default) disables all counting so plain runs pay one ``is None``
    #: check per scan.
    metrics: Optional[ExecMetrics] = None

    #: resource budgets this algorithm's work is charged against;
    #: ``None`` (the default) disables all checking — like ``metrics``,
    #: ungoverned runs pay one ``is None`` check per scan.
    governor: Optional[ResourceGovernor] = None

    #: structural summary of the document being queried; when attached,
    #: :meth:`evaluate` consults it to skip pattern evaluations that
    #: provably cannot match (see :mod:`repro.xmltree.summary`).
    summary: Optional[PathSummary] = None

    #: span trace this algorithm's pattern evaluations are recorded
    #: into; ``None`` (the default) disables tracing — same one-check
    #: discipline as ``metrics``/``governor``.
    trace: "Optional[Trace]" = None

    #: The fragment the algorithm evaluates itself, as data (the
    #: feature catalogue of twig algorithms in Hachicha & Darmont's
    #: survey): the axes it steps along, predicate branches included,
    #: and whether it takes ``text()`` tests, positional steps and
    #: binding enumeration.  The defaults are NLJoin's — everything —
    #: and a chooser's, which hands every pattern to a member.
    axes: FrozenSet[Axis] = _ALL_AXES
    text_tests = True
    positions = True
    enumerates = True

    #: a chooser records its decisions in :attr:`metrics`, so it keeps
    #: counters of its own when :meth:`attach_metrics` is given ``None``.
    records_decisions = False

    def __init__(self) -> None:
        #: the NLJoin evaluating what lies outside a partial fragment
        #: (``None`` when the fragment is everything).
        self.nljoin: Optional[TreePatternAlgorithm] = None
        if (self.axes != _ALL_AXES or not self.text_tests
                or not self.positions or not self.enumerates):
            from .nljoin import NLJoin   # a subclass of this base
            self.nljoin = NLJoin()
        #: the algorithms this one hands work to, wired alike by the
        #: ``attach_*`` methods: its NLJoin, or a chooser's members.
        self.parts: Tuple[TreePatternAlgorithm, ...] = \
            () if self.nljoin is None else (self.nljoin,)

    def attach_metrics(self, metrics: Optional[ExecMetrics]) -> None:
        """Route this algorithm's counters, and its parts', into
        ``metrics``."""
        if metrics is None and self.records_decisions:
            metrics = ExecMetrics()
        self.metrics = metrics
        for part in self.parts:
            part.attach_metrics(metrics)

    def attach_governor(self, governor: Optional[ResourceGovernor]) -> None:
        """Charge this algorithm's work, and its parts', against
        ``governor``'s budgets."""
        self.governor = governor
        for part in self.parts:
            part.attach_governor(governor)

    def attach_summary(self, summary: Optional[PathSummary]) -> None:
        """Use ``summary`` as the pattern prefilter for :meth:`evaluate`,
        here and in the parts (``None`` disables pruning)."""
        self.summary = summary
        for part in self.parts:
            part.attach_summary(summary)

    def attach_trace(self, trace: "Optional[Trace]") -> None:
        """Record this algorithm's pattern evaluations as spans of
        ``trace`` (one ``pattern:<name>`` span per kernel invocation —
        an :meth:`evaluate` call or a batch — prune decisions as events);
        the parts record into the same trace."""
        self.trace = trace
        for part in self.parts:
            part.attach_trace(trace)

    def covers(self, path: PatternPath, contexts: List[Node]) -> bool:
        """Is ``path`` from ``contexts`` inside this algorithm's
        fragment?  A few cached attribute reads of the path."""
        return (path.axes <= self.axes
                and (self.text_tests or not path.uses_text)
                and (self.positions or not path.uses_position)
                and not (path.attribute_sensitive
                         and steps_from_attribute(path, contexts)))

    def match_single(self, document: IndexedDocument,
                     contexts: List[Node], path: PatternPath) -> List[Node]:
        """The algorithm's own :meth:`_match` inside its fragment, its
        NLJoin outside."""
        if self.nljoin is None or self.covers(path, contexts):
            return self._match(document, contexts, path)
        return self.nljoin.match_single(document, contexts, path)

    def enumerate_bindings(self, document: IndexedDocument, context: Node,
                           path: PatternPath) -> List[Binding]:
        """The algorithm's own :meth:`_enumerate` inside its fragment,
        its NLJoin outside."""
        if self.nljoin is None or (self.enumerates
                                   and self.covers(path, [context])):
            return self._enumerate(document, context, path)
        return self.nljoin.enumerate_bindings(document, context, path)

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath) -> List[Node]:
        raise NotImplementedError

    def _enumerate(self, document: IndexedDocument, context: Node,
                   path: PatternPath) -> List[Binding]:
        raise NotImplementedError

    def evaluate(self, document: IndexedDocument, contexts: List[Node],
                 pattern: TreePattern) -> List[Binding]:
        """Evaluate a pattern for one input tuple's context nodes."""
        return self._invoke(self._evaluate, document, contexts, pattern,
                            each=False)

    def evaluate_each(self, document: IndexedDocument, contexts: List[Node],
                      pattern: TreePattern) -> List[List[Binding]]:
        """Evaluate a pattern for a batch of input tuples: one context
        node per tuple in, one binding list per tuple out —
        ``[evaluate(document, [context], pattern) for context in
        contexts]``, which is also the default implementation.  The
        lists may be shared between tuples; callers do not mutate them."""
        return [self.evaluate(document, [context], pattern)
                for context in contexts]

    def _invoke(self, kernel, document: IndexedDocument,
                contexts: List[Node], pattern: TreePattern, each: bool):
        """One kernel invocation and everything observable around it,
        for :meth:`evaluate` (``each=False``: the contexts are one
        tuple's, the kernel returns its bindings) and
        :meth:`evaluate_each` (``each=True``: one tuple per context, the
        kernel returns a binding list for each): the trace span, the
        ``pattern_evals`` count, the budget charge and the structural
        prefilter, which counts and answers per tuple."""
        trace = self.trace
        span = None if trace is None else trace.begin_span(
            f"pattern:{self.name}", contexts=len(contexts))
        try:
            metrics = self.metrics
            if metrics is not None:
                metrics.pattern_evals += 1
            if self.governor is not None:
                # A step per tuple answered; a kernel invocation is
                # coarse enough to afford a clock read on top.
                self.governor.tick(len(contexts) if each else 1)
                self.governor.check_clock()
            summary = self.summary
            live = None
            if (summary is not None and summary.document is document
                    and contexts):
                # The structural prefilter: a tuple from whose contexts
                # no summary path can embed the pattern has a provably
                # empty result and is kept from the algorithm.
                live = summary.can_match_each(pattern.path, contexts) \
                    if each else [summary.can_match(pattern.path, contexts)]
                misses = sum(live)
                if metrics is not None:
                    metrics.prune_hits += len(live) - misses
                    metrics.prune_misses += misses
            if live is None or misses == len(live):
                result = kernel(document, contexts, pattern)
            else:
                if trace is not None:
                    trace.event("prune_hit",
                                pattern=pattern.path.to_string())
                # Only a batch can be answered in part.
                answers = iter(kernel(document, [
                    context for context, alive in zip(contexts, live)
                    if alive], pattern) if misses else ())
                result = [next(answers) if alive else []
                          for alive in live] if each else []
        except BaseException:
            if span is not None:
                trace.end_span(span, error=True)
            raise
        if span is not None:
            trace.end_span(span, rows=sum(map(len, result)) if each
                           else len(result))
        return result

    def _evaluate(self, document: IndexedDocument, contexts: List[Node],
                  pattern: TreePattern) -> List[Binding]:
        out_field = pattern.single_output_field
        if out_field is not None:
            nodes = self.match_single(document, contexts, pattern.path)
            return [{out_field: node} for node in nodes]
        bindings: list[Binding] = []
        for context in contexts:
            bindings.extend(
                self.enumerate_bindings(document, context, pattern.path))
        return bindings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


def steps_from_attribute(path: PatternPath, contexts: List[Node]) -> bool:
    """Does ``path`` take a step from an attribute node that returns the
    attribute itself (``@x/self::node()``, ``@x/descendant-or-self::node()``
    — the attribute selected by an earlier step or handed in as a context
    node)?  The stream algorithms read element/text ``pre`` streams, where
    an attribute is never its own ``self``; they evaluate such patterns
    with NLJoin.  Asked only of an
    :attr:`~repro.pattern.PatternPath.attribute_sensitive` path, so an
    ordinary evaluation pays one cached attribute read; nothing is
    decided per candidate."""
    return path.continues_from_attribute or any(
        isinstance(node, AttributeNode) for node in contexts)

