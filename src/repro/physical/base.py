"""Interface shared by the physical tree-pattern algorithms.

Every algorithm answers one request about a
:class:`~repro.pattern.TreePattern`'s path, :meth:`match_single`: the
XPath result of the main path (with its existential predicate
branches) from a *sequence* of context nodes — document order,
duplicate-free.  This is the semantics of the single-output patterns
the optimizer generates (Section 4.1: "the semantics coincide with the
XPath semantics in the case there is only an output field on the
extraction point").  A pattern with other annotations — the
multi-output semantics of Section 4.1's example, all bindings in
root-to-leaf lexical order — has one evaluator, the reference NLJoin
(:meth:`~repro.physical.nljoin.NLJoin.enumerate_bindings`), whatever
the strategy; the optimizer never emits one.

:meth:`evaluate` answers one input tuple; :meth:`evaluate_each`, which
the ``TupleTreePattern`` operator calls, answers a whole batch of tuples
in ``pre`` space, one match column plus offsets — by looping over
:meth:`evaluate` unless the algorithm has a batch kernel (SCJoin does).
Every request takes the :class:`Run` it belongs
to — counters, budgets, trace and summary — as its last argument and
hands it on; an algorithm object holds nothing per run, so one instance
per strategy serves every engine and thread.

Each algorithm declares the fragment it evaluates as class data
(:attr:`TreePatternAlgorithm.axes` and two flags) and implements
:meth:`~TreePatternAlgorithm._match`.  This module alone decides who
evaluates a path: the algorithm inside its fragment, the one shared
NLJoin outside — whose work counts under ``nljoin`` and passes the
``nljoin.*`` chaos sites.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress
from operator import attrgetter
from typing import Dict, FrozenSet, List, Tuple

from ..obs import Run
from ..pattern import PatternPath, TreePattern
from ..xmltree.axes import Axis
from ..xmltree.document import IndexedDocument
from ..xmltree.node import AttributeNode, Node

Binding = Dict[str, Node]

_ALL_AXES = frozenset(Axis)


#: the run of a call made without one: nothing counted, charged, traced
#: or pruned.
NO_RUN = Run()


class TreePatternAlgorithm:
    """Base class of the pattern algorithms and the choosers.  An
    algorithm holds no per-run state: every call gets the :class:`Run`
    it belongs to."""

    name = "abstract"

    #: The fragment the algorithm evaluates itself, as data (the
    #: feature catalogue of twig algorithms in Hachicha & Darmont's
    #: survey): the axes it steps along, predicate branches included,
    #: and whether it takes ``text()`` tests and positional steps.  The
    #: defaults are NLJoin's — everything — and a chooser's, which hands
    #: every pattern to a member.
    axes: FrozenSet[Axis] = _ALL_AXES
    text_tests = True
    positions = True

    #: does part of the pattern language lie outside the fragment, for
    #: the shared NLJoin?  Derived from the three declarations above.
    partial = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.partial = (cls.axes != _ALL_AXES or not cls.text_tests
                       or not cls.positions)

    def covers(self, path: PatternPath, contexts: List[Node]) -> bool:
        """Is ``path`` from ``contexts`` inside this algorithm's
        fragment?  A few cached attribute reads of the path."""
        return (path.axes <= self.axes
                and (self.text_tests or not path.uses_text)
                and (self.positions or not path.uses_position)
                and not (path.attribute_sensitive
                         and steps_from_attribute(path, contexts)))

    def match_single(self, document: IndexedDocument,
                     contexts: List[Node], path: PatternPath,
                     run: Run = NO_RUN) -> List[Node]:
        """The algorithm's own :meth:`_match` inside its fragment, the
        shared NLJoin outside."""
        if not self.partial or self.covers(path, contexts):
            return self._match(document, contexts, path, run)
        return NLJOIN.match_single(document, contexts, path, run)

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath, run: Run) -> List[Node]:
        raise NotImplementedError

    def evaluate(self, document: IndexedDocument, contexts: List[Node],
                 pattern: TreePattern, run: Run = NO_RUN) -> List[Binding]:
        """Evaluate a pattern for one input tuple's context nodes."""
        return self._invoke(self._evaluate, document, contexts, pattern,
                            False, run)

    def evaluate_each(self, document: IndexedDocument, contexts: List[Node],
                      pattern: TreePattern,
                      run: Run = NO_RUN) -> Tuple[List[int], List[int]]:
        """A single-output pattern for a batch of tuples, one context
        node each: ``(matches, offsets)``, tuple *i*'s match ``pre``s
        (sorted, duplicate-free) at ``matches[offsets[i]:offsets[i +
        1]]``.  By default :meth:`evaluate` per context."""
        out_field = pattern.single_output_field
        if out_field is None:
            raise ValueError("evaluate_each answers a single-output pattern")
        return as_column([
            [binding[out_field].pre for binding
             in self.evaluate(document, [context], pattern, run)]
            for context in contexts])

    def _invoke(self, kernel, document: IndexedDocument,
                contexts: List[Node], pattern: TreePattern, each: bool,
                run: Run):
        """One kernel invocation and everything observable around it,
        for :meth:`evaluate` (``each=False``: the contexts are one
        tuple's, the kernel returns its bindings) and
        :meth:`evaluate_each` (``each=True``: one tuple per context, the
        kernel maps their ``pre``s to ``(matches, offsets)``): the trace
        span, the ``pattern_evals`` count, the budget charge and the
        structural prefilter, which counts and answers per tuple."""
        trace = run.trace
        span = None if trace is None else trace.begin_span(
            f"pattern:{self.name}", contexts=len(contexts))
        try:
            metrics = run.metrics
            if metrics is not None:
                metrics.pattern_evals += 1
            governor = run.governor
            if governor is not None:
                # A step per tuple answered; a kernel invocation is
                # coarse enough to afford a clock read on top.
                governor.tick(len(contexts) if each else 1)
                governor.check_clock()
            if each:
                contexts = list(map(attrgetter("pre"), contexts))
            summary = run.summary
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
                result = kernel(document, contexts, pattern, run)
            else:
                if trace is not None:
                    trace.event("prune_hit",
                                pattern=pattern.path.to_string())
                # Only a batch can be answered in part: a ruled-out
                # tuple gets an empty range.
                result = []
                if each:
                    matches, kept = kernel(document, list(compress(
                        contexts, live)), pattern, run) \
                        if misses else ([], [0])
                    # A tuple's range ends where the last live one's does.
                    result = matches, [0, *map(kept.__getitem__,
                                               accumulate(live))]
        except BaseException:
            if span is not None:
                trace.end_span(span, error=True)
            raise
        if span is not None:
            trace.end_span(span, rows=len(result[0] if each else result))
        return result

    def _evaluate(self, document: IndexedDocument, contexts: List[Node],
                  pattern: TreePattern, run: Run) -> List[Binding]:
        out_field = pattern.single_output_field
        if out_field is not None:
            nodes = self.match_single(document, contexts, pattern.path, run)
            return [{out_field: node} for node in nodes]
        bindings: list[Binding] = []
        for context in contexts:
            bindings.extend(NLJOIN.enumerate_bindings(document, context,
                                                      pattern.path, run))
        return bindings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


def as_column(answers: List[List[int]]) -> Tuple[List[int], List[int]]:
    """Per-tuple match lists as :meth:`~TreePatternAlgorithm.evaluate_each`
    returns them: one column plus offsets."""
    return (list(chain.from_iterable(answers)),
            [0, *accumulate(map(len, answers))])


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


# The one NLJoin: what lies outside a partial fragment, and
# ``make_algorithm``'s ``nljoin``.  Its module subclasses this one's
# base class, so it is imported once that class exists.
from .nljoin import NLJoin  # noqa: E402

NLJOIN = NLJoin()
