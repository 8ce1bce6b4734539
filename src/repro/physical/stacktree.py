"""Stack-Tree binary structural joins (Al-Khalifa et al., ICDE 2002).

The classic baseline the twig-join literature compares against: a tree
pattern is decomposed into *binary* ancestor–descendant (or
parent–child) joins, each evaluated by merging two pre-sorted element
lists with a stack of currently-open ancestors — one full sweep of both
lists per join, no index skipping.

Pattern evaluation is bottom-up and list-at-a-time:

* predicate branches reduce to semi-joins that filter a candidate list
  to the elements having at least one qualifying descendant/child;
* spine steps are descendant-major semi-joins producing the next
  context list (sorted, duplicate-free by construction).

Unlike this repository's region-skipping SCJoin, Stack-Tree sweeps the
*document-wide* tag streams on every step — which is exactly the cost
profile the paper reports for its stream-based algorithms in
Section 5.3 ("both TwigJoins and SCJoins will scan the index once for
each step").  It is included both as a faithful baseline and to let the
benchmarks exhibit that original profile.

Positional steps and non-downward axes fall back to NLJoin.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List

from ..guard.chaos import chaos_point
from ..pattern import PatternPath, PatternStep
from ..xmltree.axes import Axis
from ..xmltree.document import IndexedDocument
from ..xmltree.node import AttributeNode, ElementNode, Node
from ..xmltree.nodetest import (ElementTest, NameTest, NodeTest, TextTest,
                                WildcardTest)
from .base import Binding, TreePatternAlgorithm, steps_from_attribute
from .nljoin import NLJoin

_SUPPORTED_AXES = (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
                   Axis.ATTRIBUTE)


class StackTreeJoin(TreePatternAlgorithm):
    """Binary structural joins over full tag streams."""

    name = "stacktree"

    def __init__(self) -> None:
        self._fallback = NLJoin()

    def attach_metrics(self, metrics) -> None:
        super().attach_metrics(metrics)
        self._fallback.attach_metrics(metrics)

    def attach_governor(self, governor) -> None:
        super().attach_governor(governor)
        self._fallback.attach_governor(governor)

    def attach_trace(self, trace) -> None:
        super().attach_trace(trace)
        self._fallback.attach_trace(trace)

    # -- public API -----------------------------------------------------------

    def match_single(self, document: IndexedDocument,
                     contexts: List[Node], path: PatternPath) -> List[Node]:
        if not _supported(path) or (
                path.attribute_sensitive
                and steps_from_attribute(path, contexts)):
            return self._fallback.match_single(document, contexts, path)
        current = _dedup_sorted(contexts)
        for step in path.steps:
            candidates = self._qualified_candidates(document, step)
            current = stack_tree_descendants(current, candidates, step.axis,
                                             metrics=self.metrics,
                                             governor=self.governor)
        return chaos_point("stacktree.match", current)

    def enumerate_bindings(self, document: IndexedDocument, context: Node,
                           path: PatternPath) -> List[Binding]:
        # Binary joins manipulate whole lists; binding enumeration is
        # delegated to the navigational reference implementation.
        return self._fallback.enumerate_bindings(document, context, path)

    # -- list-at-a-time evaluation ---------------------------------------------

    def _qualified_candidates(self, document: IndexedDocument,
                              step: PatternStep) -> List[Node]:
        """All document elements matching the step's test whose predicate
        branches are satisfied (computed bottom-up, list-at-a-time)."""
        candidates = _stream(document, step)
        if self.metrics is not None:
            self.metrics.stream_scanned[self.name] += len(candidates)
        if self.governor is not None:
            self.governor.tick(len(candidates) + 1)
        for branch in step.predicates:
            candidates = self._filter_by_branch(document, candidates, branch)
        return candidates

    def _filter_by_branch(self, document: IndexedDocument,
                          anchors: List[Node],
                          branch: PatternPath) -> List[Node]:
        """Semi-join: keep anchors with at least one branch match."""
        steps = branch.steps
        # Build the qualifying sets bottom-up: the last step's candidates
        # first, then each earlier step filtered by "has a qualifying
        # successor".
        qualifying = self._qualified_candidates(document, steps[-1])
        for index in range(len(steps) - 2, -1, -1):
            earlier_candidates = self._qualified_candidates(document,
                                                            steps[index])
            qualifying = stack_tree_ancestors(earlier_candidates, qualifying,
                                              steps[index + 1].axis)
        return stack_tree_ancestors(anchors, qualifying, steps[0].axis)


def _supported(path: PatternPath) -> bool:
    for step in path.steps:
        if step.axis not in _SUPPORTED_AXES:
            return False
        if step.position is not None:
            return False
        if isinstance(step.test, TextTest):
            return False
        if not all(_supported(branch) for branch in step.predicates):
            return False
    return True


def _stream(document: IndexedDocument, step: PatternStep) -> List[Node]:
    test = step.test
    if step.axis is Axis.ATTRIBUTE:
        if isinstance(test, NameTest):
            return list(document.attribute_stream(test.name))
        return [node for node in document.nodes_by_pre
                if isinstance(node, AttributeNode)]
    if isinstance(test, NameTest):
        return list(document.stream(test.name))
    if isinstance(test, (WildcardTest, ElementTest)):
        return [node for node in document.nodes_by_pre
                if isinstance(node, ElementNode) and test.matches(node)]
    return [node for node in document.nodes_by_pre
            if not isinstance(node, AttributeNode)]


def _dedup_sorted(nodes: List[Node]) -> List[Node]:
    ordered = sorted(nodes, key=lambda node: node.pre)
    result: list[Node] = []
    previous = None
    for node in ordered:
        if node is not previous:
            result.append(node)
        previous = node
    return result


def stack_tree_descendants(ancestors: List[Node], descendants: List[Node],
                           axis: Axis, metrics=None,
                           governor=None) -> List[Node]:
    """Stack-Tree-Desc, descendant-major semi-join.

    Both inputs sorted by ``pre``; returns the distinct descendants that
    stand in ``axis`` relation to some ancestor, in document order —
    one merge sweep with a stack of open ancestors.
    """
    if metrics is not None:
        metrics.nodes_visited[StackTreeJoin.name] += len(descendants)
    if governor is not None:
        governor.tick(len(descendants) + 1)
    include_self = axis is Axis.DESCENDANT_OR_SELF
    result: list[Node] = []
    stack: list[Node] = []
    open_ids: set = set()
    a_index = 0
    pushes = 0
    for descendant in descendants:
        # Open every ancestor that starts at or before this descendant.
        while (a_index < len(ancestors)
               and (ancestors[a_index].pre < descendant.pre
                    or (include_self
                        and ancestors[a_index].pre == descendant.pre))):
            ancestor = ancestors[a_index]
            while stack and stack[-1].end < ancestor.pre:
                open_ids.discard(id(stack.pop()))
            stack.append(ancestor)
            pushes += 1
            open_ids.add(id(ancestor))
            a_index += 1
        # Close ancestors that ended before this descendant.
        while stack and stack[-1].end < descendant.pre:
            open_ids.discard(id(stack.pop()))
        if not stack:
            continue
        if include_self and id(descendant) in open_ids:
            result.append(descendant)
            continue
        if axis in (Axis.CHILD, Axis.ATTRIBUTE):
            if id(descendant.parent) in open_ids:
                result.append(descendant)
        elif stack[-1].pre < descendant.pre:
            result.append(descendant)
    if metrics is not None:
        metrics.stack_pushes[StackTreeJoin.name] += pushes
    return result


def stack_tree_ancestors(ancestors: List[Node], descendants: List[Node],
                         axis: Axis) -> List[Node]:
    """Stack-Tree, ancestor-major semi-join.

    Returns the distinct ancestors with at least one descendant in
    ``axis`` relation, in document order.  One sweep of the descendant
    list with binary searches over the ancestor candidates.
    """
    if not ancestors or not descendants:
        return []
    include_self = axis is Axis.DESCENDANT_OR_SELF
    descendant_pres = [node.pre for node in descendants]
    matched: list[Node] = []
    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        # Parent identity check: group descendants by parent once.
        parent_ids = {id(node.parent) for node in descendants}
        return [ancestor for ancestor in ancestors
                if id(ancestor) in parent_ids]
    for ancestor in ancestors:
        low_key = ancestor.pre if include_self else ancestor.pre + 1
        low = bisect_left(descendant_pres, low_key)
        high = bisect_right(descendant_pres, ancestor.end)
        if high > low:
            matched.append(ancestor)
    return matched
