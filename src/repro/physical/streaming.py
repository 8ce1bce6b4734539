"""Streaming XPath evaluation (the paper's Section 7 future work).

Evaluates a downward tree pattern in a *single pass* over the document
event stream (element enter/leave events, attributes as immediate
enter+leave pairs), using memory proportional to document depth plus
buffered candidate outputs — the discipline of streaming XPath engines
(XSQ, TurboXPath, SPEX).

Per query node, a stack of open *candidacies* tracks elements that
could play that role given their open ancestors.  Predicate branches
resolve bottom-up: when a candidate element's subtree closes with all
its child sub-patterns satisfied, it marks the requirement satisfied on
every valid open anchor.  Spine matches buffer their extraction-point
nodes and release them upward as each spine ancestor confirms; outputs
become final when a spine-root candidacy anchored at the context node
completes.  An element whose predicates fail simply drops its buffer.

Only the downward fragment without ``text()`` or positions is
supported; anything else goes to NLJoin (see
:mod:`repro.physical.base`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..guard.chaos import chaos_point
from ..pattern import PatternPath
from ..xmltree.axes import Axis
from ..xmltree.document import IndexedDocument, ddo
from ..xmltree.node import AttributeNode, ElementNode, Node
from .base import Run, TreePatternAlgorithm
from .twigjoin import _QueryNode, _build_query_tree

ENTER, LEAVE = 0, 1


@dataclass
class _Candidacy:
    """An open element playing the role of one query node."""

    element: Node
    query: _QueryNode
    satisfied: Set[int] = field(default_factory=set)
    pending: List[Node] = field(default_factory=list)

    def completed(self) -> bool:
        return all(child.index in self.satisfied
                   for child in self.query.children)


class StreamingXPath(TreePatternAlgorithm):
    """One-pass, event-driven pattern matching."""

    name = "streaming"
    axes = frozenset(axis for axis in Axis if axis.is_downward)
    text_tests = False
    #: Positional steps need per-anchor ordered buffering, which this
    #: matcher does not implement.
    positions = False

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath, run: Run) -> List[Node]:
        results: list[Node] = []
        for context in contexts:
            results.extend(self._stream_one(context, path, run))
        return chaos_point("streaming.match", ddo(results))

    # -- the automaton ---------------------------------------------------------

    def _stream_one(self, context: Node, path: PatternPath,
                    run: Run) -> List[Node]:
        nodes: list[_QueryNode] = []
        root_query = _build_query_tree(path, on_spine=True, nodes=nodes)
        spine_leaf = root_query
        while True:
            spine_children = [c for c in spine_leaf.children if c.on_spine]
            if not spine_children:
                break
            spine_leaf = spine_children[0]

        # Per query node: the stack of open candidacies (innermost last).
        open_stacks: Dict[int, List[_Candidacy]] = {
            query.index: [] for query in nodes}
        results: list[Node] = []
        events_seen = 0
        candidacy_pushes = 0

        def valid_anchors(query: _QueryNode, element: Node
                          ) -> List[Optional[_Candidacy]]:
            """Open anchor candidacies for a query node's edge."""
            axis = query.axis
            if query.parent is None:
                # Anchored at the context node itself.
                if axis is Axis.DESCENDANT_OR_SELF:
                    ok = context.contains_or_self(element)
                elif axis is Axis.SELF:
                    ok = element is context
                elif axis in (Axis.CHILD, Axis.ATTRIBUTE):
                    ok = element.parent is context
                else:
                    ok = context.contains(element)
                return [None] if ok else []
            anchors: list[Optional[_Candidacy]] = []
            for candidacy in open_stacks[query.parent.index]:
                anchor = candidacy.element
                if axis in (Axis.CHILD, Axis.ATTRIBUTE):
                    if element.parent is anchor:
                        anchors.append(candidacy)
                elif axis is Axis.SELF:
                    if element is anchor:
                        anchors.append(candidacy)
                elif axis is Axis.DESCENDANT_OR_SELF:
                    if anchor.contains_or_self(element):
                        anchors.append(candidacy)
                else:  # descendant
                    if anchor.contains(element):
                        anchors.append(candidacy)
            return anchors

        def on_enter(element: Node) -> None:
            # Pre-order over query nodes so same-element parent
            # candidacies exist before self-axis children look for them.
            for query in nodes:
                kind = query.axis.principal_kind
                if not query.test.matches(element, kind):
                    continue
                if isinstance(element, AttributeNode) != (
                        query.axis is Axis.ATTRIBUTE):
                    continue
                if valid_anchors(query, element):
                    open_stacks[query.index].append(
                        _Candidacy(element, query))
                    nonlocal candidacy_pushes
                    candidacy_pushes += 1

        def on_leave(element: Node) -> None:
            # Reverse pre-order: deeper query roles resolve first so a
            # self-axis child can satisfy its same-element parent.
            for query in reversed(nodes):
                stack = open_stacks[query.index]
                if not stack or stack[-1].element is not element:
                    continue
                candidacy = stack.pop()
                if not candidacy.completed():
                    continue  # predicates failed: drop buffered output
                if query is spine_leaf:
                    candidacy.pending.append(element)
                anchors = valid_anchors(query, element)
                if query.parent is None:
                    if anchors:  # anchored at the context
                        results.extend(candidacy.pending)
                    continue
                for anchor in anchors:
                    assert anchor is not None
                    anchor.satisfied.add(query.index)
                    if query.on_spine:
                        anchor.pending.extend(candidacy.pending)

        instrumented = run.instrumented
        for kind, node in _events(context):
            if kind == ENTER:
                events_seen += 1
                if instrumented:
                    run.work(self.name, 1)
                on_enter(node)
            else:
                on_leave(node)
        if instrumented:
            run.work(self.name, visited=events_seen,
                     pushes=candidacy_pushes)
        return results


def _events(context: Node) -> Iterator[Tuple[int, Node]]:
    """Enter/leave events for the context subtree (context included,
    so descendant-or-self::/self:: roots can match the context)."""
    stack: list[Tuple[int, Node]] = [(ENTER, context)]
    while stack:
        kind, node = stack.pop()
        if kind == LEAVE:
            yield kind, node
            continue
        yield ENTER, node
        stack.append((LEAVE, node))
        for child in reversed(node.children):
            stack.append((ENTER, child))
        if isinstance(node, ElementNode):
            for attribute in reversed(node.attributes):
                stack.append((LEAVE, attribute))
                stack.append((ENTER, attribute))
    # Note: attribute leave is pushed before enter and popped after it
    # because the stack reverses order.

