"""Holistic twig join (TwigJoin).

Evaluates a whole tree pattern in one coordinated pass over per-tag
*streams* (the document's elements of each tag, sorted by ``pre``),
in the style of Bruno, Koudas & Srivastava's TwigStack:

* **stack phase** — all query nodes' streams are swept together in
  document order while a stack per query node tracks the currently open
  (ancestor) elements; a stream element survives as a *candidate* only
  if an element of the parent query node is open at that moment
  (ancestor–descendant relaxation of the edge);
* **expansion phase** — candidates are merge-joined top-down into full
  twig matches, re-checking each edge's exact axis (this is where the
  relaxed child/attribute edges are enforced — the standard "suboptimal
  but correct" treatment of parent-child edges).

Since the columnar refactor the sweep runs entirely in *integer space*:
streams, stacks and candidates are ``pre`` numbers, the open/closed
bookkeeping reads the document's ``end`` column, edges are checked
against the ``parent``/``kind`` columns, and node objects are
materialized only at the result boundary (the returned matches).

Each ``TupleTreePattern`` evaluation scans the streams restricted (by
binary search) to the context node's region, which gives TwigJoin the
per-step index-scan cost profile of the paper's Section 5.3 experiment.

Axes outside the twig fragment (self, reverse axes) and ``text()``
tests go to NLJoin (see :mod:`repro.physical.base`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..guard.chaos import chaos_point
from ..pattern import PatternPath
from ..xmltree.axes import Axis
from ..xmltree.columnar import KIND_ATTRIBUTE, ColumnarDocument
from ..xmltree.document import IndexedDocument
from ..xmltree.node import Node
from ..xmltree.nodetest import NodeTest
from .base import Run, TreePatternAlgorithm


@dataclass
class _QueryNode:
    """One node of the twig query tree."""

    axis: Axis
    test: NodeTest
    on_spine: bool
    index: int
    position: Optional[int] = None
    #: True when this node continues its parent's *path* (as opposed to
    #: being a predicate branch): positions apply before continuations
    #: but after predicate branches.
    is_continuation: bool = False
    parent: Optional["_QueryNode"] = None
    children: List["_QueryNode"] = field(default_factory=list)
    # Per-evaluation state, all in integer pre-space.
    stream: Sequence[int] = ()
    stack: List[int] = field(default_factory=list)
    candidates: List[int] = field(default_factory=list)


def _build_query_tree(path: PatternPath, on_spine: bool,
                      nodes: List[_QueryNode]) -> _QueryNode:
    first: Optional[_QueryNode] = None
    previous: Optional[_QueryNode] = None
    for step in path.steps:
        node = _QueryNode(axis=step.axis, test=step.test,
                          on_spine=on_spine, index=len(nodes),
                          position=step.position)
        nodes.append(node)
        if previous is not None:
            node.is_continuation = True
            previous.children.append(node)
            node.parent = previous
        for branch in step.predicates:
            branch_root = _build_query_tree(branch, on_spine=False,
                                            nodes=nodes)
            branch_root.parent = node
            node.children.append(branch_root)
        if first is None:
            first = node
        previous = node
    assert first is not None
    return first


class TwigJoin(TreePatternAlgorithm):
    """Holistic twig join over per-tag integer streams."""

    name = "twigjoin"
    axes = frozenset((Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
                      Axis.ATTRIBUTE))
    text_tests = False

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath, run: Run) -> List[Node]:
        columns = document.columns
        results: List[int] = []
        for context in contexts:
            spine_index, matches = self._solve(columns, context, path, run)
            results.extend(match[spine_index] for match in matches)
        # distinct-doc-order in integer space, nodes only at the result
        # boundary.
        return chaos_point("twigjoin.match",
                           [document.node_at(pre)
                            for pre in sorted(set(results))])

    def _solve(self, columns: ColumnarDocument, context: Node,
               path: PatternPath, run: Run):
        nodes: List[_QueryNode] = []
        root = _build_query_tree(path, on_spine=True, nodes=nodes)
        spine_leaf = root
        while True:
            next_spine = [c for c in spine_leaf.children if c.on_spine]
            if not next_spine:
                break
            spine_leaf = next_spine[0]
        return spine_leaf.index, _twig_matches(columns, context.pre,
                                               context.end, root, nodes,
                                               run)


def _stream_for(columns: ColumnarDocument, context_pre: int,
                context_end: int, node: _QueryNode) -> Sequence[int]:
    """The region-restricted ``pre`` stream for one query node."""
    return _region_slice(
        node.test.stream(columns, node.axis is Axis.ATTRIBUTE),
        context_pre, context_end,
        include_self=node.axis is Axis.DESCENDANT_OR_SELF)


def _region_slice(pres: Sequence[int], context_pre: int, context_end: int,
                  include_self: bool) -> Sequence[int]:
    low_key = context_pre if include_self else context_pre + 1
    low = bisect_left(pres, low_key)
    high = bisect_right(pres, context_end)
    return pres[low:high]


def _twig_matches(columns: ColumnarDocument, context_pre: int,
                  context_end: int, root: _QueryNode,
                  nodes: List[_QueryNode], run: Run) -> list:
    for query_node in nodes:
        query_node.stream = _stream_for(columns, context_pre, context_end,
                                        query_node)
        query_node.stack = []
        query_node.candidates = []
    total_stream = sum(len(query_node.stream) for query_node in nodes)
    if run.instrumented:
        # Pre-charge the sweep about to happen so the budget trips
        # before the work, not after.
        run.work(TwigJoin.name, total_stream + 1, scanned=total_stream)
    _stack_phase(columns, context_pre, context_end, nodes, run)
    if any(not query_node.candidates for query_node in nodes):
        return []
    return _expand(columns, context_pre, root, nodes, run)


def _stack_phase(columns: ColumnarDocument, context_pre: int,
                 context_end: int, nodes: List[_QueryNode],
                 run: Run) -> None:
    """Sweep all streams in document order, keeping per-query-node stacks
    of open elements; an element is a candidate when an element of its
    parent query node (or the context, for roots) is open."""
    end_column = columns.end
    events: List[tuple] = []
    for query_node in nodes:
        index = query_node.index
        events.extend((pre, index) for pre in query_node.stream)
    events.sort(key=lambda event: event[0])
    pushes = 0
    candidates_kept = 0
    for pre, index in events:
        query_node = nodes[index]
        parent = query_node.parent
        if parent is None:
            if query_node.axis is Axis.DESCENDANT_OR_SELF:
                ancestor_open = context_pre <= pre <= context_end
            else:
                ancestor_open = context_pre < pre <= context_end
        else:
            stack = parent.stack
            while stack and end_column[stack[-1]] < pre:
                stack.pop()
            ancestor_open = bool(stack)
        if not ancestor_open:
            continue
        stack = query_node.stack
        while stack and end_column[stack[-1]] < pre:
            stack.pop()
        stack.append(pre)
        pushes += 1
        query_node.candidates.append(pre)
        candidates_kept += 1
    if run.instrumented:
        run.work(TwigJoin.name, pushes=pushes, visited=candidates_kept)


def _candidates_under(columns: ColumnarDocument, query_node: _QueryNode,
                      anchor: int) -> List[int]:
    include_self = query_node.axis is Axis.DESCENDANT_OR_SELF
    low_key = anchor if include_self else anchor + 1
    candidates = query_node.candidates
    low = bisect_left(candidates, low_key)
    high = bisect_right(candidates, columns.end[anchor])
    return [candidate for candidate in candidates[low:high]
            if _edge_holds(columns, anchor, candidate, query_node.axis)]


def _surviving_candidates(columns: ColumnarDocument,
                          query_node: _QueryNode,
                          anchor: int) -> List[int]:
    """Edge- and predicate-filtered candidates in document order, with
    the positional extension applied (positions count per anchor, after
    the predicate branches, before any path continuation)."""
    predicates = [child for child in query_node.children
                  if not child.is_continuation]
    survivors = [candidate
                 for candidate in _candidates_under(columns, query_node,
                                                    anchor)
                 if all(_branch_exists(columns, child, candidate)
                        for child in predicates)]
    if query_node.position is not None:
        index = query_node.position - 1
        survivors = ([survivors[index]]
                     if 0 <= index < len(survivors) else [])
    return survivors


def _branch_exists(columns: ColumnarDocument, query_node: _QueryNode,
                   anchor: int) -> bool:
    """Existential check of one (sub-)branch from an anchor element."""
    continuations = [child for child in query_node.children
                     if child.is_continuation]
    for candidate in _surviving_candidates(columns, query_node, anchor):
        if all(_branch_exists(columns, child, candidate)
               for child in continuations):
            return True
    return False


def _expand(columns: ColumnarDocument, context_pre: int, root: _QueryNode,
            nodes: List[_QueryNode], run: Run) -> list:
    """Merge candidates into full matches, enforcing exact axes.

    Spine nodes are enumerated; branch nodes are checked existentially
    (a semi-join), which keeps extraction evaluation linear in the
    number of spine matches.
    """
    matches: List[List[Optional[int]]] = []
    assignment: dict = {}

    def enumerate_node(todo: List[_QueryNode]) -> None:
        if not todo:
            matches.append([assignment.get(n.index) for n in nodes])
            return
        query_node = todo[0]
        anchor = (assignment[query_node.parent.index]
                  if query_node.parent is not None else context_pre)
        spine_children = [child for child in query_node.children
                          if child.is_continuation]
        for candidate in _surviving_candidates(columns, query_node,
                                               anchor):
            if run.instrumented:
                # The expansion is the one phase that can blow up
                # combinatorially; charge per candidate considered.
                run.work(TwigJoin.name, 1)
            assignment[query_node.index] = candidate
            enumerate_node(spine_children + todo[1:])
            del assignment[query_node.index]

    enumerate_node([root])
    return matches


def _edge_holds(columns: ColumnarDocument, ancestor: int, candidate: int,
                axis: Axis) -> bool:
    if axis is Axis.CHILD:
        return columns.parent[candidate] == ancestor
    if axis is Axis.ATTRIBUTE:
        return (columns.kind[candidate] == KIND_ATTRIBUTE
                and columns.parent[candidate] == ancestor)
    if axis is Axis.DESCENDANT:
        return ancestor < candidate <= columns.end[ancestor]
    if axis is Axis.DESCENDANT_OR_SELF:
        return ancestor <= candidate <= columns.end[ancestor]
    return False
