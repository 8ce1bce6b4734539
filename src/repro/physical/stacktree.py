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

The joins run on the document's columns: the lists are ``pre``
streams (:meth:`~repro.xmltree.nodetest.NodeTest.stream`), the stack
reads the ``end`` column, child and attribute edges the ``parent``
column, and nodes are made only for the result rows.

Positional steps, ``text()`` tests and non-downward axes go to NLJoin
(see :mod:`repro.physical.base`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from ..guard.chaos import chaos_point
from ..pattern import PatternPath, PatternStep
from ..xmltree.axes import Axis
from ..xmltree.columnar import ColumnarDocument
from ..xmltree.document import IndexedDocument
from ..xmltree.node import Node
from .base import Run, TreePatternAlgorithm


class StackTreeJoin(TreePatternAlgorithm):
    """Binary structural joins over full tag streams."""

    name = "stacktree"
    axes = frozenset((Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
                      Axis.ATTRIBUTE))
    text_tests = False
    positions = False

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath, run: Run) -> List[Node]:
        columns = document.columns
        current: Sequence[int] = sorted({node.pre for node in contexts})
        for step in path.steps:
            candidates = self._qualified_candidates(columns, step, run)
            current = stack_tree_descendants(columns, current, candidates,
                                             step.axis, run)
        # Nodes exist only at the result boundary.
        return chaos_point("stacktree.match",
                           [document.node_at(pre) for pre in current])

    # -- list-at-a-time evaluation ---------------------------------------------

    def _qualified_candidates(self, columns: ColumnarDocument,
                              step: PatternStep, run: Run) -> Sequence[int]:
        """The pres of all document nodes matching the step's test whose
        predicate branches are satisfied (computed bottom-up,
        list-at-a-time)."""
        candidates = step.test.stream(columns, step.axis is Axis.ATTRIBUTE)
        if run.instrumented:
            run.work(self.name, len(candidates) + 1,
                     scanned=len(candidates))
        for branch in step.predicates:
            candidates = self._filter_by_branch(columns, candidates, branch,
                                                run)
        return candidates

    def _filter_by_branch(self, columns: ColumnarDocument,
                          anchors: Sequence[int], branch: PatternPath,
                          run: Run) -> Sequence[int]:
        """Semi-join: keep anchors with at least one branch match."""
        steps = branch.steps
        # Build the qualifying sets bottom-up: the last step's candidates
        # first, then each earlier step filtered by "has a qualifying
        # successor".
        qualifying = self._qualified_candidates(columns, steps[-1], run)
        for index in range(len(steps) - 2, -1, -1):
            earlier_candidates = self._qualified_candidates(
                columns, steps[index], run)
            qualifying = stack_tree_ancestors(columns, earlier_candidates,
                                              qualifying,
                                              steps[index + 1].axis)
        return stack_tree_ancestors(columns, anchors, qualifying,
                                    steps[0].axis)


def stack_tree_descendants(columns: ColumnarDocument,
                           ancestors: Sequence[int],
                           descendants: Sequence[int], axis: Axis,
                           run: Run) -> List[int]:
    """Stack-Tree-Desc, descendant-major semi-join.

    Both inputs sorted pres; returns the distinct descendants that
    stand in ``axis`` relation to some ancestor, in document order —
    one merge sweep with a stack of open ancestors.
    """
    if run.instrumented:
        run.work(StackTreeJoin.name, len(descendants) + 1,
                 visited=len(descendants))
    end_column = columns.end
    parent_column = columns.parent
    include_self = axis is Axis.DESCENDANT_OR_SELF
    by_parent = axis in (Axis.CHILD, Axis.ATTRIBUTE)
    result: List[int] = []
    stack: List[int] = []
    open_pres: set = set()
    a_index = 0
    pushes = 0
    for descendant in descendants:
        # Open every ancestor that starts at or before this descendant.
        while (a_index < len(ancestors)
               and (ancestors[a_index] < descendant
                    or (include_self
                        and ancestors[a_index] == descendant))):
            ancestor = ancestors[a_index]
            while stack and end_column[stack[-1]] < ancestor:
                open_pres.discard(stack.pop())
            stack.append(ancestor)
            pushes += 1
            open_pres.add(ancestor)
            a_index += 1
        # Close ancestors that ended before this descendant.
        while stack and end_column[stack[-1]] < descendant:
            open_pres.discard(stack.pop())
        if not stack:
            continue
        if include_self and descendant in open_pres:
            result.append(descendant)
            continue
        if by_parent:
            if parent_column[descendant] in open_pres:
                result.append(descendant)
        elif stack[-1] < descendant:
            result.append(descendant)
    if run.instrumented:
        run.work(StackTreeJoin.name, pushes=pushes)
    return result


def stack_tree_ancestors(columns: ColumnarDocument,
                         ancestors: Sequence[int],
                         descendants: Sequence[int],
                         axis: Axis) -> List[int]:
    """Stack-Tree, ancestor-major semi-join.

    Returns the distinct ancestors (sorted pres) with at least one
    descendant in ``axis`` relation, in document order.  One sweep of
    the descendant list with binary searches over the ancestor
    candidates.
    """
    if not len(ancestors) or not len(descendants):
        return []
    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        # Parent check: gather the descendants' parents once.
        parents = set(map(columns.parent.__getitem__, descendants))
        return [ancestor for ancestor in ancestors if ancestor in parents]
    include_self = axis is Axis.DESCENDANT_OR_SELF
    end_column = columns.end
    matched: List[int] = []
    for ancestor in ancestors:
        low_key = ancestor if include_self else ancestor + 1
        low = bisect_left(descendants, low_key)
        high = bisect_right(descendants, end_column[ancestor])
        if high > low:
            matched.append(ancestor)
    return matched
