"""Staircase join (SCJoin) — Grust & van Keulen's tree-aware join.

The staircase join evaluates one location step for a whole *sequence* of
context nodes at once on the pre/post plane:

* **pruning** — context nodes whose regions are covered by other
  context nodes are removed (for the descendant axis, a context nested
  inside another contributes nothing new);
* **partition scan** — the remaining "staircase" of disjoint regions is
  swept left to right; each partition is answered with one binary search
  on the tag stream plus a scan of the region slice, so results come out
  in document order *without a sort* and duplicate-free *without a
  dedup*.

Since the columnar refactor the whole evaluation runs in *integer
space*: contexts are converted to ``pre`` numbers once, every step is a
merge of ``pre`` streams against the document's
:class:`~repro.xmltree.columnar.ColumnarDocument` columns (``end``,
``parent``, ``kind``), and node objects are materialized only at the
result boundary — exactly the staircase join of Grust et al., which is
defined over the integer pre/post plane, not over heap objects.

Patterns are evaluated spine-step-by-spine-step (each step one staircase
join).  A predicate branch is a *bottom-up semi-join* that filters the
step's whole sorted output at once: innermost step first, each branch
step reads its stream once inside the hull of the candidates' regions
and keeps the entries that satisfy what hangs below them; the candidates
are then filtered against that list.  The hull ends where the outermost
candidate enclosing the last one ends: a walk up the last one's
ancestors, one ``bisect`` per level.  The filter is a C-level
``parent``-set test for ``child``/``attribute``; for ``descendant`` it
starts from the smaller side: few satisfying entries walk up the
``parent`` column, each node once, many are merged with the candidates
in one hinted pass.  This is the paper's "each branch adds a pass"
(Section 5): the cost of a twig is one pass per query node over that
node's stream, never candidates × region.  Only positional branch steps
are walked per candidate, because positions count per context node by
definition.

A *batch* of input tuples (:meth:`StaircaseJoin.evaluate_each`, one
context node per tuple) is answered by the same kernels, not by one walk
per tuple, into one column of match ``pre``s plus each tuple's offset
in it.  Contexts sorted with disjoint regions (one C-level pass over
``end``) are one walk, and — a downward match inside a region can only
have been reached from that region's root — a context's matches start
at the first one from its ``pre`` on.  A one-step ``child`` or
``descendant`` pattern is one walk however the contexts nest: a child
belongs to its parent, a descendant to every context whose region holds
it.  Other batches are peeled into layers whose regions do not nest,
one walk per layer.

Axes outside the downward fragment go to NLJoin (see
:mod:`repro.physical.base`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import lt
from typing import List, Optional, Sequence, Tuple

from ..guard.chaos import chaos_point
from ..pattern import PatternPath, PatternStep, TreePattern
from ..xmltree.axes import Axis
from ..xmltree.columnar import KIND_ELEMENT, ColumnarDocument
from ..xmltree.document import IndexedDocument
from ..xmltree.node import Node
from .base import NO_RUN, Run, TreePatternAlgorithm, as_column

#: ``_child_join`` gathers over the contexts' hull instead of scanning
#: one region per context when the hull holds at most this many stream
#: entries per context (a region scan costs two binary searches and a
#: slice before it reads its first entry).
_GATHER_FANOUT = 16

#: A branch semi-join walks up the ``parent`` column instead of passing
#: over its candidates when ``level`` bounds the walk to under one step
#: per this many candidates.
_FEW = 4


class StaircaseJoin(TreePatternAlgorithm):
    """Set-at-a-time staircase join evaluation in integer pre-space."""

    name = "scjoin"
    axes = frozenset(axis for axis in Axis if axis.is_downward)

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath, run: Run) -> List[Node]:
        # Into integer space: sorted, duplicate-free context pres.
        current = self._join_path(document.columns,
                                  sorted({node.pre for node in contexts}),
                                  path, run)
        # Out of integer space: nodes exist only at the result boundary.
        return chaos_point("scjoin.match",
                           [document.node_at(pre) for pre in current])

    def evaluate_each(self, document: IndexedDocument, contexts: List[Node],
                      pattern: TreePattern,
                      run: Run = NO_RUN) -> Tuple[List[int], List[int]]:
        if (pattern.single_output_field is None
                or not self.covers(pattern.path, contexts)):
            # NLJoin's work is per tuple.
            return super().evaluate_each(document, contexts, pattern, run)
        return self._invoke(self._match_each, document, contexts, pattern,
                            True, run)

    def _match_each(self, document: IndexedDocument, pres: List[int],
                    pattern: TreePattern,
                    run: Run) -> Tuple[List[int], List[int]]:
        """``match_single`` from each context ``pre`` on its own: the
        match column and its offsets.  One walk for sorted, disjoint
        contexts or a one-step pattern, else one walk per layer of
        contexts whose regions do not nest."""
        columns = document.columns
        end_column = columns.end
        if all(map(lt, map(end_column.__getitem__, pres), pres[1:])):
            # Sorted, with disjoint regions (``end[pre] >= pre``).
            return self._walk(columns, pres, pattern.path, run)
        distinct = sorted(set(pres))
        steps = pattern.path.steps
        if (len(steps) == 1 and steps[0].position is None
                and steps[0].axis in (Axis.CHILD, Axis.DESCENDANT)):
            # One step: a match's context follows from the match, so one
            # walk from every distinct context answers the whole batch.
            matches = chaos_point("scjoin.match", self._join_path(
                columns, distinct, pattern.path, run))
            if steps[0].axis is Axis.CHILD:
                # A child belongs to its parent: group by it (the sort is
                # stable, so each group stays in document order).
                owner = columns.parent.__getitem__
                matches = sorted(matches, key=owner)
                owners = list(map(owner, matches))
                lows = map(bisect_left, repeat(owners), pres)
                highs = map(bisect_right, repeat(owners), pres)
            else:
                # A descendant belongs to every context whose region
                # ``(pre, end[pre]]`` holds it.
                lows = map(bisect_right, repeat(matches), pres)
                highs = map(bisect_right, repeat(matches),
                            map(end_column.__getitem__, pres))
            return as_column(list(map(matches.__getitem__,
                                      map(slice, lows, highs))))
        # Peel: a context goes to the layer numbered by how many other
        # contexts enclose it, so regions within a layer are disjoint
        # and each layer is in document order.
        layers: List[List[int]] = []
        enclosing: List[int] = []       # ends of the open outer contexts
        for pre in distinct:
            while enclosing and enclosing[-1] < pre:
                enclosing.pop()
            if len(enclosing) == len(layers):
                layers.append([])
            layers[len(enclosing)].append(pre)
            enclosing.append(end_column[pre])
        answers = {}
        for layer in layers:
            matches, offsets = self._walk(columns, layer, pattern.path, run)
            answers.update(zip(layer, map(matches.__getitem__, map(
                slice, offsets, offsets[1:]))))
        return as_column(list(map(answers.__getitem__, pres)))

    def _walk(self, columns: ColumnarDocument, layer: List[int],
              path: PatternPath, run: Run) -> Tuple[List[int], List[int]]:
        """One walk from a layer of contexts (sorted, with disjoint
        regions), each context's matches from the first at its ``pre``."""
        matches = chaos_point("scjoin.match", self._join_path(
            columns, layer, path, run))
        offsets = list(map(bisect_left, repeat(matches), layer))
        offsets.append(len(matches))
        return matches, offsets

    # -- the join ----------------------------------------------------------------

    def _join_path(self, columns: ColumnarDocument, current: List[int],
                   path: PatternPath, run: Run) -> List[int]:
        """Evaluate ``path`` forward from the context pres, one
        staircase join per step."""
        for step in path.steps:
            if not current:
                break
            if step.position is not None:
                current = self._positional_step(columns, current, step,
                                                run)
                continue
            current = self._staircase_step(columns, current, step, run)
            for branch in step.predicates:
                current = self._semi_join(columns, current, branch, run)
        return current

    def _staircase_step(self, columns: ColumnarDocument,
                        contexts: List[int], step: PatternStep,
                        run: Run) -> List[int]:
        """One staircase join: context pres (doc order, dup-free) →
        result pres (doc order, dup-free)."""
        if not contexts:
            return []
        axis = step.axis
        if run.instrumented:
            run.work(self.name, len(contexts) + 1)
        if axis is Axis.SELF:
            kind = axis.principal_kind
            if run.instrumented:
                run.work(self.name, visited=len(contexts))
            test = step.test
            return [pre for pre in contexts
                    if columns.test_matches(pre, test, kind)]
        if axis is Axis.ATTRIBUTE:
            result: List[int] = []
            kind_column = columns.kind
            test = step.test
            for context in contexts:
                if kind_column[context] == KIND_ELEMENT:
                    attributes = columns.attributes_of(context)
                    if run.instrumented:
                        run.work(self.name, visited=len(attributes))
                    result.extend(
                        pre for pre in attributes
                        if columns.test_matches(pre, test, "attribute"))
            return result
        if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            return self._descendant_join(columns, contexts, step,
                                         axis is Axis.DESCENDANT_OR_SELF,
                                         run)
        if axis is Axis.CHILD:
            return self._child_join(columns, contexts, step, run)
        raise AssertionError(f"unsupported axis {axis}")

    def _descendant_join(self, columns: ColumnarDocument,
                         contexts: List[int], step: PatternStep,
                         include_self: bool, run: Run) -> List[int]:
        pres = step.test.stream(columns)
        end_column = columns.end
        pruned = _prune_covered(contexts, end_column)
        result: List[int] = []
        # The pruned staircase has pairwise-disjoint regions in document
        # order: concatenating the partition scans yields sorted,
        # duplicate-free output with no post-processing.
        for context in pruned:
            low_key = context if include_self else context + 1
            low = bisect_left(pres, low_key)
            high = bisect_right(pres, end_column[context])
            result.extend(pres[low:high])
        if run.instrumented:
            run.work(self.name, len(result), visited=len(result),
                     scanned=len(result))
        return result

    def _child_join(self, columns: ColumnarDocument, contexts: List[int],
                    step: PatternStep, run: Run) -> List[int]:
        pres = step.test.stream(columns)
        end_column = columns.end
        parent_column = columns.parent
        low = bisect_left(pres, contexts[0] + 1)
        high = bisect_right(pres, _hull_end(columns, contexts))
        if 1 < len(contexts) and high - low <= _GATHER_FANOUT * len(contexts):
            # Many contexts close together: one gather of the parent
            # column over the hull slice, which comes out in stream
            # order — sorted and duplicate-free.
            if run.instrumented:
                run.work(self.name, high - low + 1, visited=high - low,
                         scanned=high - low)
            members = set(contexts)
            return [pre for pre in pres[low:high]
                    if parent_column[pre] in members]
        # Children of distinct contexts are disjoint, but nested contexts
        # interleave regions; detect the (common) non-nested case to skip
        # the merge.
        merged: List[int] = []
        nested = False
        previous_end = -1
        for context in contexts:
            if context <= previous_end:
                nested = True
            end = end_column[context]
            previous_end = max(previous_end, end)
            at = bisect_left(pres, context + 1, low, high)
            stop = bisect_right(pres, end, at, high)
            visited = 0
            # Skip as the staircase does: an entry that is not a child
            # lies below one, and nothing inside an entry's own region is
            # a child, so go on past that region.
            while at < stop:
                pre = pres[at]
                visited += 1
                if parent_column[pre] == context:
                    merged.append(pre)
                at += 1
                if at < stop and pres[at] <= end_column[pre]:
                    at = bisect_right(pres, end_column[pre], at, stop)
            if run.instrumented:
                run.work(self.name, visited + 1, visited=visited,
                         scanned=visited)
        if nested:
            merged = sorted(set(merged))
        return merged

    def _positional_step(self, columns: ColumnarDocument,
                         contexts: List[int], step: PatternStep,
                         run: Run) -> List[int]:
        """A positional step (``step[P]...[n]``) is inherently
        per-context: the staircase's bulk partition scan cannot apply,
        so each context is answered with its own region scan (positions
        count per context node, after branch filtering)."""
        end_column = columns.end
        merged: List[int] = []
        nested = False
        previous_end = -1
        for context in contexts:
            if context <= previous_end:
                nested = True
            previous_end = max(previous_end, end_column[context])
            survivors = self._staircase_step(columns, [context], step, run)
            for branch in step.predicates:
                survivors = self._semi_join(columns, survivors, branch, run)
            index = step.position - 1
            if 0 <= index < len(survivors):
                merged.append(survivors[index])
        if nested:
            merged = sorted(set(merged))
        return merged

    def _semi_join(self, columns: ColumnarDocument,
                   candidates: Sequence[int], branch: PatternPath,
                   run: Run) -> Sequence[int]:
        """Existential semi-join of a predicate branch: the candidates
        (sorted pres) from which ``branch`` has a match."""
        if branch.has_position:
            # Positions count per context node: walk from each candidate.
            return [pre for pre in candidates
                    if self._join_path(columns, [pre], branch, run)]
        return self._having(columns, candidates, branch.steps, 0, run)

    def _having(self, columns: ColumnarDocument, candidates: Sequence[int],
                steps: Sequence[PatternStep], index: int,
                run: Run) -> Sequence[int]:
        """The candidates from which ``steps[index:]`` has a match,
        computed bottom-up: the step's stream inside the candidates'
        hull, narrowed to the entries satisfying what hangs below them,
        then one set-at-a-time filter of the candidates against it."""
        if not len(candidates):
            return candidates
        step = steps[index]
        axis = step.axis
        if axis is Axis.SELF:
            satisfying = self._staircase_step(columns, candidates, step,
                                              run)
        else:
            # Where a candidate's matches start relative to its ``pre``.
            offset = 0 if axis is Axis.DESCENDANT_OR_SELF else 1
            if axis is Axis.ATTRIBUTE:
                # Attributes directly follow their owner element.
                last = columns.attributes_of(candidates[-1]).stop - 1
            else:
                last = _hull_end(columns, candidates)
            pres = step.test.stream(columns, axis is Axis.ATTRIBUTE)
            low = bisect_left(pres, candidates[0] + offset)
            high = bisect_right(pres, last)
            satisfying = pres[low:high]
            if run.instrumented:
                run.work(self.name, high - low + len(candidates) + 1,
                         visited=high - low, scanned=high - low)
        for branch in step.predicates:
            satisfying = self._semi_join(columns, satisfying, branch, run)
        if index + 1 < len(steps):
            satisfying = self._having(columns, satisfying, steps, index + 1,
                                      run)
        if axis is Axis.SELF:
            return satisfying
        if not len(satisfying):
            return []
        if axis in (Axis.CHILD, Axis.ATTRIBUTE):
            parents = set(map(columns.parent.__getitem__, satisfying))
            return list(filter(parents.__contains__, candidates))
        if len(satisfying) * _FEW < len(candidates):
            kept = _enclosing(columns, candidates, satisfying, offset)
            if kept is not None:
                return kept
        # descendant(-or-self), many entries: one merge, a candidate kept
        # if the next entry from its region start still lies inside it.
        entries = list(satisfying)
        count = len(entries)
        end_column = columns.end
        kept = []
        at = 0
        for pre in candidates:
            at = bisect_left(entries, pre + offset, at)
            if at == count:
                break
            if entries[at] <= end_column[pre]:
                kept.append(pre)
        return kept


def _hull_end(columns: ColumnarDocument, candidates: Sequence[int]) -> int:
    """``end`` of the candidates' hull (sorted pres).  Regions nest or
    are disjoint, so it is that of the outermost candidate enclosing the
    last one: walk the last one's ancestors, one ``bisect`` each, or below
    a deep last one read the pruned staircase's last region."""
    end_column = columns.end
    node = outer = candidates[-1]
    if columns.level[node] * _FEW >= len(candidates):
        return end_column[_prune_covered(candidates, end_column)[-1]]
    parent_column = columns.parent
    first = candidates[0]
    while True:
        node = parent_column[node]
        if node < first:
            return end_column[outer]
        if candidates[bisect_left(candidates, node)] == node:
            outer = node


def _enclosing(columns: ColumnarDocument, candidates: Sequence[int],
               satisfying: Sequence[int], offset: int) -> Optional[List[int]]:
    """The candidates with a satisfying entry in their region from
    ``pre + offset`` on, from the satisfying side: walk up from each
    entry through the ``parent`` column, stopping at a node an earlier
    walk reached.  A walk takes at most the entry's level in steps;
    ``None`` once one could take the walks past one step per ``_FEW``
    candidates."""
    parent_column = columns.parent
    level_column = columns.level
    first = candidates[0]
    limit = len(candidates) // _FEW
    reached = set()
    for entry in satisfying:
        if len(reached) + level_column[entry] > limit:
            return None
        node = parent_column[entry] if offset else entry
        while node >= first and node not in reached:
            reached.add(node)
            node = parent_column[node]
    return sorted(reached.intersection(candidates))


def _prune_covered(contexts: List[int], end_column) -> List[int]:
    """Drop contexts contained in an earlier context (staircase pruning)."""
    pruned: List[int] = []
    boundary = -1
    for context in contexts:
        if context > boundary:
            pruned.append(context)
            boundary = end_column[context]
    return pruned
