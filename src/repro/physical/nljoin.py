"""Nested-loop structural join (NLJoin).

The navigational strategy: evaluate the pattern by walking the tree with
the axis primitives, one context node at a time.  Its cost is
proportional to the part of the tree actually *visited*, which is why it
wins on highly selective queries like the paper's ``(/t1[1])^k``
experiment (Section 5.3) — it touches only each context's children —
and loses on unselective rooted paths, where it traverses the whole
document while the stream-based algorithms scan only the relevant tag
streams.

NLJoin is the *reference semantics*: it supports every axis, predicate
branches and the positional extension, and the other algorithms are
differentially tested against it.  It alone enumerates the bindings of
a multi-output pattern, for every strategy.
"""

from __future__ import annotations

from typing import List

from ..guard.chaos import chaos_point
from ..pattern import PatternPath, PatternStep
from ..xmltree.axes import step as axis_step
from ..xmltree.document import IndexedDocument, ddo
from ..xmltree.node import Node
from .base import NO_RUN, Binding, Run, TreePatternAlgorithm


class NLJoin(TreePatternAlgorithm):
    """Navigational nested-loop evaluation."""

    name = "nljoin"

    def _match(self, document: IndexedDocument, contexts: List[Node],
               path: PatternPath, run: Run) -> List[Node]:
        current = list(contexts)
        for pattern_step in path.steps:
            produced: list[Node] = []
            for context in current:
                produced.extend(self._step_candidates(context, pattern_step,
                                                      run))
            current = ddo(produced)
        return chaos_point("nljoin.match", current)

    def enumerate_bindings(self, document: IndexedDocument, context: Node,
                           path: PatternPath,
                           run: Run = NO_RUN) -> List[Binding]:
        """All bindings of the main path's annotated steps from one
        context node, in root-to-leaf lexical order: the multi-output
        semantics of Section 4.1, which every strategy answers here."""
        bindings: list[Binding] = []
        self._bind(context, path.steps, 0, {}, bindings, run)
        return bindings

    # -- helpers ------------------------------------------------------------

    def _step_candidates(self, context: Node, pattern_step: PatternStep,
                         run: Run) -> List[Node]:
        """One step from one context: axis, then branches, then position."""
        candidates = axis_step(context, pattern_step.axis, pattern_step.test)
        if run.instrumented:
            # +1 so empty steps in deep recursions still make progress
            # against the step budget.
            run.work(self.name, len(candidates) + 1,
                     visited=len(candidates))
        survivors = [candidate for candidate in candidates
                     if self._satisfies(candidate, pattern_step, run)]
        if pattern_step.position is None:
            return survivors
        index = pattern_step.position - 1
        if 0 <= index < len(survivors):
            return [survivors[index]]
        return []

    def _satisfies(self, node: Node, pattern_step: PatternStep,
                   run: Run) -> bool:
        """All predicate branches of the step match from ``node``."""
        return all(self._branch_exists(node, branch.steps, 0, run)
                   for branch in pattern_step.predicates)

    def _branch_exists(self, context: Node, steps, index: int,
                       run: Run) -> bool:
        if index == len(steps):
            return True
        branch_step = steps[index]
        for candidate in self._step_candidates(context, branch_step, run):
            if self._branch_exists(candidate, steps, index + 1, run):
                return True
        return False

    def _bind(self, context: Node, steps, index: int, binding: Binding,
              out: list[Binding], run: Run) -> None:
        if index == len(steps):
            out.append(dict(binding))
            return
        pattern_step = steps[index]
        for candidate in self._step_candidates(context, pattern_step, run):
            if pattern_step.output_field is not None:
                binding[pattern_step.output_field] = candidate
            self._bind(candidate, steps, index + 1, binding, out, run)
            if pattern_step.output_field is not None:
                del binding[pattern_step.output_field]
