"""Structural path summary (a DataGuide over tag paths).

A :class:`PathSummary` is built from an :class:`IndexedDocument` in one
pass and never invalidated (documents are immutable).  It maps every
distinct root-to-node *tag path* — the tuple of element names from the
document element down to a node — to its statistics: how many elements
share the path, the depth range of the subtrees below it, which child
tags, attributes and text occur under it.

Two consumers sit on top:

* the **pattern prefilter** (:meth:`PathSummary.can_match`): decide,
  without touching a single document node, whether a pattern path could
  possibly embed into the document.  Child steps are matched exactly
  against the summary trie; descendant steps through summary
  reachability.  The answer is *conservative*: ``False`` is proof that
  the pattern has no match (so the physical algorithms can return empty
  immediately), ``True`` only means "maybe".
* **selectivity estimation** (:meth:`PathSummary.pattern_volume`):
  per-query-node candidate cardinalities for the cost model of
  :mod:`repro.physical.cost`, replacing flat document-wide tag counts.

Both are memoized per (pattern, start point): the prefilter is asked
about every input tuple of a ``TupleTreePattern``.  The
memo is keyed by the pattern *object* and lives exactly as long as it
(:meth:`PathSummary._memo_for`): a plan that is dropped — plan cache
off, LRU eviction — takes its entries along.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Set, Tuple, Union)

from .axes import Axis
from .columnar import KIND_ATTRIBUTE, KIND_ELEMENT, KIND_TEXT
from .node import AttributeNode, ElementNode, Node, TextNode
from .nodetest import (AnyKindTest, ElementTest, NameTest, TextTest,
                       WildcardTest)

if TYPE_CHECKING:  # pattern imports xmltree; keep this one-directional.
    from ..pattern import PatternPath

__all__ = ["PathStats", "PathSummary", "SUMMARY_AXES"]

#: a root-to-node tag path; ``()`` denotes the document node itself.
TagPath = Tuple[str, ...]

#: non-element match points the prefilter tracks symbolically.
_ATTR = "@attribute"
_TEXT = "@text"

Point = Union[TagPath, str]

#: the axes the summary can reason about; a pattern using any other axis
#: is outside the downward fragment and is never pruned.
SUMMARY_AXES = frozenset({
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
    Axis.SELF, Axis.ATTRIBUTE,
})


class _Unsupported(Exception):
    """Internal: the pattern leaves the fragment the summary models."""


_UNSET = object()


class _PatternMemo:
    """What the summary has worked out for one live pattern path."""

    __slots__ = ("ref", "embeds", "volume")

    def __init__(self, ref: "weakref.ref") -> None:
        #: kept alive here so that its callback fires with the pattern.
        self.ref = ref
        #: start point → does the path embed from there?
        self.embeds: Dict[Point, bool] = {}
        self.volume: object = _UNSET


@dataclass
class PathStats:
    """Statistics for one distinct root-to-node tag path."""

    path: TagPath
    #: elements sharing this exact tag path.
    count: int = 0
    #: child elements by tag, summed over all elements at this path —
    #: the path's child-tag fanout.
    child_tags: Counter = field(default_factory=Counter)
    #: attribute names seen on elements at this path.
    attributes: Set[str] = field(default_factory=set)
    #: text-node children over all elements at this path.
    text_count: int = 0
    #: maximum element-depth below this path (0 for leaf paths).
    height: int = 0
    #: text nodes anywhere in subtrees at this path (self included).
    text_below: int = 0

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def depth_range(self) -> Tuple[int, int]:
        """(own depth, deepest element depth under this path)."""
        return (self.depth, self.depth + self.height)

    @property
    def fanout(self) -> int:
        """Distinct child tags under this path."""
        return len(self.child_tags)


class PathSummary:
    """Per-document structural summary over root-to-node tag paths."""

    def __init__(self, document) -> None:
        self.document = document
        #: stats per distinct element tag path (length ≥ 1).
        self.stats: Dict[TagPath, PathStats] = {}
        #: child tags per path, *including* the document point ``()``.
        self.children: Dict[TagPath, Set[str]] = {(): set()}
        #: text-node children per path, including ``()``.
        self.text_counts: Dict[TagPath, int] = {(): 0}
        #: all paths ending in a given tag (for descendant steps).
        self.tag_paths: Dict[str, List[TagPath]] = {}
        self.total_elements = 0
        self.total_text = 0
        self._node_paths: Dict[int, Point] = {}
        self._pattern_memo: Dict[int, _PatternMemo] = {}
        self._summarize(document.columns)

    def _summarize(self, columns) -> None:
        """One pass over the ``kind``/``parent``/``name_id`` columns —
        no node object is touched, so summarising an mmap-opened
        document leaves its tree unmaterialized — then one pass over
        the distinct paths, bottom-up."""
        names = list(columns.names)
        # The document point: it collects like a path and is not one.
        document = PathStats(())
        #: the stats each element (or the document) counts under, by pre.
        by_pre: List[Optional[PathStats]] = []
        place = by_pre.append
        #: (id of the parent's stats, name id) → stats, parents first.
        interned: Dict[Tuple[int, int], Tuple[PathStats, PathStats]] = {}
        # Iterated, not indexed: a mapped column unpacks an int per
        # index, and a list of the column would box every one at once.
        for kind, parent, name_id in zip(bytes(columns.kind),
                                         columns.parent, columns.name_id):
            if kind == KIND_ELEMENT:
                above = by_pre[parent]
                found = interned.get((id(above), name_id))
                if found is None:
                    stats = PathStats(above.path + (names[name_id],))
                    found = interned[id(above), name_id] = (stats, above)
                found[0].count += 1
                place(found[0])
            elif kind == KIND_TEXT:
                by_pre[parent].text_count += 1
                place(None)
            elif kind == KIND_ATTRIBUTE:
                by_pre[parent].attributes.add(names[name_id])
                place(None)
            else:
                place(document)
        for stats, above in interned.values():
            path, tag = stats.path, stats.path[-1]
            self.stats[path] = stats
            self.children[path] = set()
            self.children[above.path].add(tag)
            self.text_counts[path] = stats.text_count
            self.tag_paths.setdefault(tag, []).append(path)
            self.total_elements += stats.count
            self.total_text += stats.text_count
            above.child_tags[tag] = stats.count
        self.text_counts[()] = document.text_count
        self.total_text += document.text_count
        # A path is first met after its parent path, so the reverse of
        # that order is bottom-up: subtree height and text reachability.
        for stats, above in reversed(interned.values()):
            stats.text_below += stats.text_count
            above.height = max(above.height, stats.height + 1)
            above.text_below += stats.text_below

    # -- basic lookups ------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct element tag paths."""
        return len(self.stats)

    def path_count(self, path: Iterable[str]) -> int:
        """Elements at exactly this tag path (0 when absent)."""
        stats = self.stats.get(tuple(path))
        return stats.count if stats is not None else 0

    def path_of(self, node: Node) -> Point:
        """The summary point a document node maps to."""
        if isinstance(node, AttributeNode):
            return _ATTR
        if isinstance(node, TextNode):
            return _TEXT
        known = self._node_paths
        cached = known.get(node.pre)
        if cached is not None:
            return cached
        # Climb to the nearest ancestor whose path is known, then name
        # the way back down: in a deep document a node's neighbours
        # share all but the last few steps.
        path: Point = ()
        unnamed: List[Node] = []
        while isinstance(node, ElementNode):
            cached = known.get(node.pre)
            if cached is not None:
                path = cached
                break
            unnamed.append(node)
            node = node.parent
        for node in reversed(unnamed):
            path = known[node.pre] = path + (node.name,)
        return path

    def _strict_descendants(self, prefix: TagPath) -> Iterator[TagPath]:
        stack = [prefix + (tag,) for tag in self.children.get(prefix, ())]
        while stack:
            path = stack.pop()
            yield path
            stack.extend(path + (tag,)
                         for tag in self.children.get(path, ()))

    def _text_below(self, path: TagPath) -> int:
        if not path:
            return self.total_text
        stats = self.stats.get(path)
        return stats.text_below if stats is not None else 0

    # -- the prefilter ------------------------------------------------------

    def can_match(self, path: "PatternPath",
                  contexts: Optional[Iterable[Node]] = None) -> bool:
        """Conservative embeddability test for a pattern path.

        Returns ``False`` only when *no* document node reachable from
        ``contexts`` (any node, when omitted) can produce a match —
        child steps are looked up exactly in the summary trie,
        descendant steps through reachability, predicate branches
        recursively.  Patterns using axes outside the downward fragment
        are never pruned.
        """
        if contexts is None:
            points: Iterable[Point] = self._all_points()
        else:
            points = {self.path_of(node) for node in contexts}
        embeds = self._memo_for(path).embeds
        try:
            return any(self._point_embeds(path, embeds, point)
                       for point in points)
        except _Unsupported:
            return True

    def can_match_each(self, path: "PatternPath",
                       contexts: List[Node]) -> List[bool]:
        """:meth:`can_match` answered for each context node on its own
        (the prefilter's batch entry: however many contexts there are,
        each distinct summary point among them is worked out once)."""
        embeds = self._memo_for(path).embeds
        try:
            return [self._point_embeds(path, embeds, self.path_of(node))
                    for node in contexts]
        except _Unsupported:
            return [True] * len(contexts)

    def _all_points(self) -> Iterator[Point]:
        yield ()
        yield from self.stats

    def _point_embeds(self, path: "PatternPath", embeds: Dict[Point, bool],
                      point: Point) -> bool:
        cached = embeds.get(point)
        if cached is None:
            cached = embeds[point] = self._embeds(path.steps, {point})
        return cached

    def _memo_for(self, path: "PatternPath") -> _PatternMemo:
        # Patterns inside a compiled plan are stable objects; keying the
        # memo by identity avoids rehashing the recursive dataclass on
        # every input tuple (one dict probe per evaluation).  Lifetime
        # rule: an entry lives exactly as long as its pattern object.
        # The weak reference's callback drops it while the pattern is
        # being freed — before its address, the key, can be given to
        # another object — so nothing pins a pattern and no entry can be
        # read for the wrong one.  ``dict.get``/``pop``/item assignment
        # are atomic, which is all the sharing between service threads
        # needs: two threads racing on a new pattern both compute, one
        # record wins.
        key = id(path)
        memo = self._pattern_memo.get(key)
        if memo is None:
            drop = self._pattern_memo.pop
            memo = self._pattern_memo[key] = _PatternMemo(
                weakref.ref(path, lambda _ref: drop(key, None)))
        return memo

    def _embeds(self, steps, points: Set[Point]) -> bool:
        current = points
        for step in steps:
            if step.axis not in SUMMARY_AXES:
                raise _Unsupported(step.axis)
            current = self._advance(current, step)
            if step.predicates:
                current = {
                    point for point in current
                    if all(self._branch_embeds(branch, point)
                           for branch in step.predicates)}
            if not current:
                return False
            # step.position only filters further; ignoring it keeps the
            # test conservative.
        return True

    def _branch_embeds(self, branch: "PatternPath", point: Point) -> bool:
        return self._point_embeds(branch, self._memo_for(branch).embeds,
                                  point)

    # -- one-step transitions ----------------------------------------------

    def _advance(self, points: Set[Point], step) -> Set[Point]:
        axis, test = step.axis, step.test
        out: Set[Point] = set()
        for point in points:
            if point == _ATTR or point == _TEXT:
                # Attribute and text nodes have no children, descendants
                # or attributes; only self:: can keep them alive.
                if axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
                    if isinstance(test, AnyKindTest):
                        out.add(point)
                    elif isinstance(test, TextTest) and point == _TEXT:
                        out.add(point)
                continue
            if axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
                self._self_points(point, test, out)
            if axis is Axis.CHILD:
                self._child_points(point, test, out)
            if axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
                self._descendant_points(point, test, out)
            if axis is Axis.ATTRIBUTE:
                if point and self._attribute_matches(point, test):
                    out.add(_ATTR)
        return out

    def _self_points(self, path: TagPath, test, out: Set[Point]) -> None:
        if not path:
            # The document node is neither an element nor text.
            if isinstance(test, AnyKindTest):
                out.add(path)
            return
        if isinstance(test, NameTest):
            if path[-1] == test.name:
                out.add(path)
        elif isinstance(test, ElementTest):
            if test.name is None or path[-1] == test.name:
                out.add(path)
        elif isinstance(test, (WildcardTest, AnyKindTest)):
            out.add(path)

    def _child_points(self, path: TagPath, test, out: Set[Point]) -> None:
        children = self.children.get(path)
        if children is None:
            return
        if isinstance(test, NameTest) or (isinstance(test, ElementTest)
                                          and test.name is not None):
            name = test.name
            if name in children:
                out.add(path + (name,))
            return
        if isinstance(test, (WildcardTest, ElementTest)):
            out.update(path + (tag,) for tag in children)
            return
        if isinstance(test, TextTest):
            if self.text_counts.get(path, 0):
                out.add(_TEXT)
            return
        if isinstance(test, AnyKindTest):
            out.update(path + (tag,) for tag in children)
            if self.text_counts.get(path, 0):
                out.add(_TEXT)

    def _descendant_points(self, path: TagPath, test,
                           out: Set[Point]) -> None:
        if isinstance(test, NameTest) or (isinstance(test, ElementTest)
                                          and test.name is not None):
            depth = len(path)
            for candidate in self.tag_paths.get(test.name, ()):
                if len(candidate) > depth and candidate[:depth] == path:
                    out.add(candidate)
            return
        if isinstance(test, (WildcardTest, ElementTest)):
            out.update(self._strict_descendants(path))
            return
        if isinstance(test, TextTest):
            if self._text_below(path):
                out.add(_TEXT)
            return
        if isinstance(test, AnyKindTest):
            out.update(self._strict_descendants(path))
            if self._text_below(path):
                out.add(_TEXT)

    def _attribute_matches(self, path: TagPath, test) -> bool:
        stats = self.stats.get(path)
        if stats is None:
            return False
        if isinstance(test, NameTest):
            return test.name in stats.attributes
        if isinstance(test, (WildcardTest, AnyKindTest)):
            return bool(stats.attributes)
        return False

    # -- selectivity estimation ---------------------------------------------

    def pattern_volume(self, path: "PatternPath") -> Optional[float]:
        """Total candidate cardinality over a pattern's query nodes.

        For each step (spine and predicate branches alike) the summary
        yields the number of document nodes that can match that query
        node given the steps above it; the sum replaces the flat
        tag-count stream estimate in the cost model.  ``None`` when the
        pattern leaves the summarizable fragment.
        """
        memo = self._memo_for(path)
        if memo.volume is _UNSET:
            try:
                memo.volume = self._volume(path.steps,
                                           set(self._all_points()))
            except _Unsupported:
                memo.volume = None
        return memo.volume

    def _volume(self, steps, points: Set[Point]) -> float:
        total = 0.0
        current = points
        for step in steps:
            if step.axis not in SUMMARY_AXES:
                raise _Unsupported(step.axis)
            previous = current
            current = self._advance(current, step)
            total += self._point_cardinality(current, previous, step)
            if step.predicates:
                for branch in step.predicates:
                    total += self._volume(branch.steps, current)
                current = {
                    point for point in current
                    if all(self._branch_embeds(branch, point)
                           for branch in step.predicates)}
            if not current:
                break
        return total

    def _point_cardinality(self, points: Set[Point], previous: Set[Point],
                           step) -> float:
        total = 0.0
        for point in points:
            if isinstance(point, tuple):
                if point:
                    total += self.stats[point].count
                else:
                    total += 1.0
            elif point == _TEXT:
                total += sum(self._text_below(prev)
                             for prev in previous
                             if isinstance(prev, tuple))
            else:   # _ATTR: one attribute per matching owner, roughly
                total += sum(self.stats[prev].count
                             for prev in previous
                             if isinstance(prev, tuple) and prev)
        return total
