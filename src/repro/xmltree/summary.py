"""Structural path summary (a DataGuide over tag paths).

A :class:`PathSummary` is derived from the path trie a document carries
in its columns (``path_id`` and ``path_dir``, see
:mod:`repro.xmltree.columnar`: the parser, the shard splitter and
``open`` write them) and never invalidated (documents are immutable).
Every distinct root-to-node *tag path* — the element names from the
document element down to a node — is a path index, and the summary
holds its statistics by index: how many elements share the path, the
depth range of the subtrees below it, which child tags, attributes and
text occur under it.  The trie's shape is laid out in one pass over the
paths; the counts are taken over the columns at C level (``Counter``
and ``itemgetter`` gathers) when a step or an estimate first needs
them.  No node is visited and no node object made.

Two consumers sit on top, both working on path indices:

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

The tuple-keyed views (:attr:`PathSummary.stats` and its siblings) are
for readers of the summary's contents; they are built on first access
and neither consumer touches them.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from .axes import Axis
from .columnar import KIND_ATTRIBUTE
from .node import Node
from .nodetest import (AnyKindTest, ElementTest, NameTest, TextTest,
                       WildcardTest)

if TYPE_CHECKING:  # pattern imports xmltree; keep this one-directional.
    from ..pattern import PatternPath

__all__ = ["PathStats", "PathSummary", "SUMMARY_AXES"]

#: a root-to-node tag path; ``()`` denotes the document node itself.
TagPath = Tuple[str, ...]

#: a summary point: a path index (``0`` is the document), or one of the
#: non-element match points the prefilter tracks symbolically.
Point = int
_ATTR = -1
_TEXT = -2

#: the axes the summary can reason about; a pattern using any other axis
#: is outside the downward fragment and is never pruned.
SUMMARY_AXES = frozenset({
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
    Axis.SELF, Axis.ATTRIBUTE,
})


def _gather(column, pres: Sequence[int]) -> Sequence[int]:
    """``column[pre]`` for each of ``pres``, read at C level."""
    if len(pres) > 1:
        return itemgetter(*pres)(column)
    return [column[pre] for pre in pres]


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
    """Per-document structural summary over the document's path trie.

    A *point* is an int: a path index of the document's ``path_dir``
    (``0`` the document itself, ``1..`` the element paths), or one of
    the sentinels for an attribute or a text node.  The trie's shape —
    parents, tags, preorder positions — is laid out when the summary is
    made, in O(paths); the facts counted over the columns (element
    counts, text counts, attribute names) are lists or maps indexed by
    point, counted at the first read by the steps and estimates that
    need them.  The tuple-keyed views (:attr:`stats`, :attr:`children`,
    :attr:`text_counts`, :attr:`tag_paths`) are built from them on
    first access only; neither the prefilter nor the cost model reads
    them.
    """

    def __init__(self, document) -> None:
        self.document = document
        self._columns = columns = document.columns
        path_dir, names = columns.path_dir, columns.names
        #: parent point of each point (``-1`` for the document point).
        self._parent: List[int] = list(path_dir[0::2])
        #: the tag each point ends in (``None`` for the document point).
        self._tag: List[Optional[str]] = [None]
        self._tag += map(names.__getitem__, path_dir[3::2])
        paths = len(self._parent)
        self.total_elements = len(columns.element_pres)
        self.total_text = len(columns.text_pres)
        # Counted over the columns at the first read, by the steps and
        # estimates that need them: see _counts, _texts, _attribute_names.
        self._count: Optional[List[int]] = None
        self._text: Optional[Tuple[List[int], List[int]]] = None
        self._attributes: Optional[Dict[int, Set[str]]] = None
        # A path is numbered after its parent path, so descending index
        # order is bottom-up: the number of points in each subtree.
        parents, tags = self._parent, self._tag
        #: the points ending in each tag.
        self._tag_points: Dict[str, List[int]] = {}
        self._size = size = [1] * paths
        for point in range(paths - 1, 0, -1):
            size[parents[point]] += size[point]
            self._tag_points.setdefault(tags[point], []).append(point)
        # The trie in preorder, top-down: a point takes the next free
        # slot of its parent's range.  Its strict descendants are the
        # ``size - 1`` points after it, and its children the points
        # met there by skipping a child's subtree at a time.
        self._first = first = [0] * paths
        self._order = order = [0] * paths
        free = [1] * paths
        for point in range(1, paths):
            above = parents[point]
            slot = first[point] = free[above]
            free[above] = slot + size[point]
            free[point] = slot + 1
            order[slot] = point
        self._views: Optional[tuple] = None
        self._views_lock = threading.Lock()
        self._pattern_memo: Dict[int, _PatternMemo] = {}

    # Each fact below is complete before it is stored, so two threads
    # racing on a first read count the same and either store wins.

    def _counts(self) -> List[int]:
        """Elements at each point (the document point counts itself)."""
        counts = self._count
        if counts is None:
            counted = Counter(self._columns.path_id)
            counts = self._count = list(map(counted.__getitem__,
                                            range(len(self._parent))))
        return counts

    def _texts(self) -> Tuple[List[int], List[int]]:
        """Text-node children of the elements at each point, and text
        nodes anywhere below them (their own included)."""
        texts = self._text
        if texts is None:
            columns, parents = self._columns, self._parent
            counted = Counter(_gather(columns.path_id,
                                      _gather(columns.parent,
                                              columns.text_pres)))
            children = list(map(counted.__getitem__, range(len(parents))))
            below = children.copy()
            for point in range(len(parents) - 1, 0, -1):
                below[parents[point]] += below[point]
            texts = self._text = (children, below)
        return texts

    def _attribute_names(self) -> Dict[int, Set[str]]:
        """Attribute names seen at each point that has any."""
        attributes = self._attributes
        if attributes is None:
            columns, attributes = self._columns, {}
            for name, stream in columns.attribute_pres.items():
                for point in set(_gather(columns.path_id,
                                         _gather(columns.parent, stream))):
                    attributes.setdefault(point, set()).add(name)
            self._attributes = attributes
        return attributes

    # -- the tuple-keyed views ------------------------------------------------

    @property
    def stats(self) -> Dict[TagPath, PathStats]:
        """Stats per distinct element tag path (length ≥ 1), in order
        of first appearance."""
        return self._tuple_views()[0]

    @property
    def children(self) -> Dict[TagPath, Set[str]]:
        """Child tags per path, *including* the document point ``()``."""
        return self._tuple_views()[1]

    @property
    def text_counts(self) -> Dict[TagPath, int]:
        """Text-node children per path, including ``()``."""
        return self._tuple_views()[2]

    @property
    def tag_paths(self) -> Dict[str, List[TagPath]]:
        """All paths ending in a given tag, in order of first
        appearance."""
        return self._tuple_views()[3]

    def _tuple_views(self) -> tuple:
        views = self._views
        if views is None:
            with self._views_lock:
                if self._views is None:
                    self._views = self._build_views()
                views = self._views
        return views

    def _build_views(self) -> tuple:
        parents, tags = self._parent, self._tag
        counts, (text_count, text_below) = self._counts(), self._texts()
        attributes = self._attribute_names()
        height = [0] * len(parents)
        for point in range(len(parents) - 1, 0, -1):
            above = parents[point]
            if height[above] <= height[point]:
                height[above] = height[point] + 1
        paths: List[TagPath] = [()]
        stats: Dict[TagPath, PathStats] = {}
        children: Dict[TagPath, Set[str]] = {(): set()}
        text_counts: Dict[TagPath, int] = {(): text_count[0]}
        tag_paths: Dict[str, List[TagPath]] = {}
        for point in range(1, len(parents)):
            tag, above = tags[point], parents[point]
            path = paths[above] + (tag,)
            paths.append(path)
            stats[path] = PathStats(
                path, count=counts[point],
                attributes=set(attributes.get(point, ())),
                text_count=text_count[point], height=height[point],
                text_below=text_below[point])
            children[path] = set()
            children[paths[above]].add(tag)
            text_counts[path] = text_count[point]
            tag_paths.setdefault(tag, []).append(path)
            if above:
                stats[paths[above]].child_tags[tag] = counts[point]
        return stats, children, text_counts, tag_paths

    # -- basic lookups ------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct element tag paths."""
        return len(self._parent) - 1

    def path_count(self, path: Iterable[str]) -> int:
        """Elements at exactly this tag path (0 when absent)."""
        point = 0
        for tag in path:
            point = self._child(point, tag)
            if point is None:
                return 0
        return self._counts()[point] if point else 0

    def _children_of(self, point: int) -> Iterator[int]:
        order, size = self._order, self._size
        slot = self._first[point] + 1
        stop = slot + size[point] - 1
        while slot < stop:
            child = order[slot]
            yield child
            slot += size[child]

    def _child(self, point: int, tag: str) -> Optional[int]:
        tags = self._tag
        for child in self._children_of(point):
            if tags[child] == tag:
                return child
        return None

    def path_of(self, node: Node) -> Point:
        """The summary point a document node maps to."""
        return self._points([node.pre])[0]

    def _points(self, pres: Sequence[int]) -> List[Point]:
        """Each ``pre``'s summary point (a negative ``path_id``'s by kind)."""
        path_id, kind = self._columns.path_id, self._columns.kind
        return [point if point >= 0 else _ATTR if kind[pre] ==
                KIND_ATTRIBUTE else _TEXT
                for pre, point in zip(pres, map(path_id.__getitem__, pres))]

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
                       pres: List[int]) -> List[bool]:
        """:meth:`can_match` for each context ``pre`` on its own (the
        prefilter's batch entry: a ``path_id`` read and a memo probe per
        context, each distinct summary point worked out once)."""
        points = self._points(pres)
        embeds = self._memo_for(path).embeds
        try:
            for point in set(points).difference(embeds):
                self._point_embeds(path, embeds, point)
        except _Unsupported:
            return [True] * len(pres)
        return list(map(embeds.__getitem__, points))

    def _all_points(self) -> range:
        return range(len(self._parent))

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
            if point < 0:
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

    def _self_points(self, point: int, test, out: Set[Point]) -> None:
        if not point:
            # The document node is neither an element nor text.
            if isinstance(test, AnyKindTest):
                out.add(point)
            return
        if isinstance(test, NameTest):
            if self._tag[point] == test.name:
                out.add(point)
        elif isinstance(test, ElementTest):
            if test.name is None or self._tag[point] == test.name:
                out.add(point)
        elif isinstance(test, (WildcardTest, AnyKindTest)):
            out.add(point)

    def _child_points(self, point: int, test, out: Set[Point]) -> None:
        if isinstance(test, NameTest) or (isinstance(test, ElementTest)
                                          and test.name is not None):
            child = self._child(point, test.name)
            if child is not None:
                out.add(child)
            return
        if isinstance(test, (WildcardTest, ElementTest)):
            out.update(self._children_of(point))
            return
        if isinstance(test, TextTest):
            if self._texts()[0][point]:
                out.add(_TEXT)
            return
        if isinstance(test, AnyKindTest):
            out.update(self._children_of(point))
            if self._texts()[0][point]:
                out.add(_TEXT)

    def _descendant_points(self, point: int, test, out: Set[Point]) -> None:
        low = self._first[point]
        high = low + self._size[point]
        if isinstance(test, NameTest) or (isinstance(test, ElementTest)
                                          and test.name is not None):
            first = self._first
            out.update(candidate
                       for candidate in self._tag_points.get(test.name, ())
                       if low < first[candidate] < high)
            return
        if isinstance(test, (WildcardTest, ElementTest)):
            out.update(self._order[low + 1:high])
            return
        if isinstance(test, TextTest):
            if self._texts()[1][point]:
                out.add(_TEXT)
            return
        if isinstance(test, AnyKindTest):
            out.update(self._order[low + 1:high])
            if self._texts()[1][point]:
                out.add(_TEXT)

    def _attribute_matches(self, point: int, test) -> bool:
        attributes = self._attribute_names().get(point, ())
        if isinstance(test, NameTest):
            return test.name in attributes
        if isinstance(test, (WildcardTest, AnyKindTest)):
            return bool(attributes)
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
        counts = self._counts()
        total = 0.0
        for point in points:
            if point >= 0:
                # The document point counts itself: one node.
                total += counts[point]
            elif point == _TEXT:
                below = self._texts()[1]
                total += sum(below[prev] for prev in previous if prev >= 0)
            else:   # _ATTR: one attribute per matching owner, roughly
                total += sum(counts[prev]
                             for prev in previous if prev > 0)
        return total
