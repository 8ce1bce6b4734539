"""Document wrapper: node table, per-tag streams and document order.

The structural-join algorithms (TwigJoin, Staircase join) do not navigate
the tree; they scan *streams*: for each element tag, the sorted (by
``pre``) list of elements with that tag.  :class:`IndexedDocument` builds
these streams once per document, together with a dense array of all
nodes indexed by ``pre`` number.

Since the columnar refactor the class is a *two-way facade* over
:class:`~repro.xmltree.columnar.ColumnarDocument`:

tree-first
    built from a parsed :class:`DocumentNode` (the historical path);
    the node table and streams are built eagerly — the table comes
    ready-made from the parser (:meth:`IndexedDocument.from_string`) or
    from one walk of a hand-built tree — and the integer columns the
    join inner loops scan are derived lazily on first access to
    :attr:`columns`.
column-first
    built from a :class:`ColumnarDocument` — typically mmap-opened from
    a saved index file via :meth:`IndexedDocument.open`.  The joins run
    directly on the integer columns; the object tree (and every
    node-level accessor: :attr:`root`, :attr:`nodes_by_pre`,
    :attr:`tag_streams`, …) is materialized lazily, in one linear pass
    with no re-parse and no re-indexing, the first time something
    actually needs node objects (usually result serialization).

Either way, every consumer of the old API — the seven strategies, the
path summary, the prefilter, serve, trace — sees the same attributes
with the same meaning.

The module also provides :func:`ddo` — sorting by document order with
duplicate elimination — the dynamic counterpart of the special function
``fs:distinct-doc-order`` that the paper's normalization inserts.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from .columnar import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                       ColumnarDocument, StorageError)
from .node import AttributeNode, DocumentNode, ElementNode, Node, TextNode
from .parser import parse_nodes

_PRE_KEY = attrgetter("pre")


class IndexedDocument:
    """A parsed document plus the indexes the join algorithms need.

    Construct with a parsed ``root`` (tree-first) or a ``columns``
    store (column-first) — exactly one of the two.
    """

    def __init__(self, root: Optional[DocumentNode] = None, *,
                 columns: Optional[ColumnarDocument] = None,
                 _table: Optional[list[Node]] = None) -> None:
        if (root is None) == (columns is None):
            raise ValueError(
                "IndexedDocument takes exactly one of root= or columns=")
        self._root = root
        self._columns = columns
        self._nodes_by_pre: Optional[list[Node]] = None
        self._pres: Optional[list[int]] = None
        self._tag_streams: Optional[dict[str, list[ElementNode]]] = None
        self._tag_pres: Optional[dict[str, Sequence[int]]] = None
        self._attribute_streams: Optional[
            dict[str, list[AttributeNode]]] = None
        self._text_stream: Optional[list[TextNode]] = None
        self._summary = None
        self._summary_lock = threading.Lock()
        self._columns_lock = threading.Lock()
        self._tree_lock = threading.Lock()
        self._store_kind = "object" if root is not None else "columnar"
        if root is not None:
            # The table must be younger than this object and older than
            # the streams ``_build`` makes.  The collector scans
            # containers oldest first and re-threads what it reaches
            # only through a younger one in the order it is reached:
            # through the table that is document order, through the
            # streams tag by tag, and every later full collection in
            # the process then takes twice as long (same objects).
            # Hence a copy of the parser's table, which is older.
            self._build(list(_table) if _table is not None
                        else self._walk())
        else:
            # Streams of pre numbers come straight from the columns; no
            # node object exists until something dereferences one.
            self._tag_pres = columns.tag_pres

    @classmethod
    def from_string(cls, text: str, uri: str = "") -> "IndexedDocument":
        table = parse_nodes(text, uri)
        return cls(table[0], _table=table)

    @classmethod
    def open(cls, path: Union[str, os.PathLike],
             verify: bool = True) -> "IndexedDocument":
        """Open a saved columnar index file (see
        :meth:`ColumnarDocument.open`): O(1) mmap, no re-parse."""
        return cls(columns=ColumnarDocument.open(path, verify=verify))

    def save(self, path: Union[str, os.PathLike]) -> int:
        """Persist the document's columnar form to ``path``; returns
        the byte size written."""
        return self.columns.save(path)

    # -- store identity -----------------------------------------------------

    @property
    def store_kind(self) -> str:
        """``"columnar"`` when column-first (opened from a saved index
        or built from a :class:`ColumnarDocument`), ``"object"`` when
        built from a parsed tree."""
        return self._store_kind

    # -- lazy column derivation (tree-first documents) -----------------------

    @property
    def columns(self) -> ColumnarDocument:
        """The document's integer-column form (see
        :mod:`repro.xmltree.columnar`), the representation the
        staircase/twig join inner loops scan.

        Column-first documents carry it from birth; tree-first
        documents derive it lazily, exactly once (double-check
        locked), from the dense node table.
        """
        if self._columns is None:
            with self._columns_lock:
                if self._columns is None:
                    if self._nodes_by_pre is None:
                        raise _closed_store()
                    self._columns = ColumnarDocument.from_nodes(
                        self._nodes_by_pre, uri=self._root.uri)
        return self._columns

    @property
    def has_columns(self) -> bool:
        """True when the columnar form already exists (no build cost
        behind :attr:`columns`)."""
        return self._columns is not None

    # -- lazy tree materialization (column-first documents) ------------------

    @property
    def root(self) -> DocumentNode:
        if self._root is None:
            self._materialize()
        return self._root

    @property
    def nodes_by_pre(self) -> list[Node]:
        if self._nodes_by_pre is None:
            self._materialize()
        return self._nodes_by_pre

    @property
    def tag_streams(self) -> dict[str, list[ElementNode]]:
        if self._tag_streams is None:
            self._materialize()
        return self._tag_streams

    @property
    def tag_pres(self) -> dict[str, Sequence[int]]:
        # Available without any node object in both modes.
        return self._tag_pres

    @property
    def attribute_streams(self) -> dict[str, list[AttributeNode]]:
        if self._attribute_streams is None:
            self._materialize()
        return self._attribute_streams

    @property
    def text_stream(self) -> list[TextNode]:
        if self._text_stream is None:
            self._materialize()
        return self._text_stream

    def _walk(self) -> list[Node]:
        """The node table of a tree that did not come with one."""
        table: list[Node] = []
        stack: list[Node] = [self._root]
        while stack:
            node = stack.pop()
            table.append(node)
            if isinstance(node, ElementNode):
                for attribute in node.attributes:
                    table.append(attribute)
            stack.extend(reversed(node.children))
        table.sort(key=_PRE_KEY)
        return table

    def _build(self, table: list[Node]) -> None:
        self._nodes_by_pre = table
        tag_streams: dict[str, list[ElementNode]] = {}
        attribute_streams: dict[str, list[AttributeNode]] = {}
        text_stream: list[TextNode] = []
        for node in table:
            if isinstance(node, ElementNode):
                tag_streams.setdefault(node.name, []).append(node)
            elif isinstance(node, AttributeNode):
                attribute_streams.setdefault(node.name, []).append(node)
            elif isinstance(node, TextNode):
                text_stream.append(node)
        self._tag_streams = tag_streams
        self._attribute_streams = attribute_streams
        self._text_stream = text_stream
        self._tag_pres = {
            tag: [element.pre for element in stream]
            for tag, stream in tag_streams.items()
        }

    def _materialize(self) -> None:
        """Rebuild the object tree from the columns: one linear pass,
        region numbers copied straight from the columns — no XML
        parse, no :func:`~repro.xmltree.node.assign_regions`, no sort.

        Double-check locked so concurrent first dereferences (a serve
        worker pool serializing its first results) materialize once.
        """
        with self._tree_lock:
            if self._nodes_by_pre is not None:
                return
            columns = self._columns
            if columns is None:
                raise _closed_store()
            # Plain bytes/lists and local tables: a mapped column
            # unpacks an int, a lazy string table decodes, per index.
            names = list(columns.names)
            texts = list(columns.texts)
            new = object.__new__
            table: list[Node] = []
            tag_streams: dict[str, list[ElementNode]] = {}
            attribute_streams: dict[str, list[AttributeNode]] = {}
            text_stream: list[TextNode] = []
            root: Optional[DocumentNode] = None
            for kind, post, level, end, parent_pre, name_id, text_id in zip(
                    bytes(columns.kind), list(columns.post),
                    list(columns.level), list(columns.end),
                    list(columns.parent), list(columns.name_id),
                    list(columns.text_id)):
                node: Node
                if kind == KIND_ELEMENT:
                    node = new(ElementNode)
                    node._name = name = names[name_id]
                    node._children = []
                    node._attributes = []
                    stream = tag_streams.get(name)
                    if stream is None:
                        stream = tag_streams[name] = []
                    stream.append(node)
                elif kind == KIND_ATTRIBUTE:
                    node = new(AttributeNode)
                    node._name = name = names[name_id]
                    node.value = texts[text_id]
                    stream = attribute_streams.get(name)
                    if stream is None:
                        stream = attribute_streams[name] = []
                    stream.append(node)
                elif kind == KIND_DOCUMENT:
                    node = root = DocumentNode(columns.uri)
                else:
                    node = new(TextNode)
                    node.text = texts[text_id]
                    text_stream.append(node)
                node.pre = len(table)
                node.post = post
                node.level = level
                node.end = end
                if parent_pre >= 0:
                    node.parent = parent = table[parent_pre]
                    if kind == KIND_ATTRIBUTE:
                        parent._attributes.append(node)
                    else:
                        parent._children.append(node)
                else:
                    node.parent = None
                table.append(node)
            if root is None:
                raise StorageError("column store has no document node",
                                   check="root", path=columns.path)
            # Publish the complete structures in one step; readers that
            # race past the lock see either nothing or everything.
            self._tag_streams = tag_streams
            self._attribute_streams = attribute_streams
            self._text_stream = text_stream
            self._root = root
            self._nodes_by_pre = table

    # -- stream access ------------------------------------------------------

    @property
    def size(self) -> int:
        """Total node count — answered from the columns when the node
        table does not exist yet."""
        if self._nodes_by_pre is not None:
            return len(self._nodes_by_pre)
        return self._columns.n

    def stream(self, tag: str) -> list[ElementNode]:
        """All elements with ``tag``, sorted by ``pre``."""
        return self.tag_streams.get(tag, [])

    def all_elements(self) -> list[ElementNode]:
        return [node for node in self.nodes_by_pre
                if isinstance(node, ElementNode)]

    def stream_in_region(self, tag: str, context: Node,
                         include_self: bool = False) -> list[ElementNode]:
        """Elements with ``tag`` inside the subtree of ``context``.

        Performs a binary search on the integer tag stream to the start
        of the context's region, then slices the containment interval —
        the ``log(|input|)`` index lookup cost per step that Section 5.3
        of the paper attributes to the stream-based algorithms.  Only
        the nodes inside the slice are dereferenced.
        """
        pres = self._tag_pres.get(tag)
        if not pres:
            return []
        low_key = context.pre if include_self else context.pre + 1
        low = bisect_left(pres, low_key)
        high = bisect_right(pres, context.end)
        if low >= high:
            return []
        stream = self.tag_streams[tag]
        return stream[low:high]

    @property
    def summary(self):
        """The document's structural path summary (see
        :mod:`repro.xmltree.summary`), built on first access and cached
        for the document's lifetime — documents are immutable, so the
        summary never needs invalidation.

        The build is double-check locked: concurrent first accesses
        (e.g. a :mod:`repro.serve` worker pool warming one document)
        build the summary exactly once, and the fast path after that
        stays a single attribute read.
        """
        if self._summary is None:
            with self._summary_lock:
                if self._summary is None:
                    from .summary import PathSummary
                    self._summary = PathSummary(self)
        return self._summary

    def node_at(self, pre: int) -> Node:
        """The node with the given ``pre`` number.

        O(1) by construction on densely numbered tables (the normal
        case: :func:`~repro.xmltree.node.assign_regions` numbers every
        node, attributes included, consecutively).  If the table is
        *not* dense — e.g. a document wrapped around a re-rooted
        fragment that kept its original numbers — the lookup degrades
        to a binary search instead of silently returning the wrong
        node.  Unknown ``pre`` values raise :class:`KeyError`, never
        :class:`IndexError` and never a negative-index alias.
        """
        table = self.nodes_by_pre
        if 0 <= pre < len(table):
            node = table[pre]
            if node.pre == pre:
                return node
        if pre >= 0:
            # Sparse table: fall back to bisect over the sorted pres.
            if self._pres is None:
                self._pres = [node.pre for node in table]
            index = bisect_left(self._pres, pre)
            if index < len(table) and table[index].pre == pre:
                return table[index]
        raise KeyError(f"no node with pre={pre}")

    def close(self) -> None:
        """Release the mmap behind a column-first document (no-op for
        tree-first documents).

        The integer streams are detached into plain lists first, so a
        document whose object tree was already materialized keeps
        answering queries (it simply becomes an ordinary in-memory
        document)."""
        if self._columns is not None and self._columns.is_mapped:
            self._tag_pres = {tag: list(stream)
                              for tag, stream in self._tag_pres.items()}
            self._columns.close()
            self._columns = None


def _closed_store() -> StorageError:
    return StorageError("document store was closed before its node tree "
                        "was materialized", check="closed")


def document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes by document order (within one tree)."""
    return sorted(nodes, key=_PRE_KEY)


def ddo(nodes: Iterable[Node]) -> list[Node]:
    """Distinct-doc-order: sort by document order and drop duplicates.

    Duplicates are determined by ``pre`` number, which coincides with
    node identity inside a single tree (the paper's setting) and stays
    correct when the same logical node is reachable through both the
    object table and a columnar materialization.
    """
    ordered = sorted(nodes, key=_PRE_KEY)
    result: list[Node] = []
    previous = -1
    for node in ordered:
        if node.pre != previous:
            result.append(node)
            previous = node.pre
    return result


def is_distinct_doc_ordered(nodes: Sequence[Node]) -> bool:
    """True if the sequence is strictly increasing in document order."""
    return all(nodes[index].pre < nodes[index + 1].pre
               for index in range(len(nodes) - 1))
