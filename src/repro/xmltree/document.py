"""Document wrapper: columns, per-tag streams, nodes on demand.

The structural-join algorithms (TwigJoin, Staircase join) do not navigate
the tree; they scan *streams*: for each element tag, the sorted (by
``pre``) list of elements with that tag.  :class:`IndexedDocument` holds
these streams together with the table of nodes indexed by ``pre``
number.

A parsed document (:meth:`IndexedDocument.from_string`) and an opened
one (:meth:`IndexedDocument.open`) are the same thing: a
:class:`~repro.xmltree.columnar.ColumnarDocument` — integer columns and
``pre`` streams, which the scanner appends to and ``open`` maps — and a
node table that starts empty.  The joins run on the columns.
:meth:`IndexedDocument.node_at` makes the one node asked for (and the
shells of its ancestors) the first time it is asked for, and an
element's children come into being when something reads them, so a
query costs node objects in proportion to its result, not to the
document.  The accessors that hand out nodes in bulk
(:attr:`nodes_by_pre`, :meth:`stream`, :attr:`text_stream`, …) go
through the same constructor, each for exactly the nodes it returns.

A tree put together by hand or by a generator (``IndexedDocument(root)``)
is walked once for its table and streams, and its columns are derived
on first access to :attr:`columns`.  Either way, every consumer — the
seven strategies, the path summary, the prefilter, serve, trace — sees
the same attributes with the same meaning.

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

from .columnar import ColumnarDocument, StorageError
from .node import AttributeNode, DocumentNode, ElementNode, Node, TextNode
from .parser import parse_columns

_PRE_KEY = attrgetter("pre")


class IndexedDocument:
    """A document plus the indexes the join algorithms need.

    Construct with a ``columns`` store, or with the ``root`` of a tree —
    exactly one of the two.  The root of a parsed tree stands for the
    columns it was parsed into, so ``IndexedDocument(parse_xml(text))``
    is ``IndexedDocument.from_string(text)``; such a tree is a view and
    must not have been changed.
    """

    def __init__(self, root: Optional[DocumentNode] = None, *,
                 columns: Optional[ColumnarDocument] = None) -> None:
        if (root is None) == (columns is None):
            raise ValueError(
                "IndexedDocument takes exactly one of root= or columns=")
        if root is not None and root._owner is not None:
            columns = root._owner
        self._columns = columns
        self._pres: Optional[list[int]] = None
        self._summary = None
        self._summary_lock = threading.Lock()
        self._columns_lock = threading.Lock()
        self._text_stream: Optional[list[TextNode]] = None
        if columns is not None:
            self._store_kind = "columnar"
            #: shared with ``columns``: ``None`` where no node was made.
            self._nodes: Sequence[Optional[Node]] = columns.nodes
            self._tag_pres = columns.tag_pres
            self._attribute_pres = columns.attribute_pres
            # Filled a name at a time, for the names asked for.
            self._tag_streams: dict[str, list[ElementNode]] = {}
            self._attribute_streams: dict[str, list[AttributeNode]] = {}
        else:
            self._store_kind = "object"
            self._uri = root.uri
            self._build(_walk(root))

    @classmethod
    def from_string(cls, text: str, uri: str = "") -> "IndexedDocument":
        return cls(columns=parse_columns(text, uri))

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
        """``"columnar"`` when born from columns (parsed, opened from a
        saved index or built from a :class:`ColumnarDocument`),
        ``"object"`` when built from a tree made by hand."""
        return self._store_kind

    @property
    def columns(self) -> ColumnarDocument:
        """The document's integer-column form (see
        :mod:`repro.xmltree.columnar`), the representation the
        staircase/twig join inner loops scan.

        A document made from a tree derives it on first access, exactly
        once (double-check locked), from the dense node table.
        """
        if self._columns is None:
            with self._columns_lock:
                if self._columns is None:
                    self._check_open()
                    self._columns = ColumnarDocument.from_nodes(
                        self._nodes, uri=self._uri)
        return self._columns

    @property
    def has_columns(self) -> bool:
        """True when the columnar form already exists (no build cost
        behind :attr:`columns`)."""
        return self._columns is not None

    # -- nodes ----------------------------------------------------------------

    @property
    def root(self) -> DocumentNode:
        return self.node_at(0)

    def node_at(self, pre: int) -> Node:
        """The node with the given ``pre`` number; on a document born
        from columns, made at the first call that asks for it.

        O(1) by construction on densely numbered tables (the normal
        case: :func:`~repro.xmltree.node.assign_regions` numbers every
        node, attributes included, consecutively).  If the table is
        *not* dense — e.g. a document wrapped around a re-rooted
        fragment that kept its original numbers — the lookup degrades
        to a binary search instead of silently returning the wrong
        node.  Unknown ``pre`` values raise :class:`KeyError`, never
        :class:`IndexError` and never a negative-index alias.
        """
        table = self._nodes
        if 0 <= pre < len(table):
            node = table[pre]
            if node is None:
                node = self._columns.node(pre)
            if node.pre == pre:
                return node
        self._check_open()
        if pre >= 0 and self._store_kind == "object":
            # Sparse table: fall back to bisect over the sorted pres.
            if self._pres is None:
                self._pres = [node.pre for node in table]
            index = bisect_left(self._pres, pre)
            if index < len(table) and table[index].pre == pre:
                return table[index]
        raise KeyError(f"no node with pre={pre}")

    def _nodes_at(self, pres: Sequence[int]) -> list:
        """The nodes numbered ``pres`` of a document born from columns,
        those that do not exist yet made now."""
        table, make = self._nodes, self.columns.node
        return [table[pre] or make(pre) for pre in pres]

    @property
    def nodes_by_pre(self) -> Sequence[Node]:
        """Every node, in document order."""
        if self._store_kind == "columnar":
            return self.columns.all_nodes()
        return self._nodes

    def all_elements(self) -> list[ElementNode]:
        if self._store_kind == "columnar":
            return self._nodes_at(self.columns.element_pres)
        return [node for node in self._nodes
                if isinstance(node, ElementNode)]

    # -- stream access ------------------------------------------------------

    @property
    def tag_pres(self) -> dict[str, Sequence[int]]:
        return self._tag_pres

    def stream(self, tag: str) -> list[ElementNode]:
        """All elements with ``tag``, sorted by ``pre``."""
        return self._stream(self._tag_streams, self._tag_pres, tag)

    def attribute_stream(self, name: str) -> list[AttributeNode]:
        """All attributes named ``name``, sorted by ``pre``."""
        return self._stream(self._attribute_streams, self._attribute_pres,
                            name)

    def _stream(self, streams: dict, pres_of: dict, name: str) -> list:
        stream = streams.get(name)
        if stream is None:
            pres = pres_of.get(name)
            if not pres:
                self._check_open()
                return []
            stream = streams[name] = self._nodes_at(pres)
        return stream

    @property
    def tag_streams(self) -> dict[str, list[ElementNode]]:
        for tag in self._tag_pres:
            self.stream(tag)
        self._check_open()
        return self._tag_streams

    @property
    def attribute_streams(self) -> dict[str, list[AttributeNode]]:
        for name in self._attribute_pres:
            self.attribute_stream(name)
        self._check_open()
        return self._attribute_streams

    @property
    def text_stream(self) -> list[TextNode]:
        if self._text_stream is None:
            self._text_stream = self._nodes_at(self.columns.text_pres)
        return self._text_stream

    def _build(self, table: list[Node]) -> None:
        self._nodes = table
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
        self._attribute_pres = {name: [attribute.pre for attribute in stream]
                                for name, stream
                                in attribute_streams.items()}

    @property
    def size(self) -> int:
        """Total node count."""
        self._check_open()
        return len(self._nodes)

    def _check_open(self) -> None:
        """A closed document has no table; any other has a document
        node's slot at least."""
        if not self._nodes:
            raise StorageError("document store was closed before any "
                               "node of it was made", check="closed")

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
            self._check_open()
            return []
        low_key = context.pre if include_self else context.pre + 1
        low = bisect_left(pres, low_key)
        high = bisect_right(pres, context.end)
        if low >= high:
            return []
        stream = self._tag_streams.get(tag)
        if stream is None:
            return self._nodes_at(pres[low:high])
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

    def close(self) -> None:
        """Release the mmap behind an opened document (no-op for any
        other).

        A document that has handed out a node takes its columns out of
        the map first (:meth:`ColumnarDocument.close`): it and the nodes
        keep working, as an ordinary in-memory document.  One that has
        not stays closed, and whatever is asked of it raises a
        ``REPRO-STORAGE`` error."""
        columns = self._columns
        if columns is not None and columns.is_mapped:
            columns.close()
            self._tag_pres = columns.tag_pres
            self._attribute_pres = columns.attribute_pres
            if columns.is_closed:
                self._columns = None
                self._nodes = ()


def _walk(root: DocumentNode) -> list[Node]:
    """The node table of a tree that did not come with one."""
    table: list[Node] = []
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        table.append(node)
        if isinstance(node, ElementNode):
            for attribute in node.attributes:
                table.append(attribute)
        stack.extend(reversed(node.children))
    table.sort(key=_PRE_KEY)
    return table


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
