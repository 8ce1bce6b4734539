"""Document wrapper: columns, per-tag streams, nodes on demand.

The structural-join algorithms (TwigJoin, Staircase join) do not navigate
the tree; they scan *streams*: for each element tag, the sorted (by
``pre``) list of elements with that tag.  :class:`IndexedDocument` holds
these streams together with the table of nodes indexed by ``pre``
number.

A document is always a :class:`~repro.xmltree.columnar.ColumnarDocument`
— integer columns and ``pre`` streams — and a node table that starts
empty.  There are two ways in: XML text (:meth:`IndexedDocument.from_string`,
which :func:`~repro.xmltree.builder.build_document` and the generators
of :mod:`repro.data` write before they parse), where the parser appends
to the columns, and a saved file (:meth:`IndexedDocument.open`), which
maps them.  The joins run on the columns.
:meth:`IndexedDocument.node_at` makes the one node asked for (and the
shells of its ancestors) the first time it is asked for, and an
element's children come into being when something reads them, so a
query costs node objects in proportion to its result, not to the
document.  The accessors that hand out nodes in bulk
(:attr:`nodes_by_pre`, :meth:`stream`, :meth:`all_elements`, …) go
through the same constructor, each for exactly the nodes it returns.

The module also provides :func:`ddo` — sorting by document order with
duplicate elimination — the dynamic counterpart of the special function
``fs:distinct-doc-order`` that the paper's normalization inserts.
"""

from __future__ import annotations

import os
import threading
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from .columnar import ColumnarDocument, StorageError
from .node import AttributeNode, DocumentNode, ElementNode, Node
from .parser import parse_columns

_PRE_KEY = attrgetter("pre")


class IndexedDocument:
    """A document plus the indexes the join algorithms need.

    Construct with a ``columns`` store, or with the root of a parsed
    tree, which stands for the columns it was parsed into:
    ``IndexedDocument(parse_xml(text))`` is
    ``IndexedDocument.from_string(text)``; such a tree is a view and
    must not have been changed.  A tree with no store behind it is not
    a document: build one with
    :func:`~repro.xmltree.builder.build_document` or
    :meth:`from_string`.
    """

    def __init__(self, root: Optional[DocumentNode] = None, *,
                 columns: Optional[ColumnarDocument] = None) -> None:
        if (root is None) == (columns is None):
            raise ValueError(
                "IndexedDocument takes exactly one of root= or columns=")
        if root is not None:
            columns = getattr(root, "_owner", None)
            if columns is None:
                raise ValueError(
                    "IndexedDocument(root) takes the root of a parsed "
                    "tree; build a document with build_document or "
                    "IndexedDocument.from_string")
        self._columns = columns
        self._summary = None
        self._summary_lock = threading.Lock()
        #: shared with ``columns``: ``None`` where no node was made.
        self._nodes: Sequence[Optional[Node]] = columns.nodes
        self._tag_pres = columns.tag_pres
        self._attribute_pres = columns.attribute_pres
        # Filled a name at a time, for the names asked for.
        self._tag_streams: dict[str, list[ElementNode]] = {}
        self._attribute_streams: dict[str, list[AttributeNode]] = {}

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

    @property
    def columns(self) -> ColumnarDocument:
        """The document's integer-column form (see
        :mod:`repro.xmltree.columnar`), the representation the
        staircase/twig join inner loops scan."""
        if self._columns is None:
            self._check_open()
        return self._columns

    # -- nodes ----------------------------------------------------------------

    @property
    def root(self) -> DocumentNode:
        return self.node_at(0)

    def node_at(self, pre: int) -> Node:
        """The node with the given ``pre`` number, made at the first
        call that asks for it.  Unknown ``pre`` values raise
        :class:`KeyError`, never :class:`IndexError` and never a
        negative-index alias."""
        table = self._nodes
        if 0 <= pre < len(table):
            return table[pre] or self._columns.node(pre)
        self._check_open()
        raise KeyError(f"no node with pre={pre}")

    def _nodes_at(self, pres: Sequence[int]) -> list:
        """The nodes numbered ``pres``, those that do not exist yet
        made now."""
        table, make = self._nodes, self.columns.node
        return [table[pre] or make(pre) for pre in pres]

    @property
    def nodes_by_pre(self) -> Sequence[Node]:
        """Every node, in document order."""
        return self.columns.all_nodes()

    def all_elements(self) -> list[ElementNode]:
        return self._nodes_at(self.columns.element_pres)

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
            # The stream dicts hold views on the map: while they live,
            # it cannot be unmapped.
            self._tag_pres = self._attribute_pres = {}
            columns.close()
            self._tag_pres = columns.tag_pres
            self._attribute_pres = columns.attribute_pres
            if columns.is_closed:
                self._columns = None
                self._nodes = ()


def document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes by document order (within one tree)."""
    return sorted(nodes, key=_PRE_KEY)


def ddo(nodes: Iterable[Node]) -> list[Node]:
    """Distinct-doc-order: sort by document order and drop duplicates.

    Duplicates are determined by ``pre`` number, which coincides with
    node identity inside a single tree (the paper's setting).
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
