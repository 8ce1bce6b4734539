"""Columnar document store with mmap-able persistence.

The stream-based join algorithms (StaircaseJoin, TwigJoin) are merges
over sorted *region-encoding* streams — integer ``pre``/``post``/
``level`` columns in Grust et al.'s staircase-join formulation.
:class:`ColumnarDocument` is that encoding as contiguous integer columns
(stdlib :mod:`array` buffers, or zero-copy ``memoryview`` casts over an
``mmap`` when opened from disk), and it is the only representation a
document has:

``post``, ``level``, ``end``, ``parent``
    one 32-bit signed integer per node, indexed by ``pre`` (``pre``
    itself is implicit: it *is* the index).  ``parent`` holds the
    parent's ``pre`` number, ``-1`` for the document node.
``path_id``, ``path_dir``
    the document's path trie (see :mod:`repro.xmltree.summary`):
    ``path_id`` holds one 32-bit integer per node, the index of an
    element's root-to-node tag path, ``0`` (the document point) for
    the document node and ``-1`` for attribute and text nodes;
    ``path_dir`` holds one ``(parent path index, name id)`` int32 pair
    per path, numbered in order of first appearance in the document,
    index ``0`` being the document point ``(-1, -1)``.
``kind``
    one byte per node: document / element / attribute / text.
``name_id``, ``text_id``
    dictionary-encoded element/attribute names and text/attribute
    values: indexes into the ``names`` and ``texts`` string tables,
    ``-1`` where not applicable.
per-tag streams
    for each element tag (and attribute name), the sorted array of
    ``pre`` numbers — the exact inputs of the staircase and twig joins.

The on-disk format (see :data:`MAGIC`) is versioned, checksummed and
mmap-able: a fixed header (magic, format version, endianness marker,
payload CRC-32), a section table, then 8-byte-aligned raw column
payloads.  :meth:`ColumnarDocument.open` maps the file and exposes the
columns as lazy ``memoryview`` casts — no parse, no re-index, no copy —
so a :class:`~repro.serve.catalog.DocumentCatalog` can serve a
pre-indexed document after an O(1) open (plus an optional CRC pass).

Corruption never crashes and never silently answers wrong:
truncation, a bad magic, a foreign byte order, an unsupported version
or a checksum mismatch each raise a typed :class:`StorageError` naming
the file and the failed check.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import tempfile
import threading
import time
import zlib
from array import array
from bisect import bisect_left, bisect_right
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from ..guard.chaos import InjectedFault, chaos_point
from ..guard.errors import ReproError
from .node import (AttributeNode, DocumentNode, DocumentShell, ElementNode,
                   ElementShell, Node, TextNode)
from .nodetest import (AnyKindTest, ElementTest, NameTest, NodeTest,
                       TextTest, WildcardTest)

__all__ = [
    "ColumnarDocument", "StorageError", "MAGIC", "FORMAT_VERSION",
    "KIND_DOCUMENT", "KIND_ELEMENT", "KIND_ATTRIBUTE", "KIND_TEXT",
    "is_columnar_file",
]

#: node-kind codes of the ``kind`` column.
KIND_DOCUMENT = 0
KIND_ELEMENT = 1
KIND_ATTRIBUTE = 2
KIND_TEXT = 3

#: file magic: "RePro Columnar" — also the sniff key of
#: :func:`is_columnar_file`.
MAGIC = b"RPXC"

#: on-disk format version this build reads and writes (version 2 added
#: the ``path_id`` column and the ``path_dir`` section).
FORMAT_VERSION = 2

#: endianness marker as written by the producing platform; a reader on
#: the opposite byte order sees it reversed and refuses the file.
_ENDIAN_MARK = 0x1FF7

#: header: magic, version u16, endian-mark u16, section count u32,
#: flags u32, total file length u64, payload CRC-32 u32, reserved u32.
_HEADER = struct.Struct("<4sHHIIQII")

#: one section-table entry: name (24 bytes, NUL padded), offset u64,
#: byte length u64.
_SECTION = struct.Struct("<24sQQ")

_ALIGN = 8

#: the int32 columns, in on-disk order.
_INT_COLUMNS = ("post", "level", "end", "parent", "name_id", "text_id",
                "path_id")

#: every section a version-2 file must carry.
_REQUIRED_SECTIONS = _INT_COLUMNS + (
    "kind", "name_dir", "name_blob", "text_dir", "text_blob",
    "tag_dir", "tag_stream", "attr_dir", "attr_stream",
    "text_pres", "element_pres", "path_dir", "uri")

#: the variable-length int32 sections.
_INT_SECTIONS = ("name_dir", "text_dir", "tag_dir", "tag_stream",
                 "attr_dir", "attr_stream", "text_pres", "element_pres",
                 "path_dir")

_EMPTY_I = array("i")


class StorageError(ReproError):
    """A columnar store file failed validation (truncated, corrupt,
    wrong magic/version/byte order) or an invariant check failed.

    Always carries the failing ``path`` (when file-backed) and the
    ``check`` that tripped in its context."""

    code = "REPRO-STORAGE"


def is_columnar_file(path: Union[str, os.PathLike]) -> bool:
    """True when ``path`` starts with the columnar store magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _pad(length: int) -> int:
    return (-length) % _ALIGN


_NEW = object.__new__


class ColumnarDocument:
    """The region encoding of one document as contiguous integer columns.

    The XML parser (:func:`~repro.xmltree.parser.parse_columns`) builds
    one, or :meth:`open` maps a saved file.  All columns are read-only
    sequences of Python ints (``array`` when built in memory,
    ``memoryview`` casts over the mmap when opened from disk); string
    dictionaries are decoded lazily per entry and cached.
    """

    def __init__(self, *, post, level, end, parent, kind, name_id, text_id,
                 path_id, path_dir, names: Sequence[str],
                 texts: Sequence[str],
                 tag_pres: Dict[str, Sequence[int]],
                 attribute_pres: Dict[str, Sequence[int]],
                 text_pres: Sequence[int], element_pres: Sequence[int],
                 uri: str = "",
                 source: Optional[mmap.mmap] = None,
                 source_file: Optional[BinaryIO] = None,
                 path: Optional[str] = None) -> None:
        self.post = post
        self.level = level
        self.end = end
        self.parent = parent
        self.kind = kind
        self.name_id = name_id
        self.text_id = text_id
        #: path index per node: ``0`` for the document node, ``-1`` for
        #: attribute and text nodes.
        self.path_id = path_id
        #: ``(parent path index, name id)`` per path, flattened.
        self.path_dir = path_dir
        self.names = names
        self.texts = texts
        #: per-element-tag sorted ``pre`` streams.
        self.tag_pres = tag_pres
        #: per-attribute-name sorted ``pre`` streams.
        self.attribute_pres = attribute_pres
        #: sorted ``pre`` numbers of every text node.
        self.text_pres = text_pres
        #: sorted ``pre`` numbers of every element.
        self.element_pres = element_pres
        self.uri = uri
        self._source = source
        self._source_file = source_file
        self.path = path
        self._non_attribute_pres: Optional[Sequence[int]] = None
        self._all_attribute_pres: Optional[Sequence[int]] = None
        #: the node objects made so far, by ``pre`` (see :attr:`nodes`);
        #: written with ``_lock`` held, read without.
        self._nodes: Optional[List[Optional[Node]]] = None
        #: serialized markup by ``pre``, ``None`` where not output yet
        #: (see :mod:`repro.xmltree.serializer`); made at the first
        #: output, written with ``_lock`` held, read without.
        self.pieces: Optional[List[Optional[str]]] = None
        self._lock = threading.Lock()
        #: wall seconds of the producing open, for instrumentation
        #: (benchmarks and ``repro index --verify``).
        self.open_seconds: float = 0.0

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Total node count (== the exclusive upper bound of ``pre``)."""
        return len(self.kind)

    def name_of(self, pre: int) -> Optional[str]:
        slot = self.name_id[pre]
        return self.names[slot] if slot >= 0 else None

    def text_of(self, pre: int) -> Optional[str]:
        slot = self.text_id[pre]
        return self.texts[slot] if slot >= 0 else None

    def element_stream(self, tag: str) -> Sequence[int]:
        """Sorted ``pre`` numbers of elements named ``tag``."""
        return self.tag_pres.get(tag, _EMPTY_I)

    def attribute_stream(self, name: str) -> Sequence[int]:
        """Sorted ``pre`` numbers of attributes named ``name``."""
        return self.attribute_pres.get(name, _EMPTY_I)

    @property
    def non_attribute_pres(self) -> Sequence[int]:
        """Sorted ``pre`` numbers of every non-attribute node — the
        ``node()`` stream (attributes are only reachable through the
        attribute axis).  Built on first use and cached."""
        if self._non_attribute_pres is None:
            kind = self.kind
            self._non_attribute_pres = array(
                "i", (pre for pre in range(len(kind))
                      if kind[pre] != KIND_ATTRIBUTE))
        return self._non_attribute_pres

    @property
    def all_attribute_pres(self) -> Sequence[int]:
        """Sorted ``pre`` numbers of every attribute node."""
        if self._all_attribute_pres is None:
            kind = self.kind
            self._all_attribute_pres = array(
                "i", (pre for pre in range(len(kind))
                      if kind[pre] == KIND_ATTRIBUTE))
        return self._all_attribute_pres

    def string_value(self, pre: int) -> str:
        """The string value of the element or document numbered ``pre``:
        the text nodes inside its region, found by two bisects on
        :attr:`text_pres`, joined — no node object is made."""
        last = self.end[pre]
        if last == pre + 1 and self.kind[last] == KIND_TEXT:
            return self.texts[self.text_id[last]]   # <x>text</x>
        pres = self.text_pres
        low = bisect_left(pres, pre)
        # The region holds at most ``last - pre`` text nodes.
        high = bisect_right(pres, last, low,
                            min(len(pres), low + last - pre))
        text_id, texts = self.text_id, self.texts
        return "".join([texts[text_id[text]] for text in pres[low:high]])

    def attributes_of(self, element_pre: int) -> range:
        """The ``pre`` numbers of an element's attributes.

        Attributes are numbered immediately after their owner element
        (XDM document order), so they form the contiguous run of
        attribute-kind nodes right after ``element_pre``."""
        kind = self.kind
        n = len(kind)
        stop = element_pre + 1
        while stop < n and kind[stop] == KIND_ATTRIBUTE:
            stop += 1
        return range(element_pre + 1, stop)

    def test_matches(self, pre: int, test: NodeTest,
                     principal_kind: str = "element") -> bool:
        """Columnar equivalent of ``NodeTest.matches`` — no node object
        is materialized."""
        kind = self.kind[pre]
        if isinstance(test, NameTest):
            wanted = (KIND_ATTRIBUTE if principal_kind == "attribute"
                      else KIND_ELEMENT)
            return kind == wanted and \
                self.names[self.name_id[pre]] == test.name
        if isinstance(test, WildcardTest):
            return kind == (KIND_ATTRIBUTE
                            if principal_kind == "attribute"
                            else KIND_ELEMENT)
        if isinstance(test, AnyKindTest):
            return True
        if isinstance(test, TextTest):
            return kind == KIND_TEXT
        if isinstance(test, ElementTest):
            if kind != KIND_ELEMENT:
                return False
            return test.name is None or \
                self.names[self.name_id[pre]] == test.name
        return False

    # -- node objects, made on demand ---------------------------------------

    @property
    def nodes(self) -> List[Optional[Node]]:
        """The node table: one slot per ``pre``, ``None`` until
        :meth:`node` is asked for that node.  Every view of these
        columns shares it, so a ``pre`` has one node object."""
        if self._nodes is None:
            with self._lock:
                if self._nodes is None:
                    self._nodes = [None] * len(self.kind)
        return self._nodes

    def node(self, pre: int) -> Node:
        """The node numbered ``pre``, made now — with those of its
        ancestors that do not exist yet, as shells — unless it exists.
        Nothing else of the document is touched."""
        nodes = self.nodes
        with self._lock:
            made = nodes[pre]
            if made is not None:
                return made
            parent_of = self.parent
            missing = [pre]
            above = parent_of[pre]
            while above >= 0 and nodes[above] is None:
                if above >= missing[-1]:
                    raise StorageError(
                        f"parent[{missing[-1]}]={above} is not before "
                        f"its child", check="parent-before-child",
                        path=self.path)
                missing.append(above)
                above = parent_of[above]
            made = nodes[above] if above >= 0 else None
            while missing:
                made = self._new_node(missing.pop(), made)
            return made

    def all_nodes(self) -> List[Node]:
        """The node table with every slot filled (elements as shells
        where nothing has read their content)."""
        nodes = self.nodes
        with self._lock:
            parent_of = self.parent
            for pre, made in enumerate(nodes):
                if made is None:
                    above = parent_of[pre]
                    self._new_node(pre,
                                   nodes[above] if above >= 0 else None)
        return nodes

    def expand(self, shell: Node) -> None:
        """Give a shell its ``_children`` (and ``_attributes``): nodes
        that exist are taken from the table, the others made."""
        with self._lock:
            if not isinstance(shell, (ElementShell, DocumentShell)):
                return      # another thread came first
            nodes, kind, end = self._nodes, self.kind, self.end
            child = shell.pre + 1
            last = shell.end
            attributes: List[Node] = []
            while child <= last and kind[child] == KIND_ATTRIBUTE:
                attributes.append(nodes[child]
                                  or self._new_node(child, shell))
                child += 1
            children: List[Node] = []
            while child <= last:
                children.append(nodes[child]
                                or self._new_node(child, shell))
                if end[child] < child:
                    raise StorageError(
                        f"end[{child}]={end[child]} is before the node",
                        check="end-interval", path=self.path)
                child = end[child] + 1
            # ``_children`` last: a reader that finds it set, without
            # the lock, must find the rest set too.
            if isinstance(shell, ElementShell):
                shell._attributes = attributes
                shell._children = children
                shell.__class__ = ElementNode
            else:
                shell._children = children
                shell.__class__ = DocumentNode

    def _new_node(self, pre: int, parent: Optional[Node]) -> Node:
        """Make the node numbered ``pre`` and put it in the table: the
        one place a node of a column store comes from.  ``_lock`` is
        held and ``parent`` is the node of ``self.parent[pre]``."""
        kind = self.kind[pre]
        node: Node
        if parent is None:
            if pre or kind != KIND_DOCUMENT:
                raise StorageError("column store has no document node",
                                   check="root", path=self.path)
            node = _NEW(DocumentShell)
            node.uri = self.uri
            node._owner = self
        elif kind == KIND_ELEMENT:
            node = _NEW(ElementShell)
            node._name = self.names[self.name_id[pre]]
        elif kind == KIND_TEXT:
            node = _NEW(TextNode)
            node.text = self.texts[self.text_id[pre]]
        elif kind == KIND_ATTRIBUTE:
            node = _NEW(AttributeNode)
            node._name = self.names[self.name_id[pre]]
            node.value = self.texts[self.text_id[pre]]
        else:
            raise StorageError(f"node {pre} has kind code {kind}",
                               check="node-kind", path=self.path)
        node.pre = pre
        node.post = self.post[pre]
        node.level = self.level[pre]
        node.end = self.end[pre]
        node.parent = parent
        node.singleton = None
        self._nodes[pre] = node
        return node

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of the region encoding; a
        violation raises :class:`StorageError` naming the failed check.

        Used by the persistence tests after a round trip, and available
        to callers who want to vet an untrusted file beyond the CRC.
        """
        n = self.n
        if n == 0:
            raise StorageError("empty document store", check="non-empty",
                               path=self.path)
        names = self.names

        def fail(check: str, message: str) -> StorageError:
            return StorageError(message, check=check, path=self.path)

        if self.kind[0] != KIND_DOCUMENT or self.parent[0] != -1 \
                or self.level[0] != 0:
            raise fail("root", "pre=0 is not a level-0 document root")
        if sorted(self.post) != list(range(n)):
            raise fail("post-permutation",
                       "post column is not a permutation of 0..n-1")
        for pre in range(n):
            end = self.end[pre]
            if not pre <= end < n:
                raise fail("end-interval",
                           f"end[{pre}]={end} outside [{pre}, {n})")
            parent = self.parent[pre]
            if pre > 0:
                if not 0 <= parent < pre:
                    raise fail("parent-before-child",
                               f"parent[{pre}]={parent} not in [0, {pre})")
                if self.level[pre] != self.level[parent] + 1:
                    raise fail("level",
                               f"level[{pre}] != level[parent]+1")
                if not self.end[parent] >= end:
                    raise fail("containment",
                               f"subtree [{pre},{end}] escapes parent "
                               f"[{parent},{self.end[parent]}]")
            slot = self.name_id[pre]
            if slot >= 0 and not slot < len(names):
                raise fail("name-id", f"name_id[{pre}]={slot} out of "
                                      f"dictionary range")
            if slot < 0 and self.kind[pre] in (KIND_ELEMENT,
                                               KIND_ATTRIBUTE):
                raise fail("name-id", f"named node {pre} has no name")
            tslot = self.text_id[pre]
            if tslot >= 0 and not tslot < len(self.texts):
                raise fail("text-id", f"text_id[{pre}]={tslot} out of "
                                      f"value-table range")
        self._validate_paths(fail)
        for tag, stream in self.tag_pres.items():
            if list(stream) != sorted(stream):
                raise fail("stream-order", f"tag stream {tag!r} unsorted")
            for pre in stream:
                if self.kind[pre] != KIND_ELEMENT or \
                        self.names[self.name_id[pre]] != tag:
                    raise fail("stream-content",
                               f"tag stream {tag!r} holds pre={pre} "
                               f"which is not a <{tag}> element")
        if sum(len(s) for s in self.tag_pres.values()) != \
                len(self.element_pres):
            raise fail("stream-cover",
                       "tag streams do not cover the element column")

    def _validate_paths(self, fail) -> None:
        """Every element's path is its parent's path extended by its
        name, every other node carries its fixed value, and the paths
        are numbered in order of first appearance, none unused."""
        path_dir = self.path_dir
        _check_path_dir(path_dir, len(self.names), fail)
        path_id, parent, kind = self.path_id, self.parent, self.kind
        if path_id[0] != 0:
            raise fail("path-id", "the document node is not on path 0")
        #: the next path not yet met.
        fresh, paths = 1, len(path_dir) // 2
        for pre in range(1, self.n):
            point = path_id[pre]
            if kind[pre] != KIND_ELEMENT:
                if point != -1:
                    raise fail("path-id", f"path_id[{pre}]={point} on a "
                                          f"node that is no element")
                continue
            if not 0 < point <= fresh or point >= paths or \
                    path_dir[2 * point] != path_id[parent[pre]] or \
                    path_dir[2 * point + 1] != self.name_id[pre]:
                raise fail("path-id", f"path_id[{pre}]={point} is not its "
                                      f"parent's path and its name")
            if point == fresh:
                fresh += 1
        if fresh != paths:
            raise fail("path-id", f"{paths - fresh} paths hold no "
                                  f"element")

    # -- persistence -------------------------------------------------------

    def save(self, path: Union[str, os.PathLike]) -> int:
        """Write the store to ``path`` (version-2 format) and return the
        byte size.  The write is atomic: a temp file of its own in the
        same directory is renamed over the target, and removed if the
        write or the rename fails."""
        sections: List[Tuple[str, bytes]] = []
        for name in _INT_COLUMNS:
            sections.append((name, _int32_bytes(getattr(self, name))))
        sections.append(("kind", _uint8_bytes(self.kind)))
        name_dir, name_blob = _encode_strings(self.names)
        sections.append(("name_dir", name_dir))
        sections.append(("name_blob", name_blob))
        text_dir, text_blob = _encode_strings(self.texts)
        sections.append(("text_dir", text_dir))
        sections.append(("text_blob", text_blob))
        tag_dir, tag_stream = self._encode_streams(self.tag_pres)
        sections.append(("tag_dir", tag_dir))
        sections.append(("tag_stream", tag_stream))
        attr_dir, attr_stream = self._encode_streams(self.attribute_pres)
        sections.append(("attr_dir", attr_dir))
        sections.append(("attr_stream", attr_stream))
        sections.append(("text_pres", _int32_bytes(self.text_pres)))
        sections.append(("element_pres", _int32_bytes(self.element_pres)))
        sections.append(("path_dir", _int32_bytes(self.path_dir)))
        sections.append(("uri", self.uri.encode("utf-8")))

        payload = io.BytesIO()
        table: List[Tuple[str, int, int]] = []
        base = _HEADER.size + _SECTION.size * len(sections)
        base += _pad(base)
        for name, data in sections:
            offset = base + payload.tell()
            table.append((name, offset, len(data)))
            payload.write(data)
            payload.write(b"\x00" * _pad(len(data)))
        body = payload.getvalue()
        crc = zlib.crc32(body)
        total = base + len(body)

        out = io.BytesIO()
        out.write(_HEADER.pack(MAGIC, FORMAT_VERSION, _ENDIAN_MARK,
                               len(sections), 0, total, crc, 0))
        for name, offset, length in table:
            encoded = name.encode("ascii")
            out.write(_SECTION.pack(encoded, offset, length))
        out.write(b"\x00" * _pad(out.tell()))
        assert out.tell() == base
        out.write(body)

        path = os.fspath(path)
        handle, temp = tempfile.mkstemp(
            prefix=f"{os.path.basename(path)}.tmp.",
            dir=os.path.dirname(path) or ".")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(out.getvalue())
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        return total

    def _encode_streams(self, streams: Dict[str, Sequence[int]]
                        ) -> Tuple[bytes, bytes]:
        """Encode name-keyed pre streams as a directory of
        ``(name_id, start, count)`` int32 triples plus one concatenated
        pre array."""
        name_slot = {name: slot for slot, name in enumerate(self.names)}
        directory = array("i")
        concatenated = array("i")
        for name in sorted(streams, key=lambda name: name_slot[name]):
            stream = streams[name]
            directory.extend((name_slot[name], len(concatenated),
                              len(stream)))
            concatenated.extend(stream)
        return directory.tobytes(), concatenated.tobytes()

    @classmethod
    def open(cls, path: Union[str, os.PathLike],
             verify: bool = True) -> "ColumnarDocument":
        """Map a saved store from disk.

        The header, section table and string/stream directories are read
        eagerly (a few hundred bytes plus one entry per distinct tag);
        the integer columns stay lazily mapped ``memoryview`` casts over
        the shared ``mmap`` — no copy is made and nothing is re-parsed.

        With ``verify=True`` (the default) the payload CRC-32 is checked
        — a single streaming pass over the map, orders of magnitude
        cheaper than re-indexing — so a flipped byte surfaces as a
        typed :class:`StorageError` instead of a wrong answer.  Pass
        ``verify=False`` for a strictly O(1) open of trusted files.
        """
        started = time.perf_counter()
        path = os.fspath(path)

        def fail(check: str, message: str) -> StorageError:
            return StorageError(f"{path}: {message}", check=check,
                                path=path)

        try:
            handle = open(path, "rb")
        except OSError as err:
            raise StorageError(f"{path}: cannot open file: {err}",
                               check="open", path=path) from err
        try:
            size = os.fstat(handle.fileno()).st_size
            if size < _HEADER.size:
                raise fail("truncated",
                           f"file is {size} bytes, smaller than the "
                           f"{_HEADER.size}-byte header")
            # Chaos site for a failing mmap read: an injected fault is
            # wrapped into the same typed StorageError a real one
            # would produce (the quarantine path keys on it).
            chaos_point("columnar.read")
            source = mmap.mmap(handle.fileno(), 0,
                               access=mmap.ACCESS_READ)
        except StorageError:
            handle.close()
            raise
        except (OSError, ValueError) as err:
            handle.close()
            raise StorageError(f"{path}: cannot map file: {err}",
                               check="mmap", path=path) from err
        try:
            return cls._from_map(source, handle, path, size, verify,
                                 started, fail)
        except BaseException as err:
            # The failed frames still hold the views cut from the map,
            # and a map with exported views refuses to close.
            import traceback
            traceback.clear_frames(err.__traceback__)
            try:
                source.close()
            finally:
                handle.close()
            raise

    @classmethod
    def _from_map(cls, source: mmap.mmap, handle: BinaryIO, path: str,
                  size: int, verify: bool, started: float,
                  fail) -> "ColumnarDocument":
        magic, version, endian, count, _flags, total, crc, _reserved = \
            _HEADER.unpack_from(source, 0)
        if magic != MAGIC:
            raise fail("magic",
                       f"bad magic {magic!r}; not a columnar document "
                       f"store (expected {MAGIC!r})")
        if endian != _ENDIAN_MARK:
            raise fail("byte-order",
                       "file was written on a platform with a different "
                       "byte order; re-run `repro index` on this "
                       "machine")
        if version != FORMAT_VERSION:
            raise fail("version",
                       f"format version {version} is not supported by "
                       f"this build (expected {FORMAT_VERSION})")
        if total != size:
            raise fail("truncated",
                       f"header records {total} bytes but the file has "
                       f"{size} — truncated or padded")
        table_end = _HEADER.size + _SECTION.size * count
        if table_end > size:
            raise fail("truncated", "section table extends past the "
                                    "end of the file")
        sections = _read_table(source, count, table_end, total, fail)
        base = table_end + _pad(table_end)
        try:
            # Chaos site for checksum verification; injected faults
            # surface as the same typed StorageError a real CRC
            # mismatch raises.
            chaos_point("columnar.checksum")
        except InjectedFault as injected:
            raise fail("checksum",
                       f"injected checksum fault: {injected.message}") \
                from injected
        if verify and zlib.crc32(memoryview(source)[base:]) != crc:
            raise fail("checksum",
                       "payload CRC-32 mismatch — the file is corrupt; "
                       "re-run `repro index` to rebuild it")

        view = memoryview(source)

        def section(name: str) -> memoryview:
            offset, length = sections[name]
            return view[offset:offset + length]

        def int_column(name: str) -> memoryview:
            return section(name).cast("i")

        kind = section("kind")
        columns = {name: int_column(name) for name in _INT_COLUMNS}
        names = _decode_strings(int_column("name_dir"),
                                section("name_blob"), "name", fail)
        texts = _decode_strings(int_column("text_dir"),
                                section("text_blob"), "text", fail)
        tag_pres = _decode_streams(int_column("tag_dir"),
                                   int_column("tag_stream"), names,
                                   "tag", fail)
        attribute_pres = _decode_streams(int_column("attr_dir"),
                                         int_column("attr_stream"),
                                         names, "attribute", fail)
        path_dir = int_column("path_dir")
        _check_path_dir(path_dir, len(names), fail)
        document = cls(kind=kind, names=names, texts=texts,
                       path_dir=path_dir,
                       tag_pres=tag_pres, attribute_pres=attribute_pres,
                       text_pres=int_column("text_pres"),
                       element_pres=int_column("element_pres"),
                       uri=bytes(section("uri")).decode("utf-8"),
                       source=source, source_file=handle, path=path,
                       **columns)
        document.open_seconds = time.perf_counter() - started
        return document

    def close(self) -> None:
        """Release the mmap of a disk-backed store (no-op otherwise).

        A store that has made a node first copies its columns, streams
        and string tables out of the map, one copy each, and goes on as
        an in-memory store: the nodes handed out can still be expanded.
        A store that has made none drops its views, and column access
        raises from then on.

        If a caller still holds an exported view (a stream slice, a
        lazy string table), the map cannot be unmapped eagerly — the
        reference is released and the OS mapping goes away when the
        last view is collected."""
        if self._source is not None:
            with self._lock:
                if self._nodes is not None and self._nodes[0] is not None:
                    self._copy_out()
                else:
                    self._drop_views()
            try:
                self._source.close()
            except BufferError:
                # An external holder keeps a view alive; defer the
                # unmap to garbage collection of that view.
                pass
            self._source = None
        if self._source_file is not None:
            self._source_file.close()
            self._source_file = None

    def _drop_views(self) -> None:
        # Releasing an mmap with exported memoryviews raises
        # BufferError, so ours go first.
        self.post = self.level = self.end = self.parent = None
        self.kind = self.name_id = self.text_id = None
        self.path_id = self.path_dir = None
        self.tag_pres = {}
        self.attribute_pres = {}
        self.text_pres = self.element_pres = None
        self._non_attribute_pres = None
        self._all_attribute_pres = None
        self._nodes = None
        self.names = self.texts = ()

    def _copy_out(self) -> None:
        for name in _INT_COLUMNS + ("text_pres", "element_pres",
                                    "path_dir"):
            setattr(self, name, _int32_copy(getattr(self, name)))
        self.kind = array("B", self.kind.tobytes())
        self.tag_pres = {tag: _int32_copy(stream)
                         for tag, stream in self.tag_pres.items()}
        self.attribute_pres = {name: _int32_copy(stream) for name, stream
                               in self.attribute_pres.items()}
        self.names = self.names.copy()
        self.texts = self.texts.copy()

    @property
    def is_mapped(self) -> bool:
        """True when the columns live in a disk mmap."""
        return self._source is not None

    @property
    def is_closed(self) -> bool:
        """True once :meth:`close` has dropped the columns."""
        return self.kind is None

    def nbytes(self) -> int:
        """Approximate byte footprint of the integer columns (the
        string tables are excluded — they are shared Python strings)."""
        total = len(self.kind)
        for name in _INT_COLUMNS:
            total += 4 * len(getattr(self, name))
        total += 4 * (len(self.text_pres) + len(self.element_pres)
                      + len(self.path_dir))
        for stream in self.tag_pres.values():
            total += 4 * len(stream)
        for stream in self.attribute_pres.values():
            total += 4 * len(stream)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "mmap" if self.is_mapped else "memory"
        return (f"<ColumnarDocument n={self.n} tags={len(self.tag_pres)} "
                f"backing={backing}>")


# -- section table ----------------------------------------------------------

def _read_table(source: mmap.mmap, count: int, table_end: int, total: int,
                fail) -> Dict[str, Tuple[int, int]]:
    """The section table, accepted only as :meth:`ColumnarDocument.save`
    writes it: every version-2 section, in order, each starting where
    the one before ends (padded to 8), the int32 columns 4 bytes and
    ``kind`` 1 byte per node, and the last one ending the file.  The
    CRC covers the payload, not the table, so this is what stops a
    flipped table byte from reading another section's bytes."""
    def bad(message: str) -> StorageError:
        return fail("section-table", f"section table: {message}")

    if count != len(_REQUIRED_SECTIONS):
        raise bad(f"{count} sections, expected "
                  f"{len(_REQUIRED_SECTIONS)}")
    sections: Dict[str, Tuple[int, int]] = {}
    expected_offset = table_end + _pad(table_end)
    for index, name in enumerate(_REQUIRED_SECTIONS):
        raw, offset, length = _SECTION.unpack_from(
            source, _HEADER.size + _SECTION.size * index)
        if raw != name.encode("ascii").ljust(len(raw), b"\x00"):
            found = raw.rstrip(b"\x00")
            raise bad(f"entry {index} is {found!r}, expected {name!r}")
        if offset != expected_offset:
            raise bad(f"section {name!r} starts at {offset}, expected "
                      f"{expected_offset}")
        expected_offset = offset + length + _pad(length)
        sections[name] = (offset, length)
    if expected_offset != total:
        raise bad(f"sections end at {expected_offset}, the file at "
                  f"{total}")
    n = sections["kind"][1]
    for name in _INT_COLUMNS:
        if sections[name][1] != 4 * n:
            raise bad(f"column {name!r} is {sections[name][1]} bytes "
                      f"for {n} nodes")
    for name in _INT_SECTIONS:
        if sections[name][1] % 4:
            raise bad(f"section {name!r} is not int32-aligned")
    return sections


# -- encoding helpers ----------------------------------------------------------

def _int32_copy(view) -> array:
    return array("i", view.tobytes())


def _int32_bytes(column) -> bytes:
    if isinstance(column, array):
        return column.tobytes()
    return memoryview(column).tobytes()


def _uint8_bytes(column) -> bytes:
    if isinstance(column, array):
        return column.tobytes()
    return memoryview(column).tobytes()


def _encode_strings(values: Sequence[str]) -> Tuple[bytes, bytes]:
    """A string table: int32 end-offsets (exclusive, cumulative) plus
    one concatenated UTF-8 blob."""
    offsets = array("i")
    chunks: List[bytes] = []
    position = 0
    for value in values:
        data = value.encode("utf-8")
        chunks.append(data)
        position += len(data)
        offsets.append(position)
    return offsets.tobytes(), b"".join(chunks)


class _LazyStrings(Sequence[str]):
    """String table decoded lazily per entry, with per-slot caching —
    opening a huge document does not decode a single value until a
    query touches it."""

    __slots__ = ("_offsets", "_blob", "_cache")

    def __init__(self, offsets, blob) -> None:
        self._offsets = offsets
        self._blob = blob
        self._cache: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._offsets)

    def copy(self) -> "_LazyStrings":
        """The same table over bytes of its own, not the map's."""
        copied = _LazyStrings(_int32_copy(self._offsets),
                              bytes(self._blob))
        copied._cache = self._cache
        return copied

    def __getitem__(self, slot):
        if isinstance(slot, slice):
            return [self[index]
                    for index in range(*slot.indices(len(self)))]
        if slot < 0:
            slot += len(self)
        cached = self._cache.get(slot)
        if cached is None:
            start = self._offsets[slot - 1] if slot > 0 else 0
            stop = self._offsets[slot]
            cached = bytes(self._blob[start:stop]).decode("utf-8")
            self._cache[slot] = cached
        return cached


def _decode_strings(offsets, blob, label: str, fail) -> Sequence[str]:
    if len(offsets) and (offsets[-1] != len(blob)
                         or list(offsets) != sorted(offsets)
                         or offsets[0] < 0):
        raise fail(f"{label}-table",
                   f"{label} string table offsets are inconsistent "
                   f"with the blob")
    return _LazyStrings(offsets, blob)


def _check_path_dir(path_dir, name_count: int, fail) -> None:
    """The shape of a path directory: whole ``(parent, name id)``
    pairs, the document point ``(-1, -1)`` first, then each path's
    parent before it and its name in the name table."""
    parents, names = path_dir[2::2], path_dir[3::2]
    if len(path_dir) % 2 or len(path_dir) < 2 or path_dir[0] != -1 \
            or path_dir[1] != -1:
        raise fail("path-dir", "path directory is not (parent, name id) "
                               "pairs after the document point")
    if len(parents) and (
            min(parents) < 0 or min(names) < 0
            or max(names) >= name_count
            or not all(map(int.__lt__, parents, range(1, len(parents) + 1)))):
        raise fail("path-dir", "path directory entry names a later "
                               "parent or a name out of range")


def _decode_streams(directory, concatenated, names: Sequence[str],
                    label: str, fail) -> Dict[str, Sequence[int]]:
    if len(directory) % 3:
        raise fail(f"{label}-dir",
                   f"{label} stream directory is not made of "
                   f"(name, start, count) triples")
    streams: Dict[str, Sequence[int]] = {}
    total = len(concatenated)
    for index in range(0, len(directory), 3):
        slot, start, count = (directory[index], directory[index + 1],
                              directory[index + 2])
        if not (0 <= slot < len(names) and 0 <= start
                and 0 <= count and start + count <= total):
            raise fail(f"{label}-dir",
                       f"{label} stream directory entry {index // 3} "
                       f"is out of range")
        streams[names[slot]] = concatenated[start:start + count]
    return streams
