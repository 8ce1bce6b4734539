"""Pre-order range sharding of a columnar document.

:func:`split_document` partitions one :class:`ColumnarDocument` into
``shard_count`` self-contained shards, each again a valid columnar
document (``validate()`` passes, ``save()`` produces a standard
``.rpxc``), built from

* the **spine** — the document node, the root element and the root
  element's attribute run, replicated into every shard so each shard is
  a well-formed single-rooted document; and
* a contiguous run of the root element's **child subtrees** (each a
  closed ``[pre, end]`` region), balanced greedily by node count.

Because every unit is subtree-closed, any purely downward tree pattern
evaluates **shard-locally**: no ancestor/descendant edge crosses a
shard boundary, so the union of per-shard results — merged by global
``pre`` with spine duplicates removed — equals the single-document
result (this is what lets :mod:`repro.serve.cluster` scatter one query
across worker processes and k-way-merge the partial answers).

The :class:`ShardManifest` records, per shard, the **runs** mapping
local pre ranges back to global pre ranges (``(local_start,
global_start, length)`` triples; the spine run is always ``(0, 0,
spine_len)``).  The mapping is monotone, so a shard-local result
stream in document order maps to a globally document-ordered stream.

Layout on disk (:func:`write_shard_layout`)::

    <name>.rpxc            the full document (non-scatterable queries)
    <name>.shard0.rpxc     shard 0 ... shard K-1
    <name>.manifest.json   the ShardManifest

Shards store only remapped integer columns plus **compacted** name and
text dictionaries, path tries and freshly built per-tag streams — a
shard's size is proportional to its own node count, not the
document's.  A shard's paths are numbered in order of first appearance
in the shard, so it holds exactly the paths its own elements are on.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .columnar import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                       KIND_TEXT, ColumnarDocument, StorageError)

__all__ = ["DocumentShard", "ShardManifest", "ShardRun", "split_document",
           "write_shard_layout", "MANIFEST_VERSION"]

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardRun:
    """One contiguous block of the shard mapped back to global pres:
    shard-local pres ``[local_start, local_start + length)`` are global
    pres ``[global_start, global_start + length)``."""

    local_start: int
    global_start: int
    length: int

    def to_list(self) -> List[int]:
        return [self.local_start, self.global_start, self.length]


@dataclass
class DocumentShard:
    """One shard: its columns plus the local→global pre mapping."""

    index: int
    columns: ColumnarDocument
    runs: Tuple[ShardRun, ...]
    spine_len: int

    @property
    def n(self) -> int:
        return self.columns.n

    def to_global(self, local_pre: int) -> int:
        """Map a shard-local pre number to the global document pre."""
        for run in self.runs:
            if run.local_start <= local_pre < run.local_start + run.length:
                return run.global_start + (local_pre - run.local_start)
        raise StorageError(
            f"local pre {local_pre} outside shard {self.index} "
            f"(n={self.n})", check="shard-pre")


@dataclass
class ShardManifest:
    """The sidecar that makes a shard directory self-describing."""

    version: int
    name: str
    total_nodes: int
    root_tag: str
    spine_len: int
    index_file: str
    shard_files: List[str]
    #: per shard: the ``(local_start, global_start, length)`` runs.
    shard_runs: List[List[List[int]]]

    @property
    def shard_count(self) -> int:
        return len(self.shard_files)

    def runs_for(self, shard_index: int) -> Tuple[ShardRun, ...]:
        return tuple(ShardRun(*triple)
                     for triple in self.shard_runs[shard_index])

    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "name": self.name,
            "total_nodes": self.total_nodes,
            "root_tag": self.root_tag,
            "spine_len": self.spine_len,
            "index_file": self.index_file,
            "shard_files": self.shard_files,
            "shard_runs": self.shard_runs,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ShardManifest":
        try:
            data = json.loads(text)
            if data["version"] != MANIFEST_VERSION:
                raise StorageError(
                    f"unsupported shard manifest version "
                    f"{data['version']!r} (supported: {MANIFEST_VERSION})",
                    check="manifest-version")
            return cls(version=data["version"], name=data["name"],
                       total_nodes=data["total_nodes"],
                       root_tag=data["root_tag"],
                       spine_len=data["spine_len"],
                       index_file=data["index_file"],
                       shard_files=list(data["shard_files"]),
                       shard_runs=[[list(run) for run in runs]
                                   for runs in data["shard_runs"]])
        except StorageError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise StorageError(
                f"malformed shard manifest: {err}",
                check="manifest-parse") from err

    def save(self, path: Union[str, os.PathLike]) -> None:
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "ShardManifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as err:
            raise StorageError(
                f"cannot read shard manifest {os.fspath(path)!r}: {err}",
                check="manifest-read") from err


# -- splitting ---------------------------------------------------------------


def _spine_length(columns: ColumnarDocument) -> int:
    """Nodes replicated into every shard: the document node, the root
    element and the root element's attribute run (pres ``0 ..
    spine_len - 1``, always a global prefix)."""
    if columns.n < 2 or columns.kind[0] != KIND_DOCUMENT \
            or columns.kind[1] != KIND_ELEMENT:
        raise StorageError(
            "cannot shard: expected a document node followed by a root "
            "element", check="shard-spine")
    spine = 2
    while spine < columns.n and columns.kind[spine] == KIND_ATTRIBUTE \
            and columns.parent[spine] == 1:
        spine += 1
    return spine


def _partition_units(units: List[Tuple[int, int]],
                     shard_count: int) -> List[List[Tuple[int, int]]]:
    """Greedy contiguous balancing of ``(start, size)`` units into at
    most ``shard_count`` groups of roughly equal node count."""
    groups: List[List[Tuple[int, int]]] = []
    left = sum(size for _, size in units)
    remaining = shard_count
    current: List[Tuple[int, int]] = []
    current_size = 0
    for position, unit in enumerate(units):
        current.append(unit)
        current_size += unit[1]
        left -= unit[1]
        # Close the group once it reaches its fair share of what is
        # left.  Skew in the unit sizes (one giant subtree) can leave
        # fewer groups than requested — allowed, the mapping stays
        # correct either way.
        units_after = len(units) - position - 1
        if remaining > 1 and units_after >= 1 \
                and current_size >= (current_size + left) / remaining:
            groups.append(current)
            current = []
            current_size = 0
            remaining -= 1
    if current:
        groups.append(current)
    return groups


def split_document(columns: ColumnarDocument,
                   shard_count: int) -> List[DocumentShard]:
    """Partition ``columns`` into at most ``shard_count`` shards.

    Fewer shards are returned when the root element has fewer child
    subtrees than requested (a 1-unit document yields 1 shard).  Every
    shard's columns pass ``validate()``.
    """
    if shard_count < 1:
        raise StorageError(f"shard_count must be >= 1, got {shard_count}",
                           check="shard-count")
    spine_len = _spine_length(columns)
    units: List[Tuple[int, int]] = []
    pre = spine_len
    while pre < columns.n:
        end = columns.end[pre]
        units.append((pre, end - pre + 1))
        pre = end + 1
    if not units:
        # A spine-only document: one shard, identity mapping.
        shard = _build_shard(columns, 0, spine_len, [])
        return [shard]
    groups = _partition_units(units, min(shard_count, len(units)))
    return [_build_shard(columns, index, spine_len, group)
            for index, group in enumerate(groups)]


def _build_shard(columns: ColumnarDocument, index: int, spine_len: int,
                 units: Sequence[Tuple[int, int]]) -> DocumentShard:
    runs = [ShardRun(0, 0, spine_len)]
    local = spine_len
    for start, size in units:
        runs.append(ShardRun(local, start, size))
        local += size
    n = local

    level = array("i", bytes(4 * n))
    end = array("i", bytes(4 * n))
    parent = array("i", bytes(4 * n))
    kind = array("B", bytes(n))
    name_id = array("i", bytes(4 * n))
    text_id = array("i", bytes(4 * n))
    path_id = array("i", bytes(4 * n))

    # Global→local pre for spine parents is the identity; inside a unit
    # the offset is constant per run.
    g_level, g_end, g_parent = columns.level, columns.end, columns.parent
    g_kind, g_name, g_text = columns.kind, columns.name_id, columns.text_id
    g_path, g_path_dir = columns.path_id, columns.path_dir

    names: List[str] = []
    name_map: Dict[int, int] = {}
    texts: List[str] = []
    text_map: Dict[int, int] = {}
    #: the shard's path trie, a path numbered where the shard first
    #: meets it: its parent element, met before it, has mapped the
    #: parent path.
    path_dir = array("i", (-1, -1))
    path_map: Dict[int, int] = {-1: -1, 0: 0}

    def local_name(slot: int) -> int:
        if slot < 0:
            return -1
        mapped = name_map.get(slot)
        if mapped is None:
            mapped = name_map[slot] = len(names)
            names.append(columns.names[slot])
        return mapped

    def local_text(slot: int) -> int:
        if slot < 0:
            return -1
        mapped = text_map.get(slot)
        if mapped is None:
            mapped = text_map[slot] = len(texts)
            texts.append(columns.texts[slot])
        return mapped

    for run in runs:
        offset = run.local_start - run.global_start
        for g in range(run.global_start, run.global_start + run.length):
            p = g + offset
            level[p] = g_level[g]
            kind[p] = g_kind[g]
            name_id[p] = local_name(g_name[g])
            text_id[p] = local_text(g_text[g])
            point = path_map.get(g_path[g])
            if point is None:
                point = path_map[g_path[g]] = len(path_dir) // 2
                path_dir.extend((path_map[g_path_dir[2 * g_path[g]]],
                                 name_id[p]))
            path_id[p] = point
            if run.local_start == 0:
                # Spine: the document and root subtree now span the
                # whole shard; attribute ends are their own pre.
                end[p] = p if g_kind[g] == KIND_ATTRIBUTE else n - 1
                parent[p] = g_parent[g]
            else:
                end[p] = g_end[g] + offset
                gp = g_parent[g]
                # A unit root's parent is the root element (global pre
                # 1, in the spine — identity); interior parents are in
                # the same run.
                parent[p] = gp if gp < spine_len else gp + offset

    # The post column is determined by the region encoding: post order
    # sorts by (end, -level) — a node closes when its region does, and
    # of nodes sharing an end the deepest closes first.
    order = sorted(range(n), key=lambda p: (end[p], -level[p]))
    post = array("i", bytes(4 * n))
    for rank, p in enumerate(order):
        post[p] = rank

    tag_pres: Dict[str, array] = {}
    attribute_pres: Dict[str, array] = {}
    text_pres = array("i")
    element_pres = array("i")
    for p in range(n):
        k = kind[p]
        if k == KIND_ELEMENT:
            element_pres.append(p)
            tag_pres.setdefault(names[name_id[p]], array("i")).append(p)
        elif k == KIND_ATTRIBUTE:
            attribute_pres.setdefault(names[name_id[p]],
                                      array("i")).append(p)
        elif k == KIND_TEXT:
            text_pres.append(p)

    shard_columns = ColumnarDocument(
        post=post, level=level, end=end, parent=parent, kind=kind,
        name_id=name_id, text_id=text_id, path_id=path_id,
        path_dir=path_dir, names=names, texts=texts,
        tag_pres=dict(tag_pres), attribute_pres=dict(attribute_pres),
        text_pres=text_pres, element_pres=element_pres, uri=columns.uri)
    return DocumentShard(index=index, columns=shard_columns,
                         runs=tuple(runs), spine_len=spine_len)


# -- layout ------------------------------------------------------------------


def write_shard_layout(columns: ColumnarDocument,
                       directory: Union[str, os.PathLike],
                       name: str,
                       shard_count: int,
                       validate: bool = True) -> str:
    """Write the full index, all shards and the manifest under
    ``directory``; returns the manifest path.

    ``validate=True`` runs every shard through
    :meth:`ColumnarDocument.validate` before saving — cheap insurance
    that the remapping preserved the region-encoding invariants.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    shards = split_document(columns, shard_count)
    if validate:
        for shard in shards:
            shard.columns.validate()
    index_file = f"{name}.rpxc"
    columns.save(os.path.join(directory, index_file))
    shard_files: List[str] = []
    shard_runs: List[List[List[int]]] = []
    for shard in shards:
        file_name = f"{name}.shard{shard.index}.rpxc"
        shard.columns.save(os.path.join(directory, file_name))
        shard_files.append(file_name)
        shard_runs.append([run.to_list() for run in shard.runs])
    root_tag = columns.name_of(1) or ""
    manifest = ShardManifest(version=MANIFEST_VERSION, name=name,
                             total_nodes=columns.n, root_tag=root_tag,
                             spine_len=shards[0].spine_len,
                             index_file=index_file,
                             shard_files=shard_files,
                             shard_runs=shard_runs)
    manifest_path = os.path.join(directory, f"{name}.manifest.json")
    manifest.save(manifest_path)
    return manifest_path
