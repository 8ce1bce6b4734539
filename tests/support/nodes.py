"""Oracles for the document build path: a field-by-field node dump, a
count of the nodes made on demand and the tree-walk path-summary builder
the production one replaced."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.xmltree import IndexedDocument, assign_regions
from repro.xmltree.node import (AttributeNode, DocumentNode, ElementNode,
                                Node, TextNode)
from repro.xmltree.parser import parse_nodes, parse_xml
from repro.xmltree.summary import PathStats


def made_nodes(document: IndexedDocument) -> int:
    """How many node objects a document born from columns has made."""
    return sum(node is not None for node in document.columns.nodes)


def hand_built(text: str) -> DocumentNode:
    """The document of ``text`` as a tree put together by hand: plain
    nodes numbered by :func:`assign_regions` with no column store
    behind them, which the serializer writes by walking the objects."""
    parsed = parse_xml(text)
    root = DocumentNode(parsed.uri)
    stack: List[Tuple[Node, Node]] = [(parsed, root)]
    while stack:
        source, copy = stack.pop()
        for attribute in getattr(source, "attributes", ()):
            copy.set_attribute(attribute.name, attribute.value)
        for child in source.children:
            if isinstance(child, TextNode):
                copy.append_child(TextNode(child.text))
            else:
                element = ElementNode(child.name)
                copy.append_child(element)
                stack.append((child, element))
    assign_regions(root)
    return root


def tree_nodes(root: DocumentNode) -> List[Node]:
    """Every node of the tree, attributes right after their owner —
    document order, found by walking, not by trusting ``pre``."""
    found: List[Node] = []
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        found.append(node)
        if isinstance(node, ElementNode):
            found.extend(node.attributes)
        stack.extend(reversed(node.children))
    return found


def dump_nodes(root: DocumentNode) -> List[dict]:
    """Every field of every node, as JSON-able dicts in document order."""
    dumped = []
    for node in tree_nodes(root):
        value: Optional[str] = None
        if isinstance(node, TextNode):
            value = node.text
        elif isinstance(node, AttributeNode):
            value = node.value
        dumped.append({
            "kind": node.kind, "pre": node.pre, "post": node.post,
            "level": node.level, "end": node.end,
            "parent": node.parent.pre if node.parent is not None else -1,
            "name": node.name, "value": value,
            "children": [child.pre for child in node.children],
            "attributes": [attribute.pre for attribute
                           in getattr(node, "attributes", ())],
        })
    return dumped


def check_parser_numbering(text: str) -> None:
    """The parser's table is dense, in document order and numbered as
    :func:`assign_regions` numbers the same tree; handed to
    :class:`IndexedDocument` it gives what walking the tree gives."""
    table = parse_nodes(text)
    root = table[0]
    assert [node.pre for node in table] == list(range(len(table)))
    assert all(ours is walked
               for ours, walked in zip(table, tree_nodes(root)))
    as_parsed = dump_nodes(root)
    assert assign_regions(root) == len(table)
    assert dump_nodes(root) == as_parsed
    walked = IndexedDocument(root)
    handed = IndexedDocument.from_string(text)
    assert len(walked.nodes_by_pre) == len(table)
    assert all(ours is theirs
               for ours, theirs in zip(table, walked.nodes_by_pre))
    assert dump_nodes(handed.root) == as_parsed
    assert handed.tag_pres == walked.tag_pres
    for name in ("tag_streams", "attribute_streams"):
        assert {key: [node.pre for node in stream] for key, stream
                in getattr(handed, name).items()} == \
            {key: [node.pre for node in stream] for key, stream
             in getattr(walked, name).items()}
    assert [node.pre for node in handed.text_stream] == \
        [node.pre for node in walked.text_stream]


class TreeWalkSummary:
    """The path summary's contents computed by walking the object tree
    (``PathSummary._build`` as it was before the build moved onto the
    columns): the reference the production builder is compared with."""

    def __init__(self, root: DocumentNode) -> None:
        self.stats: Dict[Tuple[str, ...], PathStats] = {}
        self.children: Dict[Tuple[str, ...], Set[str]] = {(): set()}
        self.text_counts: Dict[Tuple[str, ...], int] = {(): 0}
        self.tag_paths: Dict[str, List[Tuple[str, ...]]] = {}
        self.total_elements = 0
        self.total_text = 0
        stack: List[Tuple[Node, Tuple[str, ...]]] = [(root, ())]
        while stack:
            node, parent_path = stack.pop()
            for child in node.children:
                if isinstance(child, ElementNode):
                    path = parent_path + (child.name,)
                    stats = self.stats.get(path)
                    if stats is None:
                        stats = self.stats[path] = PathStats(path)
                        self.children[path] = set()
                        self.text_counts[path] = 0
                        self.tag_paths.setdefault(child.name,
                                                  []).append(path)
                    stats.count += 1
                    self.total_elements += 1
                    self.children[parent_path].add(child.name)
                    if parent_path:
                        self.stats[parent_path].child_tags[child.name] += 1
                    for attribute in child.attributes:
                        stats.attributes.add(attribute.name)
                    stack.append((child, path))
                elif isinstance(child, TextNode):
                    self.text_counts[parent_path] += 1
                    self.total_text += 1
                    if parent_path:
                        self.stats[parent_path].text_count += 1
        for path in sorted(self.stats, key=len, reverse=True):
            stats = self.stats[path]
            stats.text_below += stats.text_count
            parent = path[:-1]
            if parent:
                parent_stats = self.stats[parent]
                parent_stats.height = max(parent_stats.height,
                                          stats.height + 1)
                parent_stats.text_below += stats.text_below


def summary_contents(summary) -> dict:
    """What a summary holds, with dict and list order taken out."""
    return {
        "stats": {path: (stats.count, Counter(stats.child_tags),
                         set(stats.attributes), stats.text_count,
                         stats.height, stats.text_below)
                  for path, stats in summary.stats.items()},
        "children": {path: set(tags)
                     for path, tags in summary.children.items()},
        "text_counts": dict(summary.text_counts),
        "tag_paths": {tag: sorted(paths)
                      for tag, paths in summary.tag_paths.items()},
        "total_elements": summary.total_elements,
        "total_text": summary.total_text,
    }
