"""Oracles for the document build path: a field-by-field node dump, a
count of the nodes made on demand, an :class:`E` copy of a parsed tree
for the object-side writer, and the tree-walk path-summary builder the
production one replaced."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.xmltree import E, IndexedDocument, assign_regions, write_xml
from repro.xmltree.node import (AttributeNode, DocumentNode, ElementNode,
                                Node, TextNode)
from repro.xmltree.parser import parse_columns, parse_xml
from repro.xmltree.summary import PathStats


def made_nodes(document: IndexedDocument) -> int:
    """How many node objects a document born from columns has made."""
    return sum(node is not None for node in document.columns.nodes)


def spec_of(node: Node) -> E:
    """An :class:`E` copy of an element's subtree (of a document's
    element, for a document node), found by walking the node objects."""
    if isinstance(node, DocumentNode):
        node = node.document_element
    root = E(node.name)
    stack: List[Tuple[Node, E]] = [(node, root)]
    while stack:
        source, copy = stack.pop()
        copy.attributes.update((attribute.name, attribute.value)
                               for attribute in source.attributes)
        for child in source.children:
            if isinstance(child, TextNode):
                copy.children.append(child.text)
            else:
                element = E(child.name)
                copy.children.append(element)
                stack.append((child, element))
    return root


def spec_text(spec: E) -> str:
    """The string value of an :class:`E` tree: its strings in order."""
    parts: List[str] = []
    stack: list = [spec]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        else:
            stack.extend(reversed(item.children))
    return "".join(parts)


def written_reference(text: str) -> Dict[int, Tuple[str, str]]:
    """``pre`` → (markup, string value) of every element and the
    document node of ``text``, from the :class:`E` writer and the
    spec's strings on a copy of the tree (never from the columns)."""
    expected = {}
    for node in tree_nodes(parse_xml(text)):
        if isinstance(node, (DocumentNode, ElementNode)):
            spec = spec_of(node)
            expected[node.pre] = (write_xml(spec), spec_text(spec))
    return expected


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
    :func:`assign_regions` numbers the same tree; the streams of
    :class:`IndexedDocument` are what walking the tree gives."""
    table = parse_columns(text).all_nodes()
    root = table[0]
    assert [node.pre for node in table] == list(range(len(table)))
    assert all(ours is walked
               for ours, walked in zip(table, tree_nodes(root)))
    as_parsed = dump_nodes(root)
    assert assign_regions(root) == len(table)
    assert dump_nodes(root) == as_parsed
    walked: Dict[type, Dict[Optional[str], List[int]]] = {
        ElementNode: {}, AttributeNode: {}, TextNode: {}}
    for node in table:
        for kind, streams in walked.items():
            if isinstance(node, kind):
                streams.setdefault(node.name, []).append(node.pre)
    handed = IndexedDocument.from_string(text)
    assert dump_nodes(handed.root) == as_parsed
    assert {tag: list(pres) for tag, pres in handed.tag_pres.items()} == \
        walked[ElementNode]
    assert {tag: [node.pre for node in handed.stream(tag)]
            for tag in handed.tag_pres} == walked[ElementNode]
    assert {name: [node.pre for node in handed.attribute_stream(name)]
            for name in handed.columns.attribute_pres} == \
        walked[AttributeNode]
    assert list(handed.columns.text_pres) == \
        walked[TextNode].get(None, [])


class TreeWalkSummary:
    """The path summary's contents computed by walking the object tree
    (``PathSummary._summarize`` as it was before the build moved onto the
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
