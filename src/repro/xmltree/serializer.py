"""XML serialization for the node classes.

An element or document — a node of a tree that is a view of a
:class:`~repro.xmltree.columnar.ColumnarDocument` — is written from the
store's *piece table*, one string per ``pre``: the
node's own markup (an open tag with its attributes, a self-closing
``<x/>``, escaped text; ``""`` for an attribute, whose markup is in its
element's tag) followed by the closing tags of every element whose
region ends at that ``pre``, innermost first.  The subtree of ``n`` is
then ``pieces[n.pre:n.end + 1]`` joined, less the closing tags of the
ancestors that end where ``n`` ends.  A region is filled on its first
output, so no node object below the one asked for is made, and a warm
subtree costs one slot read and one join.

A tree put together by hand has no store and no pieces; documents are
built as :class:`~repro.xmltree.builder.E` specs, whose writer
(:func:`~repro.xmltree.builder.write_xml`) is the one object-side
writer and shares the escaping below.
"""

from __future__ import annotations

from sys import intern

from .columnar import KIND_ATTRIBUTE, KIND_ELEMENT, KIND_TEXT
from .node import AttributeNode, DocumentNode, ElementNode, Node, TextNode


def _escape_text(text: str) -> str:
    # A literal CR would be read back as LF (XML 1.0 §2.11 line-end
    # normalization), so it travels as a character reference.
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def _escape_attribute(text: str) -> str:
    # Literal tab/LF/CR in an attribute value are read back as spaces
    # (XML 1.0 §3.3.3 attribute-value normalization).
    return (_escape_text(text).replace('"', "&quot;")
            .replace("\t", "&#9;").replace("\n", "&#10;"))


def serialize(node: Node) -> str:
    """Serialize a node (document, element, text or attribute) to XML.

    An element or document with no store behind it raises
    :class:`TypeError`: build documents with
    :func:`~repro.xmltree.builder.build_document` or parse them.
    """
    if isinstance(node, (ElementNode, DocumentNode)):
        store = node.store()
        if store is None:
            raise TypeError(
                f"cannot serialize a {type(node).__name__} with no column "
                f"store behind it; build documents with build_document "
                f"or IndexedDocument.from_string")
        return _from_pieces(store, node.pre)
    if isinstance(node, TextNode):
        return _escape_text(node.text)
    if isinstance(node, AttributeNode):
        return f'{node.name}="{_escape_attribute(node.value)}"'
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _from_pieces(store, pre: int) -> str:
    """The markup of the element or document numbered ``pre`` of
    ``store``: its region of the piece table, joined, with the closing
    tags of the ancestors whose region ends at the same ``pre`` cut off
    the tail."""
    pieces = store.pieces
    if pieces is None or pieces[pre] is None:
        _fill_pieces(store, pre)
        pieces = store.pieces
    end, parent = store.end, store.parent
    last = end[pre]
    parts = pieces[pre:last + 1]
    trim = 0
    above = parent[pre]
    while above > 0 and end[above] == last:
        trim += len(store.names[store.name_id[above]]) + 3
        above = parent[above]
    if trim:
        parts[-1] = parts[-1][:-trim]
    return "".join(parts)


def _fill_pieces(store, pre: int) -> None:
    """Write the pieces of the region of ``pre`` that are not written
    yet, under the store's ``_lock``.

    Each slot is written once, with its final value, and back to front:
    when a slot is set, so is the rest of its node's region, which makes
    a region's first slot its done flag for readers that hold no lock.
    Element and attribute pieces are interned (a handful of strings per
    tag); a text piece with nothing to escape and nothing to close is
    the text dictionary's own string.
    """
    with store._lock:
        if store.pieces is None:
            store.pieces = [None] * len(store.kind)
        pieces = store.pieces
        kind, end, parent = store.kind, store.end, store.parent
        name_id, text_id = store.name_id, store.text_id
        names, texts = store.names, store.texts
        for here in range(end[pre], pre - 1, -1):
            if pieces[here] is not None:
                continue
            code = kind[here]
            above = parent[here]
            if code == KIND_TEXT:
                piece = _escape_text(texts[text_id[here]])
            elif code == KIND_ELEMENT:
                piece = "<" + names[name_id[here]]
                stop = end[here]
                child = here + 1
                while child <= stop and kind[child] == KIND_ATTRIBUTE:
                    piece += (f' {names[name_id[child]]}="'
                              f'{_escape_attribute(texts[text_id[child]])}"')
                    child += 1
                piece += "/>" if child > stop else ">"
            else:
                piece = ""
                if code == KIND_ATTRIBUTE and end[above] == here:
                    above = parent[above]   # its "/>" closed the element
            # Every element whose region ends here, innermost first.
            while above > 0 and end[above] == here:
                piece += "</" + names[name_id[above]] + ">"
                above = parent[above]
            pieces[here] = piece if code == KIND_TEXT else intern(piece)
