"""XML serialization for the node classes."""

from __future__ import annotations

from typing import Optional

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


def serialize(node: Node, indent: Optional[int] = None) -> str:
    """Serialize a node (document, element, text or attribute) to XML.

    With ``indent`` set, element-only content is pretty-printed one
    element per line; mixed/text content is always emitted verbatim so
    round-tripping unindented documents is lossless.
    """
    if isinstance(node, ElementNode):
        return _serialize_element(node, indent)
    if isinstance(node, TextNode):
        return _escape_text(node.text)
    if isinstance(node, AttributeNode):
        return f'{node.name}="{_escape_attribute(node.value)}"'
    if isinstance(node, DocumentNode):
        chunks = [serialize(child, indent) for child in node.children]
        separator = "\n" if indent is not None else ""
        return separator.join(chunks)
    raise TypeError(f"cannot serialize {type(node).__name__}")


def _serialize_element(root: ElementNode, indent: Optional[int]) -> str:
    """Serialize one element subtree in a single pass over an explicit
    stack (no recursion: the paper's §5.3 documents are depth 15+).

    The stack holds nodes still to be written and ready-made closing
    tags.  ``level``/``levels`` are touched only when ``indent`` is set:
    the nesting level of the node being written, and the level to return
    to at each pending closing tag.
    """
    parts: list[str] = []
    append = parts.append
    stack: list = [root]
    level = 0
    levels: list[int] = []
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            append(item)
            if indent is not None:
                level = levels.pop()
            continue
        if kind is TextNode:
            append(_escape_text(item.text))
            continue
        name = item._name
        children = item._children
        if indent is not None and level:
            append("\n" + " " * (indent * level))
        opening = "<" + name
        if item._attributes:
            opening += "".join(
                [f' {attribute._name}="{_escape_attribute(attribute.value)}"'
                 for attribute in item._attributes])
        if not children:
            append(opening + "/>")
            continue
        append(opening + ">")
        closing = "</" + name + ">"
        if indent is not None:
            levels.append(level)
            # Inside mixed content indentation is suppressed: children
            # restart at level 0 and the closing tag stays on the line.
            if any(type(child) is TextNode for child in children):
                level = 0
            else:
                closing = "\n" + " " * (indent * level) + closing
                level += 1
        stack.append(closing)
        stack.extend(reversed(children))
    return "".join(parts)
