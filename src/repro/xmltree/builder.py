"""A small programmatic document builder.

For tests and applications that construct documents in code rather than
parsing XML text::

    from repro.xmltree.builder import E, build_document

    doc = build_document(
        E("site",
          E("person", E("name", "John"), id="p1"),
          E("person", E("name", "Mary"), id="p2")))

``E(tag, *children, **attributes)`` takes child elements and/or strings
(text); attribute names that collide with Python keywords can be passed
with a trailing underscore (``class_="x"`` → ``class="x"``).  An ``E``
tree is only a specification: :func:`write_xml` writes it as XML text,
and ``build_document`` parses that text into the columns of an
:class:`~repro.xmltree.document.IndexedDocument`, the one
representation a document has.  The generators of :mod:`repro.data`
build ``E`` trees the same way.
"""

from __future__ import annotations

from typing import List, Union

from .document import IndexedDocument
from .serializer import _escape_attribute, _escape_text

Child = Union["E", str]


class E:
    """A lightweight element specification."""

    __slots__ = ("tag", "children", "attributes")

    def __init__(self, tag: str, *children: Child, **attributes: object) -> None:
        self.tag = tag
        self.children: List[Child] = list(children)
        self.attributes = {
            name.rstrip("_"): str(value)
            for name, value in attributes.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"E({self.tag!r}, {len(self.children)} children)"


def write_xml(root: E) -> str:
    """The XML text of an :class:`E` tree, written in one pass over an
    explicit stack (no recursion: the paper's §5.3 documents are depth
    15+).  The stack holds specs still to be written and ready-made
    markup; empty strings are dropped, so the text is what serializing
    the parsed document gives back."""
    parts: List[str] = []
    append = parts.append
    stack: list = [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            append(item)
            continue
        opening = "<" + item.tag + "".join(
            [f' {name}="{_escape_attribute(value)}"'
             for name, value in item.attributes.items()])
        pending: list = ["</" + item.tag + ">"]
        for child in reversed(item.children):
            if isinstance(child, E):
                pending.append(child)
            elif isinstance(child, str):
                if child:
                    pending.append(_escape_text(child))
            else:
                raise TypeError(
                    f"E() children must be E or str, got "
                    f"{type(child).__name__}")
        if len(pending) == 1:
            append(opening + "/>")
        else:
            append(opening + ">")
            stack.extend(pending)
    return "".join(parts)


def build_document(root: E, uri: str = "") -> IndexedDocument:
    """Materialize an :class:`E` tree as an indexed document."""
    return IndexedDocument.from_string(write_xml(root), uri)
