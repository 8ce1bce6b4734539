"""A small, from-scratch XML parser.

Supports the XML subset needed by the reproduction: elements, attributes,
character data, CDATA sections, comments and processing instructions
(both skipped), the predefined entities and numeric character references.
Namespaces are treated lexically (prefixed names are kept verbatim),
which matches how the paper's queries use plain QNames.

The parser builds :class:`~repro.xmltree.node.DocumentNode` trees and
assigns the region encoding before returning.
"""

from __future__ import annotations

from typing import Optional

from ..guard.errors import InputError, ReproError
from .node import AttributeNode, DocumentNode, ElementNode, Node, TextNode, assign_regions

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")


class XMLSyntaxError(ReproError):
    """Raised when the input is not well-formed XML (for our subset).

    Always carries ``position``; ``parse_xml`` attaches a full
    :class:`~repro.guard.errors.SourceSpan` (line, column and a
    caret-annotated snippet) before the error escapes."""

    code = "REPRO-XML-SYNTAX"

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        super().__init__(message)
        self.position = position


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)
        #: nesting depth of the element being parsed (the document
        #: element is 1); stays at the deepest point when parsing aborts.
        self.depth = 1

    # -- low-level helpers -------------------------------------------------

    def error(self, message: str) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.pos)

    def peek(self) -> str:
        if self.pos >= self.length:
            raise self.error("unexpected end of input")
        return self.text[self.pos]

    def at_end(self) -> bool:
        return self.pos >= self.length

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos].isspace():
            self.pos += 1

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or not _is_name_start(self.text[self.pos]):
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def decode_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        parts: list[str] = []
        index = 0
        while True:
            amp = raw.find("&", index)
            if amp < 0:
                parts.append(raw[index:])
                break
            parts.append(raw[index:amp])
            semi = raw.find(";", amp + 1)
            if semi < 0:
                raise self.error("unterminated entity reference")
            entity = raw[amp + 1:semi]
            if entity.startswith("#x") or entity.startswith("#X"):
                parts.append(chr(int(entity[2:], 16)))
            elif entity.startswith("#"):
                parts.append(chr(int(entity[1:])))
            elif entity in _PREDEFINED_ENTITIES:
                parts.append(_PREDEFINED_ENTITIES[entity])
            else:
                raise self.error(f"unknown entity &{entity};")
            index = semi + 1
        return "".join(parts)

    # -- grammar -----------------------------------------------------------

    def parse_document(self, uri: str) -> DocumentNode:
        document = DocumentNode(uri)
        self.skip_misc()
        if self.at_end() or not self.startswith("<"):
            raise self.error("expected a document element")
        element = self.parse_element()
        document.append_child(element)
        self.skip_misc()
        if not self.at_end():
            raise self.error("content after document element")
        return document

    def skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and the XML declaration."""
        while True:
            self.skip_whitespace()
            if self.startswith("<?"):
                self.skip_until("?>")
            elif self.startswith("<!--"):
                self.skip_until("-->")
            elif self.startswith("<!DOCTYPE"):
                self.skip_doctype()
            else:
                return

    def skip_until(self, token: str) -> None:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated construct, expected {token!r}")
        self.pos = end + len(token)

    def skip_doctype(self) -> None:
        # Skip a DOCTYPE declaration, tolerating an internal subset.
        self.expect("<!DOCTYPE")
        depth = 1
        while depth > 0:
            if self.at_end():
                raise self.error("unterminated DOCTYPE")
            ch = self.text[self.pos]
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth -= 1
            self.pos += 1

    def parse_element(self) -> ElementNode:
        self.expect("<")
        name = self.read_name()
        element = ElementNode(name)
        seen_attributes: set[str] = set()
        while True:
            self.skip_whitespace()
            if self.startswith("/>"):
                self.pos += 2
                return element
            if self.startswith(">"):
                self.pos += 1
                break
            attr_name = self.read_name()
            if attr_name in seen_attributes:
                raise self.error(f"duplicate attribute {attr_name!r}")
            seen_attributes.add(attr_name)
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            quote = self.peek()
            if quote not in ("'", '"'):
                raise self.error("attribute value must be quoted")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self.error("unterminated attribute value")
            value = self.decode_entities(self.text[self.pos:end])
            self.pos = end + 1
            element.set_attribute(attr_name, value)
        self.parse_content(element)
        self.expect("</")
        close_name = self.read_name()
        if close_name != name:
            raise self.error(
                f"mismatched end tag: expected </{name}>, found </{close_name}>")
        self.skip_whitespace()
        self.expect(">")
        return element

    def parse_content(self, parent: ElementNode) -> None:
        """Parse element content iteratively (child elements use an
        explicit stack via mutual recursion bounded by tree depth kept
        shallow by re-entering :meth:`parse_element`)."""
        text_start = self.pos
        while True:
            if self.at_end():
                raise self.error("unterminated element content")
            ch = self.text[self.pos]
            if ch != "<":
                self.pos += 1
                continue
            if self.pos > text_start:
                raw = self.text[text_start:self.pos]
                parent.append_child(TextNode(self.decode_entities(raw)))
            if self.startswith("</"):
                return
            if self.startswith("<!--"):
                self.skip_until("-->")
            elif self.startswith("<![CDATA["):
                self.pos += len("<![CDATA[")
                end = self.text.find("]]>", self.pos)
                if end < 0:
                    raise self.error("unterminated CDATA section")
                parent.append_child(TextNode(self.text[self.pos:end]))
                self.pos = end + 3
            elif self.startswith("<?"):
                self.skip_until("?>")
            else:
                self.depth += 1
                child = self.parse_element()
                self.depth -= 1
                parent.append_child(child)
            text_start = self.pos


def parse_xml(text: str, uri: str = "") -> DocumentNode:
    """Parse an XML string into a numbered document tree.

    Syntax errors escape with a :class:`~repro.guard.errors.SourceSpan`
    attached (line/column plus a caret-annotated snippet).  XML text is
    external input: a document nested deeper than the (recursive) parser
    can follow is an :class:`~repro.guard.errors.InputError`, not a raw
    ``RecursionError``."""
    parser = _Parser(text)
    try:
        document = parser.parse_document(uri)
    except XMLSyntaxError as err:
        raise err.attach_source(text)
    except RecursionError as err:
        raise InputError(
            f"document nests too deeply: the parser exceeded the "
            f"recursion limit at element depth {parser.depth}",
            depth=parser.depth) from err
    assign_regions(document)
    return document


def parse_xml_file(path: str) -> DocumentNode:
    """Parse an XML file into a numbered document tree."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read(), uri=path)
