"""A small, from-scratch XML parser.

Supports the XML subset needed by the reproduction: elements, attributes,
character data, CDATA sections, comments and processing instructions
(both skipped), the predefined entities and numeric character references.
Namespaces are treated lexically (prefixed names are kept verbatim),
which matches how the paper's queries use plain QNames.

The parser is one scan with an explicit stack of open elements: a
compiled pattern takes a whole tag and the character data after it, and
every node is one entry appended to the columns of a
:class:`~repro.xmltree.columnar.ColumnarDocument` — its region encoding
(``pre``/``post``/``level``/``end``, the numbering of
:func:`~repro.xmltree.node.assign_regions`), its parent, its name and
value as dictionary slots, its place in the stream of its tag and,
for an element, the index of its tag path in the document's path trie
(:func:`parse_columns`).  No node object is made: a parsed document
needs no numbering pass, no walk and no derivation to index it, and
its nodes come from the columns when they are asked for.  Where the
patterns do not match, the construct at hand is looked at character by
character to say what is wrong with it.
"""

from __future__ import annotations

import re
from array import array
from typing import Dict, List, Optional, Tuple

from ..guard.errors import ReproError
from .columnar import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                       KIND_TEXT, ColumnarDocument)
from .node import DocumentNode, Node

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: ``\w`` is ``str.isalnum()`` or ``_`` and ``\s`` is ``str.isspace()``,
#: so this is the name-character rule of :func:`_name_end`; its stricter
#: first-character rule is checked once per distinct name.
_NAME = r"[\w:][\w:.\-]*"

_ATTRIBUTE = re.compile(rf"""({_NAME})\s*=\s*(?:"([^"]*)"|'([^']*)')""")

#: one tag and the character data that follows it.  Start tag: name (1),
#: attribute run (2), the ``/`` of an empty element (3); end tag: name
#: (4); text up to the next ``<`` (5).  The lookahead after the element
#: name keeps ``<ab="1">`` from being read as element ``a`` with an
#: attribute ``b``; every repetition starts on a different character
#: than the one before it ends on, so a tag that does not match is given
#: up in linear time.
_TAG = re.compile(
    rf"""<(?:({_NAME})(?=[\s/>])((?:\s*{_NAME}\s*=\s*(?:"[^"]*"|'[^']*'))*)"""
    rf"""\s*(/?)|/({_NAME})\s*)>([^<]*)""")

_ANGLE = re.compile("[<>]")
_NOT_SPACE = re.compile(r"\S")

#: the body of a numeric character reference, leading zeros apart: at
#: most as many digits as U+10FFFF has.
_CHARACTER_REFERENCE = re.compile(
    r"#(?:[xX]0*([0-9a-fA-F]{1,6})|0*([0-9]{1,7}))")


class XMLSyntaxError(ReproError):
    """Raised when the input is not well-formed XML (for our subset).

    Always carries ``position``; ``parse_xml`` attaches a full
    :class:`~repro.guard.errors.SourceSpan` (line, column and a
    caret-annotated snippet) before the error escapes."""

    code = "REPRO-XML-SYNTAX"

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        super().__init__(message)
        self.position = position


# -- character-level checks (diagnosis and rare constructs) -----------------

def _skip_whitespace(text: str, pos: int) -> int:
    found = _NOT_SPACE.search(text, pos)
    return found.start() if found is not None else len(text)


def _skip_past(text: str, opener: str, closer: str, pos: int) -> int:
    """The end of the comment or PI that opens at ``pos``; the closer
    shares no character with the opener (``<!-->`` is not a comment)."""
    end = text.find(closer, pos + len(opener))
    if end < 0:
        raise XMLSyntaxError(
            f"unterminated construct, expected {closer!r}", pos)
    return end + len(closer)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments, PIs, the XML declaration and a
    DOCTYPE declaration (tolerating an internal subset)."""
    while True:
        pos = _skip_whitespace(text, pos)
        if text.startswith("<?", pos):
            pos = _skip_past(text, "<?", "?>", pos)
        elif text.startswith("<!--", pos):
            pos = _skip_past(text, "<!--", "-->", pos)
        elif text.startswith("<!DOCTYPE", pos):
            pos += len("<!DOCTYPE")
            depth = 1
            while depth:
                angle = _ANGLE.search(text, pos)
                if angle is None:
                    raise XMLSyntaxError("unterminated DOCTYPE", len(text))
                depth += 1 if angle.group() == "<" else -1
                pos = angle.end()
        else:
            return pos


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_:"


def _name_end(text: str, pos: int) -> int:
    """The end of the name that starts at ``pos``."""
    if pos >= len(text) or not _is_name_start(text[pos]):
        raise XMLSyntaxError("expected a name", pos)
    pos += 1
    while pos < len(text) and (text[pos].isalnum() or text[pos] in "_:-."):
        pos += 1
    return pos


def _decode_entities(raw: str, start: int, at: int) -> str:
    """``raw`` (found at ``text[start:]``) with its references replaced.
    An unknown or unterminated reference is reported at ``at``, where
    the scan stood when the run was decoded; a character reference that
    names no Unicode scalar value at the reference itself."""
    parts: List[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            return "".join(parts)
        parts.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise XMLSyntaxError("unterminated entity reference", at)
        entity = raw[amp + 1:semi]
        if entity.startswith("#"):
            digits = _CHARACTER_REFERENCE.fullmatch(entity)
            code = -1 if digits is None else \
                int(digits.group(1), 16) if digits.group(1) else \
                int(digits.group(2))
            if not (0 <= code < 0xD800 or 0xDFFF < code <= 0x10FFFF):
                raise XMLSyntaxError(
                    f"invalid character reference &{entity};", start + amp)
            parts.append(chr(code))
        elif entity in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise XMLSyntaxError(f"unknown entity &{entity};", at)
        index = semi + 1


def _attributes(text: str, pos: int) -> List[Tuple[str, str]]:
    """The attributes of the start tag whose name ends at ``pos``, read
    character by character; the first thing wrong with the tag, left to
    right, is raised.  The scanner comes here for a tag its patterns do
    not take as it stands."""
    pairs: List[Tuple[str, str]] = []
    seen = set()
    while True:
        pos = _skip_whitespace(text, pos)
        if text.startswith("/>", pos) or text.startswith(">", pos):
            return pairs
        end = _name_end(text, pos)
        name = text[pos:end]
        if name in seen:
            raise XMLSyntaxError(f"duplicate attribute {name!r}", end)
        seen.add(name)
        pos = _skip_whitespace(text, end)
        if not text.startswith("=", pos):
            raise XMLSyntaxError("expected '='", pos)
        pos = _skip_whitespace(text, pos + 1)
        if pos >= len(text):
            raise XMLSyntaxError("unexpected end of input", pos)
        quote = text[pos]
        if quote not in "'\"":
            raise XMLSyntaxError("attribute value must be quoted", pos)
        pos += 1
        end = text.find(quote, pos)
        if end < 0:
            raise XMLSyntaxError("unterminated attribute value", pos)
        pairs.append((name, _decode_entities(text[pos:end], pos, pos)))
        pos = end + 1


def _tag_error(text: str, pos: int, open_name: Optional[str]
               ) -> XMLSyntaxError:
    """What is wrong with the tag at ``pos``, inside ``open_name``."""
    try:
        if text.startswith("</", pos) and open_name is not None:
            end = _name_end(text, pos + 2)
            if text[pos + 2:end] != open_name:
                return XMLSyntaxError(
                    f"mismatched end tag: expected </{open_name}>, "
                    f"found </{text[pos + 2:end]}>", end)
            return XMLSyntaxError("expected '>'",
                                  _skip_whitespace(text, end))
        _attributes(text, _name_end(text, pos + 1))
    except XMLSyntaxError as err:
        return err
    return XMLSyntaxError("malformed tag", pos)


# -- the scanner -------------------------------------------------------------

def _scan(text: str, uri: str) -> ColumnarDocument:
    length = len(text)
    find = text.find
    tag_match = _TAG.match
    pos = _skip_misc(text, 1 if text.startswith("\ufeff") else 0)
    if not text.startswith("<", pos):
        raise XMLSyntaxError("expected a document element", pos)
    match = tag_match(text, pos)
    if match is None or match.group(1) is None:
        raise _tag_error(text, pos, None)
    # The columns, one entry per node in ``pre`` order; the document
    # node is there already.  An element's ``post`` and ``end`` are
    # written when it closes.  Lists until the scan ends: appending to
    # one takes two thirds of the time appending to an ``array`` does.
    kind_of = [KIND_DOCUMENT]
    post_of, level_of, end_of = [0], [0], [0]
    parent_of, name_of, text_of, path_of = [-1], [-1], [-1], [0]
    add_kind, add_post, add_level, add_end = (
        kind_of.append, post_of.append, level_of.append, end_of.append)
    add_parent, add_name, add_text, add_path = (
        parent_of.append, name_of.append, text_of.append, path_of.append)
    #: names and values in order of first appearance, and the slot of
    #: each; a name gets one once its first character is checked.
    names: List[str] = []
    name_slots: Dict[str, int] = {}
    texts: List[str] = []
    text_slots: Dict[str, int] = {}
    tag_pres: Dict[str, List[int]] = {}
    attribute_pres: Dict[str, List[int]] = {}
    text_pres: List[int] = []
    element_pres: List[int] = []
    add_text_pre, add_element_pre = text_pres.append, element_pres.append
    #: the path trie: ``(parent path, name slot)`` per path, the
    #: document point first, and the child paths of each by name.
    path_dir = [-1, -1]
    path_children: List[Dict[str, int]] = [{}]
    #: ``pre``, name, path and child paths of the elements open around
    #: ``parent``.
    stack: List[Tuple[int, Optional[str], int, Dict[str, int]]] = []
    parent, parent_name, parent_path = 0, None, 0
    children = path_children[0]
    level = 0       # of ``parent``
    pre, post = 1, 0
    while True:
        # ``match`` is the tag at ``pos``, a child of ``parent``.
        name, run, empty, closing, tail = match.groups()
        if name is not None:
            slot = name_slots.get(name)
            if slot is None:
                if not _is_name_start(name[0]):
                    raise _tag_error(text, pos, None)
                slot = name_slots[name] = len(names)
                names.append(name)
            stream = tag_pres.get(name)
            if stream is None:
                stream = tag_pres[name] = []
            stream.append(pre)
            add_element_pre(pre)
            add_kind(KIND_ELEMENT)
            add_post(0)
            add_level(level + 1)
            add_end(0)
            add_parent(parent)
            add_name(slot)
            add_text(-1)
            path = children.get(name)
            if path is None:
                path = children[name] = len(path_children)
                path_children.append({})
                path_dir += (parent_path, slot)
            add_path(path)
            element = pre
            pre += 1
            if run:
                # Anything but plain, distinct, well-named attributes is
                # left to the character-level reader and its messages.
                pairs = _attributes(text, match.start(2)) if "&" in run \
                    else [(key, double or single) for key, double, single
                          in _ATTRIBUTE.findall(run)]
                for key, value in pairs:
                    slot = name_slots.get(key)
                    if slot is None:
                        if not _is_name_start(key[0]):
                            raise _tag_error(text, pos, None)
                        slot = name_slots[key] = len(names)
                        names.append(key)
                    stream = attribute_pres.get(key)
                    if stream is None:
                        stream = attribute_pres[key] = []
                    stream.append(pre)
                    add_name(slot)
                    slot = text_slots.get(value)
                    if slot is None:
                        slot = text_slots[value] = len(texts)
                        texts.append(value)
                    add_text(slot)
                    add_kind(KIND_ATTRIBUTE)
                    add_post(post)
                    add_level(level + 2)
                    add_end(pre)
                    add_parent(element)
                    add_path(-1)
                    pre += 1
                    post += 1
                if len(pairs) > 1 and len(dict(pairs)) < len(pairs):
                    raise _tag_error(text, pos, None)
            if empty:
                post_of[element] = post
                end_of[element] = pre - 1
                post += 1
            else:
                stack.append((parent, parent_name, parent_path, children))
                parent, parent_name, parent_path = element, name, path
                children = path_children[path]
                level += 1
        else:
            if closing != parent_name:
                raise _tag_error(text, pos, parent_name)
            post_of[parent] = post
            end_of[parent] = pre - 1
            post += 1
            parent, parent_name, parent_path, children = stack.pop()
            level -= 1
        if not level:
            break
        pos = match.end()
        literal = False
        while True:
            # ``tail`` is the character data that ends at ``pos``, or —
            # ``literal`` — the CDATA section that does, a text node
            # even when empty.
            if pos == length:
                raise XMLSyntaxError("unterminated element content", pos)
            if tail or literal:
                if "&" in tail and not literal:
                    tail = _decode_entities(tail, pos - len(tail), pos)
                literal = False
                slot = text_slots.get(tail)
                if slot is None:
                    slot = text_slots[tail] = len(texts)
                    texts.append(tail)
                add_text(slot)
                add_text_pre(pre)
                add_kind(KIND_TEXT)
                add_post(post)
                add_level(level + 1)
                add_end(pre)
                add_parent(parent)
                add_name(-1)
                add_path(-1)
                pre += 1
                post += 1
            match = tag_match(text, pos)
            if match is not None:
                break
            if text.startswith("<!--", pos):
                start = _skip_past(text, "<!--", "-->", pos)
            elif text.startswith("<?", pos):
                start = _skip_past(text, "<?", "?>", pos)
            elif text.startswith("<![CDATA[", pos):
                pos += len("<![CDATA[")
                start = find("]]>", pos)
                if start < 0:
                    raise XMLSyntaxError("unterminated CDATA section", pos)
                tail, literal, pos = text[pos:start], True, start + 3
                continue
            elif text.startswith("<", pos):
                raise _tag_error(text, pos, parent_name)
            else:
                start = pos     # character data after a CDATA section
            pos = find("<", start)
            if pos < 0:
                pos = length
            tail = text[start:pos]
    post_of[0] = post
    end_of[0] = pre - 1
    pos = _skip_misc(text, match.end() - len(tail))
    if pos < length:
        raise XMLSyntaxError("content after document element", pos)
    return ColumnarDocument(
        post=array("i", post_of), level=array("i", level_of),
        end=array("i", end_of), parent=array("i", parent_of),
        kind=array("B", kind_of), name_id=array("i", name_of),
        text_id=array("i", text_of), path_id=array("i", path_of),
        path_dir=array("i", path_dir), names=names, texts=texts,
        tag_pres={name: array("i", stream)
                  for name, stream in tag_pres.items()},
        attribute_pres={name: array("i", stream)
                        for name, stream in attribute_pres.items()},
        text_pres=array("i", text_pres),
        element_pres=array("i", element_pres), uri=uri)


def parse_columns(text: str, uri: str = "") -> ColumnarDocument:
    """Parse an XML string into the columns of its document (see
    :mod:`repro.xmltree.columnar`): the scanner appends to them and
    makes no node object.  One leading U+FEFF is skipped.

    Syntax errors escape with a :class:`~repro.guard.errors.SourceSpan`
    attached (line/column plus a caret-annotated snippet)."""
    try:
        return _scan(text, uri)
    except XMLSyntaxError as err:
        raise err.attach_source(text)


def parse_nodes(text: str, uri: str = "") -> List[Node]:
    """Parse an XML string into its numbered nodes: a dense table in
    document order (``table[n].pre == n``, the document node first)."""
    return parse_columns(text, uri).all_nodes()


def parse_xml(text: str, uri: str = "") -> DocumentNode:
    """Parse an XML string into a numbered document tree: the root of
    a tree whose nodes are made as they are reached (see
    :meth:`~repro.xmltree.columnar.ColumnarDocument.node`)."""
    return parse_columns(text, uri).node(0)


def parse_xml_file(path: str) -> DocumentNode:
    """Parse an XML file into a numbered document tree."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read(), uri=path)
