"""XML text to document columns, read by the standard library's expat.

The handlers of one :mod:`xml.parsers.expat` parser append each node, in
``pre`` order, to the :class:`~repro.xmltree.columnar.ColumnarDocument`
columns (``post`` is ``end - level``).  Names stay lexical; a character
run or a CDATA section is one text node.  Declaring an entity is an error.
"""

from array import array
from collections import defaultdict
from operator import sub
from struct import pack
from xml.parsers import expat

from ..guard.errors import ReproError
from .columnar import (KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                       KIND_TEXT, ColumnarDocument)
from .node import DocumentNode


class XMLSyntaxError(ReproError):
    """Not well-formed XML 1.0, an entity declared, or a DTD not read."""

    code = "REPRO-XML-SYNTAX"

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position    # a character offset


def _position(text: str, line: int, column: int) -> int:
    """The offset of expat's line and column: LF, CR LF or CR end one."""
    lines = text.replace("\r\n", " \n").replace("\r", "\n").split("\n")
    return sum(map(len, lines[:line - 1])) + line - 1 + column


def _scan(text: str, uri: str) -> ColumnarDocument:
    columns = dict(level=[0], end=[0], parent=[-1], name_id=[-1],
                   text_id=[-1], path_id=[0])
    levels, ends, parents, _, _, path_ids = columns.values()
    add_level, add_end, add_parent, add_name, add_text, add_path = (
        column.append for column in columns.values())
    add_kind = (kinds := [KIND_DOCUMENT]).append
    name_slots, text_slots, text_pres, element_pres = {}, {}, [], []
    tag_pres, attribute_pres = defaultdict(list), defaultdict(list)
    #: ``(parent path, name slot)`` per path; ``children`` maps a child
    #: name of ``parent``'s path to its path, slot, stream and children.
    path_dir, children = [-1, -1], {}
    push, pop = (stack := []).append, stack.pop  # open parents' children
    parent, pre = 0, 1

    def start(name: str, attributes: list) -> None:
        nonlocal pre, parent, children
        entry = children.get(name)
        if entry is None:
            slot = name_slots.setdefault(name, len(name_slots))
            entry = children[name] = (len(path_dir) >> 1, slot,
                                      tag_pres[name].append, {})
            path_dir.extend((path_ids[parent], slot))
        path, slot, add_pre, grandchildren = entry
        add_pre(pre)
        element_pres.append(pre)
        add_kind(KIND_ELEMENT)
        add_level(levels[parent] + 1)
        add_end(0)
        add_parent(parent)
        add_name(slot)
        add_text(-1)
        add_path(path)
        push(children)
        parent, children, pre = pre, grandchildren, pre + 1
        for key, value in zip(*[iter(attributes)] * 2) if attributes else ():
            node(value, KIND_ATTRIBUTE, name_slots.setdefault(
                key, len(name_slots)), attribute_pres[key].append)

    def end(_name: str) -> None:
        nonlocal parent, children
        ends[parent] = pre - 1
        parent, children = parents[parent], pop()

    # A text node, or given a name slot and a stream, an attribute.
    def node(data: str, kind: int = KIND_TEXT, slot: int = -1,
             add_pre=text_pres.append) -> None:
        nonlocal pre
        add_pre(pre)
        add_kind(kind)
        add_level(levels[parent] + 1)
        add_end(pre)
        add_parent(parent)
        add_name(slot)
        add_text(text_slots.setdefault(data, len(text_slots)))
        add_path(-1)
        pre += 1

    def refuse(name: str, parameter: bool, *_) -> None:
        where = parser.CurrentLineNumber, parser.CurrentColumnNumber
        raise XMLSyntaxError(f"entity declaration {'&%'[parameter]}{name};",
                             _position(text, *where))

    data = text.encode("utf-8", "surrogatepass")
    parser = expat.ParserCreate("utf-8")
    parser.ordered_attributes = parser.specified_attributes = True
    parser.buffer_text = True   # expat's buffer holds at most INT_MAX
    parser.buffer_size = min(len(data), 2 ** 31 - 1) or 1
    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.CharacterDataHandler, parser.EntityDeclHandler = node, refuse
    # An external DTD or a %pe; is never read: "document is not standalone".
    parser.NotStandaloneHandler = lambda: 0
    # Any handler ends a character run; a CDATA section pushes its start.
    parser.CommentHandler = parser.ProcessingInstructionHandler = \
        lambda *_: None
    parser.StartCdataSectionHandler = lambda: push(pre)
    parser.EndCdataSectionHandler = lambda: pop() == pre and node("")
    try:
        parser.Parse(data, True)
    except expat.ExpatError as err:
        raise XMLSyntaxError(expat.ErrorString(err.code), _position(
            text, err.lineno, err.offset)) from None
    finally:    # the parser's buffers go now, and ``refuse``'s cycle too
        del parser, data
    ends[0] = pre - 1
    columns.update(post=list(map(sub, ends, levels)), path_dir=path_dir,
                   text_pres=text_pres, element_pres=element_pres)
    return ColumnarDocument(  # pack is fast, and [:] sheds the spare room
        **{name: array("i", pack(f"{len(column)}i", *column))[:]
           for name, column in columns.items()},
        kind=array("B", bytes(kinds)), names=list(name_slots),
        texts=list(text_slots), uri=uri,
        tag_pres={name: array("i", pres) for name, pres in tag_pres.items()},
        attribute_pres={name: array("i", pres)
                        for name, pres in attribute_pres.items()})


def parse_columns(text: str, uri: str = "") -> ColumnarDocument:
    """The columns of the document ``text``; errors carry their span."""
    try:
        return _scan(text, uri)
    except XMLSyntaxError as err:
        raise err.attach_source(text)


def parse_xml(text: str, uri: str = "") -> DocumentNode:
    """The parsed document's node; the others are made when reached."""
    return parse_columns(text, uri).node(0)


def parse_xml_file(path: str) -> DocumentNode:
    """Parse an XML file into a numbered document tree."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read(), uri=path)
