"""XML parser behaviour, including error handling."""

import json
import time
from pathlib import Path

import pytest

from repro import Engine
from repro.data import deep_member_document
from repro.xmltree import XMLSyntaxError, parse_xml, serialize
from repro.xmltree.node import ElementNode, TextNode
from tests.support.nodes import check_parser_numbering, dump_nodes

DATA = Path(__file__).parent / "data"


class TestWellFormed:
    def test_minimal(self):
        doc = parse_xml("<a/>")
        assert doc.document_element.name == "a"
        assert doc.document_element.children == []

    def test_nested_elements(self):
        doc = parse_xml("<a><b/><c><d/></c></a>")
        root = doc.document_element
        assert [child.name for child in root.children] == ["b", "c"]
        assert root.children[1].children[0].name == "d"

    def test_attributes(self):
        doc = parse_xml("<a x='1' y=\"two\"/>")
        root = doc.document_element
        assert root.get_attribute("x") == "1"
        assert root.get_attribute("y") == "two"

    def test_text_content(self):
        doc = parse_xml("<a>hello <b>world</b>!</a>")
        root = doc.document_element
        assert isinstance(root.children[0], TextNode)
        assert root.string_value() == "hello world!"

    def test_predefined_entities(self):
        doc = parse_xml("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.document_element.string_value() == "<>&'\""

    def test_numeric_entities(self):
        doc = parse_xml("<a>&#65;&#x42;</a>")
        assert doc.document_element.string_value() == "AB"

    def test_entities_in_attributes(self):
        doc = parse_xml('<a x="&lt;tag&gt;"/>')
        assert doc.document_element.get_attribute("x") == "<tag>"

    def test_cdata(self):
        doc = parse_xml("<a><![CDATA[<not><parsed>&amp;]]></a>")
        assert doc.document_element.string_value() == "<not><parsed>&amp;"

    def test_comments_skipped(self):
        doc = parse_xml("<!-- lead --><a><!-- inner -->x</a><!-- tail -->")
        assert doc.document_element.string_value() == "x"

    def test_processing_instructions_skipped(self):
        doc = parse_xml("<?xml version='1.0'?><a><?pi data?>x</a>")
        assert doc.document_element.string_value() == "x"

    def test_doctype_skipped(self):
        doc = parse_xml("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>")
        assert doc.document_element.name == "a"

    def test_prefixed_names(self):
        doc = parse_xml('<ns:a ns:x="1"><ns:b/></ns:a>')
        assert doc.document_element.name == "ns:a"
        assert doc.document_element.get_attribute("ns:x") == "1"

    def test_whitespace_preserved(self):
        doc = parse_xml("<a> <b/> </a>")
        texts = [child for child in doc.document_element.children
                 if isinstance(child, TextNode)]
        assert [t.text for t in texts] == [" ", " "]

    def test_names_with_dots_and_dashes(self):
        doc = parse_xml("<a-b.c_d><e-1/></a-b.c_d>")
        assert doc.document_element.name == "a-b.c_d"


class TestErrors:
    @pytest.mark.parametrize("text", [
        "",
        "<a>",
        "<a></b>",
        "<a",
        "<a x=1/>",
        "<a x='1' x='2'/>",
        "<a/><b/>",
        "<a>&unknown;</a>",
        "<a><![CDATA[oops</a>",
        "<!-- unterminated <a/>",
        "text only",
    ])
    def test_malformed_raises(self, text):
        with pytest.raises(XMLSyntaxError):
            parse_xml(text)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml("<a></b>")
        assert info.value.position > 0


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "<a/>",
        "<a><b/><c/></a>",
        '<a x="1"><b y="2">t</b></a>',
        "<a>x<b>y</b>z</a>",
        "<a>&lt;escaped&gt;</a>",
    ])
    def test_parse_serialize_parse(self, text):
        doc = parse_xml(text)
        text2 = serialize(doc)
        doc2 = parse_xml(text2)
        assert serialize(doc2) == text2

    def test_region_numbering_assigned(self):
        doc = parse_xml("<a><b/><c/></a>")
        nodes = list(doc.iter_descendants_or_self())
        pres = [node.pre for node in nodes]
        assert pres == sorted(pres)
        assert pres[0] == 0


class TestNumbering:
    """The scanner numbers nodes as it makes them; the numbering is
    ``assign_regions``' and the table is the walk path's table."""

    def test_golden_corpus_documents(self, small_member_doc,
                                     small_xmark_doc):
        for document in (small_member_doc, small_xmark_doc,
                         deep_member_document(120, depth=15)):
            check_parser_numbering(serialize(document.root))

    @pytest.mark.parametrize("text", [
        "<a/>",
        '<a x="1"y=\'2\'><b/>t<![CDATA[]]><!--c-->u<?p?><c z="&amp;"/></a>',
        "<?xml version='1.0'?><!DOCTYPE a [<!ELEMENT a ANY>]>\n<a> <b> </b>"
        "\n</a>\n<!-- tail -->",
    ])
    def test_hand_written(self, text):
        check_parser_numbering(text)

    def test_nodes_match_the_dump_the_previous_parser_wrote(self):
        """``parser_nodes.json`` was written once by the recursive
        parser this one replaced: every field of every node."""
        cases = json.loads((DATA / "parser_nodes.json").read_text("utf-8"))
        assert len(cases) >= 12
        for name, case in cases.items():
            assert dump_nodes(parse_xml(case["text"])) == case["nodes"], name


#: (input, message, position) as the recursive parser reported them;
#: ``None`` marks input it accepted.
ERROR_TABLE = [
    ('', 'expected a document element', 0),
    ('   ', 'expected a document element', 3),
    ('text only', 'expected a document element', 0),
    ('text<a/>', 'expected a document element', 0),
    ('<a/>text', 'content after document element', 4),
    ('<a/><b/>', 'content after document element', 4),
    ('<a/> <!--c--> x', 'content after document element', 14),
    ('<1a/>', 'expected a name', 1),
    ('<a b=1/>', 'attribute value must be quoted', 5),
    ('<a b="1" b="2"/>', "duplicate attribute 'b'", 10),
    ('<a b="1>', 'unterminated attribute value', 6),
    ('<a><b></a>', 'mismatched end tag: expected </b>, found </a>', 9),
    ('<a>', 'unterminated element content', 3),
    ('<a></a >', None, None),
    ('<a><!--', "unterminated construct, expected '-->'", 3),
    ('<a><![CDATA[', 'unterminated CDATA section', 12),
    ('<a><?x', "unterminated construct, expected '?>'", 3),
    ('<a>&x;</a>', 'unknown entity &x;', 6),
    ('<a>&amp</a>', 'unterminated entity reference', 7),
    ('<!DOCTYPE a [<!ELEMENT a EMPTY>', 'unterminated DOCTYPE', 31),
    ('<a', 'expected a name', 2),
    ('<a ', 'expected a name', 3),
    ('<a/', 'expected a name', 2),
    ('<a b', "expected '='", 4),
    ('<a b=', 'unexpected end of input', 5),
    ('<a b="1"', 'expected a name', 8),
    ("<a b='1' c/>", "expected '='", 10),
    ('<a></b>', 'mismatched end tag: expected </a>, found </b>', 6),
    ('<a></a', "expected '>'", 6),
    ('<a></a x>', "expected '>'", 7),
    ('<a></ a>', 'expected a name', 5),
    ('<a></1>', 'expected a name', 5),
    ('</a>', 'expected a name', 1),
    ('<![CDATA[x]]><a/>', 'expected a name', 1),
    ('<a/><![CDATA[x]]>', 'content after document element', 4),
    ('<!-- unterminated <a/>', "unterminated construct, expected '-->'", 0),
    ('<?xml <a/>', "unterminated construct, expected '?>'", 0),
    ('<a><![CDATA[oops</a>', 'unterminated CDATA section', 12),
    ('<a x="&unknown;"/>', 'unknown entity &unknown;', 6),
    ('<a x="&amp"/>', 'unterminated entity reference', 6),
    ('<a>x', 'unterminated element content', 4),
    ('<a><b/>', 'unterminated element content', 7),
    ('<a>&bad;', 'unterminated element content', 8),
    ('<a²/>', None, None),
    ('<²a/>', 'expected a name', 1),
    ("<a ²b='1'/>", 'expected a name', 3),
    ("<a b='1' 1c='2'/>", 'expected a name', 9),
    ('<a><b c="1" c="2" d=></b></a>', "duplicate attribute 'c'", 13),
    ('<a>\n<b>\n</c>\n</a>', 'mismatched end tag: expected </b>, found </c>', 11),
    ('<a/ >', 'expected a name', 2),
    ('<a"x"/>', 'expected a name', 2),
    ('<a>text</a>trailing', 'content after document element', 11),
    ('<a><>', 'expected a name', 4),
    ('<a><!x></a>', 'expected a name', 4),
    ('<!x><a/>', 'expected a name', 1),
    ("<a b='1'/ c='2'>", 'expected a name', 8),
    ("<a b = \n'1' b='2'/>", "duplicate attribute 'b'", 13),
    ("<a x='1' x='2'/>", "duplicate attribute 'x'", 10),
    ('<a x=1/>', 'attribute value must be quoted', 5),
    ('<a>&unknown;</a>', 'unknown entity &unknown;', 12),
    ('<a><b>&lt</b></a>', 'unterminated entity reference', 9),
    ('<a>&#65</a>', 'unterminated entity reference', 7),
]


class TestErrorTable:
    @pytest.mark.parametrize("text, message, position", ERROR_TABLE)
    def test_message_and_position_are_pinned(self, text, message,
                                             position):
        if message is None:
            parse_xml(text)
            return
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml(text)
        assert (info.value.message, info.value.position) == \
            (message, position)
        assert info.value.span is not None

    def test_closer_shares_no_character_with_its_opener(self):
        """``<!-->`` opens a comment and ``<?>`` a PI; neither closes
        one (the recursive parser took both as complete; expat, the
        oracle of ``test_prop_xml_oracle``, does not)."""
        assert parse_xml("<a><!-->x--></a>").document_element.children == []
        assert parse_xml("<a><!--->x--></a>").document_element.children == []
        assert parse_xml("<a><?>x?>y</a>").document_element.string_value() \
            == "y"
        for text, position in (("<a><!-->x</a>", 3), ("<?><a/>", 0)):
            with pytest.raises(XMLSyntaxError) as info:
                parse_xml(text)
            assert info.value.message.startswith("unterminated construct")
            assert info.value.position == position

    @pytest.mark.parametrize("text", [
        '<a ' + 'b="1" ' * 25_000 + '!',
        '<a' + ' ' * 200_000,
        '<' + 'a' * 200_000,
        '<a b="' + 'x' * 200_000,
    ], ids=["attributes-then-bang", "spaces", "name", "open-value"])
    def test_hostile_tags_finish(self, text):
        """A pattern that backtracks quadratically takes minutes on
        these; the scanner needs some tens of milliseconds."""
        started = time.perf_counter()
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml(text)
        assert info.value.code == "REPRO-XML-SYNTAX"
        assert time.perf_counter() - started < 2.0


class TestCharacterReferences:
    @pytest.mark.parametrize("text, position", [
        ("<a>&#xZZ;</a>", 3),
        ("<a>&#;</a>", 3),
        ("<a>&#-1;</a>", 3),
        ('<a x="&#x110000;"/>', 6),
        ("<a>&#99999999999999;</a>", 3),
        ("<a>&#xD800;</a>", 3),
        ("<a>ok &#xDFFF;</a>", 6),
        ("<a>&#x;</a>", 3),
        ("<a>&# 65;</a>", 3),
        ("<a>&#" + "9" * 5000 + ";</a>", 3),
    ], ids=["hex-letters", "empty", "negative", "past-10FFFF-in-attribute",
            "overflow", "low-surrogate-range-start", "surrogate-range-end",
            "empty-hex", "space", "5000-digits"])
    def test_not_a_unicode_scalar_is_a_syntax_error(self, text, position,
                                                    tmp_path):
        """Never ValueError/OverflowError here, nor UnicodeEncodeError
        later from ``save`` or ``encode``."""
        for load in (parse_xml, Engine.from_xml):
            with pytest.raises(XMLSyntaxError) as info:
                load(text)
            assert info.value.code == "REPRO-XML-SYNTAX"
            assert info.value.message.startswith(
                "invalid character reference &#")
            assert info.value.position == position

    def test_scalar_values_at_the_edges_parse_and_save(self, tmp_path):
        engine = Engine.from_xml(
            "<a>&#0;&#xD7FF;&#xE000;&#x10FFFF;&#0000065;&#x00041;</a>")
        assert engine.document.root.string_value() == \
            "\x00\ud7ff\ue000\U0010ffffAA"
        engine.document.save(tmp_path / "edges.rpxc")
        serialize(engine.document.root).encode("utf-8")

    def test_one_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.xml"
        path.write_bytes(b"\xef\xbb\xbf<?xml version='1.0'?><a>x</a>")
        assert Engine.from_file(str(path)).run("string($input/a)") == ["x"]
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml("\ufeff\ufeff<a/>")
        assert (info.value.message, info.value.position) == \
            ("expected a document element", 1)
