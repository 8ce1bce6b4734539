"""XML parser behaviour, including error handling."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro import Engine
from repro.data import deep_member_document, member_document, xmark_document
from repro.xmltree import IndexedDocument, XMLSyntaxError, parse_xml, serialize
from repro.xmltree.node import ElementNode, TextNode
from repro.xmltree.parser import parse_columns
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
    """The parser numbers nodes as it makes them; the numbering is
    ``assign_regions``' and the table is the walk path's table."""

    def test_golden_corpus_documents(self, small_member_doc,
                                     small_xmark_doc):
        for document in (small_member_doc, small_xmark_doc,
                         deep_member_document(120, depth=15)):
            check_parser_numbering(serialize(document.root))

    @pytest.mark.parametrize("text", [
        "<a/>",
        '<a x="1" y=\'2\'><b/>t<![CDATA[]]><!--c-->u<?p?><c z="&amp;"/></a>',
        "<?xml version='1.0'?><!DOCTYPE a [<!ELEMENT a ANY>]>\n<a> <b> </b>"
        "\n</a>\n<!-- tail -->",
        '<a x="&#9;">\t<!-- a - b -->]]&gt;</a>',
    ])
    def test_hand_written(self, text):
        check_parser_numbering(text)

    def test_nodes_match_the_dump_the_previous_parser_wrote(self):
        """``parser_nodes.json`` was written once by an earlier parser:
        every field of every node.  Where XML 1.0 refuses the input that
        parser took, the file holds a well-formed twin (see
        ``REFUSED``), dumped by the hand-written scanner expat replaced."""
        cases = json.loads((DATA / "parser_nodes.json").read_text("utf-8"))
        assert len(cases) >= 12
        for name, case in cases.items():
            assert dump_nodes(parse_xml(case["text"])) == case["nodes"], name


#: (input, message, position) as expat reports them, the position a
#: character offset; ``None`` marks accepted input.  The last field is
#: the message and position the hand-written scanner reported, kept as
#: the row's name.
ERROR_TABLE = [
    ('', 'no element found', 0,
     'expected a document element-0'),
    ('   ', 'no element found', 3,
     'expected a document element-3'),
    ('text only', 'syntax error', 0,
     'expected a document element-0'),
    ('text<a/>', 'not well-formed (invalid token)', 4,
     'expected a document element-0'),
    ('<a/>text', 'junk after document element', 4,
     'content after document element-4'),
    ('<a/><b/>', 'junk after document element', 4,
     'content after document element-4'),
    ('<a/> <!--c--> x', 'junk after document element', 14,
     'content after document element-14'),
    ('<1a/>', 'not well-formed (invalid token)', 1,
     'expected a name-1'),
    ('<a b=1/>', 'not well-formed (invalid token)', 5,
     'attribute value must be quoted-5'),
    ('<a b="1" b="2"/>', 'duplicate attribute', 9,
     "duplicate attribute 'b'-10"),
    ('<a b="1>', 'unclosed token', 0,
     'unterminated attribute value-6'),
    ('<a><b></a>', 'mismatched tag', 8,
     'mismatched end tag: expected </b>, found </a>-9'),
    ('<a>', 'no element found', 3,
     'unterminated element content-3'),
    ('<a></a >', None, None,
     'None-None'),
    ('<a><!--', 'unclosed token', 3,
     "unterminated construct, expected '-->'-3"),
    ('<a><![CDATA[', 'unclosed CDATA section', 12,
     'unterminated CDATA section-12'),
    ('<a><?x', 'unclosed token', 3,
     "unterminated construct, expected '?>'-3"),
    ('<a>&x;</a>', 'undefined entity', 3,
     'unknown entity &x;-6'),
    ('<a>&amp</a>', 'not well-formed (invalid token)', 7,
     'unterminated entity reference-7'),
    ('<!DOCTYPE a [<!ELEMENT a EMPTY>', 'no element found', 31,
     'unterminated DOCTYPE-31'),
    ('<a', 'unclosed token', 0,
     'expected a name-2'),
    ('<a ', 'unclosed token', 0,
     'expected a name-3'),
    ('<a/', 'unclosed token', 0,
     'expected a name-2'),
    ('<a b', 'unclosed token', 0,
     "expected '='-4"),
    ('<a b=', 'unclosed token', 0,
     'unexpected end of input-5'),
    ('<a b="1"', 'unclosed token', 0,
     'expected a name-8'),
    ("<a b='1' c/>", 'not well-formed (invalid token)', 10,
     "expected '='-10"),
    ('<a></b>', 'mismatched tag', 5,
     'mismatched end tag: expected </a>, found </b>-6'),
    ('<a></a', 'unclosed token', 3,
     "expected '>'-6"),
    ('<a></a x>', 'not well-formed (invalid token)', 7,
     "expected '>'-7"),
    ('<a></ a>', 'not well-formed (invalid token)', 5,
     'expected a name-5'),
    ('<a></1>', 'not well-formed (invalid token)', 5,
     'expected a name-5'),
    ('</a>', 'not well-formed (invalid token)', 1,
     'expected a name-1'),
    ('<![CDATA[x]]><a/>', 'syntax error', 0,
     'expected a name-1'),
    ('<a/><![CDATA[x]]>', 'junk after document element', 4,
     'content after document element-4'),
    ('<!-- unterminated <a/>', 'unclosed token', 0,
     "unterminated construct, expected '-->'-0"),
    ('<?xml <a/>', 'unclosed token', 0,
     "unterminated construct, expected '?>'-0"),
    ('<a><![CDATA[oops</a>', 'unclosed CDATA section', 20,
     'unterminated CDATA section-12'),
    ('<a x="&unknown;"/>', 'undefined entity', 0,
     'unknown entity &unknown;-6'),
    ('<a x="&amp"/>', 'not well-formed (invalid token)', 10,
     'unterminated entity reference-6'),
    ('<a>x', 'no element found', 4,
     'unterminated element content-4'),
    ('<a><b/>', 'no element found', 7,
     'unterminated element content-7'),
    ('<a>&bad;', 'undefined entity', 3,
     'unterminated element content-8'),
    ('<a²/>', 'not well-formed (invalid token)', 2,
     'None-None'),
    ('<²a/>', 'not well-formed (invalid token)', 1,
     'expected a name-1'),
    ("<a ²b='1'/>", 'not well-formed (invalid token)', 3,
     'expected a name-3'),
    ("<a b='1' 1c='2'/>", 'not well-formed (invalid token)', 9,
     'expected a name-9'),
    ('<a><b c="1" c="2" d=></b></a>', 'not well-formed (invalid token)', 20,
     "duplicate attribute 'c'-13"),
    ('<a>\n<b>\n</c>\n</a>', 'mismatched tag', 10,
     'mismatched end tag: expected </b>, found </c>-11'),
    ('<a/ >', 'not well-formed (invalid token)', 3,
     'expected a name-2'),
    ('<a"x"/>', 'not well-formed (invalid token)', 2,
     'expected a name-2'),
    ('<a>text</a>trailing', 'junk after document element', 11,
     'content after document element-11'),
    ('<a><>', 'not well-formed (invalid token)', 4,
     'expected a name-4'),
    ('<a><!x></a>', 'not well-formed (invalid token)', 5,
     'expected a name-4'),
    ('<!x><a/>', 'not well-formed (invalid token)', 3,
     'expected a name-1'),
    ("<a b='1'/ c='2'>", 'not well-formed (invalid token)', 9,
     'expected a name-8'),
    ("<a b = \n'1' b='2'/>", 'duplicate attribute', 12,
     "duplicate attribute 'b'-13"),
    ("<a x='1' x='2'/>", 'duplicate attribute', 9,
     "duplicate attribute 'x'-10"),
    ('<a x=1/>', 'not well-formed (invalid token)', 5,
     'attribute value must be quoted-5'),
    ('<a>&unknown;</a>', 'undefined entity', 3,
     'unknown entity &unknown;-12'),
    ('<a><b>&lt</b></a>', 'not well-formed (invalid token)', 9,
     'unterminated entity reference-9'),
    ('<a>&#65</a>', 'not well-formed (invalid token)', 7,
     'unterminated entity reference-7'),
]


class TestErrorTable:
    @pytest.mark.parametrize(
        "text, message, position",
        [row[:3] for row in ERROR_TABLE],
        ids=[f"{text}-{was}" for text, _, _, was in ERROR_TABLE])
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
        """``<!-->`` opens a comment and ``<?p >`` a PI; neither closes
        one."""
        assert parse_xml("<a><!-->x--></a>").document_element.children == []
        assert parse_xml("<a><!--->x--></a>").document_element.children == []
        assert parse_xml("<a><?p >x?>y</a>").document_element \
            .string_value() == "y"
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml("<a><!-->x</a>")
        assert (info.value.message, info.value.position) == \
            ("unclosed token", 3)

    @pytest.mark.parametrize("text", [
        '<a ' + 'b="1" ' * 25_000 + '!',
        '<a' + ' ' * 200_000,
        '<' + 'a' * 200_000,
        '<a b="' + 'x' * 200_000,
    ], ids=["attributes-then-bang", "spaces", "name", "open-value"])
    def test_hostile_tags_finish(self, text):
        """A reader that backtracks quadratically takes minutes on
        these; expat needs some milliseconds."""
        started = time.perf_counter()
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml(text)
        assert info.value.code == "REPRO-XML-SYNTAX"
        assert time.perf_counter() - started < 2.0


#: (input, message, position) of input the hand-written scanner took
#: and XML 1.0 does not; each has a well-formed twin in the dump or
#: numbering tests (``parser_nodes.json`` under the same name, or
#: ``test_hand_written``).
_CASES = json.loads((DATA / "parser_nodes.json").read_text("utf-8"))
REFUSED = {
    # ``&#X43;`` (an upper-case X) and ``&#0;``
    "entities": ('<a t="&lt;&amp;&gt;&quot;&apos;&#65;&#x42;&#X43;">&lt;'
                 'tag&gt; &amp; &apos;q&quot; &#65;&#x42;&#0; &#x10FFFF;</a>',
                 "not well-formed (invalid token)", 44),
    # an XML declaration after a newline, and an entity declaration
    "prolog-and-epilog": (
        "\n" + _CASES["prolog-and-epilog"]["text"].replace(
            "<!ELEMENT b EMPTY>", '<!ENTITY x "<y>">'),
        "XML or text declaration not at start of entity", 1),
    # U+2003 is no name character
    "whitespace": (_CASES["whitespace"]["text"].replace("<d\r\n", "<d\u2003"),
                   "not well-formed (invalid token)", 41),
    # nor is ``²``
    "names": (_CASES["names"]["text"].replace("nü", "n²"),
              "not well-formed (invalid token)", 57),
    # no space between attributes, and ``<`` in a value
    "attribute-quoting": ("<a b=\"1\"c='2'd=\"<>\"e='\"'f=\"'\"g=\"\"/>",
                          "not well-formed (invalid token)", 8),
    "hand-written": ('<a x="1"y=\'2\'><b/>t<![CDATA[]]><!--c-->u<?p?>'
                     '<c z="&amp;"/></a>',
                     "not well-formed (invalid token)", 8),
    "pi-without-target": ("<?><a/>", "not well-formed (invalid token)", 2),
    "pi-without-target-in-content": (
        "<a><?>x?>y</a>", "not well-formed (invalid token)", 5),
    "nul-reference": ("<a>&#0;&#xD7FF;</a>",
                      "reference to invalid character number", 3),
    # a raw control character, ``--`` in a comment, ``]]>`` in text
    "control-character": ('<a x="\x01">\x01</a>',
                          "not well-formed (invalid token)", 6),
    "double-hyphen-in-comment": ("<a><!-- a -- b --></a>",
                                 "not well-formed (invalid token)", 12),
    "cdata-end-in-text": ("<a>]]></a>", "not well-formed (invalid token)", 5),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_input_xml_1_0_refuses(name):
    text, message, position = REFUSED[name]
    for load in (parse_xml, Engine.from_xml):
        with pytest.raises(XMLSyntaxError) as info:
            load(text)
        assert info.value.code == "REPRO-XML-SYNTAX"
        assert (info.value.message, info.value.position) == \
            (message, position)


class TestCharacterReferences:
    @pytest.mark.parametrize("text, message, position", [
        ("<a>&#xZZ;</a>", "not well-formed (invalid token)", 6),
        ("<a>&#;</a>", "not well-formed (invalid token)", 5),
        ("<a>&#-1;</a>", "not well-formed (invalid token)", 5),
        ('<a x="&#x110000;"/>', "reference to invalid character number", 6),
        ("<a>&#99999999999999;</a>",
         "reference to invalid character number", 3),
        ("<a>&#xD800;</a>", "reference to invalid character number", 3),
        ("<a>ok &#xDFFF;</a>", "reference to invalid character number", 6),
        ("<a>&#x;</a>", "not well-formed (invalid token)", 6),
        ("<a>&# 65;</a>", "not well-formed (invalid token)", 5),
        ("<a>&#" + "9" * 5000 + ";</a>",
         "reference to invalid character number", 3),
    ], ids=["hex-letters", "empty", "negative", "past-10FFFF-in-attribute",
            "overflow", "low-surrogate-range-start", "surrogate-range-end",
            "empty-hex", "space", "5000-digits"])
    def test_not_a_unicode_scalar_is_a_syntax_error(self, text, message,
                                                    position):
        """Never ValueError/OverflowError here, nor UnicodeEncodeError
        later from ``save`` or ``encode``."""
        for load in (parse_xml, Engine.from_xml):
            with pytest.raises(XMLSyntaxError) as info:
                load(text)
            assert info.value.code == "REPRO-XML-SYNTAX"
            assert (info.value.message, info.value.position) == \
                (message, position)

    def test_scalar_values_at_the_edges_parse_and_save(self, tmp_path):
        engine = Engine.from_xml(
            "<a>&#xD7FF;&#xE000;&#x10FFFF;&#0000065;&#x00041;</a>")
        assert engine.document.root.string_value() == \
            "\ud7ff\ue000\U0010ffffAA"
        engine.document.save(tmp_path / "edges.rpxc")
        serialize(engine.document.root).encode("utf-8")

    def test_lone_surrogate_in_the_text_is_a_syntax_error(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml("<a>x\ud800</a>")
        assert (info.value.message, info.value.position) == \
            ("not well-formed (invalid token)", 4)

    def test_one_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.xml"
        path.write_bytes(b"\xef\xbb\xbf<?xml version='1.0'?><a>x</a>")
        assert Engine.from_file(str(path)).run("string($input/a)") == ["x"]
        with pytest.raises(XMLSyntaxError) as info:
            parse_xml("\ufeff\ufeff<a/>")
        assert (info.value.message, info.value.position) == \
            ("not well-formed (invalid token)", 1)


def _error(text):
    with pytest.raises(XMLSyntaxError) as info:
        parse_xml(text)
    assert info.value.code == "REPRO-XML-SYNTAX"
    return info.value.message, info.value.position


class TestInputBoundary:
    """What the reader does with a DOCTYPE, entities and line ends: a
    DOCTYPE is skipped, an entity is never declared, expanded or
    fetched, and text is normalised as XML 1.0 says."""

    def test_doctype_and_element_declarations_are_skipped(self):
        for doctype, element in (
                ("<!DOCTYPE a>", "<a/>"),
                ("<!DOCTYPE a [<!ELEMENT a (b*)><!ELEMENT b EMPTY>]>",
                 "<a><b/></a>")):
            assert serialize(parse_xml(doctype + element)) == element

    @pytest.mark.parametrize("text, message, position", [
        ('<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
         "entity declaration &e;", 24),
        ('<!DOCTYPE a [<!ENTITY % p "x">]><a/>',
         "entity declaration %p;", 26),
        ('<!DOCTYPE a [<!ENTITY e SYSTEM "file:///etc/passwd">]><a>&e;</a>',
         "entity declaration &e;", 51),
    ], ids=["general", "parameter", "external"])
    def test_an_entity_declaration_is_refused(self, text, message,
                                               position):
        """At the declaration's closing ``>``, where expat reports it."""
        assert _error(text) == (message, position)

    @pytest.mark.parametrize("text, position", [
        ('<!DOCTYPE a SYSTEM "a.dtd"><a>x&e;y</a>', 19),
        ('<!DOCTYPE a SYSTEM "a.dtd"><a x="p&e;q"/>', 19),
        ('<!DOCTYPE a PUBLIC "p" "a.dtd"><a/>', 23),
        ('<!DOCTYPE a [ %pe; ]><a x="p&e;q"/>', 14),
    ], ids=["system-text", "system-attribute", "public", "parameter"])
    def test_a_dtd_the_reader_cannot_see_is_refused(self, text, position):
        """An external DTD or a ``%pe;`` is never read, so expat could not
        tell an undeclared ``&e;`` from one declared there, and would
        drop one inside an attribute value without an event: the
        document is refused where it names one."""
        assert _error(text) == ("document is not standalone", position)

    def test_an_undeclared_entity_is_refused(self):
        assert _error("<a>&e;</a>") == ("undefined entity", 3)
        assert _error('<?xml version="1.0" standalone="yes"?>'
                      '<!DOCTYPE a SYSTEM "a.dtd"><a x="p&e;q"/>') == \
            ("undefined entity", 65)

    def test_attribute_list_defaults_are_not_applied(self):
        root = parse_xml('<!DOCTYPE a [<!ATTLIST a x CDATA "d">]><a/>')
        assert root.document_element.attributes == []

    def test_billion_laughs_fails_fast(self):
        text = '<!DOCTYPE a [<!ENTITY l0 "ha">' + "".join(
            f'<!ENTITY l{n} "{f"&l{n - 1};" * 10}">' for n in range(1, 10)) \
            + "]><a>&l9;</a>"
        started = time.perf_counter()
        assert _error(text)[0] == "entity declaration &l0;"
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("run", ["é€\U0001f600 " * 10,
                                     "x" * 70_000,
                                     "é" * 40_000 + "&amp;" * 10],
                             ids=["multi-byte", "over-64-KiB",
                                  "multi-byte-over-64-KiB-bytes"])
    def test_a_character_run_is_one_text_node(self, run):
        columns = parse_columns(f"<a>{run}<b/>{run}</a>")
        assert len(columns.text_pres) == 2
        value = run.replace("&amp;", "&")
        assert [columns.text_of(pre) for pre in columns.text_pres] == \
            [value, value]

    @pytest.mark.parametrize("text, expected", [
        ("<a>x\r\ny\rz\r\n</a>", "<a>x\ny\nz\n</a>"),
        ('<a v="1\t2\n3\r\n4\r5"/>', '<a v="1 2 3 4 5"/>'),
        ('<a v="&#9;&#10;&#13;">&#13;</a>', '<a v="&#9;&#10;&#13;">&#13;</a>'),
    ], ids=["text-line-ends", "attribute-whitespace", "references-kept"])
    def test_line_ends_and_attribute_whitespace_normalise(self, text,
                                                          expected):
        """XML 1.0 §2.11 (a CR or CR LF in text is LF) and §3.3.3 (tab,
        LF and CR in an attribute value are spaces); a character
        reference is kept as written.  Serializing and parsing again is
        a fixed point."""
        once = serialize(parse_xml(text))
        assert once == expected
        assert serialize(parse_xml(once)) == once


#: sha256 of the ``.rpxc`` file of three generated documents, taken with
#: the hand-written scanner expat replaced: the columns, streams and
#: string tables are the same bytes.
PINNED_RPXC = {
    "member-forest":
        "9c47eb8e96f55279e46460614c2492236c432f1c4cd92d54a5e7472e84fff29e",
    "xmark":
        "de41e0c4b29070a0d9a1dc79c98cd7d9d39f25f761e0e0a71c72a275353326cc",
    "deep":
        "937d49aad7bcabb17eb80f728c38fc9ce1d3c847772780d8fb916eb998e4bcf2",
}


def _pinned_text(name: str) -> str:
    if name == "member-forest":
        return "<forest>" + "".join(serialize(member_document(
            200, depth=5, tag_count=6, seed=20070415 * 100003 + index).root)
            for index in range(4)) + "</forest>"
    if name == "xmark":
        return serialize(xmark_document(20, seed=20070415).root)
    return serialize(deep_member_document(3000, depth=15).root)


@pytest.mark.parametrize("name", sorted(PINNED_RPXC))
def test_saved_file_bytes_are_pinned(name, tmp_path):
    path = tmp_path / f"{name}.rpxc"
    IndexedDocument.from_string(_pinned_text(name)).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_RPXC[name]
