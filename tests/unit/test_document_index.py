"""IndexedDocument: tag streams, the parser's table, document order
utilities."""

import gc

from repro import Engine
from repro.xmltree import (AttributeNode, DocumentNode, ElementNode,
                           IndexedDocument, TextNode, ddo, document_order,
                           is_distinct_doc_ordered, parse_xml)
from tests.support.nodes import check_parser_numbering, made_nodes


def make():
    return IndexedDocument.from_string(
        "<a><b><a><c/></a></b><c/><b/></a>")


class TestStreams:
    def test_tag_streams_sorted(self):
        doc = make()
        for tag, pres in doc.tag_pres.items():
            assert list(pres) == sorted(pres), tag
            assert [node.pre for node in doc.stream(tag)] == list(pres)

    def test_stream_contents(self):
        doc = make()
        assert len(doc.stream("a")) == 2
        assert len(doc.stream("b")) == 2
        assert len(doc.stream("c")) == 2
        assert doc.stream("nope") == []

    def test_nodes_by_pre_dense(self):
        doc = make()
        assert [node.pre for node in doc.nodes_by_pre] == list(
            range(doc.size))

    def test_node_at(self):
        doc = make()
        for pre in range(doc.size):
            assert doc.node_at(pre).pre == pre

    def test_attribute_streams(self):
        doc = IndexedDocument.from_string('<a id="1"><b id="2" x="3"/></a>')
        assert [node.value for node in doc.attribute_stream("id")] == \
            ["1", "2"]
        assert len(doc.attribute_stream("x")) == 1
        assert doc.attribute_stream("nope") == []

    def test_text_stream(self):
        doc = IndexedDocument.from_string("<a>x<b>y</b></a>")
        assert [doc.node_at(pre).text for pre in doc.columns.text_pres] \
            == ["x", "y"]

    def test_all_elements(self):
        doc = make()
        assert len(doc.all_elements()) == 6


class TestParserTable:
    def test_table_from_the_parser_is_the_walked_table(self):
        check_parser_numbering("<a><b><a><c/></a></b><c/><b/></a>")
        check_parser_numbering('<a id="1"><b id="2" x="3">t</b>u</a>')

    def test_uri_reaches_the_document_node(self):
        doc = IndexedDocument.from_string("<a/>", uri="mem:a")
        assert doc.root.uri == "mem:a"
        assert doc.nodes_by_pre[0] is doc.root

    def test_parsing_and_compiling_make_no_node(self):
        """The parser appends to columns and a compile reads them: no
        node object exists until a result is asked for."""
        counted = (DocumentNode, ElementNode, AttributeNode, TextNode)
        gc.collect()
        before = {id(item) for item in gc.get_objects()
                  if isinstance(item, counted)}
        engine = Engine.from_xml(
            "<a>" + "<b x='1'><c>t</c></b>" * 50 + "</a>")
        compiled = engine.compile("$input//b[c]/@x")
        born = [item for item in gc.get_objects()
                if isinstance(item, counted) and id(item) not in before]
        assert born == []
        assert made_nodes(engine.document) == 0
        assert len(engine.execute(compiled)) == 50


class TestDocumentOrder:
    def test_ddo_sorts_and_dedups(self):
        doc = make()
        nodes = doc.all_elements()
        shuffled = nodes[::-1] + nodes[:2]
        result = ddo(shuffled)
        assert result == nodes

    def test_ddo_empty(self):
        assert ddo([]) == []

    def test_ddo_idempotent(self):
        doc = make()
        nodes = doc.all_elements()
        assert ddo(ddo(nodes)) == ddo(nodes)

    def test_document_order_keeps_duplicates(self):
        doc = make()
        nodes = doc.all_elements()
        result = document_order([nodes[0], nodes[0]])
        assert len(result) == 2

    def test_is_distinct_doc_ordered(self):
        doc = make()
        nodes = doc.all_elements()
        assert is_distinct_doc_ordered(nodes)
        assert not is_distinct_doc_ordered(nodes[::-1])
        assert not is_distinct_doc_ordered([nodes[0], nodes[0]])
        assert is_distinct_doc_ordered([])
        assert is_distinct_doc_ordered([nodes[0]])
