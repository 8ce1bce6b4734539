"""Serializer details and the benchmark-harness utilities."""

import os
from xml.etree import ElementTree

import pytest

from repro.bench import (QE_QUERIES, STRATEGY_LABELS, generate_variants,
                         geometric_mean, render_table, scale, scaled,
                         table1_node_counts, time_call)
from repro.data import deep_member_document
from repro.xmltree import (E, build_document, parse_xml, serialize,
                           write_xml)


class TestSerializer:
    def test_empty_element_self_closes(self):
        assert serialize(parse_xml("<a/>")) == "<a/>"

    def test_attributes_rendered(self):
        text = serialize(parse_xml('<a x="1" y="2"/>'))
        assert text == '<a x="1" y="2"/>'

    def test_text_escaping(self):
        doc = parse_xml("<a>&lt;x&gt; &amp; y</a>")
        assert serialize(doc) == "<a>&lt;x&gt; &amp; y</a>"

    def test_attribute_escaping(self):
        doc = parse_xml('<a x="&quot;q&quot; &lt;"/>')
        assert '&quot;q&quot;' in serialize(doc)

    def test_mixed_content_verbatim(self):
        text = "<a>one<b>two</b>three</a>"
        assert serialize(parse_xml(text)) == text

    def test_serialize_single_element(self):
        doc = parse_xml("<a><b>t</b></a>")
        b = doc.document_element.children[0]
        assert serialize(b) == "<b>t</b>"

    def test_serialize_attribute_node(self):
        doc = parse_xml('<a x="1"/>')
        attr = doc.document_element.attributes[0]
        assert serialize(attr) == 'x="1"'

    def test_serialize_text_node(self):
        doc = parse_xml("<a>x &amp; y</a>")
        text_node = doc.document_element.children[0]
        assert serialize(text_node) == "x &amp; y"

    def test_whitespace_references_survive_conforming_parsers(self):
        """A literal tab/LF/CR in an attribute value is read back as a
        space, a literal CR in text as LF (XML 1.0 §3.3.3, §2.11): they
        must travel as character references."""
        source = '<a b="x&#10;y&#9;z&#13;w">t&#13;u\nv\tw</a>'
        text = serialize(parse_xml(source))
        assert text == source
        ours = parse_xml(text).document_element
        assert ours.get_attribute("b") == "x\ny\tz\rw"
        assert ours.string_value() == "t\ru\nv\tw"
        theirs = ElementTree.fromstring(text)
        assert theirs.get("b") == "x\ny\tz\rw"
        assert theirs.text == "t\ru\nv\tw"
        attribute = parse_xml(source).document_element.attributes[0]
        assert serialize(attribute) == 'b="x&#10;y&#9;z&#13;w"'

    def test_attribute_only_element(self):
        doc = parse_xml('<a><b x="1" y="&amp;"/></a>')
        assert serialize(doc) == '<a><b x="1" y="&amp;"/></a>'
        assert write_xml(E("a", E("b", x="1", y="&"))) == serialize(doc)

    def test_deep_document_needs_no_recursion(self):
        """The paper's §5.3 documents are depth 15+; go far beyond the
        interpreter's recursion limit to pin the explicit stacks of the
        spec writer and of the piece table."""
        deep = deep_member_document(3000, depth=15)
        text = serialize(deep.root)
        assert serialize(parse_xml(text)) == text
        root = leaf = E("n")
        for _ in range(5000):
            child = E("n")
            leaf.children.append(child)
            leaf = child
        text = "<n>" * 5000 + "<n/>" + "</n>" * 5000
        assert write_xml(root) == text
        assert serialize(build_document(root).root) == text

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            serialize(object())  # type: ignore[arg-type]


class TestHarness:
    def test_qe_queries_complete(self):
        assert sorted(QE_QUERIES) == [f"QE{i}" for i in range(1, 7)]
        for name, query in QE_QUERIES.items():
            assert query.startswith("$input/desc::t01")

    def test_strategy_labels(self):
        assert STRATEGY_LABELS == {"nljoin": "NL", "twigjoin": "TJ",
                                   "scjoin": "SC"}

    def test_scaled_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert scale() == 2.0
        assert scaled(100) == 200
        monkeypatch.setenv("REPRO_SCALE", "0.001")
        assert scaled(100, minimum=50) == 50

    def test_table1_node_counts_increasing(self):
        counts = table1_node_counts()
        assert counts == sorted(counts)
        assert len(counts) == 5

    def test_time_call_returns_positive(self):
        assert time_call(lambda: sum(range(100)), repeats=2) > 0

    def test_geometric_mean(self):
        assert geometric_mean([4, 9]) == pytest.approx(6.0)
        assert geometric_mean([]) == 0.0

    def test_render_table_layout(self):
        table = render_table("Title", ["r1", "r2"], ["c1", "c2"],
                             {("r1", "c1"): 0.5, ("r1", "c2"): 1.0,
                              ("r2", "c1"): 2.0})
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "c1" in lines[1] and "c2" in lines[1]
        assert "0.50000" in table
        assert "-" in lines[3]  # missing cell placeholder

    def test_render_table_highlights_best(self):
        table = render_table("T", ["a", "b"], ["c"],
                             {("a", "c"): 2.0, ("b", "c"): 1.0},
                             highlight_best_per_group=2)
        assert "1.00000*" in table
        assert "2.00000*" not in table


class TestVariants:
    def test_exactly_twenty_unique(self):
        variants = generate_variants()
        assert len(variants) == 20
        assert len(set(variants)) == 20

    def test_first_is_pure_path(self):
        assert generate_variants()[0] == (
            "$input/site/people/person[emailaddress]/profile/interest")

    def test_where_variants_present(self):
        where_forms = [v for v in generate_variants() if "where" in v]
        assert len(where_forms) == 4
        for variant in where_forms:
            assert "[emailaddress]" not in variant

    def test_all_variants_parse(self):
        from repro.xquery import parse_query
        for variant in generate_variants():
            parse_query(variant)

    def test_for_clause_distribution(self):
        counts = [variant.count("for $") for variant in generate_variants()]
        assert min(counts) == 0
        assert max(counts) == 4
