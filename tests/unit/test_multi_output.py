"""Compositions of patterns whose matches nest (the paper's Q5): a
``for`` over one pattern returning another keeps grouped order."""

import pytest

from repro import Engine
from repro.data import member_document

NESTED_XML = ("<doc><person><name>outer</name><person><name>inner</name>"
              "</person><name>outer2</name></person></doc>")


class TestQ5Semantics:
    @pytest.mark.parametrize("strategy", ["nljoin", "twigjoin", "scjoin"])
    def test_q5_grouped_order_preserved(self, strategy):
        """The Q5 subtlety: grouped order, not document order."""
        engine = Engine.from_xml(NESTED_XML)
        result = engine.run("for $x in $input//person return $x/name",
                            strategy=strategy)
        assert [n.string_value() for n in result] == [
            "outer", "outer2", "inner"]

    def test_path_form_still_document_order(self):
        engine = Engine.from_xml(NESTED_XML)
        result = engine.run("$input//person/name")
        assert [n.string_value() for n in result] == [
            "outer", "inner", "outer2"]

    def test_junction_still_readable(self):
        """A body reading the loop variable answers as the unoptimized
        plan."""
        engine = Engine.from_xml(NESTED_XML)
        query = ("for $x in $input//person return count($x/name)")
        reference = engine.run(query, optimize=False)
        assert engine.run(query) == reference


class TestDifferential:
    QUERIES = [
        "for $x in $input//person return $x/name",
        "for $x in $input//person[emailaddress] return $x/name",
        "for $x in $input//person[emailaddress] "
        "return $x/profile/interest",
        "for $a in $input//open_auction return $a/bidder/increase",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("strategy", ["nljoin", "twigjoin", "scjoin"])
    def test_xmark_equivalence(self, query, strategy, small_xmark_doc):
        engine = Engine(small_xmark_doc)
        reference = [n.pre for n in engine.run(query, optimize=False)]
        got = [n.pre for n in engine.run(query, strategy=strategy)]
        assert got == reference

    def test_member_doc_equivalence(self):
        doc = member_document(300, depth=5, tag_count=3, seed=17)
        engine = Engine(doc)
        for query in ("for $x in $input//t01 return $x/t02",
                      "for $x in $input//t01[t03] return $x//t02"):
            reference = [n.pre for n in engine.run(query, optimize=False)]
            for strategy in ("nljoin", "twigjoin", "scjoin"):
                got = [n.pre for n in engine.run(query, strategy=strategy)]
                assert got == reference, (query, strategy)
