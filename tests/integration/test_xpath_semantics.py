"""An XPath/XQuery semantics conformance suite.

Small, hand-checked cases covering axes, predicates, functions,
operators and FLWOR semantics, each run end-to-end through the
optimizing pipeline.  The expected values are written out by hand (not
derived from the engine), so these tests pin the *language semantics*
rather than implementation agreement.
"""

import pytest

from repro import Engine

DOC = """<library>
  <shelf floor="1">
    <book lang="en" year="2001">
      <title>Aleph</title>
      <author>Borges</author>
      <chapter><title>One</title><page n="1"/><page n="2"/></chapter>
      <chapter><title>Two</title><page n="3"/></chapter>
    </book>
    <book lang="es" year="1999">
      <title>Rayuela</title>
      <author>Cortazar</author>
      <author>Anon</author>
    </book>
  </shelf>
  <shelf floor="2">
    <book lang="en" year="2001">
      <title>Ficciones</title>
      <author>Borges</author>
    </book>
    <magazine year="2001"><title>Aleph</title></magazine>
  </shelf>
</library>"""


@pytest.fixture(scope="module")
def engine():
    return Engine.from_xml(DOC)


def values(engine, query, **kwargs):
    result = engine.run(query, **kwargs)
    return [item.string_value() if hasattr(item, "string_value") else item
            for item in result]


class TestAxesSemantics:
    def test_child_axis(self, engine):
        assert values(engine, "/library/shelf/book/title") == [
            "Aleph", "Rayuela", "Ficciones"]

    def test_descendant_axis(self, engine):
        # every title in the document, in document order
        assert values(engine, "$input//title") == [
            "Aleph", "One", "Two", "Rayuela", "Ficciones", "Aleph"]

    def test_descendant_from_inner_context(self, engine):
        assert values(engine, "/library/shelf[1]/book[1]//title") == [
            "Aleph", "One", "Two"]

    def test_parent_axis(self, engine):
        assert values(engine, "count($input//page/..)") == [2]

    def test_attribute_axis(self, engine):
        assert values(engine, "/library/shelf/@floor") == ["1", "2"]

    def test_wildcard(self, engine):
        assert values(engine, "count(/library/shelf/*)") == [4]

    def test_self_via_context(self, engine):
        assert values(engine, "$input//book[./author = 'Cortazar']/title") \
            == ["Rayuela"]

    def test_node_kind_test(self, engine):
        assert values(engine, "count($input//chapter/node())") == [5]

    def test_text_kind_test(self, engine):
        # //book[1] selects the first book *per shelf* (positions count
        # per parent), hence two titles.
        assert values(engine, "$input//book[1]/title/text()") == [
            "Aleph", "Ficciones"]
        assert values(engine, "($input//book)[1]/title/text()") == ["Aleph"]


class TestPredicateSemantics:
    def test_existence_predicate(self, engine):
        assert values(engine, "$input//book[chapter]/title") == ["Aleph"]

    def test_value_predicate(self, engine):
        assert values(engine, '$input//book[author = "Borges"]/title') == [
            "Aleph", "Ficciones"]

    def test_attribute_value_predicate(self, engine):
        assert values(engine, '$input//book[@lang = "es"]/title') == [
            "Rayuela"]

    def test_numeric_predicate_counts_per_context(self, engine):
        # the second author *per book*
        assert values(engine, "$input//book/author[2]") == ["Anon"]

    def test_numeric_predicate_on_context_sequence(self, engine):
        assert values(engine, "(/library/shelf/book)[2]/title") == [
            "Rayuela"]

    def test_position_function(self, engine):
        assert values(engine,
                      "/library/shelf/book[position() = 1]/title") == [
            "Aleph", "Ficciones"]

    def test_last_function(self, engine):
        assert values(engine,
                      "/library/shelf/book[position() = last()]/title") == [
            "Rayuela", "Ficciones"]

    def test_stacked_predicates(self, engine):
        assert values(engine,
                      '$input//book[author = "Borges"][chapter]/title') == [
            "Aleph"]

    def test_predicate_with_comparison_of_counts(self, engine):
        assert values(engine, "$input//book[count(author) = 2]/title") == [
            "Rayuela"]

    def test_nested_relative_predicate(self, engine):
        assert values(engine,
                      "$input//shelf[book/chapter]/@floor") == ["1"]

    def test_double_slash_predicate(self, engine):
        assert values(engine, "$input//shelf[.//page]/@floor") == ["1"]


class TestOperatorSemantics:
    def test_general_comparison_existential(self, engine):
        # some title equals "Aleph" → true
        assert values(engine, '$input//title = "Aleph"') == [True]
        assert values(engine, '$input//title = "Nothing"') == [False]

    def test_numeric_comparison_coerces(self, engine):
        assert values(engine, "$input//book[@year < 2000]/title") == [
            "Rayuela"]

    def test_arithmetic(self, engine):
        assert values(engine, "(2 + 3) * 4 - 6 div 2") == [17]

    def test_mod(self, engine):
        assert values(engine, "7 mod 3") == [1]

    def test_range_operator(self, engine):
        assert values(engine, "count(1 to 10)") == [10]

    def test_union_sorts_and_dedups(self, engine):
        result = engine.run("$input//chapter/title | $input//book/title "
                            "| $input//book/title")
        pres = [node.pre for node in result]
        assert pres == sorted(set(pres))
        assert len(result) == 5

    def test_and_or(self, engine):
        assert values(engine,
                      "$input//book[chapter and author]/title") == ["Aleph"]
        assert values(
            engine,
            '$input//book[@lang = "es" or chapter]/title') == [
            "Aleph", "Rayuela"]

    def test_empty_sequence_comparisons_false(self, engine):
        assert values(engine, "$input//nothing = 'x'") == [False]


class TestFunctionSemantics:
    def test_count(self, engine):
        assert values(engine, "count($input//book)") == [3]

    def test_not(self, engine):
        assert values(engine, "$input//book[not(chapter)]/title") == [
            "Rayuela", "Ficciones"]

    def test_exists_empty(self, engine):
        assert values(engine, "exists($input//magazine)") == [True]
        assert values(engine, "empty($input//magazine)") == [False]

    def test_string_functions(self, engine):
        assert values(engine, "contains('Rayuela', 'yue')") == [True]
        assert values(engine, "starts-with('Rayuela', 'Ra')") == [True]
        assert values(engine, "string-length('abc')") == [3]
        assert values(engine, "concat('a', 'b', 'c')") == ["abc"]

    def test_name(self, engine):
        assert values(engine, "name(/library)") == ["library"]

    def test_aggregates(self, engine):
        assert values(engine, "sum($input//page/@n)") == [6]
        assert values(engine, "max($input//book/@year)") == [2001]
        assert values(engine, "min($input//book/@year)") == [1999]

    def test_distinct_values(self, engine):
        assert values(engine,
                      "count(distinct-values($input//book/@year))") == [2]

    def test_number(self, engine):
        assert values(engine, "number(($input//page)[1]/@n) + 1") == [2]


class TestFLWORSemantics:
    def test_iteration_order(self, engine):
        assert values(engine,
                      "for $b in /library/shelf/book return $b/title") == [
            "Aleph", "Rayuela", "Ficciones"]

    def test_where_filters(self, engine):
        assert values(engine,
                      "for $b in $input//book where $b/@year = 2001 "
                      "return $b/title") == ["Aleph", "Ficciones"]

    def test_at_variable(self, engine):
        assert values(engine,
                      "for $b at $i in /library/shelf/book return $i") == [
            1, 2, 3]

    def test_let_binding(self, engine):
        assert values(engine,
                      "let $books := $input//book "
                      "return count($books)") == [3]

    def test_nested_for(self, engine):
        assert values(engine,
                      "for $s in /library/shelf "
                      "for $b in $s/book return $b/title") == [
            "Aleph", "Rayuela", "Ficciones"]

    def test_quantified_some(self, engine):
        assert values(engine,
                      "for $s in /library/shelf "
                      "where some $b in $s/book satisfies $b/chapter "
                      "return $s/@floor") == ["1"]

    def test_quantified_every(self, engine):
        assert values(engine,
                      "for $s in /library/shelf "
                      "where every $b in $s/book satisfies $b/author "
                      "return $s/@floor") == ["1", "2"]

    def test_if_then_else(self, engine):
        assert values(engine,
                      "for $b in $input//book return "
                      "if ($b/chapter) then 'chapters' else 'flat'") == [
            "chapters", "flat", "flat"]

    def test_sequence_construction(self, engine):
        assert values(engine, "(1, 'two', 3.5)") == [1, "two", 3.5]


@pytest.mark.parametrize("strategy", ["nljoin", "twigjoin", "scjoin",
                                      "stacktree", "streaming", "cost"])
class TestStrategyConformance:
    """A representative slice of the suite under every strategy."""

    CASES = [
        ("$input//title",
         ["Aleph", "One", "Two", "Rayuela", "Ficciones", "Aleph"]),
        ('$input//book[author = "Borges"]/title', ["Aleph", "Ficciones"]),
        ("$input//book[chapter]/title", ["Aleph"]),
        ("$input//book/author[2]", ["Anon"]),
    ]

    def test_cases(self, engine, strategy):
        for query, expected in self.CASES:
            assert values(engine, query, strategy=strategy) == expected, \
                (query, strategy)


class TestStepsFromAttributes:
    """A step taken *from an attribute*: the attribute is its own
    ``self``, has no children and is no element.  Expected lists are
    written by hand — NLJoin alone was the oracle that hid the stream
    algorithms answering ``[]`` here — and NLJoin on the unoptimized plan
    is checked against them too."""

    XML = '<r><a x="1" y="2">t<b x="3"><c/></b></a><a><b/></a></r>'
    STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
                  "auto", "cost", "item")
    #: the attribute is the previous step of the same pattern …
    SAME_PATTERN = "$input//a/@x/{axis}::{test}"
    #: … or the context node of a per-tuple pattern.
    PER_TUPLE = "for $v in $input//@x return $v/{axis}::{test}"
    #: (shape, axis, test) → the values of the attributes returned; every
    #: other combination below is empty.
    KEPT = {
        (SAME_PATTERN, "self", "node()"): ["1"],
        (SAME_PATTERN, "descendant-or-self", "node()"): ["1"],
        (PER_TUPLE, "self", "node()"): ["1", "3"],
        (PER_TUPLE, "descendant-or-self", "node()"): ["1", "3"],
    }

    @pytest.fixture(scope="class")
    def engine(self):
        return Engine.from_xml(self.XML)

    @pytest.mark.parametrize("axis", ["self", "descendant-or-self",
                                      "child", "descendant"])
    @pytest.mark.parametrize("test", ["node()", "*", "text()", "x", "b"])
    @pytest.mark.parametrize("shape", [SAME_PATTERN, PER_TUPLE])
    def test_every_strategy(self, engine, shape, axis, test):
        query = shape.format(axis=axis, test=test)
        expected = self.KEPT.get((shape, axis, test), [])
        assert values(engine, query, strategy="nljoin",
                      optimize=False) == expected, query
        for strategy in self.STRATEGIES:
            assert values(engine, query, strategy=strategy) == expected, \
                (query, strategy)

    def test_branches_hanging_off_an_attribute(self, engine):
        for query, expected in [
                ("$input//a[@x/self::node()]/b/@x", ["3"]),
                ("$input//b/@x[descendant-or-self::node()]", ["3"]),
                ("$input//b/@x[child::node()]", []),
                ("$input//@y/self::node()/self::node()", ["2"])]:
            for strategy in self.STRATEGIES:
                assert values(engine, query, strategy=strategy) == expected, \
                    (query, strategy)
