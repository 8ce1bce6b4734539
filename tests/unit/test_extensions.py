"""The Section 7 future-work extensions: streaming XPath, positional
tree patterns, and the cost model."""

import pytest

from repro import Engine
from repro.algebra import TupleTreePattern, walk_plan
from repro.algebra.optimizer import OptimizerOptions
from repro.data import deep_member_document, member_document, xmark_document
from repro.obs import ExecMetrics
from repro.pattern import parse_pattern
from repro.physical import (CostBasedChooser, CostModel, NLJoin, Run,
                            StreamingXPath, make_algorithm)
from repro.xmltree import IndexedDocument

DOC = IndexedDocument.from_string(
    '<site><people>'
    '<person id="p1"><name>A</name><emailaddress/>'
    '<profile><interest/><interest/></profile></person>'
    '<person id="p2"><name>B</name><profile><interest/></profile></person>'
    '<person id="p3"><name>C</name><emailaddress/></person>'
    '</people></site>')

NESTED = IndexedDocument.from_string(
    "<doc><a><b><a><c/></a></b><c/></a><a><c/></a></doc>")


class TestStreamingXPath:
    STREAM = StreamingXPath()
    NL = NLJoin()

    PATTERNS = [
        "IN#d/descendant::person{o}",
        "IN#d/descendant::person[child::emailaddress]{o}",
        "IN#d/descendant::person[child::profile[child::interest]]{o}",
        "IN#d/child::site/child::people/child::person/child::name{o}",
        "IN#d/descendant::person/@id{o}",
        "IN#d/descendant::person[@id]/child::name{o}",
        "IN#d/descendant-or-self::node()/child::person{o}",
    ]

    @pytest.mark.parametrize("pattern_text", PATTERNS)
    def test_agrees_with_navigation(self, pattern_text):
        path = parse_pattern(pattern_text).path
        expected = self.NL.match_single(DOC, [DOC.root], path)
        assert self.STREAM.match_single(DOC, [DOC.root], path) == expected

    @pytest.mark.parametrize("pattern_text", [
        "IN#d/descendant::a{o}",
        "IN#d/descendant::a[child::c]{o}",
        "IN#d/descendant::a[child::b[child::a]]{o}",
        "IN#d/descendant::b/descendant::c{o}",
    ])
    def test_agrees_on_nested_elements(self, pattern_text):
        path = parse_pattern(pattern_text).path
        expected = self.NL.match_single(NESTED, [NESTED.root], path)
        assert self.STREAM.match_single(NESTED, [NESTED.root], path) \
            == expected

    def test_non_root_context(self):
        people = DOC.stream("people")[0]
        path = parse_pattern("IN#d/child::person[child::emailaddress]{o}").path
        expected = self.NL.match_single(DOC, [people], path)
        assert self.STREAM.match_single(DOC, [people], path) == expected

    def test_positional_falls_back(self):
        path = parse_pattern("IN#d/descendant::person[2]{o}").path
        expected = self.NL.match_single(DOC, [DOC.root], path)
        assert self.STREAM.match_single(DOC, [DOC.root], path) == expected

    def test_strategy_registration(self):
        assert make_algorithm("streaming").name == "streaming"

    def test_engine_integration(self):
        engine = Engine(DOC)
        reference = engine.run("$input//person[emailaddress]/name",
                               strategy="nljoin")
        streamed = engine.run("$input//person[emailaddress]/name",
                              strategy="streaming")
        assert [n.pre for n in streamed] == [n.pre for n in reference]


class TestPositionalPatterns:
    def engine(self, document, positional=True):
        return Engine(document, optimizer_options=OptimizerOptions(
            enable_positional=positional))

    def test_pattern_parse_print_round_trip(self):
        pattern = parse_pattern("IN#d/descendant::a/child::b[child::c][2]{o}")
        step = pattern.path.steps[-1]
        assert step.position == 2
        assert len(step.predicates) == 1
        assert parse_pattern(pattern.to_string()).to_string() \
            == pattern.to_string()

    def test_rule_g_folds_position(self):
        engine = self.engine(DOC)
        compiled = engine.compile("$input//person[2]/name")
        assert compiled.tree_pattern_count() == 1
        (pattern,) = compiled.tree_patterns()
        assert "[2]" in pattern.to_string()

    def test_disabled_by_default(self):
        engine = Engine(DOC)
        compiled = engine.compile("$input//person[2]/name")
        assert compiled.tree_pattern_count() > 1

    def test_results_match_reference(self):
        engine = self.engine(DOC)
        for query in ("$input//person[1]/name",
                      "$input//person[2]/name",
                      "$input//person[3]/@id",
                      "$input//person[9]/name",
                      "$input/site/people/person[emailaddress][2]/name",
                      "$input//profile/interest[1]"):
            reference = [n.pre for n in engine.run(query, optimize=False)]
            for strategy in ("nljoin", "twigjoin", "scjoin", "streaming"):
                got = [n.pre for n in engine.run(query, strategy=strategy)]
                assert got == reference, (query, strategy)

    def test_position_counts_per_context(self):
        """child::interest[1] must pick the first interest *per profile*."""
        engine = self.engine(DOC)
        result = engine.run("$input//profile/interest[1]")
        assert len(result) == 2  # one per profile that has interests

    def test_position_after_predicates(self):
        """person[emailaddress][2] is the 2nd among email-havers."""
        engine = self.engine(DOC)
        result = engine.run(
            '$input//person[emailaddress][2]/@id')
        assert [n.string_value() for n in result] == ["p3"]

    @pytest.mark.parametrize("strategy", ["nljoin", "twigjoin", "scjoin"])
    def test_direct_pattern_evaluation(self, strategy):
        algorithm = make_algorithm(strategy)
        path = parse_pattern("IN#d/descendant::person[2]{o}").path
        result = algorithm.match_single(DOC, [DOC.root], path)
        assert [n.get_attribute("id") for n in result] == ["p2"]

    def test_where_filter_not_folded_past_position(self):
        """Regression (found by hypothesis): a ``where`` filter applies
        *after* a positional selection and must not become a predicate
        branch on the positional step (branches filter before the
        position)."""
        doc = member_document(180, depth=5, tag_count=3, seed=100)
        engine = self.engine(doc)
        query = ("for $x in $input//t01[t01]/t01[1] where $x/t01 "
                 "return $x")
        reference = [n.pre for n in engine.run(query, optimize=False)]
        for strategy in ("nljoin", "twigjoin", "scjoin"):
            got = [n.pre for n in engine.run(query, strategy=strategy)]
            assert got == reference, strategy
        # the positional step must not have picked up the where branch
        compiled = engine.compile(query)
        for pattern in compiled.tree_patterns():
            for step in pattern.path.steps:
                if step.position is not None and step.test.to_string() == "t01":
                    assert len(step.predicates) <= 1

    def test_positional_on_member_docs(self):
        doc = member_document(400, depth=5, tag_count=3, seed=3)
        engine = self.engine(doc)
        for query in ("$input/desc::t01/child::t02[1]/child::t03",
                      "$input/desc::t01/desc::t02[2]"):
            reference = [n.pre for n in engine.run(query, optimize=False)]
            for strategy in ("nljoin", "twigjoin", "scjoin"):
                got = [n.pre for n in engine.run(query, strategy=strategy)]
                assert got == reference, (query, strategy)


class TestCostModel:
    def test_estimates_all_algorithms(self):
        model = CostModel(DOC)
        path = parse_pattern("IN#d/descendant::person{o}").path
        estimate = model.estimate([DOC.root], path)
        assert set(estimate.costs) == {"nljoin", "twigjoin", "scjoin",
                                       "streaming"}
        assert all(cost > 0 for cost in estimate.costs.values())

    def test_navigation_wins_on_selective_child_chains(self):
        """The Section 5.3 regime: a child-only step from a huge-region
        context with tiny fanout — navigation touches a handful of nodes
        while the stream algorithms scan the whole tag stream."""
        deep = deep_member_document(3000, 12)
        model = CostModel(deep)
        path = parse_pattern("IN#d/child::t1[1]{o}").path
        estimate = model.estimate([deep.root], path)
        assert estimate.best() == "nljoin"

    def test_index_algorithms_win_on_rooted_descendant_paths(self):
        doc = member_document(5000, depth=4, tag_count=100, seed=5)
        model = CostModel(doc)
        path = parse_pattern("IN#d/descendant::t01/child::t02{o}").path
        estimate = model.estimate([doc.root], path)
        assert estimate.best() in ("scjoin", "twigjoin")
        assert estimate["scjoin"] < estimate["nljoin"]

    def test_branches_penalize_scjoin(self):
        doc = member_document(5000, depth=4, tag_count=100, seed=5)
        model = CostModel(doc)
        plain = parse_pattern("IN#d/descendant::t01{o}").path
        branchy = parse_pattern(
            "IN#d/descendant::t01[descendant::t02[descendant::t03]]{o}").path
        plain_estimate = model.estimate([doc.root], plain)
        branchy_estimate = model.estimate([doc.root], branchy)
        plain_ratio = plain_estimate["scjoin"] / plain_estimate["twigjoin"]
        branchy_ratio = (branchy_estimate["scjoin"]
                         / branchy_estimate["twigjoin"])
        assert branchy_ratio > plain_ratio

    def test_estimates_scale_with_region(self):
        doc = member_document(5000, depth=4, tag_count=10, seed=6)
        model = CostModel(doc)
        path = parse_pattern("IN#d/descendant::t01{o}").path
        small = doc.all_elements()[-1]
        big = doc.root
        small_estimate = model.estimate([small], path)
        big_estimate = model.estimate([big], path)
        for name in ("scjoin", "streaming"):
            assert small_estimate[name] <= big_estimate[name]

    def test_cost_chooser_correctness(self):
        engine = Engine(xmark_document(40, seed=9))
        for query in ("$input//person[emailaddress]/name",
                      "$input//item[payment]/name",
                      "count($input//bidder)"):
            reference = engine.run(query, strategy="nljoin")
            got = engine.run(query, strategy="cost")
            ref_keys = [getattr(n, "pre", n) for n in reference]
            got_keys = [getattr(n, "pre", n) for n in got]
            assert got_keys == ref_keys, query

    def test_cost_chooser_decisions_recorded(self):
        doc = deep_member_document(2000, 10)
        chooser = CostBasedChooser(doc)
        context = doc.stream("t1")[-1].parent
        path = parse_pattern("IN#d/child::t1{o}").path
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        chooser.match_single(doc, [context], path, run)
        assert run.metrics.decision_ring
        assert run.metrics.decision_ring[-1].algorithm in (
            "nljoin", "twigjoin", "scjoin", "streaming")

    def test_model_cached_on_document(self):
        doc = member_document(500, seed=8)
        first = CostBasedChooser(doc)
        path = parse_pattern("IN#d/descendant::t01{o}").path
        first.match_single(doc, [doc.root], path)
        second = CostBasedChooser(doc)
        second.match_single(doc, [doc.root], path)
        assert second.model_for(doc) is first.model_for(doc)
