"""The AUTO and COST choosers on both evaluation paths."""

import pytest

from repro.data import member_document
from repro.obs import ExecMetrics
from repro.pattern import parse_pattern
from repro.physical import (CostBasedChooser, HeuristicChooser, NLJoin, Run,
                            make_algorithm)


@pytest.fixture(scope="module")
def doc():
    return member_document(600, depth=5, tag_count=4, seed=31)


@pytest.fixture(scope="module")
def reference():
    return NLJoin()


PATHS = [
    "IN#d/descendant::t01{o}",
    "IN#d/descendant::t01[child::t02]{o}",
    "IN#d/child::t01/child::t02{o}",
    "IN#d/descendant::t01{p}/child::t02{o}",
]


@pytest.mark.parametrize("chooser_factory", [HeuristicChooser,
                                             CostBasedChooser],
                         ids=["auto", "cost"])
class TestChoosers:
    @pytest.mark.parametrize("pattern_text", PATHS[:3])
    def test_match_single_agrees(self, chooser_factory, pattern_text, doc,
                                 reference):
        chooser = chooser_factory(doc)
        path = parse_pattern(pattern_text).path
        expected = reference.match_single(doc, [doc.root], path)
        assert chooser.match_single(doc, [doc.root], path) == expected

    def test_decisions_logged(self, chooser_factory, doc):
        chooser = chooser_factory(doc)
        path = parse_pattern(PATHS[0]).path
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        chooser.match_single(doc, [doc.root], path, run)
        chooser.match_single(doc, [doc.root], path, run)
        assert len(run.metrics.decision_ring) == 2

    def test_per_context_decisions_can_differ(self, chooser_factory, doc):
        """The choosers decide per evaluation, so a root context and a
        leaf context may pick different algorithms."""
        chooser = chooser_factory(doc)
        path = parse_pattern("IN#d/child::t02{o}").path
        leafish = doc.all_elements()[-1]
        run = Run(metrics=ExecMetrics(), summary=doc.summary)
        chooser.match_single(doc, [doc.root], path, run)
        chooser.match_single(doc, [leafish], path, run)
        assert len(run.metrics.decision_ring) == 2  # both calls went through


class TestStrategyEnumCompleteness:
    def test_every_concrete_strategy_instantiable(self, doc):
        for name in ("nljoin", "twigjoin", "scjoin", "stacktree",
                     "streaming"):
            algorithm = make_algorithm(name)
            assert algorithm.name == name

    def test_choosers_need_no_document_until_use(self):
        # construction without a document must not raise
        assert make_algorithm("auto").name == "auto"
        assert make_algorithm("cost").name == "cost"

    def test_all_strategies_resolve_through_engine(self, doc):
        from repro import Engine
        engine = Engine(doc)
        expected = [n.pre for n in engine.run("$input//t02",
                                              strategy="nljoin")]
        for name in ("twigjoin", "scjoin", "stacktree", "streaming",
                     "auto", "cost"):
            got = [n.pre for n in engine.run("$input//t02", strategy=name)]
            assert got == expected, name
