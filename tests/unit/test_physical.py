"""The three physical algorithms against each other and hand checks."""

import pytest

from repro.data import member_document
from repro.guard import (BudgetExceeded, Budgets, ChaosSpec, InjectedFault,
                         ResourceGovernor, inject)
from repro.obs import ExecMetrics
from repro.pattern import parse_pattern
from repro.physical import (HeuristicChooser, NLJoin, Run, StackTreeJoin,
                            StaircaseJoin, Strategy, TwigJoin,
                            make_algorithm, staircase)
from repro.xmltree import IndexedDocument, serialize

DOC = IndexedDocument.from_string(
    '<site><people>'
    '<person id="p1"><name>John</name><emailaddress/>'
    '<profile><interest/><interest/></profile></person>'
    '<person id="p2"><name>Mary</name><profile><interest/></profile></person>'
    '<person id="p3"><name>John</name><emailaddress/></person>'
    '</people></site>')

NESTED = IndexedDocument.from_string(
    "<doc><a><b><a><c/></a></b><c/></a><a><c/></a></doc>")

ALGORITHMS = [NLJoin(), TwigJoin(), StaircaseJoin(), StackTreeJoin()]


def single(algorithm, document, pattern_text, contexts=None):
    pattern = parse_pattern(pattern_text)
    contexts = contexts if contexts is not None else [document.root]
    nodes = algorithm.match_single(document, contexts, pattern.path)
    return [node.pre for node in nodes]


@pytest.mark.parametrize("algorithm", ALGORITHMS,
                         ids=lambda a: a.name)
class TestMatchSingle:
    def test_descendant_name(self, algorithm):
        result = single(algorithm, DOC, "IN#d/descendant::person{o}")
        assert result == [node.pre for node in DOC.stream("person")]

    def test_child_chain(self, algorithm):
        result = single(algorithm, DOC,
                        "IN#d/child::site/child::people/child::person{o}")
        assert result == [node.pre for node in DOC.stream("person")]

    def test_predicate_branch(self, algorithm):
        result = single(algorithm, DOC,
                        "IN#d/descendant::person[child::emailaddress]{o}")
        expected = [node.pre for node in DOC.stream("person")
                    if node.get_attribute("id") in ("p1", "p3")]
        assert result == expected

    def test_nested_predicate(self, algorithm):
        result = single(
            algorithm, DOC,
            "IN#d/descendant::person[child::profile[child::interest]]{o}")
        expected = [node.pre for node in DOC.stream("person")
                    if node.get_attribute("id") in ("p1", "p2")]
        assert result == expected

    def test_continuation_after_predicate(self, algorithm):
        result = single(
            algorithm, DOC,
            "IN#d/descendant::person[child::emailaddress]/child::name{o}")
        assert len(result) == 2

    def test_attribute_step(self, algorithm):
        result = single(algorithm, DOC, "IN#d/descendant::person/@id{o}")
        assert len(result) == 3

    def test_attribute_branch(self, algorithm):
        result = single(algorithm, DOC, "IN#d/descendant::person[@id]{o}")
        assert len(result) == 3

    def test_wildcard(self, algorithm):
        result = single(algorithm, DOC, "IN#d/child::site/child::*{o}")
        assert len(result) == 1  # people

    def test_descendant_or_self(self, algorithm):
        a_nodes = NESTED.stream("a")
        result = single(algorithm, NESTED,
                        "IN#d/descendant-or-self::a{o}", [a_nodes[0]])
        assert result == [a_nodes[0].pre, a_nodes[1].pre]

    def test_no_match(self, algorithm):
        assert single(algorithm, DOC, "IN#d/descendant::zzz{o}") == []

    def test_node_kind_test_excludes_attributes(self, algorithm):
        """Regression: attributes are not children/descendants, so
        node() streams must never surface them (TwigJoin once did)."""
        doc = IndexedDocument.from_string('<a id="1"><b x="2">t</b></a>')
        path = "IN#d/child::a/child::node(){o}"
        result = single(algorithm, doc, path)
        kinds = [doc.node_at(pre).kind for pre in result]
        assert "attribute" not in kinds
        assert kinds == ["element"]

    def test_multiple_contexts_doc_order_dedup(self, algorithm):
        contexts = list(NESTED.stream("a"))
        result = single(algorithm, NESTED, "IN#d/descendant::c{o}", contexts)
        expected = [node.pre for node in NESTED.stream("c")]
        assert result == expected

    def test_nested_contexts(self, algorithm):
        """Contexts where one contains another: still ddo semantics."""
        contexts = list(NESTED.stream("a"))[:2]  # outer a and nested a
        result = single(algorithm, NESTED, "IN#d/descendant::c{o}", contexts)
        pres = [node.pre for node in NESTED.stream("c")[:2]]
        assert result == pres

    def test_results_always_sorted_unique(self, algorithm):
        for pattern in ("IN#d/descendant::a{o}",
                        "IN#d/descendant::a/child::c{o}",
                        "IN#d/descendant::a/descendant::c{o}"):
            result = single(algorithm, NESTED, pattern)
            assert result == sorted(set(result))


@pytest.mark.parametrize("algorithm",
                         [make_algorithm(strategy) for strategy in Strategy],
                         ids=lambda a: a.name)
class TestEnumerateBindings:
    """Multi-output patterns: every strategy answers them with NLJoin's
    enumeration, the one evaluator of that semantics."""

    def bindings(self, algorithm, document, pattern_text):
        return algorithm.evaluate(document, [document.root],
                                  parse_pattern(pattern_text))

    def test_spine_outputs(self, algorithm):
        bindings = self.bindings(algorithm, DOC,
                                 "IN#d/descendant::person{p}/child::name{n}")
        assert len(bindings) == 3
        for binding in bindings:
            assert binding["n"].parent is binding["p"]

    def test_lexical_order(self, algorithm):
        bindings = self.bindings(algorithm, DOC,
                                 "IN#d/descendant::person{p}/child::name{n}")
        keys = [(b["p"].pre, b["n"].pre) for b in bindings]
        assert keys == sorted(keys)

    def test_branch_filtering(self, algorithm):
        bindings = self.bindings(
            algorithm, DOC, "IN#d/descendant::person[child::emailaddress]{p}")
        assert len(bindings) == 2

    def test_agrees_with_nljoin(self, algorithm):
        pattern = parse_pattern("IN#d/descendant::a{p}/child::c{n}")
        assert (self.bindings(algorithm, NESTED,
                              "IN#d/descendant::a{p}/child::c{n}")
                == NLJoin().enumerate_bindings(NESTED, NESTED.root,
                                               pattern.path))


class TestAgreement:
    PATTERNS = [
        "IN#d/descendant::a{o}",
        "IN#d/descendant::a/child::c{o}",
        "IN#d/descendant::a[child::c]{o}",
        "IN#d/descendant::a[child::b[child::a]]{o}",
        "IN#d/child::doc/descendant::c{o}",
        "IN#d/descendant-or-self::node()/child::c{o}",
        "IN#d/descendant::b/descendant::c{o}",
    ]

    @pytest.mark.parametrize("pattern_text", PATTERNS)
    def test_all_algorithms_agree(self, pattern_text):
        results = {algorithm.name: single(algorithm, NESTED, pattern_text)
                   for algorithm in ALGORITHMS}
        reference = results["nljoin"]
        assert all(result == reference for result in results.values())


TWIGS = IndexedDocument.from_string(
    '<r><a id="1"><a><b x="1">t</b></a><c/></a>'
    '<a><b><c><b/></c></b>tail</a>'
    '<a id="3"><c><a><b><b x="2"/></b></a></c></a><b/></r>')


class TestBranchSemiJoin:
    """SCJoin filters a branch set-at-a-time, bottom-up; NLJoin walks it
    per node.  Shapes the fuzzers generate rarely."""

    PATTERNS = [
        # candidates nested inside candidates
        "IN#d/descendant::a[descendant::b]{o}",
        "IN#d/descendant::a[descendant::a[child::b]]{o}",
        # descendant-or-self and self branch steps
        "IN#d/descendant::b[descendant-or-self::b[@x]]{o}",
        "IN#d/descendant::*[self::a]{o}",
        "IN#d/descendant::*[self::a[@id]/child::c]{o}",
        "IN#d/descendant::node()[self::text()]{o}",
        "IN#d/descendant::a[child::b/self::b[child::c]]{o}",
        # attribute and text() branches, wildcard and node() tests
        "IN#d/descendant::a[@id]{o}",
        "IN#d/descendant::*[@*]{o}",
        "IN#d/descendant::*[attribute::node()]/child::*{o}",
        "IN#d/descendant::a[child::text()]{o}",
        "IN#d/descendant::*[descendant::text()]{o}",
        "IN#d/descendant::a[child::*[child::*]]{o}",
        "IN#d/descendant::a[child::node()]{o}",
        "IN#d/descendant::*[descendant-or-self::node()[@x]]{o}",
        # a positional step inside a branch, alone and with a branch
        "IN#d/descendant::a[child::*[self::c][1]]{o}",
        "IN#d/descendant::a[descendant::b[2]]{o}",
        "IN#d/descendant::a[child::b[child::c][1]/child::c]{o}",
        # a branch under a branch, two branches on one step
        "IN#d/descendant::a[child::b[child::c[child::b]]]{o}",
        "IN#d/descendant::a[child::c][@id]/child::c[child::a]{o}",
        # an empty satisfying set
        "IN#d/descendant::a[child::zzz]{o}",
        "IN#d/descendant::a[child::b[descendant::zzz]]{o}",
        "IN#d/descendant::a[@zzz]{o}",
    ]

    @pytest.mark.parametrize("pattern_text", PATTERNS)
    def test_agrees_with_nljoin(self, pattern_text):
        """From every single node (the document root, and contexts deep
        in the document) and from all nodes at once, attributes and
        text included."""
        nodes = [TWIGS.node_at(pre) for pre in range(TWIGS.size)]
        for contexts in [[node] for node in nodes] + [nodes]:
            expected = single(NLJoin(), TWIGS, pattern_text, contexts)
            assert single(StaircaseJoin(), TWIGS, pattern_text,
                          contexts) == expected

    def test_some_case_is_not_vacuous(self):
        matched = [text for text in self.PATTERNS
                   if single(NLJoin(), TWIGS, text)]
        assert len(matched) >= len(self.PATTERNS) - 4

    #: A leaf ``a`` first, forty flat ``a`` with a ``c`` each, then ``a``
    #: nested four deep: the last ``a`` is enclosed by three others, the
    #: outermost of which is not the first ``a``, and a ``b`` follows the
    #: last ``a`` inside that outermost one.  Two ``b`` against 45 ``a``
    #: and 42 ``c``: a descendant filter from all ``a`` walks up from the
    #: ``b``s and merges the ``c``s.
    SIDES = IndexedDocument.from_string(
        "<r><a/>" + "<a><c/></a>" * 40
        + "<a><a><c/><a><a><b/></a></a></a><b/><c/></a></r>")

    SIDE_PATTERNS = [
        # few satisfying entries
        "IN#d/descendant::a[descendant::b]{o}",
        "IN#d/descendant::a[descendant-or-self::b]{o}",
        "IN#d/descendant::*[descendant-or-self::b]{o}",
        "IN#d/descendant::a[descendant::a[descendant::b]]{o}",
        # many satisfying entries
        "IN#d/descendant::a[descendant::c]{o}",
        "IN#d/descendant::a[descendant-or-self::a[child::c]]{o}",
        "IN#d/descendant::*[descendant-or-self::c]{o}",
        # the hull must reach the ``b`` after the last ``a``
        "IN#d/descendant::a[child::b]{o}",
        "IN#d/descendant::a[child::a[child::b]]{o}",
    ]

    @pytest.mark.parametrize("pattern_text", SIDE_PATTERNS)
    def test_both_sides_of_the_filter_agree_with_nljoin(self, pattern_text):
        nodes = [self.SIDES.node_at(pre) for pre in range(self.SIDES.size)]
        for contexts in [[node] for node in nodes] + [nodes]:
            expected = single(NLJoin(), self.SIDES, pattern_text, contexts)
            assert single(StaircaseJoin(), self.SIDES, pattern_text,
                          contexts) == expected
        assert single(NLJoin(), self.SIDES, pattern_text)

    def test_both_sides_of_the_filter_are_taken(self, monkeypatch):
        """From the root, the few-entry patterns walk up and the
        many-entry ones merge, for both descendant axes."""
        walks = []
        walk = staircase._enclosing

        def spy(columns, candidates, satisfying, offset):
            kept = walk(columns, candidates, satisfying, offset)
            walks.append((offset, kept is not None))
            return kept

        monkeypatch.setattr(staircase, "_enclosing", spy)
        sides = {}
        for text in self.SIDE_PATTERNS[:7]:
            walks.clear()
            single(StaircaseJoin(), self.SIDES, text)
            sides[text] = list(walks)
        few, many = self.SIDE_PATTERNS[:4], self.SIDE_PATTERNS[4:7]
        assert all(sides[text] and all(walked for _, walked in sides[text])
                   for text in few)
        assert {offset for text in few for offset, _ in sides[text]} \
            == {0, 1}
        assert all(not sides[text] for text in many)

    def test_deep_chain(self, chain):
        """Checked against pres worked out by hand: NLJoin reads every
        ``a``'s region, 12 million nodes a pattern here."""
        a_pres = [node.pre for node in chain.stream("a")]
        (b_pre,) = [node.pre for node in chain.stream("b")]
        last_c = chain.stream("c")[-1].pre
        assert a_pres == list(range(last_c + 1, b_pre))
        expected = {
            "descendant::a[child::b]": [a_pres[-1]],
            "descendant::a[descendant::b]": a_pres,
            "descendant::a[descendant-or-self::b]": a_pres,
            "descendant::a[descendant::a]": a_pres[:-1],
            "descendant::c[descendant::b]": [last_c],
            "descendant::*[descendant-or-self::b]":
                [1, last_c] + a_pres + [b_pre],
            "descendant::a[descendant::a[child::b]]": a_pres[:-1],
        }
        for text, pres in expected.items():
            assert single(StaircaseJoin(), chain,
                          "IN#d/" + text + "{o}") == pres, text
        # From all ``a`` at once, and from the innermost few.
        for contexts in (chain.stream("a"), chain.stream("a")[-3:]):
            assert single(StaircaseJoin(), chain,
                          "IN#d/descendant-or-self::a[descendant::b]{o}",
                          contexts) == [node.pre for node in contexts]


@pytest.fixture(scope="module")
def chain():
    """``a`` nested 5 000 deep under the last of 21 ``c``, a ``b`` at the
    bottom: the last candidate's ancestors, and the ``b``'s, are far more
    than a quarter of the candidates."""
    depth = 5000
    return IndexedDocument.from_string(
        "<r>" + "<c/>" * 20 + "<c>" + "<a>" * depth + "<b/>"
        + "</a>" * depth + "</c></r>")


@pytest.fixture(scope="module")
def forest():
    """20 000 nodes, 6 tags: 100 independent 200-node MemBeR trees."""
    blocks = [serialize(member_document(200, depth=5, tag_count=6,
                                        seed=index).root)
              for index in range(100)]
    return IndexedDocument.from_string(
        "<forest>" + "".join(blocks) + "</forest>")


class _CountingColumn:
    """A column that records the ``pre`` of every entry read from it."""

    def __init__(self, column):
        self.column = column
        self.reads = []

    def __len__(self):
        return len(self.column)

    def __getitem__(self, pre):
        self.reads.append(pre)
        return self.column[pre]


class TestStaircaseWork:
    TWIG = parse_pattern(
        "IN#d/descendant::t01[child::t02[child::t03[child::t04]]]{o}").path

    @staticmethod
    def scanned(document, path):
        algorithm = StaircaseJoin()
        metrics = ExecMetrics()
        result = algorithm.match_single(document, [document.root], path,
                                        Run(metrics=metrics))
        assert result
        assert result == NLJoin().match_single(document, [document.root],
                                               path)
        return metrics.stream_scanned["scjoin"]

    def test_branch_work_is_one_pass_per_query_node(self, forest):
        """Pins the set-at-a-time branches: each query node's stream is
        read about once."""
        streams = sum(len(forest.stream(tag))
                      for tag in ("t01", "t02", "t03", "t04"))
        assert self.scanned(forest, self.TWIG) <= 2 * streams

    def test_nested_candidates_do_not_multiply_the_work(self):
        """Single-tag depth-15 document: every candidate's region holds
        other candidates, so per-candidate branch evaluation reads
        candidates x region entries (22 passes here, not 3)."""
        from repro.data import deep_member_document
        deep = deep_member_document(5000, depth=15)
        path = parse_pattern("IN#d/descendant::t1[descendant::t1"
                             "[descendant::t1]]{o}").path
        assert self.scanned(deep, path) <= 2 * 3 * len(deep.stream("t1"))

    def test_a_child_chain_reads_children_not_regions(self):
        """``(/t1[1])^12`` on the single-tag depth-15 document: a
        context's region holds thousands of ``t1``, its children are
        two.  Skipping past every visited entry's region reads the
        children (and nothing below them), so the whole chain scans
        about steps x fan-out entries; reading regions, 12 000."""
        from repro.data import deep_member_document
        deep = deep_member_document(5000, depth=15)
        path = parse_pattern("IN#d" + "/child::t1[1]" * 12 + "{o}").path
        fan_out = max(len(node.children) for node in deep.stream("t1"))
        assert self.scanned(deep, path) <= 2 * 12 * fan_out

    def test_skipped_entries_are_not_charged(self):
        from repro.data import deep_member_document
        deep = deep_member_document(5000, depth=15)
        path = parse_pattern("IN#d/child::t1/child::t1{o}").path
        governor = ResourceGovernor(Budgets(max_steps=10**9))
        metrics = ExecMetrics()
        algorithm = StaircaseJoin()
        assert algorithm.match_single(deep, [deep.root], path,
                                      Run(metrics=metrics, governor=governor))
        assert metrics.stream_scanned["scjoin"] \
            == metrics.nodes_visited["scjoin"] < 10
        assert governor.steps < 20

    def test_branch_kernels_charge_the_step_budget(self, forest):
        spine = parse_pattern("IN#d/descendant::t01{o}").path
        governor = ResourceGovernor(Budgets(max_steps=10**9))
        algorithm = StaircaseJoin()
        algorithm.match_single(forest, [forest.root], spine,
                               Run(governor=governor))
        spine_steps = governor.steps
        # A budget the spine fits in trips inside the branch kernels.
        tight = Run(governor=ResourceGovernor(
            Budgets(max_steps=spine_steps + 10)))
        with pytest.raises(BudgetExceeded) as exc:
            algorithm.match_single(forest, [forest.root], self.TWIG, tight)
        assert exc.value.code.startswith("REPRO-BUDGET")

    @staticmethod
    def column_reads(monkeypatch, document, path):
        """The ``end`` and ``parent`` entries one evaluation reads, by
        ``pre`` (the result's nodes are made beforehand, so only the
        join reads)."""
        expected = StaircaseJoin().match_single(document, [document.root],
                                                path)
        columns = document.columns
        reads = {name: _CountingColumn(getattr(columns, name))
                 for name in ("end", "parent")}
        for name, column in reads.items():
            monkeypatch.setattr(columns, name, column)
        assert StaircaseJoin().match_single(document, [document.root],
                                            path) == expected
        monkeypatch.undo()
        return reads["end"].reads, reads["parent"].reads

    def test_branch_hulls_walk_the_depth_not_the_candidates(
            self, forest, monkeypatch):
        """QE1: each branch level finds its hull's end from the last
        candidate's ancestors, not by reading every candidate's
        ``end``; the ``child`` filters read none."""
        depth = max(forest.columns.level)
        ends, parents = self.column_reads(monkeypatch, forest, self.TWIG)
        levels = 4          # the spine step and three branch steps
        assert len(ends) <= levels * (depth + 2)
        assert len(parents) <= levels * (depth + 2) + sum(
            len(forest.stream(tag)) for tag in ("t02", "t03", "t04"))

    def test_few_satisfying_entries_read_no_candidate_end(
            self, forest, monkeypatch):
        """QE4: the ``t02`` and ``t01`` levels have a sixth and a
        thirtieth as many satisfying entries as candidates, so they walk
        up from the entries: the one candidate ``end`` each level reads
        is its hull's."""
        path = parse_pattern(
            "IN#d/descendant::t01[descendant::t02[descendant::t03"
            "[descendant::t04]]]{o}").path
        ends, _ = self.column_reads(monkeypatch, forest, path)
        for tag in ("t01", "t02"):
            pres = {node.pre for node in forest.stream(tag)}
            assert len(pres.intersection(ends)) <= 1, tag

    def test_a_deep_chain_walks_no_level(self, chain, monkeypatch):
        """A 5 000-deep chain of candidates: the hull and the descendant
        filter find from the ``level`` column that a walk would take
        more steps than a pass, and read no ``parent`` for it."""
        for text in ("descendant::a[child::b]", "descendant::a[descendant::b]",
                     "descendant::a[descendant-or-self::b]"):
            path = parse_pattern("IN#d/" + text + "{o}").path
            _, parents = self.column_reads(monkeypatch, chain, path)
            assert len(parents) <= 2, text

    def test_chaos_site_still_fires(self, forest):
        with inject(ChaosSpec(site="scjoin.match")) as injector:
            with pytest.raises(InjectedFault):
                StaircaseJoin().match_single(forest, [forest.root],
                                             self.TWIG)
        assert injector.visits == ["scjoin.match"]


class TestChildSkipping:
    """The child join skips the region of every stream entry it visits;
    NLJoin, which navigates, is the reference."""

    #: same-tag nesting on both sides of a match, attributes on every
    #: context, text between children, a childless context.
    XML = ('<a i="0"><a i="1"><a i="2"><b/><a i="3"/></a><b><a i="4">'
           '<a i="5"/></a></b>t<a i="6"/></a><b k="v"><b><a i="7"/></b></b>'
           '<a i="8" j="w">u<a i="9"><a i="10"/></a><b/></a><a i="11"/></a>')

    PATTERNS = [
        "IN#x/child::a{o}", "IN#x/child::b{o}", "IN#x/child::*{o}",
        "IN#x/child::a/child::a{o}", "IN#x/child::a/child::a/child::a{o}",
        "IN#x/child::a[1]/child::a[2]{o}", "IN#x/child::a[child::b]{o}",
        "IN#x/child::b/child::b/child::a{o}",
        "IN#x/descendant::a/child::a{o}", "IN#x/descendant::b/child::a{o}",
        "IN#x/child::a/descendant::a/child::a{o}",
    ]

    @pytest.mark.parametrize("pattern_text", PATTERNS)
    def test_nested_same_tag_and_attribute_bearing_contexts(
            self, pattern_text):
        document = IndexedDocument.from_string(self.XML)
        nodes = [document.root] + document.stream("a") + document.stream("b")
        far_apart = [document.stream("a")[1], document.stream("a")[8]]
        matched = 0
        for contexts in [[node] for node in nodes] + [nodes, far_apart]:
            expected = single(NLJoin(), document, pattern_text, contexts)
            assert single(StaircaseJoin(), document, pattern_text,
                          contexts) == expected
            matched += len(expected)
        assert matched

    @pytest.mark.parametrize("steps", [1, 2, 5, 12, 15])
    def test_depth_fifteen_document(self, steps):
        from repro.data import deep_member_document
        deep = deep_member_document(3000, depth=15)
        for step in ("/child::t1", "/child::t1[1]", "/child::t1[2]"):
            text = "IN#d" + step * steps + "{o}"
            expected = single(NLJoin(), deep, text)
            assert single(StaircaseJoin(), deep, text) == expected
            assert expected or steps == 15 or step.endswith("[2]")

    def test_far_apart_contexts_each_skip_their_own_region(self):
        """Contexts too far apart for the hull gather are scanned one by
        one; nested ones interleave and are merged."""
        from repro.data import deep_member_document
        deep = deep_member_document(3000, depth=15)
        elements = deep.stream("t1")
        for contexts in ([elements[1], elements[-1]],
                         [elements[0], elements[2], elements[-3]],
                         elements[:3] + elements[-3:]):
            for text in ("IN#d/child::t1{o}", "IN#d/child::t1/child::t1{o}"):
                assert single(StaircaseJoin(), deep, text, contexts) \
                    == single(NLJoin(), deep, text, contexts)


# -- evaluate_each: a batch of tuples per kernel call ---------------------------

#: ``a`` elements nested four deep, attributes, text, a childless ``a``
#: between two that have matches, and a ``z`` the summary rules out.
EACH_XML = (
    '<r><a id="1">x<a id="2"><b/><a id="3"><a id="4"><b>t</b><c/></a>'
    '<b>u<c/></b></a><b/></a><c><b/></c></a>'
    '<a id="5"/><a id="6"><b/><b><c/></b><a id="7"><b/></a></a><z/></r>')

EACH_PATTERNS = [
    # first steps on every downward axis
    "IN#x/child::b{o}", "IN#x/child::*{o}", "IN#x/child::text(){o}",
    "IN#x/descendant::b{o}", "IN#x/descendant::node(){o}",
    "IN#x/descendant-or-self::a{o}", "IN#x/descendant-or-self::node(){o}",
    "IN#x/@id{o}", "IN#x/@*{o}",
    "IN#x/self::a{o}", "IN#x/self::node(){o}", "IN#x/self::text(){o}",
    # multi-step
    "IN#x/child::a/child::b{o}", "IN#x/descendant::a/descendant::b{o}",
    "IN#x/descendant-or-self::a/child::b/child::c{o}",
    "IN#x/descendant::a/@id{o}", "IN#x/child::b/child::text(){o}",
    # branches
    "IN#x/descendant::a[child::b]{o}",
    "IN#x/child::a[descendant::c]/child::b{o}",
    "IN#x/descendant::b[child::c][child::text()]{o}",
    "IN#x/descendant-or-self::a[@id][child::a[child::b]]{o}",
    # positional first and inner steps
    "IN#x/child::b[1]{o}", "IN#x/child::b[2]{o}",
    "IN#x/descendant::a[2]{o}", "IN#x/descendant-or-self::a[1]{o}",
    "IN#x/descendant::a/child::b[1]{o}",
    "IN#x/child::a[1]/descendant::b[2]{o}",
    "IN#x/descendant::a[child::b][2]/child::b{o}",
    # positional branches
    "IN#x/child::a[child::b[2]]{o}",
    "IN#x/descendant::a[descendant::b[2]/child::c]{o}",
    "IN#x/descendant-or-self::a[child::a[1]/child::b[2]]{o}",
    # what has no batch kernel: several outputs, upward axes
    "IN#x/descendant::a{p}/child::b{o}", "IN#x/parent::a{o}",
    "IN#x/child::b/ancestor::a{o}",
]


def each_contexts(document):
    """Unsorted, with duplicates, nested to depth 4, of every kind."""
    a = {node.get_attribute("id"): node for node in document.stream("a")}
    root = document.root.children[0]
    (z,) = document.stream("z")
    text = a["1"].children[0]
    assert text.kind == "text"
    return [a["6"], a["3"], document.root, a["1"], a["5"], a["3"],
            a["4"], text, a["2"], a["1"].attributes[0], z, a["7"],
            a["6"], root, document.stream("b")[0], a["4"]]


def disjoint_contexts(document):
    """Sorted, with pairwise disjoint regions, of every kind: the batch
    SCJoin answers in one walk."""
    a = {node.get_attribute("id"): node for node in document.stream("a")}
    text, a2, c = a["1"].children
    first_b, a3, last_b = a2.children
    a4, b_u = a3.children
    contexts = [a["1"].attributes[0], text, first_b, a4, b_u, last_b, c,
                a["5"], a["6"], document.stream("z")[0]]
    assert all(left.end < right.pre
               for left, right in zip(contexts, contexts[1:]))
    return contexts


BATCHES = {"mixed": each_contexts, "disjoint": disjoint_contexts}


def pres(bindings):
    return [{name: node.pre for name, node in binding.items()}
            for binding in bindings]


def outputs(bindings):
    """A single-output pattern's bindings as their ``pre``s."""
    return [node.pre for binding in bindings for node in binding.values()]


def ranges(answer):
    """``evaluate_each``'s ``(matches, offsets)`` as a list per tuple."""
    matches, offsets = answer
    assert offsets[0] == 0 and offsets[-1] == len(matches)
    return [matches[low:high] for low, high in zip(offsets, offsets[1:])]


@pytest.fixture(scope="module")
def document():
    return IndexedDocument.from_string(EACH_XML)


@pytest.fixture(scope="module")
def stores(document, tmp_path_factory):
    """The document parsed (id ``object``, from when a parsed document
    was an object tree) and saved + mmap-opened (id ``columnar``): the
    two ways a document's columns are held, arrays and a map."""
    path = tmp_path_factory.mktemp("each") / "document.rpxc"
    document.save(path)
    opened = IndexedDocument.open(path)
    yield {"object": document, "columnar": opened}
    opened.close()


@pytest.mark.parametrize("store", ["object", "columnar"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=str)
class TestEvaluateEach:
    """``evaluate_each`` is ``evaluate`` per context, for every
    strategy (the ``item`` pseudo-strategy runs NLJoin)."""

    @pytest.mark.parametrize("use_summary", [False, True])
    def test_equals_evaluate_per_context(self, stores, store, strategy,
                                         use_summary):
        """On a mixed batch and on a sorted, disjoint one: both sides of
        SCJoin's one-layer test."""
        document = stores[store]
        algorithm = make_algorithm(strategy, document)
        run = Run(summary=document.summary if use_summary else None)
        for batch, make_contexts in BATCHES.items():
            contexts = make_contexts(document)
            empty = matched = 0
            for text in EACH_PATTERNS:
                pattern = parse_pattern(text)
                if pattern.single_output_field is None:
                    # Evaluated per tuple by the caller.
                    with pytest.raises(ValueError):
                        algorithm.evaluate_each(document, contexts, pattern,
                                                run)
                    continue
                expected = [outputs(algorithm.evaluate(document, [context],
                                                       pattern, run))
                            for context in contexts]
                got = algorithm.evaluate_each(document, contexts, pattern,
                                              run)
                assert ranges(got) == expected, (batch, text)
                assert batch != "mixed" or any(expected), text
                empty += sum(1 for answer in expected if not answer)
                matched += sum(1 for answer in expected if answer)
                assert algorithm.evaluate_each(document, [], pattern, run) \
                    == ([], [0])
            # contexts without a match sit between the others
            assert empty and matched, batch

    def test_one_context_and_all_the_same_context(self, stores, store,
                                                  strategy):
        document = stores[store]
        algorithm = make_algorithm(strategy, document)
        pattern = parse_pattern("IN#x/descendant::a[child::b]{o}")
        (inner,) = [node for node in document.stream("a")
                    if node.get_attribute("id") == "2"]
        once = outputs(algorithm.evaluate(document, [inner], pattern))
        assert once
        for count in (1, 3):
            got = algorithm.evaluate_each(document, [inner] * count,
                                          pattern)
            assert ranges(got) == [once] * count


class TestStaircaseBatch:
    """What the SCJoin batch kernel does beyond agreeing."""

    def run(self, document, text, contexts):
        algorithm = StaircaseJoin()
        metrics = ExecMetrics()
        got = algorithm.evaluate_each(document, contexts,
                                      parse_pattern(text),
                                      Run(metrics=metrics,
                                          summary=document.summary))
        return got, metrics

    def test_one_kernel_invocation_per_batch(self, document):
        contexts = each_contexts(document)
        _, metrics = self.run(document, "IN#x/descendant::b{o}", contexts)
        assert metrics.pattern_evals == 1
        # The prefilter still counts contexts: attribute, text, ``z``,
        # the childless ``b``... cannot embed ``descendant::b``.
        assert metrics.prune_hits + metrics.prune_misses == len(contexts)
        assert metrics.prune_hits >= 3

    def test_per_tuple_patterns_keep_one_invocation_per_context(self, document):
        contexts = each_contexts(document)
        for text in ("IN#x/parent::a{o}",
                     "IN#x/descendant-or-self::node(){o}"):
            _, metrics = self.run(document, text, contexts)
            assert metrics.pattern_evals == len(contexts), text
        with pytest.raises(ValueError):
            self.run(document, "IN#x/descendant::a{p}/child::b{o}", contexts)

    def test_a_batch_the_summary_rules_out_runs_no_kernel(self, document):
        contexts = document.stream("z") + document.stream("c")
        got, metrics = self.run(document, "IN#x/descendant::a{o}", contexts)
        assert got == ([], [0] * (len(contexts) + 1))
        assert metrics.prune_hits == len(contexts)
        assert not metrics.nodes_visited and not metrics.stream_scanned

    def test_repeated_contexts_cost_the_stream_reads_of_one(self, document):
        (outer,) = [node for node in document.stream("a")
                    if node.get_attribute("id") == "2"]
        once, alone = self.run(document, "IN#x/descendant::b{o}", [outer])
        got, repeated = self.run(document, "IN#x/descendant::b{o}",
                                 [outer, outer, outer])
        assert ranges(once)[0] and ranges(got) == ranges(once) * 3
        assert repeated.stream_scanned == alone.stream_scanned
        assert repeated.nodes_visited == alone.nodes_visited

    def test_a_sorted_disjoint_batch_is_one_walk(self, document):
        # The mixed batch nests six deep: document, ``r``, ``a`` 1–4.  A
        # one-step pattern answers it in one walk, a longer one peels it
        # into a walk per layer.
        for contexts, text, walks in (
                (disjoint_contexts(document), "IN#x/child::b{o}", 1),
                (each_contexts(document), "IN#x/child::b{o}", 1),
                (each_contexts(document), "IN#x/child::a/child::b{o}", 6)):
            with inject() as injector:
                StaircaseJoin().evaluate_each(
                    document, contexts, parse_pattern(text))
            assert injector.visits == ["scjoin.match"] * walks, text

    def test_nesting_costs_a_walk_per_layer_not_per_context(self):
        """Single-tag depth-15 document: 5000 contexts, each inside up
        to 14 others, are answered by at most 15 stream reads, or by one
        for a one-step ``child`` or ``descendant`` pattern."""
        from repro.data import deep_member_document
        deep = deep_member_document(5000, depth=15)
        contexts = deep.stream("t1")
        algorithm = StaircaseJoin()
        for text, include_self, reads in (
                ("IN#x/descendant::t1{o}", 0, 1),
                ("IN#x/descendant-or-self::t1{o}", 1, 15)):
            metrics = ExecMetrics()
            _, offsets = algorithm.evaluate_each(
                deep, contexts, parse_pattern(text), Run(metrics=metrics))
            assert [high - low for low, high in zip(offsets, offsets[1:])] \
                == [node.end - node.pre + include_self for node in contexts]
            assert metrics.stream_scanned["scjoin"] <= reads * len(contexts)

    def test_chaos_sites_fire_per_batch(self, document):
        contexts = each_contexts(document)
        with inject(ChaosSpec(site="scjoin.match")) as injector:
            with pytest.raises(InjectedFault):
                StaircaseJoin().evaluate_each(
                    document, contexts, parse_pattern("IN#x/child::b{o}"))
        assert injector.visits == ["scjoin.match"]

    def test_batch_kernel_charges_the_step_budget(self, document):
        contexts = each_contexts(document)
        algorithm = StaircaseJoin()
        run = Run(governor=ResourceGovernor(Budgets(max_steps=10)))
        with pytest.raises(BudgetExceeded):
            algorithm.evaluate_each(document, contexts,
                                    parse_pattern("IN#x/descendant::b{o}"),
                                    run)


class TestSharedInstances:
    """``make_algorithm`` hands out one instance per strategy; the
    instruments travel in the :class:`Run` of each call, so concurrent
    runs on one instance count apart."""

    STRATEGIES = ("scjoin", "nljoin", "cost")

    def test_make_algorithm_shares_its_instances(self):
        for strategy in Strategy:
            assert make_algorithm(strategy) is make_algorithm(strategy)

    @staticmethod
    def evaluate_all(document, run):
        contexts = each_contexts(document)
        for _ in range(3):
            for strategy in TestSharedInstances.STRATEGIES:
                algorithm = make_algorithm(strategy)
                for text in EACH_PATTERNS:
                    pattern = parse_pattern(text)
                    if pattern.single_output_field is not None:
                        algorithm.evaluate_each(document, contexts, pattern,
                                                run)
                    algorithm.evaluate(document, [document.root], pattern,
                                       run)
        return run.metrics.counters(), run.metrics.decisions_total

    def test_four_threads_count_as_each_alone(self, document):
        import sys
        import threading

        def fresh_run():
            return Run(metrics=ExecMetrics(), summary=document.summary)

        alone = self.evaluate_all(document, fresh_run())
        assert alone[1] and alone[0]["visited.scjoin"]
        tallies = [None] * 4
        start = threading.Barrier(4)

        def work(slot):
            run = fresh_run()
            start.wait()
            tallies[slot] = self.evaluate_all(document, run)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tallies == [alone] * 4


class TestFallbacks:
    def test_twig_falls_back_on_reverse_axis(self):
        pattern = parse_pattern("IN#d/descendant::c{o}")
        from repro.pattern import PatternPath, PatternStep
        from repro.xmltree.axes import Axis
        from repro.xmltree.nodetest import AnyKindTest
        path = PatternPath((
            PatternStep(Axis.DESCENDANT, AnyKindTest(), (), None),
            PatternStep(Axis.PARENT, AnyKindTest(), (), "o"),
        ))
        twig = TwigJoin()
        nl = NLJoin()
        assert ([n.pre for n in twig.match_single(NESTED, [NESTED.root], path)]
                == [n.pre for n in nl.match_single(NESTED, [NESTED.root], path)])


def decision_run(document):
    """A run recording a chooser's decisions, with the summary a chooser
    made for ``document`` prunes with."""
    return Run(metrics=ExecMetrics(), summary=document.summary)


class TestStrategyFactory:
    def test_make_all(self):
        assert make_algorithm("nljoin").name == "nljoin"
        assert make_algorithm(Strategy.TWIG_JOIN).name == "twigjoin"
        assert make_algorithm("scjoin").name == "scjoin"
        assert make_algorithm("auto", DOC).name == "auto"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_algorithm("quantum")

    def test_heuristic_prefers_navigation_for_small_regions(self):
        from repro.data import deep_member_document
        deep = deep_member_document(2000, 10)
        chooser = HeuristicChooser(deep)
        # A context deep in the tree: its region is tiny relative to the
        # 2000-element t1 stream the index algorithms would scan.
        context = deep.stream("t1")[-1].parent
        pattern = parse_pattern("IN#d/child::t1{o}")
        run = decision_run(deep)
        chooser.match_single(deep, [context], pattern.path, run)
        assert run.metrics.decision_ring[-1].algorithm == "nljoin"

    def test_heuristic_prefers_twig_for_branching(self):
        chooser = HeuristicChooser(DOC)
        pattern = parse_pattern(
            "IN#d/descendant::person[child::emailaddress]{o}")
        run = decision_run(DOC)
        chooser.match_single(DOC, [DOC.root], pattern.path, run)
        assert run.metrics.decision_ring[-1].algorithm == "twigjoin"

    def test_heuristic_prefers_staircase_for_plain_spines(self):
        chooser = HeuristicChooser(DOC)
        pattern = parse_pattern("IN#d/descendant::person/child::name{o}")
        run = decision_run(DOC)
        chooser.match_single(DOC, [DOC.root], pattern.path, run)
        assert run.metrics.decision_ring[-1].algorithm == "scjoin"

    def test_heuristic_matches_reference_results(self):
        chooser = HeuristicChooser(DOC)
        nl = NLJoin()
        for text in ("IN#d/descendant::person{o}",
                     "IN#d/descendant::person[child::emailaddress]{o}"):
            pattern = parse_pattern(text)
            assert (chooser.match_single(DOC, [DOC.root], pattern.path)
                    == nl.match_single(DOC, [DOC.root], pattern.path))
