"""The structural path summary: construction, prefilter, selectivity."""

import gc
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine, IndexedDocument
from repro.data import member_document, xmark_document
from repro.pattern import parse_pattern
from repro.xmltree import PathSummary
from repro.xmltree.node import DocumentNode, ElementNode
from repro.xmltree.serializer import serialize
from repro.xmltree.shard import split_document
from tests.support.nodes import (TreeWalkSummary, made_nodes,
                                 summary_contents)

RECURSIVE_XML = ("<a><a><a><b/></a></a><b><a/></b>x</a>")
ATTR_ONLY_XML = '<r><e a="1" b="2"/><e c="3"/></r>'


def path(text: str):
    """A PatternPath from the pattern notation used across the tests."""
    return parse_pattern(f"IN#d/{text}{{o}}").path


# -- construction --------------------------------------------------------------

class TestConstruction:
    def test_recursive_tags_get_distinct_paths(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        assert summary.path_count(("a",)) == 1
        assert summary.path_count(("a", "a")) == 1
        assert summary.path_count(("a", "a", "a")) == 1
        assert summary.path_count(("a", "b", "a")) == 1
        # Same tag, different paths: the recursion is kept apart.
        assert sorted(summary.tag_paths["a"]) == [
            ("a",), ("a", "a"), ("a", "a", "a"), ("a", "b", "a")]

    def test_depth_range_spans_subtree(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        assert summary.stats[("a",)].depth_range == (1, 4)
        assert summary.stats[("a", "a", "a")].depth_range == (3, 4)
        assert summary.stats[("a", "a", "a", "b")].depth_range == (4, 4)

    def test_child_tag_fanout(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        root = summary.stats[("a",)]
        assert root.child_tags == {"a": 1, "b": 1}
        assert root.fanout == 2
        assert summary.stats[("a", "a", "a", "b")].fanout == 0

    def test_single_element_document(self):
        summary = IndexedDocument.from_string("<r/>").summary
        assert len(summary) == 1
        assert summary.total_elements == 1
        assert summary.total_text == 0
        stats = summary.stats[("r",)]
        assert stats.count == 1 and stats.height == 0
        assert stats.depth_range == (1, 1)
        assert not stats.child_tags and not stats.attributes

    def test_attribute_only_children(self):
        summary = IndexedDocument.from_string(ATTR_ONLY_XML).summary
        stats = summary.stats[("r", "e")]
        # Both <e> elements share the path; their attribute names pool.
        assert stats.count == 2
        assert stats.attributes == {"a", "b", "c"}
        assert stats.fanout == 0 and stats.text_count == 0
        assert summary.stats[("r",)].attributes == set()

    def test_text_accounting(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        assert summary.total_text == 1
        assert summary.stats[("a",)].text_count == 1
        assert summary.stats[("a",)].text_below == 1
        assert summary.stats[("a", "a")].text_below == 0

    def test_summary_is_cached_on_document(self):
        document = IndexedDocument.from_string("<r><s/></r>")
        assert document.summary is document.summary
        assert isinstance(document.summary, PathSummary)


# -- the prefilter -------------------------------------------------------------

class TestBuiltFromColumns:
    """The summary reads the columns, never ``document.root``."""

    QUERY = "$input//person[emailaddress]/name"

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("summary") / "site.rpxc"
        document = xmark_document(400, seed=11)
        document.save(path)
        return document, str(path)

    def test_equals_the_tree_walk_on_an_opened_file(self, saved,
                                                    small_member_doc):
        document, path = saved
        opened = IndexedDocument.open(path)
        try:
            assert summary_contents(opened.summary) == \
                summary_contents(TreeWalkSummary(document.root))
            assert made_nodes(opened) == 0
        finally:
            opened.close()
        for parsed in (IndexedDocument.from_string(RECURSIVE_XML),
                       IndexedDocument.from_string(ATTR_ONLY_XML),
                       IndexedDocument.from_string(
                           serialize(small_member_doc.root))):
            assert summary_contents(parsed.summary) == \
                summary_contents(TreeWalkSummary(parsed.root))

    def test_paths_come_in_document_order(self):
        summary = IndexedDocument.from_string(
            "<r><b><a/></b><a><b/></a><b><c/></b></r>").summary
        assert list(summary.stats) == [
            ("r",), ("r", "b"), ("r", "b", "a"), ("r", "a"),
            ("r", "a", "b"), ("r", "b", "c")]
        assert summary.tag_paths["b"] == [("r", "b"), ("r", "a", "b")]

    def test_compile_does_not_materialize_the_tree(self, saved):
        _, path = saved
        gc.collect()
        tracemalloc.start()
        try:
            engine = Engine.from_columnar_file(path)
            compiled = engine.compile(self.QUERY)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert made_nodes(engine.document) == 0
            assert traced < 1_000_000
            rows = engine.execute(compiled)
            # The rows, and a shell for each of their ancestors.
            ancestors = {id(above) for row in rows
                         for above in row.iter_ancestors()}
            assert rows
            assert made_nodes(engine.document) == len(rows) + len(ancestors)
        finally:
            engine.document.close()

    def test_first_results_materialize_exactly_once(self, saved):
        """Six threads ask for their first rows at once: every ``pre``
        comes out as one object, whichever thread made it."""
        document, path = saved
        engine = Engine.from_columnar_file(path)
        compiled = engine.compile(self.QUERY)
        barrier = threading.Barrier(6)
        answers = []

        def first_result():
            barrier.wait(timeout=10)
            answers.append(engine.execute(compiled))

        threads = [threading.Thread(target=first_result)
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert len(answers) == 6
            expected = Engine(document).run(self.QUERY)
            for rows in answers:
                assert [row.pre for row in rows] == \
                    [row.pre for row in expected]
                assert all(ours is first
                           for ours, first in zip(rows, answers[0]))
            assert {id(row.root()) for row in answers[0]} == \
                {id(engine.document.root)}
        finally:
            engine.document.close()


class TestBuiltOncePerDocument:
    """The path trie is written with the other columns — by the
    parser, the shard splitter and ``save`` — and the summary only
    counts over it."""

    QUERY = "$input//person[emailaddress]/name"

    def test_doc_load_round_trip(self, tmp_path):
        """``from_xml`` → query → ``save`` → ``open`` → query, as one
        ``doc_load`` operation runs it: the opened file's summary is
        the parsed one's and reads the path column off the map."""
        path = tmp_path / "load.rpxc"
        for persons, seed in ((10, 3), (25, 5), (60, 8)):
            text = serialize(xmark_document(persons, seed=seed).root)
            parsed = Engine.from_xml(text)
            first = [serialize(row) for row in parsed.run(self.QUERY)]
            parsed.document.save(path)
            opened = Engine.from_columnar_file(str(path))
            try:
                second = [serialize(row) for row in opened.run(self.QUERY)]
                assert first == second
                columns = opened.document.columns
                assert isinstance(columns.path_id, memoryview)
                assert columns.path_id.obj is columns._source
                assert summary_contents(opened.document.summary) == \
                    summary_contents(parsed.document.summary) == \
                    summary_contents(TreeWalkSummary(parsed.document.root))
            finally:
                opened.document.close()

    def test_shards_summarize_like_the_tree_walk(self):
        document = xmark_document(40, seed=2)
        shards = split_document(document.columns, 3)
        assert len(shards) == 3
        for shard in shards:
            shard.columns.validate()
            part = IndexedDocument(columns=shard.columns)
            assert summary_contents(part.summary) == \
                summary_contents(TreeWalkSummary(part.root))

    def test_no_python_work_per_node(self):
        """Ten times the nodes on the same paths run the same lines of
        the summary module: building it and answering every kind of
        step is counted over the columns, never walked node by node."""
        unit = '<p a="1"><n>x</n><m/>y</p>'

        def lines(copies):
            document = IndexedDocument.from_string(
                f"<r>{unit * copies}</r>")
            module = sys.modules[PathSummary.__module__].__file__
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                if frame.f_code.co_filename == module and event == "line":
                    count += 1
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                summary = PathSummary(document)
                for text in ("desc::p[child::n/child::text()]/attribute::a",
                             "desc::*[desc::text()]/child::m"):
                    summary.pattern_volume(path(text))
                    summary.can_match(path(text))
                summary.path_count(("r", "p", "n"))
            finally:
                sys.settrace(previous)
            return count

        assert lines(20) == lines(200)


class TestCanMatch:
    @pytest.fixture(scope="class")
    def summary(self):
        return IndexedDocument.from_string(RECURSIVE_XML).summary

    def test_present_chains_pass(self, summary):
        assert summary.can_match(path("child::a/child::a/child::a"))
        assert summary.can_match(path("desc::b/child::a"))
        assert summary.can_match(path("desc::a[child::b]"))

    def test_absent_tag_prunes(self, summary):
        assert not summary.can_match(path("desc::missing"))
        # Context-free, child::b starts anywhere (<a> has a b child);
        # from the document node it cannot (the root element is <a>).
        assert summary.can_match(path("child::b"))
        assert not summary.can_match(path("child::b"),
                                     [summary.document.root])

    def test_impossible_branch_prunes(self, summary):
        assert not summary.can_match(path("desc::b[child::b]"))
        assert not summary.can_match(path("desc::a[desc::missing]"))

    def test_over_deep_chain_prunes(self, summary):
        chain = "/".join(["child::a"] * 5)
        assert not summary.can_match(path(chain))

    def test_contexts_sharpen_the_answer(self, summary):
        document = summary.document
        inner_b = [node for node in document.all_elements()
                   if node.name == "b"]
        # Globally <a> under <b> exists; from the deep <b> leaf it
        # cannot (that b has no element children).
        assert summary.can_match(path("child::a"), inner_b)
        leaf = [node for node in inner_b if node.level == 4]
        assert len(leaf) == 1
        assert not summary.can_match(path("child::a"), leaf)

    def test_points_are_path_indices(self, summary):
        """An element's point is its path's index, counted from 1 in
        the order of :attr:`~PathSummary.stats`; the document is 0."""
        document = summary.document
        paths = [()] + list(summary.stats)
        for node in document.all_elements():
            tags = tuple(above.name for above in
                         reversed([node] + list(node.iter_ancestors()))
                         if isinstance(above, ElementNode))
            assert paths[summary.path_of(node)] == tags
        assert summary.path_of(document.root) == 0

    def test_positions_never_prune(self, summary):
        # [5] cannot be satisfied (single child) but positions are
        # ignored: the answer must stay conservative, not become False.
        assert summary.can_match(path("child::a[5]"))

    def test_unsupported_axes_never_prune(self, summary):
        assert summary.can_match(path("parent::nosuchtag"))

    def test_attribute_steps(self):
        summary = IndexedDocument.from_string(ATTR_ONLY_XML).summary
        assert summary.can_match(path("child::e/attribute::a"))
        assert not summary.can_match(path("child::e/attribute::zz"))
        # The document node itself carries no attributes.
        assert not summary.can_match(path("attribute::a"),
                                     [summary.document.root])


# -- selectivity ---------------------------------------------------------------

class TestPatternVolume:
    def test_exact_counts_on_recursive_doc(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        assert summary.pattern_volume(path("desc::a")) == 4.0
        assert summary.pattern_volume(path("desc::b")) == 2.0
        assert summary.pattern_volume(path("desc::missing")) == 0.0

    def test_branches_add_volume(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        spine = summary.pattern_volume(path("desc::a"))
        branched = summary.pattern_volume(path("desc::a[child::b]"))
        assert branched > spine

    def test_unsupported_axis_yields_none(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        assert summary.pattern_volume(path("parent::a")) is None


class TestPatternMemoLifetime:
    """The per-pattern memo is keyed by the pattern object and dies with
    it: nothing pins a pattern, no entry outlives one."""

    def test_entries_die_with_their_pattern(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        kept = path("desc::a[child::b]")
        dropped = path("desc::a[child::b]")
        for pattern in (kept, dropped):
            assert summary.can_match(pattern)
            assert summary.pattern_volume(pattern) > 0
        assert len(summary._pattern_memo) == 4   # two paths, two branches
        del dropped, pattern
        gc.collect()
        assert len(summary._pattern_memo) == 2
        assert id(kept) in summary._pattern_memo
        assert summary._pattern_memo[id(kept)].ref() is kept

    def test_one_probe_per_evaluation_answers_from_the_memo(self):
        summary = IndexedDocument.from_string(RECURSIVE_XML).summary
        pattern = path("desc::a/child::b")
        assert summary.can_match(pattern)
        summary._embeds = None   # a second derivation would fail loudly
        assert summary.can_match(pattern)

    def test_threads_sharing_a_summary(self):
        """Service threads compile cold against one summary: answers
        stay right and no entry survives the plans that owned it."""
        from repro import Engine
        document = member_document(300, depth=5, tag_count=3, seed=5)
        queries = ["$input//t01[t02]/t03", "$input//t02[.//t03]/t01",
                   "$input//t03[t01][t02]", "$input/t01/t02[1]/t03"]
        engine = Engine(document, plan_cache_size=0)
        expected = {query: [node.pre for node in engine.run(query)]
                    for query in queries}
        failures = []

        def worker(offset):
            try:
                for index in range(60):
                    query = queries[(index + offset) % len(queries)]
                    got = [node.pre for node in engine.run(query)]
                    if got != expected[query]:
                        failures.append((query, got))
            except Exception as error:   # surfaced by the assert below
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        gc.collect()
        assert len(document.summary._pattern_memo) == 0


# -- conservation property -----------------------------------------------------

def count_elements(document) -> int:
    total = 0
    stack = [document.root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if isinstance(child, ElementNode):
                total += 1
                stack.append(child)
    return total


@given(seed=st.integers(0, 6), size=st.integers(20, 400),
       depth=st.integers(2, 7), tags=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_path_counts_sum_to_element_count(seed, size, depth, tags):
    document = member_document(size, depth=depth, tag_count=tags,
                               seed=seed)
    summary = PathSummary(document)
    by_paths = sum(stats.count for stats in summary.stats.values())
    assert by_paths == summary.total_elements == count_elements(document)


@given(seed=st.integers(0, 4), persons=st.integers(1, 25))
@settings(max_examples=20, deadline=None)
def test_path_counts_sum_on_xmark(seed, persons):
    document = xmark_document(persons, seed=seed)
    summary = PathSummary(document)
    by_paths = sum(stats.count for stats in summary.stats.values())
    assert by_paths == summary.total_elements == count_elements(document)
