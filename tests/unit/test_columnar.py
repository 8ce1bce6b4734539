"""The columnar document store: invariants, the facade, node_at.

Property tests drive randomly generated documents — with attributes and
text, the parts a tag-only generator misses — through the parser's
columns (``build_document``) and check the region-encoding invariants
the join algorithms rely on: dense ``pre``, ``post`` a permutation,
subtree intervals properly nested or disjoint, ``parent``/``level``
consistency, sorted per-tag streams.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.xmltree import (E, IndexedDocument, StorageError,
                           build_document, parse_xml, serialize)
from repro.xmltree.columnar import (KIND_ATTRIBUTE, KIND_DOCUMENT,
                                    KIND_ELEMENT, KIND_TEXT)
from repro.xmltree.node import DocumentNode, ElementNode
from repro.xmltree.nodetest import (AnyKindTest, ElementTest, NameTest,
                                    TextTest, WildcardTest)
from tests.support.nodes import made_nodes

TAGS = ("a", "b", "c")
ATTR_NAMES = ("id", "lang", "ref")


@st.composite
def random_documents(draw, max_depth=4):
    """A random document *with attributes and text nodes*."""

    def element(depth):
        spec = E(draw(st.sampled_from(TAGS)))
        for name in draw(st.lists(st.sampled_from(ATTR_NAMES),
                                  unique=True, max_size=3)):
            spec.attributes[name] = draw(st.text(alphabet="xyz0",
                                                 max_size=3))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.booleans()):
                    spec.children.append(element(depth + 1))
                else:
                    spec.children.append(draw(st.text(
                        alphabet="pq ", min_size=1, max_size=4)))
        return spec

    return build_document(element(0))


class TestColumnarInvariants:
    @settings(max_examples=60, deadline=None)
    @given(random_documents())
    def test_region_encoding_invariants(self, doc):
        columns = doc.columns
        n = columns.n
        assert n == doc.size
        # pre is dense (it IS the index); post is a permutation.
        assert sorted(columns.post) == list(range(n))
        for pre in range(n):
            # subtree intervals lie inside the parent's interval...
            assert pre <= columns.end[pre] < n
            parent = columns.parent[pre]
            if pre == 0:
                assert parent == -1 and columns.level[0] == 0
                assert columns.kind[0] == KIND_DOCUMENT
                continue
            # ...parent precedes child and level increments by one.
            assert 0 <= parent < pre
            assert columns.level[pre] == columns.level[parent] + 1
            assert columns.end[parent] >= columns.end[pre]
        # sibling subtree intervals are disjoint: children of one
        # parent never overlap.
        by_parent = {}
        for pre in range(1, n):
            by_parent.setdefault(columns.parent[pre], []).append(pre)
        for children in by_parent.values():
            previous_end = -1
            for pre in children:
                assert pre > previous_end
                previous_end = columns.end[pre]
        # validate() agrees these columns are sound.
        columns.validate()

    @settings(max_examples=60, deadline=None)
    @given(random_documents())
    def test_streams_sorted_and_complete(self, doc):
        columns = doc.columns
        for tag, stream in columns.tag_pres.items():
            assert list(stream) == sorted(stream)
            for pre in stream:
                assert columns.kind[pre] == KIND_ELEMENT
                assert columns.name_of(pre) == tag
        for name, stream in columns.attribute_pres.items():
            assert list(stream) == sorted(stream)
            for pre in stream:
                assert columns.kind[pre] == KIND_ATTRIBUTE
                assert columns.name_of(pre) == name
        assert sum(len(s) for s in columns.tag_pres.values()) == \
            len(columns.element_pres)
        assert [pre for pre in range(columns.n)
                if columns.kind[pre] == KIND_TEXT] == \
            list(columns.text_pres)

    @settings(max_examples=40, deadline=None)
    @given(random_documents())
    def test_columns_mirror_node_table(self, doc):
        columns = doc.columns
        for node in doc.nodes_by_pre:
            pre = node.pre
            assert columns.post[pre] == node.post
            assert columns.level[pre] == node.level
            assert columns.end[pre] == node.end
            expected_parent = node.parent.pre if node.parent else -1
            assert columns.parent[pre] == expected_parent
            assert columns.name_of(pre) == node.name

    @settings(max_examples=40, deadline=None)
    @given(random_documents())
    def test_test_matches_mirrors_nodetest(self, doc):
        columns = doc.columns
        tests = [NameTest("a"), NameTest("id"), WildcardTest(),
                 AnyKindTest(), TextTest(), ElementTest(),
                 ElementTest("b")]
        for node in doc.nodes_by_pre:
            for test in tests:
                for kind in ("element", "attribute"):
                    assert columns.test_matches(node.pre, test, kind) == \
                        test.matches(node, kind), (node, test, kind)

    @settings(max_examples=40, deadline=None)
    @given(random_documents())
    def test_attributes_of_matches_tree(self, doc):
        columns = doc.columns
        for node in doc.nodes_by_pre:
            if isinstance(node, ElementNode):
                assert list(columns.attributes_of(node.pre)) == \
                    [attribute.pre for attribute in node.attributes]


class TestClosedStore:
    def test_closed_store_without_a_tree_stays_a_typed_error(self,
                                                             tmp_path):
        path = tmp_path / "closed.rpxc"
        IndexedDocument.from_string("<a><b/></a>").save(path)
        opened = IndexedDocument.open(path)
        opened.close()
        for touch in (lambda: opened.root, lambda: opened.summary,
                      lambda: opened.columns):
            with pytest.raises(StorageError) as err:
                touch()
            assert err.value.context["check"] == "closed"


class TestFacade:
    XML = ('<site key="k1"><person id="p1"><name>John</name></person>'
           '<person id="p2"><name>Ada</name><note/></person></site>')

    def doc(self):
        return IndexedDocument.from_string(self.XML)

    def test_parsed_document_is_born_from_columns(self):
        doc = self.doc()
        assert made_nodes(doc) == 0
        built = build_document(
            E("site", E("person", E("name", "John"), id="p1"), key="k1"))
        assert made_nodes(built) == 0
        assert built.columns.n == 7

    def test_column_first_materializes_identical_tree(self):
        doc = self.doc()
        rebuilt = IndexedDocument(columns=doc.columns)
        assert serialize(rebuilt.root) == serialize(doc.root)
        assert [n.pre for n in rebuilt.nodes_by_pre] == \
            [n.pre for n in doc.nodes_by_pre]
        for ours, theirs in zip(rebuilt.nodes_by_pre, doc.nodes_by_pre):
            assert type(ours) is type(theirs)
            assert (ours.pre, ours.post, ours.level, ours.end) == \
                (theirs.pre, theirs.post, theirs.level, theirs.end)
        assert rebuilt.tag_pres is doc.tag_pres
        assert [n.pre for n in rebuilt.attribute_stream("id")] == \
            [n.pre for n in doc.attribute_stream("id")]

    def test_column_first_size_without_materialization(self):
        rebuilt = IndexedDocument(columns=self.doc().columns)
        assert rebuilt.size == len(self.doc().nodes_by_pre)
        # size did not force a single node into existence
        assert made_nodes(rebuilt) == 0

    def test_exactly_one_source_required(self):
        doc = self.doc()
        with pytest.raises(ValueError):
            IndexedDocument()
        with pytest.raises(ValueError):
            IndexedDocument(doc.root, columns=doc.columns)
        # A tree with no store behind it is not a document …
        by_hand = DocumentNode()
        by_hand.append_child(ElementNode("a"))
        with pytest.raises(ValueError, match="build_document"):
            IndexedDocument(by_hand)
        # … a parsed one stands for the columns it was parsed into.
        parsed = parse_xml(self.XML)
        assert IndexedDocument(parsed).columns is parsed._owner

    def test_engine_runs_on_column_first_document(self):
        rebuilt = IndexedDocument(columns=self.doc().columns)
        engine = Engine(rebuilt)
        got = [n.string_value()
               for n in engine.run("$input//person[note]/name")]
        assert got == ["Ada"]


class TestNodeAt:
    """Regression for the old positional-indexing assumption."""

    XML = ('<r a="1" b="2" c="3"><x d="4" e="5"><y/></x>'
           '<z f="6" g="7" h="8" i="9"/></r>')

    @pytest.fixture(params=["object", "columnar"])
    def doc(self, request):
        parsed = IndexedDocument.from_string(self.XML)
        if request.param == "object":
            return parsed
        return IndexedDocument(columns=parsed.columns)

    def test_attribute_heavy_lookup_is_exact(self, doc):
        # With 9 attributes interleaved into the numbering, every pre —
        # element or attribute — must come back as exactly that node.
        for node in list(doc.nodes_by_pre):
            assert doc.node_at(node.pre) is node

    def test_out_of_range_raises_keyerror(self, doc):
        size = doc.size
        for pre in (-1, -size, size, size + 7):
            with pytest.raises(KeyError):
                doc.node_at(pre)


class TestDistinctDocOrder:
    def test_ddo_dedupes_by_pre(self):
        from repro.xmltree import ddo
        doc = IndexedDocument.from_string("<a><b/><c/></a>")
        b = doc.stream("b")[0]
        c = doc.stream("c")[0]
        assert ddo([c, b, c, b, b]) == [b, c]
