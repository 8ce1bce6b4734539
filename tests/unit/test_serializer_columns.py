"""Serialization from the columns.

An element or document of a parsed or opened document is written from
its store's piece table (:mod:`repro.xmltree.serializer`) and its string
value read from the text column.  Both must give what the object-side
writer (:func:`repro.xmltree.write_xml`) and the spec's strings give on
an :class:`~repro.xmltree.E` copy of the same tree, in any order of
first output, make no node below the one asked for, and be safe to
fill from many threads.

Also run by the CI ``columnar-smoke`` job next to the allocation gate.
"""

import random
import sys
import threading

import pytest

from repro import IndexedDocument
from repro.data import xmark_document
from repro.xmltree import parse_xml, serialize, write_xml
from tests.support.nodes import made_nodes, spec_of, written_reference

reference = written_reference


def check_in_order(text, order):
    """A fresh parsed store writes each node of ``order``, first output
    in that order, as the writer does on the copy; the nodes made are
    the ones asked for and their ancestors."""
    expected = reference(text)
    document = IndexedDocument.from_string(text)
    reached = set()
    for pre in order:
        node = document.node_at(pre)
        reached.update(above.pre for above in node.iter_ancestors())
        reached.add(pre)
        assert (serialize(node), node.string_value()) == expected[pre]
        assert made_nodes(document) == len(reached)
    return document


CASES = {
    # <b> has only an attribute, and its region closes <a>'s too.
    "attribute-only": '<a><b x="1"/></a>',
    "attribute-only-deeper": '<a><b><c y="2" z="3"/></b><d/></a>',
    # <d>'s text is the last pre of <d>, <c>, <b> and <a>.
    "ancestors-end-here": "<a><b><c><d>t</d></c></b></a>",
    "empty-ancestors-end-here": "<a><b><c><d/></c></b></a>",
    "mixed": "<a>one<b>two<c/></b>three<d x='&amp;'>4</d></a>",
    "escapes": ('<a b="x&#10;y&#9;z&#13;w &amp;&lt;&gt;&quot;">'
                't&#13;u\nv\tw &amp;&lt;&gt;"<c d="&#9;"/>&amp;</a>'),
}


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_node_in_document_order(self, name):
        text = CASES[name]
        check_in_order(text, sorted(reference(text)))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_node_inside_out(self, name):
        """Inner regions first: an outer fill skips what is written."""
        text = CASES[name]
        check_in_order(text, sorted(reference(text), reverse=True))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_orders_on_xmark(self, seed):
        text = serialize(xmark_document(8, seed=seed).root)
        order = sorted(reference(text))
        random.Random(seed).shuffle(order)
        check_in_order(text, order)

    def test_the_document_node(self):
        text = CASES["mixed"]
        document = IndexedDocument.from_string(text)
        assert serialize(document.root) == text.replace("'", '"')
        assert document.root.string_value() == "onetwothree4"
        assert made_nodes(document) == 1

    def test_escapes_are_the_object_loops(self):
        document = IndexedDocument.from_string(CASES["escapes"])
        assert serialize(document.root) == CASES["escapes"]
        element = document.node_at(1)
        assert element.string_value() == 't\ru\nv\tw &<>"&'

    def test_a_depth_5000_chain(self):
        depth = 5000
        text = ("".join(f'<a i="{level}">' for level in range(depth))
                + "x&amp;" + "</a>" * depth)
        document = IndexedDocument.from_string(text)
        # pre 1 + 2·level is the element at that level; all of them
        # end at the text, the last pre.
        middle = document.node_at(1 + 2 * (depth // 2))
        assert serialize(middle) == \
            text[text.index(f'<a i="{depth // 2}">'):-4 * (depth // 2)]
        assert serialize(document.root) == text
        assert middle.string_value() == "x&"
        assert made_nodes(document) == depth // 2 + 2
        assert write_xml(spec_of(parse_xml(text))) == text

    def test_a_tree_with_no_store_is_not_serialized(self):
        """A tree put together by hand has no pieces to write from."""
        from repro.xmltree import DocumentNode, ElementNode
        document = DocumentNode()
        document.append_child(ElementNode("a"))
        for node in (document, document.children[0]):
            with pytest.raises(TypeError):
                serialize(node)


class TestSharedTable:
    def test_warm_output_reuses_the_pieces(self):
        document = IndexedDocument.from_string(
            "<r>" + "<p><n>x</n></p>" * 50 + "</r>")
        first = [serialize(node) for node in document.stream("p")]
        pieces = list(document.columns.pieces)
        assert [serialize(node) for node in document.stream("p")] == first
        assert all(ours is theirs for ours, theirs
                   in zip(document.columns.pieces, pieces))
        # Element pieces are interned: one string per distinct tag.
        opening = {id(document.columns.pieces[node.pre])
                   for node in document.stream("p")}
        assert len(opening) == 1

    def test_concurrent_first_output_agrees(self):
        """Eight threads write random, overlapping subtrees of one fresh
        parsed document: every string is the single-threaded one, so
        no reader saw a half-filled region."""
        text = serialize(xmark_document(30, seed=5).root)
        expected = reference(text)
        pres = sorted(expected)
        # Regions large enough that a fill is switched away from midway
        # while other threads read inside them.
        large = [pre for pre in pres
                 if len(expected[pre][0]) > len(text) // 20]
        for round_ in range(16):
            document = IndexedDocument.from_string(text)
            barrier = threading.Barrier(8)
            wrong = []
            errors = []

            def write(slot):
                rng = random.Random(8 * round_ + slot)
                try:
                    barrier.wait(timeout=10)
                    for _ in range(40):
                        pre = rng.choice(large if slot % 2 else pres)
                        if serialize(document.node_at(pre)) != \
                                expected[pre][0]:
                            wrong.append(pre)
                except Exception as err:    # pragma: no cover - reported
                    errors.append(err)

            threads = [threading.Thread(target=write, args=(slot,))
                       for slot in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)     # switch inside the fills
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not errors and not wrong
            assert not any(thread.is_alive() for thread in threads)
            assert serialize(document.root) == text
