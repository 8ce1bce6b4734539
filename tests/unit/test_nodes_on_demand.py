"""Nodes on demand: a parsed or opened document makes the nodes a
caller reaches, once each, and they are what an eagerly built tree
holds.

The allocation gate (``TestAllocation``) is also run by the CI
``columnar`` job next to the XMark save/open round trip.
"""

import gc
import random
import sys
import threading
import tracemalloc

import pytest

from repro import Engine, IndexedDocument
from repro.data import deep_member_document, xmark_document
from repro.xmltree import (AttributeNode, DocumentNode, ElementNode,
                           StorageError, TextNode, parse_xml, serialize)
from repro.xmltree.node import Node
from tests.support.make_golden import reference_engines
from tests.support.nodes import dump_nodes, made_nodes

QUERY = "$input//person/name"


def live_nodes() -> int:
    return sum(isinstance(item, Node) for item in gc.get_objects())


class TestAllocation:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("on_demand") / "site.rpxc"
        document = xmark_document(400, seed=11)
        document.save(path)
        return document.size, str(path)

    def test_query_on_an_opened_file_allocates_for_its_result(self, saved):
        """45 625 nodes on disk, 400 rows: what is allocated follows the
        rows (14 MB when the whole tree was built at the first row), and
        serializing or atomizing them makes no node — their markup and
        text come from the columns."""
        size, path = saved
        gc.collect()
        before = live_nodes()
        tracemalloc.start()
        try:
            engine = Engine.from_columnar_file(path)
            rows = engine.run(QUERY)
            made = made_nodes(engine.document)
            text = "\n".join(serialize(row) for row in rows)
            values = [row.string_value() for row in rows]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert len(rows) == 400 and text.count("<name>") == 400
            # The piece table, one slot per node, is 365 KB of this.
            assert peak < 1_300_000
            ancestors = {id(above) for row in rows
                         for above in row.iter_ancestors()}
            # The rows and the shells above them; nothing below a row.
            assert made == len(rows) + len(ancestors) == 803
            assert made_nodes(engine.document) == made
            assert text == "\n".join(f"<name>{value}</name>"
                                     for value in values)
            assert live_nodes() - before == made
            assert made < size // 50
        finally:
            engine.document.close()

    @pytest.mark.parametrize("strategy", ["auto", "cost"])
    def test_choosers_estimate_from_the_columns(self, saved, strategy):
        """AUTO and COST size the streams they would read from the tag
        streams' lengths, so with the flat statistics (no summary) too
        the rows and their ancestors are all that is made."""
        _, path = saved
        engine = Engine.from_columnar_file(path, use_summary=False)
        try:
            rows = engine.run(QUERY, strategy=strategy)
            ancestors = {id(above) for row in rows
                         for above in row.iter_ancestors()}
            assert len(rows) == 400
            assert made_nodes(engine.document) == \
                len(rows) + len(ancestors) == 803
        finally:
            engine.document.close()

    @pytest.mark.parametrize("query", ["$input//*[name]",
                                       "$input//person/@*",
                                       "$input//person/name"])
    def test_stacktree_makes_no_more_nodes_than_scjoin(self, saved, query):
        """StackTree joins on ``pre`` streams as SCJoin does: the
        wildcard and ``node()`` streams are columns too, so the rows
        and their ancestors are all it makes."""
        _, path = saved
        made = {}
        for strategy in ("scjoin", "stacktree"):
            engine = Engine.from_columnar_file(path)
            try:
                rows = engine.run(query, strategy=strategy)
                made[strategy] = made_nodes(engine.document)
            finally:
                engine.document.close()
        assert rows
        assert made["stacktree"] <= made["scjoin"], made

    def test_reporting_pre_numbers_expands_nothing(self, saved):
        """What a cluster worker does with its rows: no element's
        content is read, so every node made is a leaf or a shell."""
        _, path = saved
        engine = Engine.from_columnar_file(path)
        try:
            pres = [row.pre for row in engine.run(QUERY)]
            assert len(pres) == 400
            made = [node for node in engine.document.columns.nodes
                    if node is not None]
            assert not any(type(node) in (ElementNode, DocumentNode)
                           for node in made)
        finally:
            engine.document.close()

    def test_reached_nodes_are_plain_nodes(self, saved):
        """After one pass over a result, a second pass reads slots of
        ``ElementNode``/``TextNode``/``AttributeNode`` and nothing
        else: no shell is left on the way."""
        _, path = saved
        engine = Engine.from_columnar_file(path)
        try:
            rows = engine.run("$input//person[@id]")
            stack = list(rows)
            while stack:
                stack.extend(stack.pop().children)
            for row in rows:
                for node in row.iter_descendants_or_self():
                    assert type(node) in (ElementNode, TextNode)
                    for attribute in getattr(node, "attributes", ()):
                        assert type(attribute) is AttributeNode
        finally:
            engine.document.close()


class TestIdentity:
    XML = ("<r>" + "".join(
        f'<s id="{index}"><t>{index}</t><u a="1" b="2"><v/>x</u></s>'
        for index in range(120)) + "</r>")

    def test_one_object_per_pre(self):
        document = IndexedDocument.from_string(self.XML)
        deep = document.node_at(document.size - 2)
        assert document.node_at(deep.pre) is deep
        # Reached from below first, then from above: the same objects.
        chain = [deep] + list(deep.iter_ancestors())
        assert chain[-1] is document.root
        for below, above in zip(chain, chain[1:]):
            assert any(child is below for child in above.children)
        assert document.nodes_by_pre[deep.pre] is deep
        assert all(document.node_at(node.pre) is node
                   for node in document.root.iter_descendants())

    def test_concurrent_first_touches_agree(self):
        """Eight threads ask for overlapping regions of one fresh
        document by ``node_at``, ``children`` and ``parent``."""
        document = IndexedDocument.from_string(self.XML)
        size = document.size
        barrier = threading.Barrier(8)
        seen = [dict() for _ in range(8)]
        errors = []

        def touch(slot):
            rng = random.Random(slot)
            mine = seen[slot]
            try:
                barrier.wait(timeout=10)
                for _ in range(400):
                    node = document.node_at(rng.randrange(size))
                    mine[node.pre] = node
                    for child in node.children:
                        mine[child.pre] = child
                        assert child.parent is node
                    for attribute in getattr(node, "attributes", ()):
                        mine[attribute.pre] = attribute
                        assert attribute.parent is node
                    if node.parent is not None:
                        mine[node.parent.pre] = node.parent
            except Exception as err:    # pragma: no cover - reported below
                errors.append(err)

        threads = [threading.Thread(target=touch, args=(slot,))
                   for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads inside the misses
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        table = document.columns.nodes
        for mine in seen:
            assert mine
            for pre, node in mine.items():
                assert node is table[pre] and node.pre == pre
        # Nobody lost a child to a race: the tree is the parsed text.
        assert serialize(document.root) == self.XML


#: the documents of the golden corpus, which are those the generated
#: queries of ``tests.support.qgen`` run on, and two shapes they lack.
DOCUMENTS = {
    "member": lambda: reference_engines()["member"].document,
    "xmark": lambda: reference_engines()["xmark"].document,
    "deep": lambda: deep_member_document(120, depth=15),
    "attributes": lambda: IndexedDocument(parse_xml(
        '<a x="1" y="2">t<b z="3"/>u<c><d w="4">v</d></c></a>')),
}


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_any_order_of_reaching_gives_the_eager_tree(self, name,
                                                        tmp_path):
        """Nodes reached in a random order of ``node_at``, ``children``,
        ``attributes``, ``parent`` and ``iter_descendants`` are, field
        by field, the nodes of the tree built in one go; and the three
        ways into an engine serialize the same bytes."""
        reference = DOCUMENTS[name]()
        text = serialize(reference.root)
        expected = dump_nodes(IndexedDocument.from_string(text).root)
        path = tmp_path / "doc.rpxc"
        reference.save(path)
        opened = IndexedDocument.open(path)
        try:
            for seed, document in enumerate(
                    (IndexedDocument.from_string(text), opened)):
                rng = random.Random(seed)
                for _ in range(min(document.size, 300)):
                    node = document.node_at(rng.randrange(document.size))
                    move = rng.randrange(5)
                    if move == 0:
                        list(node.children)
                    elif move == 1:
                        list(getattr(node, "attributes", ()))
                    elif move == 2 and node.parent is not None:
                        list(node.parent.children)
                    elif move == 3 and node.end - node.pre < 200:
                        list(node.iter_descendants())
                assert dump_nodes(document.root) == expected
            rendered = {
                serialize(engine.document.root)
                for engine in (Engine.from_xml(text),
                               Engine.from_columnar_file(str(path)),
                               Engine(reference))}
            assert rendered == {text}
        finally:
            opened.close()

    def test_parsed_root_stands_for_its_columns(self):
        """``IndexedDocument(parse_xml(text))`` is the document
        ``from_string`` gives: the root is a view of the parsed columns,
        not a tree to walk."""
        root = parse_xml("<a><b>t</b><c x='1'/></a>")
        document = IndexedDocument(root)
        assert document.root is root
        assert document.columns is root._owner
        assert made_nodes(document) == 1
        assert [n.string_value() for n in Engine(document).run(
            "$input//b")] == ["t"]


class TestClose:
    XML = "<a><b>t</b><c x='1'><d/></c></a>"

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "doc.rpxc"
        IndexedDocument.from_string(self.XML).save(path)
        return str(path)

    def test_closed_before_any_node_stays_closed(self, path):
        opened = IndexedDocument.open(path)
        opened.summary
        opened.close()
        for touch in (lambda: opened.root, lambda: opened.size,
                      lambda: opened.columns, lambda: opened.node_at(1),
                      lambda: opened.nodes_by_pre,
                      lambda: opened.all_elements(),
                      lambda: opened.attribute_stream("x"),
                      lambda: opened.stream("b"),
                      lambda: opened.save(path + ".again")):
            with pytest.raises(StorageError) as err:
                touch()
            assert err.value.code == "REPRO-STORAGE"
            assert err.value.context["check"] == "closed"
        opened.close()      # and closing twice is nothing

    def test_closed_after_a_node_goes_on_in_memory(self, path):
        opened = IndexedDocument.open(path)
        held = opened.node_at(4)        # <c>, unexpanded
        assert opened.columns.is_mapped
        opened.close()
        assert not opened.columns.is_mapped
        # The node handed out expands from the copied columns …
        assert serialize(held) == '<c x="1"><d/></c>'
        assert held.parent.parent is opened.root
        # … and the document answers, saves and summarises as before.
        assert opened.size == 7
        assert serialize(opened.root) == self.XML.replace("'", '"')
        engine = Engine(opened)
        assert [serialize(n) for n in engine.run("$input//c/@x/..")] == \
            ['<c x="1"><d/></c>']
        assert engine.run("$input//c")[0] is held
        opened.save(path + ".again")
        again = IndexedDocument.open(path + ".again")
        try:
            assert serialize(again.root) == serialize(opened.root)
        finally:
            again.close()

    def test_close_unmaps_at_once(self, path):
        """The stream dicts of an opened document are views on the map;
        ``close`` lets go of them first, so the map is closed then and
        not when the collector gets to them."""
        opened = IndexedDocument.open(path)
        held = opened.stream("b")[0]
        Engine(opened).run("$input//c[@x]/d")
        source = opened.columns._source
        opened.close()
        assert source.closed
        assert held.string_value() == "t"
        assert [node.pre for node in opened.attribute_stream("x")] == [5]

    def test_a_parsed_document_has_nothing_to_close(self):
        document = IndexedDocument.from_string(self.XML)
        document.close()
        assert document.size == 7
        assert serialize(document.root) == self.XML.replace("'", '"')
