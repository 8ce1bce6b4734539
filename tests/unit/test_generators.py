"""The MemBeR-style and XMark-style document generators."""

import hashlib

import pytest

from repro.data import (XMARK_CHILD_DESCENDANT_PAIRS,
                        approximate_size_bytes, deep_member_document,
                        member_document, tag_name, xmark_document)
from repro.xmltree import serialize
from tests.support.nodes import made_nodes

GENERATORS = {"member": member_document, "deep": deep_member_document,
              "xmark": xmark_document}

#: (generator, positional, keyword arguments) → SHA-1 of the XML text,
#: written when the generators still built node trees.  The pairs the
#: test suites use and those of the benchmark suite's inputs (MemBeR
#: forest blocks, the §5.3 document, XMark at both committed seeds), so
#: the recorded golden bytes and expected answers stay valid.
PINNED = {
    ("member", (600,), (("depth", 5), ("tag_count", 4), ("seed", 7))):
        "2c15505e153273b1e4a90ad0590d7ce6ab6711f2",
    ("member", (250,), (("depth", 5), ("tag_count", 3), ("seed", 0))):
        "079cf5b8e66ec8e235b9c5321ac95e03850b1c50",
    ("member", (5000,), (("depth", 4), ("tag_count", 100), ("seed", 5))):
        "c25bbbf16014831235c79e30ccee767671457567",
    ("member", (200,), (("depth", 5), ("tag_count", 6),
                        ("seed", 20070415 * 100003))):
        "693912c8fe0e0548b5caea16503334719e459862",
    ("member", (200,), (("depth", 5), ("tag_count", 6),
                        ("seed", 19992001 * 100003 + 99))):
        "1511473ca0f978ff1e5fb6a1ad18ae0ccd6b2d7b",
    ("deep", (3000,), (("depth", 15),)):
        "746831cff44374eefc415132edc33ca3d2f0d654",
    ("deep", (2000,), (("depth", 10),)):
        "06f5bd1ada7c343e0852ee86ffa667bddfb20fbf",
    ("deep", (20000,), (("depth", 15),)):
        "662144ac74251137cf90a8e88cb76b7855998fd4",
    ("xmark", (40,), (("seed", 11),)):
        "e43fd411f9ac0f781acbd8140c13d28274edcdf0",
    ("xmark", (400,), (("seed", 11),)):
        "f79e0f6220c561d6214cd91735c60af494a7035f",
    ("xmark", (30,), (("seed", 5),)):
        "29c616d68822703517540d5038606b274f56fc83",
    ("xmark", (400,), (("seed", 20070416),)):
        "6dc78e76f157a5add896481b906f8658b3dfd5d7",
    ("xmark", (200,), (("seed", 19992002),)):
        "ca12ad579e332f5c1b11208a2b467e1105a10a58",
    ("xmark", (60,), (("seed", 19992001),)):
        "ad1e2bd1c743814fbe4609cd1047660a236dad29",
    ("xmark", (20,), (("seed", 20070418),)):
        "18d7432c3bb2a72c690a4cda19814797f766e6c1",
    ("xmark", (15,), (("seed", 20070425),)):
        "1169d2d04c3ee966a7c04f66cf06ce8da07384b6",
    ("xmark", (30,), (("seed", 4), ("email_probability", 0.0))):
        "b247abfe234f5912d9712a95f25a6e2db0d1595a",
}


class TestPinned:
    @pytest.mark.parametrize("case", list(PINNED),
                             ids=lambda case: "-".join(
                                 [case[0], str(case[1][0])]
                                 + [f"{name}{value}"
                                    for name, value in case[2]]))
    def test_generated_text_is_pinned_and_makes_no_node(self, case):
        kind, args, kwargs = case
        document = GENERATORS[kind](*args, **dict(kwargs))
        assert made_nodes(document) == 0
        approximate_size_bytes(document)
        assert made_nodes(document) == 0
        text = serialize(document.root)
        assert hashlib.sha1(text.encode("utf-8")).hexdigest() == PINNED[case]


class TestMemBeR:
    def test_node_count_exact(self):
        doc = member_document(500, depth=4, tag_count=10, seed=1)
        elements = doc.all_elements()
        assert len(elements) == 500

    def test_depth_bounded(self):
        doc = member_document(2000, depth=4, tag_count=10, seed=2)
        max_level = max(node.level for node in doc.all_elements())
        assert max_level <= 4

    def test_tags_within_range(self):
        doc = member_document(500, depth=4, tag_count=7, seed=3)
        tags = {node.name for node in doc.all_elements()}
        allowed = {tag_name(index) for index in range(1, 8)}
        assert tags <= allowed

    def test_tags_roughly_uniform(self):
        doc = member_document(5000, depth=6, tag_count=5, seed=4)
        counts = {tag: len(doc.stream(tag))
                  for tag in (tag_name(i) for i in range(1, 6))}
        expected = 5000 / 5
        for tag, count in counts.items():
            assert 0.6 * expected < count < 1.4 * expected, (tag, count)

    def test_deterministic(self):
        doc1 = member_document(300, seed=42)
        doc2 = member_document(300, seed=42)
        assert [n.name for n in doc1.all_elements()] == \
            [n.name for n in doc2.all_elements()]

    def test_different_seeds_differ(self):
        doc1 = member_document(300, seed=1)
        doc2 = member_document(300, seed=2)
        assert [n.name for n in doc1.all_elements()] != \
            [n.name for n in doc2.all_elements()]

    def test_root_is_t01(self):
        doc = member_document(50, seed=5)
        assert doc.root.document_element.name == tag_name(1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            member_document(0)

    def test_size_estimate_positive(self):
        doc = member_document(100, seed=6)
        assert approximate_size_bytes(doc) > 100


class TestDeepMemBeR:
    def test_single_tag(self):
        doc = deep_member_document(500, 10)
        assert all(node.name == "t1" for node in doc.all_elements())

    def test_node_count(self):
        doc = deep_member_document(500, 10)
        assert len(doc.all_elements()) == 500

    def test_reaches_depth(self):
        doc = deep_member_document(2000, 12)
        assert max(node.level for node in doc.all_elements()) >= 12

    def test_first_child_chain_long_enough(self):
        """(/t1[1])^k needs a first-child chain of length ≥ depth."""
        doc = deep_member_document(2000, 12)
        node = doc.root.document_element
        length = 1
        while node.children:
            node = node.children[0]
            length += 1
        assert length >= 12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            deep_member_document(0)


class TestXMark:
    def test_schema_shape(self):
        doc = xmark_document(30, seed=1)
        site = doc.root.document_element
        assert site.name == "site"
        top = [child.name for child in site.children]
        assert top == ["regions", "categories", "catgraph", "people",
                       "open_auctions", "closed_auctions"]

    def test_person_count(self):
        doc = xmark_document(30, seed=2)
        assert len(doc.stream("person")) == 30

    def test_person_structure(self):
        doc = xmark_document(50, seed=3)
        for person in doc.stream("person"):
            names = [child.name for child in person.children]
            assert names[0] == "name"
            assert person.get_attribute("id") is not None

    def test_email_probability_extremes(self):
        all_email = xmark_document(30, seed=4, email_probability=1.0)
        assert len(all_email.stream("emailaddress")) == 30
        no_email = xmark_document(30, seed=4, email_probability=0.0)
        assert len(no_email.stream("emailaddress")) == 0

    def test_items_scale(self):
        doc = xmark_document(30, seed=5)
        assert len(doc.stream("item")) == 60

    def test_deterministic(self):
        doc1 = xmark_document(20, seed=9)
        doc2 = xmark_document(20, seed=9)
        assert [n.pre for n in doc1.stream("interest")] == \
            [n.pre for n in doc2.stream("interest")]

    def test_figure6_pairs_equivalent(self):
        from repro import Engine
        engine = Engine(xmark_document(40, seed=6))
        for name, child_form, descendant_form in XMARK_CHILD_DESCENDANT_PAIRS:
            child_result = [n.pre for n in engine.run(child_form)]
            descendant_result = [n.pre for n in engine.run(descendant_form)]
            assert child_result == descendant_result, name
            assert child_result, f"{name} returned nothing"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            xmark_document(0)
