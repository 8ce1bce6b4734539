"""Round-trip and idempotence properties."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.pattern import parse_pattern
from repro.rewrite import rewrite_to_tpnf
from repro.xmltree import IndexedDocument, parse_xml, serialize
from repro.xmltree.builder import E, build_document, write_xml
from repro.xqcore import alpha_canonical, normalize_query
from repro.xquery import parse_query
from repro.xquery.abbrev import resolve_abbreviations
from tests.support.nodes import written_reference

TAGS = ["a", "b", "c"]
ATTR_NAMES = ["id", "x"]
TEXTS = ["", "hello", "a & b", "<tag>", 'say "hi"', "  spaced  "]


@st.composite
def rich_trees(draw, max_depth=3):
    """Random element trees with attributes and text children."""

    def node(depth):
        tag = draw(st.sampled_from(TAGS))
        attributes = {}
        for name in ATTR_NAMES:
            if draw(st.booleans()):
                attributes[name] = draw(st.sampled_from(TEXTS))
        children = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 3))):
                if draw(st.booleans()):
                    children.append(node(depth + 1))
                else:
                    text = draw(st.sampled_from(TEXTS))
                    if text:
                        children.append(text)
        return E(tag, *children, **attributes)

    return node(0)


@settings(max_examples=80, deadline=None)
@given(rich_trees())
def test_serializer_parser_round_trip(tree):
    document = build_document(tree)
    text = serialize(document.root)
    assert text == write_xml(tree)
    reparsed = parse_xml(text)
    assert serialize(reparsed) == text
    # structure preserved: same node kinds in document order
    original = [node.kind for node in document.root.iter_descendants_or_self()]
    parsed = [node.kind for node in reparsed.iter_descendants_or_self()]
    assert parsed == original


@settings(max_examples=80, deadline=None)
@given(rich_trees())
def test_string_values_survive_round_trip(tree):
    document = build_document(tree)
    reparsed = parse_xml(serialize(document.root))
    assert reparsed.string_value() == document.root.string_value()


@settings(max_examples=60, deadline=None)
@given(rich_trees(), st.randoms(use_true_random=False))
def test_column_output_is_the_object_loop_output(tree, rng):
    """Every element's and the document's markup and string value, read
    in a random order from a parsed store, an mmap-opened one and one
    closed with copy-out, are what the object-side writer and the
    spec's strings give on an ``E`` copy of the same tree."""
    text = write_xml(tree)
    expected = written_reference(text)
    assert expected[0][0] == text
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "doc.rpxc")
        IndexedDocument.from_string(text).save(path)
        opened = IndexedDocument.open(path)
        closed = IndexedDocument.open(path)
        serialize(closed.node_at(rng.randrange(closed.size)))
        closed.close()
        try:
            for document in (IndexedDocument.from_string(text), opened,
                             closed):
                order = list(expected)
                rng.shuffle(order)
                for pre in order:
                    node = document.node_at(pre)
                    assert (serialize(node), node.string_value()) == \
                        expected[pre]
        finally:
            opened.close()


_QUERIES = [
    "$d//person[emailaddress]/name",
    "(for $x in $d//a return $x)/b",
    "for $x in $d/a, $y in $x/b where $y/c return $y",
    "let $v := $d//a return count($v)",
    "$d//a[b = 'x'][2]/c",
    "if ($d/a) then $d//b else ()",
    "some $x in $d//a satisfies $x/b",
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_QUERIES))
def test_rewrite_pipeline_idempotent(query):
    core = normalize_query(resolve_abbreviations(parse_query(query))).core
    once = rewrite_to_tpnf(core)
    twice = rewrite_to_tpnf(once)
    assert alpha_canonical(twice) == alpha_canonical(once)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_QUERIES))
def test_normalization_deterministic(query):
    first = alpha_canonical(
        normalize_query(resolve_abbreviations(parse_query(query))).core)
    second = alpha_canonical(
        normalize_query(resolve_abbreviations(parse_query(query))).core)
    assert first == second


_PATTERNS = [
    "IN#dot/descendant::person[child::emailaddress]/child::name{out}",
    "IN#x/descendant::a/child::c{y}[@id]/child::d{z}",
    "IN#d/child::a[2]{o}",
    "IN#d/descendant::a[child::b[child::c]]/child::e{o}",
    "IN#d/descendant-or-self::node()/child::t{o}",
]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_PATTERNS))
def test_pattern_print_parse_fixpoint(text):
    first = parse_pattern(text)
    second = parse_pattern(first.to_string())
    assert second.to_string() == first.to_string()
    assert second == first
