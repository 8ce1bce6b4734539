"""Property-based tests on the XML tree substrate."""

from hypothesis import given, settings, strategies as st

from repro.xmltree import (Axis, E, IndexedDocument, axis_nodes,
                           build_document, ddo, parse_xml, serialize)
from tests.support.nodes import check_parser_numbering

TAGS = ["a", "b", "c"]


@st.composite
def element_trees(draw, max_depth=4):
    """A random element tree as nested lists."""

    def node(depth):
        tag = draw(st.sampled_from(TAGS))
        if depth >= max_depth:
            return (tag, [])
        children = draw(st.lists(st.deferred(lambda: st.just(None)),
                                 max_size=0))  # placeholder, see below
        child_count = draw(st.integers(min_value=0, max_value=3))
        return (tag, [node(depth + 1) for _ in range(child_count)])

    return node(0)


def build(tree) -> IndexedDocument:
    def construct(spec):
        tag, children = spec
        return E(tag, *(construct(child) for child in children))

    return build_document(construct(tree))


@settings(max_examples=60, deadline=None)
@given(element_trees())
def test_region_encoding_invariants(tree):
    doc = build(tree)
    nodes = doc.nodes_by_pre
    # pre numbers are dense and sorted
    assert [node.pre for node in nodes] == list(range(len(nodes)))
    for node in nodes:
        # the subtree interval covers exactly the descendants
        descendants = {d.pre for d in node.iter_descendants()}
        interval = set(range(node.pre + 1, node.end + 1))
        assert descendants == interval
        # level is parent's level + 1
        if node.parent is not None:
            assert node.level == node.parent.level + 1


@settings(max_examples=60, deadline=None)
@given(element_trees())
def test_containment_matches_interval(tree):
    doc = build(tree)
    elements = doc.all_elements()
    for outer in elements[:10]:
        for inner in elements[:10]:
            structural = inner in list(outer.iter_descendants())
            assert outer.contains(inner) == structural


@settings(max_examples=60, deadline=None)
@given(element_trees())
def test_axes_partition_document(tree):
    """self ∪ ancestors ∪ descendants ∪ preceding ∪ following covers
    every non-attribute node exactly once (the classic XPath axiom)."""
    doc = build(tree)
    everything = {node.pre for node in doc.nodes_by_pre}
    for node in doc.all_elements()[:6]:
        parts = {
            "self": {node.pre},
            "ancestor": {n.pre for n in axis_nodes(node, Axis.ANCESTOR)},
            "descendant": {n.pre for n in axis_nodes(node, Axis.DESCENDANT)},
            "preceding": {n.pre for n in axis_nodes(node, Axis.PRECEDING)},
            "following": {n.pre for n in axis_nodes(node, Axis.FOLLOWING)},
        }
        union = set()
        total = 0
        for name, part in parts.items():
            union |= part
            total += len(part)
        assert union == everything
        assert total == len(everything)  # pairwise disjoint


@settings(max_examples=60, deadline=None)
@given(element_trees())
def test_serialize_parse_round_trip(tree):
    doc = build(tree)
    text = serialize(doc.root)
    reparsed = parse_xml(text)
    assert serialize(reparsed) == text
    assert len(list(reparsed.iter_descendants_or_self())) == \
        len(list(doc.root.iter_descendants_or_self()))


@settings(max_examples=60, deadline=None)
@given(element_trees(), st.lists(st.integers(min_value=0, max_value=30),
                                 max_size=20))
def test_ddo_properties(tree, picks):
    doc = build(tree)
    elements = doc.all_elements()
    selection = [elements[i % len(elements)] for i in picks]
    result = ddo(selection)
    pres = [node.pre for node in result]
    assert pres == sorted(set(pres))
    assert set(pres) == {node.pre for node in selection}
    assert ddo(result) == result  # idempotent


@settings(max_examples=40, deadline=None)
@given(element_trees())
def test_streams_cover_all_elements(tree):
    doc = build(tree)
    total = sum(len(doc.stream(tag)) for tag in TAGS)
    assert total == len(doc.all_elements())


# -- the parser numbers as assign_regions does --------------------------------

_CHARACTER_DATA = st.one_of(
    st.text(alphabet="xy z\n", min_size=1, max_size=5),
    st.sampled_from([" ", "\n  ", "&lt;", "&amp;", "&#65;", "&#x42;",
                     "<![CDATA[<&>]]>", "<![CDATA[]]>", "<!-- c -->",
                     "<?pi d?>"]))


@st.composite
def xml_texts(draw, max_depth=4):
    """Well-formed XML text with mixed content, attributes, CDATA,
    comments, PIs, references and whitespace-only text."""

    def element(depth):
        tag = draw(st.sampled_from(TAGS + ["n:s", "_u"]))
        attributes = "".join(
            f"{draw(st.sampled_from([' ', chr(10), '  ']))}{name}="
            f"{quote}{draw(st.sampled_from(['', 'v', '&quot;', '&lt;']))}"
            f"{quote}"
            for name, quote in zip(
                draw(st.lists(st.sampled_from(["i", "j", "k:l"]),
                              unique=True, max_size=3)),
                "\"'\""))
        head = f"<{tag} {attributes}".rstrip() if attributes else f"<{tag}"
        if depth >= max_depth or draw(st.integers(0, 3)) == 0:
            return head + draw(st.sampled_from(["/>", " />"]))
        content = "".join(
            element(depth + 1) if draw(st.booleans())
            else draw(_CHARACTER_DATA)
            for _ in range(draw(st.integers(0, 4))))
        return f"{head}>{content}</{tag}{draw(st.sampled_from(['', ' ']))}>"

    prolog = draw(st.sampled_from(
        ["", "<?xml version='1.0'?>\n", "<!DOCTYPE a [<!ELEMENT a ANY>]>",
         "<!-- lead -->\n"]))
    return prolog + element(0) + draw(st.sampled_from(["", "\n", "<!--t-->"]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(xml_texts())
def test_parser_numbering_is_assign_regions_numbering(text):
    check_parser_numbering(text)
