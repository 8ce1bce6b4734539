"""Property: NLJoin, TwigJoin and SCJoin agree on random patterns
against random documents (NLJoin is the executable specification)."""

from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.data import member_document, xmark_document
from repro.pattern import PatternPath, PatternStep, TreePattern, parse_pattern
from repro.physical import (NLJoin, Run, StackTreeJoin, StaircaseJoin,
                            Strategy, StreamingXPath, TwigJoin,
                            make_algorithm)
from repro.xmltree.axes import Axis
from repro.xmltree.nodetest import NameTest, WildcardTest

from tests.support import qgen

NL, TJ, SC = NLJoin(), TwigJoin(), StaircaseJoin()
STREAM = StreamingXPath()
STACK = StackTreeJoin()

_DOCS = {seed: member_document(250, depth=5, tag_count=3, seed=seed)
         for seed in range(4)}

_AXES = [Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF]


@st.composite
def pattern_paths(draw, depth=0):
    steps = []
    step_count = draw(st.integers(min_value=1, max_value=3))
    for position in range(step_count):
        axis = draw(st.sampled_from(_AXES))
        if draw(st.booleans()):
            test = NameTest(draw(st.sampled_from(["t01", "t02", "t03"])))
        else:
            test = WildcardTest()
        predicates = ()
        if depth < 1 and draw(st.integers(0, 3)) == 0:
            branch = draw(pattern_paths(depth=depth + 1))
            predicates = (branch.strip_outputs(),)
        output = "o" if position == step_count - 1 else None
        steps.append(PatternStep(axis=axis, test=test,
                                 predicates=predicates,
                                 output_field=output))
    return PatternPath(tuple(steps))


@st.composite
def single_output_patterns(draw):
    path = draw(pattern_paths())
    # strip outputs inside predicates, keep the extraction point
    return TreePattern("dot", path.strip_outputs()).path.replace_last(
        draw(st.just(path.last)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(_DOCS)), pattern_paths(),
       st.integers(min_value=0, max_value=200))
def test_match_single_agreement(seed, path, context_pick):
    doc = _DOCS[seed]
    elements = doc.all_elements()
    context = elements[context_pick % len(elements)]
    expected = NL.match_single(doc, [context], path)
    assert TJ.match_single(doc, [context], path) == expected
    assert SC.match_single(doc, [context], path) == expected
    assert STREAM.match_single(doc, [context], path) == expected
    assert STACK.match_single(doc, [context], path) == expected


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(list(_DOCS)), pattern_paths(),
       st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=5))
def test_match_single_multi_context_agreement(seed, path, picks):
    doc = _DOCS[seed]
    elements = doc.all_elements()
    contexts = sorted({elements[p % len(elements)] for p in picks},
                      key=lambda node: node.pre)
    expected = NL.match_single(doc, contexts, path)
    assert TJ.match_single(doc, contexts, path) == expected
    assert SC.match_single(doc, contexts, path) == expected
    assert STREAM.match_single(doc, contexts, path) == expected
    assert STACK.match_single(doc, contexts, path) == expected
    # results are always distinct-doc-ordered
    pres = [node.pre for node in expected]
    assert pres == sorted(set(pres))


#: few tags over many levels: most of a region's entries of a tag lie
#: below another entry of that tag, which is what the child join skips.
_NESTED_DOCS = [member_document(400, depth=9, tag_count=tags, seed=seed)
                for tags, seed in ((1, 3), (2, 4), (2, 5))]


@st.composite
def child_paths(draw):
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["t01", "t02", None]),
                  st.sampled_from([None, None, 1, 2])),
        min_size=1, max_size=5))
    return PatternPath(tuple(
        PatternStep(axis=Axis.CHILD,
                    test=WildcardTest() if tag is None else NameTest(tag),
                    position=position,
                    output_field="o" if index == len(steps) - 1 else None)
        for index, (tag, position) in enumerate(steps)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_NESTED_DOCS), child_paths(),
       st.lists(st.integers(min_value=0, max_value=399), min_size=1,
                max_size=4))
def test_child_skipping_agrees_with_navigation(doc, path, picks):
    """One context, few far apart, nested ones: the skipping child join
    finds the children NLJoin walks to."""
    elements = doc.all_elements()
    contexts = sorted({elements[p % len(elements)] for p in picks},
                      key=lambda node: node.pre)
    expected = NL.match_single(doc, contexts, path)
    assert SC.match_single(doc, contexts, path) == expected
    for context in contexts:
        assert SC.match_single(doc, [context], path) \
            == NL.match_single(doc, [context], path)


# -- evaluate_each over the generated-query pattern stream ---------------------

_EACH_ENGINE = Engine(member_document(600, depth=5, tag_count=4, seed=7))


def _sample_contexts(document):
    """Every 23rd node of any kind, out of order, plus the document
    node and a repeat: nested, adjacent and unrelated regions."""
    nodes = document.nodes_by_pre[::23]
    return nodes[1::2] + [document.root] + nodes[::2] + nodes[5:8]


def _disjoint(contexts):
    """The contexts sorted, each kept unless an earlier kept one's
    region holds it: the batch SCJoin walks once."""
    kept = []
    for node in sorted(contexts, key=lambda node: node.pre):
        if not kept or kept[-1].end < node.pre:
            kept.append(node)
    return kept


#: A document with text nodes, for the hand-written batch patterns.
_TEXT_DOCUMENT = xmark_document(person_count=5, seed=3)

#: One-step ``child`` and ``descendant`` patterns, which SCJoin answers
#: from one walk however the batch nests, over a name, ``*``, ``node()``
#: and ``text()``, each with and without a branch; then a two-step, a
#: ``descendant-or-self`` and a positional pattern, which keep the
#: walk per layer of nesting contexts.
_BATCH_PATTERNS = [
    f"IN#x/{axis}::{test}{branch}{{o}}"
    for axis in ("child", "descendant")
    for test, predicate in (("name", "[child::text()]"),
                            ("*", "[attribute::id]"),
                            ("node()", "[descendant::text()]"),
                            ("text()", "[self::text()]"))
    for branch in ("", predicate)] + [
    "IN#x/child::*/child::text(){o}",
    "IN#x/descendant-or-self::text(){o}",
    "IN#x/descendant::text()[2]{o}"]


@given(query=qgen.member_queries(),
       batch_patterns=st.lists(st.sampled_from(_BATCH_PATTERNS),
                               min_size=3, max_size=3, unique=True))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_evaluate_each_is_evaluate_per_context(query, batch_patterns):
    """Every tree pattern the optimizer finds in a generated query, and
    hand-written one-step and multi-step patterns over a document with
    text, under every strategy: a batch answers as the loop, nested or
    sorted and disjoint."""
    cases = [(_EACH_ENGINE.document, pattern)
             for pattern in _EACH_ENGINE.compile(query).tree_patterns()]
    cases += [(_TEXT_DOCUMENT, parse_pattern(text))
              for text in batch_patterns]
    for document, pattern in cases:
        mixed = _sample_contexts(document)
        out_field = pattern.single_output_field
        for contexts in (mixed, _disjoint(mixed)):
            for strategy in Strategy:
                algorithm = make_algorithm(strategy)
                run = Run(summary=document.summary)
                expected = [
                    [binding[out_field].pre for binding in algorithm.evaluate(
                        document, [context], pattern, run)]
                    for context in contexts]
                matches, offsets = algorithm.evaluate_each(
                    document, contexts, pattern, run)
                assert [matches[low:high] for low, high
                        in zip(offsets, offsets[1:])] == expected, \
                    f"{strategy} on {pattern} from {query!r}"
