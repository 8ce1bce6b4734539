"""Every strategy against a twig matcher the repository did not write.

The differential suites compare the strategies with NLJoin, so a bug
they share — in the XML parser, the normalizer, the TPNF rewrite or the
axis code — agrees with itself.  Here the reference is
:mod:`tests.support.etree_oracle`: expat reads the document and a small
matcher walks ElementTree's elements.  The queries are the golden
corpus, a few attribute, ``text()`` and ``//`` paths, a mixed-content
document, and a derandomized stream of
:func:`tests.support.qgen.path_queries` on the two fuzz documents; each
runs under the seven strategies and the plain item evaluator.

Queries outside the matcher's fragment are skipped and counted; the
checked and skipped counts are printed (``pytest -s``).
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.xmltree import serialize
from repro.xmltree.node import AttributeNode, Node, TextNode

from tests.support import qgen
from tests.support.etree_oracle import TEXT, Document, canonical, parse_query
from tests.support.make_golden import golden_queries, reference_engines

STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
              "auto", "cost", "item")

#: Attribute steps, and ``//`` before a position, where positions count
#: per parent (``//bidder[1]`` is not ``/descendant::bidder[1]``).
EXTRA_QUERIES = (
    "$input//bidder[1]/increase",
    "$input//open_auction[bidder[2]]//personref",
    "$input//person/@id",
    "$input//person[@id]/name",
    "$input/site/people/person/@*",
    "$input//*[@*]",
    "$input//@person",
    "$input//open_auction/bidder[2]/personref/@person",
    "$input//item[@id][location]/@*",
    "$input/site/people/person[2]/attribute::id",
    "$input//profile[@income]/interest/@category",
    # text() steps: a text child, one below an element named ``text``,
    # a position, the descendant axis, and a branch.
    "$input//person/name/text()",
    "$input//mail/text/text()",
    "$input//open_auction/bidder[1]/increase/text()",
    "$input/site/regions/africa/item/desc::text()[2]",
    "$input//item[payment/text()]/location/text()",
    "$input//mailbox/mail[1]//text()",
)

ENGINES = reference_engines()
DOCUMENTS = {name: Document(serialize(engine.document.root))
             for name, engine in ENGINES.items()}


def engine_answer(results) -> list:
    return [(node.name, node.value) if isinstance(node, AttributeNode)
            else (TEXT, node.text) if isinstance(node, TextNode)
            else canonical(serialize(node)) if isinstance(node, Node)
            else node for node in results]


def check(counts: Counter, name: str, query: str) -> None:
    parsed = parse_query(query)
    if parsed is None:
        counts["skipped"] += 1
        return
    expected = DOCUMENTS[name].answer(parsed)
    for strategy in STRATEGIES:
        got = engine_answer(ENGINES[name].run(query, strategy=strategy))
        assert got == expected, \
            f"{strategy} differs from ElementTree on {query!r}"
    counts["checked"] += 1


def report(label: str, counts: Counter) -> None:
    print(f"\n{label}: {counts['checked']} checked against ElementTree, "
          f"{counts['skipped']} skipped")


def test_golden_corpus_matches_etree():
    counts: Counter = Counter()
    for stem, query in sorted(golden_queries().items()):
        check(counts, stem.split("_", 1)[0], query)
    report("golden corpus", counts)
    # QE1–QE6, the five XMark twigs without comparisons, XQ15's text()
    # path and XQ6/XQ7's counts.
    assert counts["checked"] == 14


@pytest.mark.parametrize("query", EXTRA_QUERIES)
def test_extra_paths_match_etree(query):
    counts: Counter = Counter()
    check(counts, "xmark", query)
    assert counts["checked"] == 1
    assert DOCUMENTS["xmark"].answer(parse_query(query)), \
        "an empty answer checks nothing"


@pytest.mark.parametrize("name,tags", [("member", qgen.MEMBER_TAGS),
                                       ("xmark", qgen.XMARK_TAGS)])
def test_generated_paths_match_etree(name, tags):
    counts: Counter = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(query=qgen.path_queries(tags))
    def run(query):
        check(counts, name, query)

    run()
    report(f"generated paths on {name}", counts)
    assert counts["checked"] >= 50


def test_mixed_content_text_matches_etree():
    """Text before, between and after children (ElementTree's ``text``
    and ``tail``), nested: the generated documents have none."""
    from repro import Engine
    text = '<a>x<b>y<c>z</c>w</b>v<d/>u<b>t</b></a>'
    engine, document = Engine.from_xml(text), Document(text)
    for query in ("$input//text()", "$input/a/text()[2]",
                  "$input/a/desc::text()[3]", "$input//b[text()]/text()",
                  "count($input//text()) + count($input//b)"):
        expected = document.answer(parse_query(query))
        assert expected, query
        for strategy in STRATEGIES:
            assert engine_answer(engine.run(query, strategy=strategy)) \
                == expected, f"{strategy} on {query!r}"
