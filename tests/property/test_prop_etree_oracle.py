"""Every strategy against a twig matcher the repository did not write.

The differential suites compare the strategies with NLJoin, so a bug
they share — in the XML parser, the normalizer, the TPNF rewrite or the
axis code — agrees with itself.  Here the reference is
:mod:`tests.support.etree_oracle`: expat reads the document and a small
matcher walks ElementTree's elements.  The queries are the golden
corpus, a few attribute and ``//`` paths, and a derandomized stream of
:func:`tests.support.qgen.path_queries` on the two fuzz documents; each
runs under the seven strategies and the plain item evaluator.

Queries outside the matcher's fragment are skipped and counted; the
checked and skipped counts are printed (``pytest -s``).
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.xmltree import serialize
from repro.xmltree.node import AttributeNode

from tests.support import qgen
from tests.support.etree_oracle import Document, canonical, parse_twig
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
)

ENGINES = reference_engines()
DOCUMENTS = {name: Document(serialize(engine.document.root))
             for name, engine in ENGINES.items()}


def engine_answer(results) -> list:
    return [(node.name, node.value) if isinstance(node, AttributeNode)
            else canonical(serialize(node)) for node in results]


def check(counts: Counter, name: str, query: str) -> None:
    steps = parse_twig(query)
    if steps is None:
        counts["skipped"] += 1
        return
    expected = DOCUMENTS[name].answer(steps)
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
    # QE1–QE6 and the five XMark twigs without comparisons or text().
    assert counts["checked"] == 11


@pytest.mark.parametrize("query", EXTRA_QUERIES)
def test_extra_paths_match_etree(query):
    counts: Counter = Counter()
    check(counts, "xmark", query)
    assert counts["checked"] == 1
    assert DOCUMENTS["xmark"].answer(parse_twig(query)), \
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
