"""Generated-query differential fuzzing across every strategy.

For grammar-generated queries (see :mod:`tests.support.qgen`) on seeded
MemBeR and XMark documents, every physical strategy — the five concrete
algorithms, both choosers and the plain item evaluator — must serialize
to the identical result sequence, with the structural summary prefilter
enabled *and* disabled.  The reference is NLJoin on the unoptimized
plan, the same executable baseline the curated differential suite uses.

``derandomize=True`` keeps the corpus fixed, so the suite is a seeded
regression fuzz run (≥ 200 query/document pairs) rather than a flaky
one.  The generated documents are columns, as every document is; the
same corpora on a saved-and-opened file are the golden runs of
tests/integration/test_columnar_differential.py.
"""

from hypothesis import given, settings

from repro import Engine
from repro.data import member_document, xmark_document
from repro.xmltree import serialize

from tests.support import qgen

STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
              "auto", "cost", "item")

_MEMBER_DOC = member_document(600, depth=5, tag_count=4, seed=7)
_XMARK_DOC = xmark_document(40, seed=11)

_MEMBER = {flag: Engine(_MEMBER_DOC, use_summary=flag)
           for flag in (True, False)}
_XMARK = {flag: Engine(_XMARK_DOC, use_summary=flag)
          for flag in (True, False)}


def rendered(sequence):
    """Serialize a result sequence for exact comparison: node identity
    plus full subtree markup for nodes, ``repr`` for atomic items."""
    out = []
    for item in sequence:
        if hasattr(item, "pre"):
            out.append((item.pre, serialize(item)))
        else:
            out.append(repr(item))
    return out


def assert_all_strategies_agree(engines, query):
    reference = rendered(engines[False].run(query, strategy="nljoin",
                                            optimize=False))
    for use_summary in (True, False):
        engine = engines[use_summary]
        for strategy in STRATEGIES:
            got = rendered(engine.run(query, strategy=strategy))
            assert got == reference, (
                f"{strategy} (summary={'on' if use_summary else 'off'}) "
                f"diverged on {query!r}")


@given(query=qgen.member_queries())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_member_fuzz_differential(query):
    assert_all_strategies_agree(_MEMBER, query)


@given(query=qgen.xmark_queries())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_xmark_fuzz_differential(query):
    assert_all_strategies_agree(_XMARK, query)
