"""Scatter-gather is invisible: cluster answers == single-process
answers, byte for byte.

Two sources of query/document pairs drive an inline-transport cluster
(real shard engines, real frame codec, no subprocess latency):

* the **golden corpus** (QE1–QE6 + the XMark catalog) across all eight
  physical strategies;
* **seeded grammar fuzz** (:mod:`tests.support.qgen`, ≥200 pairs with
  ``derandomize=True``) on the MemBeR and XMark fuzz documents.

The single-process reference is an engine over the same generated
document the shards were cut from.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Engine
from repro.data import member_document, xmark_document
from repro.serve import ClusterLayout, ClusterService, QueryRequest
from repro.xmltree import serialize

from tests.support import qgen
from tests.support.make_golden import golden_queries

STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree", "streaming",
              "auto", "cost", "item")

_MEMBER = member_document(600, depth=5, tag_count=4, seed=7)
_XMARK = xmark_document(40, seed=11)

_CLUSTER = None
_BASELINES = {}


def _cluster():
    """One shared inline cluster over both fuzz documents (module
    scope via lazy init so hypothesis examples reuse it)."""
    global _CLUSTER
    if _CLUSTER is None:
        import atexit
        import tempfile
        directory = tempfile.mkdtemp(prefix="repro-prop-cluster-")
        layout = ClusterLayout.build(
            {"member": _MEMBER.columns, "xmark": _XMARK.columns},
            directory, 4)
        _CLUSTER = ClusterService(layout, workers=2, transport="inline")
        atexit.register(_CLUSTER.close)
    return _CLUSTER


def _baseline(document: str) -> Engine:
    """Single-process engine per document."""
    engine = _BASELINES.get(document)
    if engine is None:
        engine = _BASELINES[document] = Engine(
            _MEMBER if document == "member" else _XMARK)
    return engine


def rendered(sequence):
    return [(item.pre, serialize(item)) if hasattr(item, "pre")
            else repr(item) for item in sequence]


def assert_cluster_matches(document: str, query: str,
                           strategy=None) -> None:
    service = _cluster()
    got = rendered(service.submit(QueryRequest(
        document=document, query=query,
        strategy=strategy)).result(timeout=120))
    engine = _baseline(document)
    expected = rendered(engine.execute(engine.compile(query),
                                       strategy=strategy))
    assert got == expected, (
        f"cluster diverged from single-process on {query!r} "
        f"(strategy={strategy})")


# -- golden corpus × every strategy ------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("stem", sorted(golden_queries()))
def test_golden_corpus_through_cluster(stem, strategy):
    document = stem.split("_", 1)[0]
    assert_cluster_matches(document, golden_queries()[stem], strategy)


# -- seeded grammar fuzz (≥200 pairs with the two documents) -----------------


@given(query=qgen.member_queries())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_fuzz_member_through_cluster(query):
    assert_cluster_matches("member", query)


@given(query=qgen.xmark_queries())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_fuzz_xmark_through_cluster(query):
    assert_cluster_matches("xmark", query)
