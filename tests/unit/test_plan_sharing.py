"""Compiled plans are a per-process resource.

The compile stages read only the query text, so every engine with the
same plan-cache size shares one store: a query compiled for one
document is a cache hit for the next, each engine still answers from
its own document, ``plan_cache_size=0`` stays out of the store, and
threads that miss one key together compile it once.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import fields, replace

import pytest

import repro.engine
from repro import Engine
from repro.algebra.optimizer import OptimizerOptions
from repro.bench.harness import QE_QUERIES
from repro.data import member_document, xmark_document
from repro.obs import PlanCache
from repro.rewrite import RewriteOptions
from repro.trace import Tracer
from repro.xmltree import serialize
from repro.xqcore import pretty

from tests.support.make_golden import (GOLDEN_DIR, golden_queries,
                                       reference_engines, render_results)

ALL_STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree",
                  "streaming", "auto", "cost", "item")

_QUERIES = golden_queries()

QUERY = "$input//person[emailaddress]/name"


@pytest.fixture()
def compiles(monkeypatch):
    """Printed core of a query → how many times the engine rewrote
    it to TPNF': one count per compile."""
    counts: Counter = Counter()
    lock = threading.Lock()
    rewrite = repro.engine.rewrite_to_tpnf

    def counted(core, **kwargs):
        with lock:
            counts[pretty(core)] += 1
        return rewrite(core, **kwargs)

    monkeypatch.setattr(repro.engine, "rewrite_to_tpnf", counted)
    return counts


@pytest.fixture(scope="module")
def documents():
    """Per corpus family: a second document, then the golden one."""
    golden = reference_engines()
    return {
        "member": (member_document(300, depth=4, tag_count=4, seed=3),
                   golden["member"].document),
        "xmark": (xmark_document(25, seed=5), golden["xmark"].document),
    }


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("stem", sorted(_QUERIES))
def test_two_documents_share_one_plan(documents, stem, strategy):
    other, reference = documents[stem.split("_", 1)[0]]
    query = _QUERIES[stem]
    first, second = Engine(other), Engine(reference)
    compiled = first.compile(query)
    assert second.compile(query) is compiled
    assert second.plan_cache.stats.hits == 1
    for engine in (first, second):
        cold = Engine(engine.document, plan_cache_size=0)
        assert render_results(engine.run(query, strategy=strategy)) == \
            render_results(cold.run(query, strategy=strategy))
    expected = (GOLDEN_DIR / f"{stem}.xml").read_text(encoding="utf-8")
    assert render_results(second.run(query, strategy=strategy)) == expected


def test_compiled_backend_generates_a_shared_plan_lazily(documents):
    other, reference = documents["xmark"]
    interpreted = Engine(other)
    compiled = interpreted.compile(QUERY)
    assert compiled.codegen == {}
    generated = Engine(reference)
    assert generated.compile(QUERY) is compiled
    got = render_results(generated.execute(generated.compile(QUERY),
                                           backend="compiled"))
    assert "optimized" in compiled.codegen
    assert got == render_results(Engine(reference).run(QUERY))


def test_a_load_loop_compiles_once(tmp_path, compiles):
    """The doc_load operation: build from text, query, save, reopen,
    query again — eight documents, one compile."""
    path = str(tmp_path / "load.rpxc")
    for seed in range(8):
        text = serialize(xmark_document(20, seed=seed).root)
        engine = Engine.from_xml(text)
        first = render_results(engine.run(QUERY))
        engine.document.save(path)
        reopened = Engine.from_columnar_file(path)
        try:
            assert render_results(reopened.run(QUERY)) == first
        finally:
            reopened.document.close()
    assert sum(compiles.values()) == 1


def test_cache_off_never_touches_the_store(documents):
    document = documents["member"][0]
    shared = Engine(document)
    cached = shared.compile(QUERY)
    cold = Engine(document, plan_cache_size=0)
    assert cold.compile(QUERY) is not cached
    assert cold.compile(QUERY) is not cached
    assert cold.plan_cache.stats.hits == 0
    assert cold.plan_cache.stats.misses == 2
    assert len(cold.plan_cache) == 0
    other = "$input//person/name"
    cold.compile(other)
    shared.compile(other)
    assert shared.plan_cache.stats.misses == 2
    assert len(shared.plan_cache) == 2


def test_stats_count_each_engines_own_lookups(documents):
    document = documents["member"][0]
    first, second = Engine(document), Engine(document)
    first.compile(QUERY)
    second.compile(QUERY)
    second.compile(QUERY)
    assert (first.plan_cache.stats.hits,
            first.plan_cache.stats.misses) == (0, 1)
    assert (second.plan_cache.stats.hits,
            second.plan_cache.stats.misses) == (2, 0)
    traced = Engine(document).run_traced(QUERY)
    assert traced.cache_hit is True
    assert (traced.cache.hits, traced.cache.misses) == (1, 0)


def test_the_summary_is_built_at_execute_not_compile():
    document = member_document(60, depth=3, tag_count=3, seed=21)
    engine = Engine(document)
    engine.compile(QUERY)
    assert document._summary is None
    analysis = engine.run_traced(QUERY, tracer=Tracer())
    assert {"parse", "optimize", "summary"} <= set(analysis.stage_seconds())
    assert document._summary is not None


def _flipped(options):
    """One copy of ``options`` per field, with that field flipped."""
    return [replace(options, **{field.name: not getattr(options,
                                                         field.name)})
            for field in fields(options)]


def test_equal_options_share_an_entry_and_any_field_splits_it(documents):
    document = documents["member"][0]
    base = Engine(document, rewrite_options=RewriteOptions(),
                  optimizer_options=OptimizerOptions())
    compiled = base.compile(QUERY)
    equal = Engine(document, rewrite_options=RewriteOptions(),
                   optimizer_options=OptimizerOptions())
    assert equal.compile(QUERY) is compiled
    assert len(base.plan_cache) == 1
    variants = [{"rewrite_options": options}
                for options in _flipped(RewriteOptions())]
    variants += [{"optimizer_options": options}
                 for options in _flipped(OptimizerOptions())]
    for variant in variants:
        PlanCache.clear_all()
        base.compile(QUERY)
        engine = Engine(document, **variant)
        assert engine.compile(QUERY) is not base.compile(QUERY), variant
        assert len(base.plan_cache) == 2, variant


def test_options_are_frozen():
    with pytest.raises(AttributeError):
        OptimizerOptions().enable_merge = False
    with pytest.raises(AttributeError):
        RewriteOptions().flwor = False


def test_threads_compile_each_query_once(compiles):
    """8 threads × 4 documents × QE1–QE6, all starting together: one
    compile per query, every answer equal to the sequential one."""
    documents = [member_document(400, depth=4, tag_count=6, seed=seed)
                 for seed in range(4)]
    expected = {(index, name): render_results(
                    Engine(document, plan_cache_size=0).run(query))
                for index, document in enumerate(documents)
                for name, query in QE_QUERIES.items()}
    compiles.clear()
    engines = [Engine(document) for document in documents]
    barrier = threading.Barrier(8)
    failures = []

    def worker(offset: int) -> None:
        barrier.wait()
        for step in range(len(engines)):
            index = (offset + step) % len(engines)
            for name, query in QE_QUERIES.items():
                try:
                    got = render_results(engines[index].run(query))
                except Exception as err:   # noqa: BLE001
                    failures.append(f"{index}/{name}: raised {err!r}")
                    continue
                if got != expected[index, name]:
                    failures.append(f"{index}/{name}: diverged")

    threads = [threading.Thread(target=worker, args=(offset,))
               for offset in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert len(compiles) == len(QE_QUERIES)
    assert set(compiles.values()) == {1}
    lookups = sum(engine.plan_cache.stats.lookups for engine in engines)
    misses = sum(engine.plan_cache.stats.misses for engine in engines)
    assert (lookups, misses) == (8 * 4 * len(QE_QUERIES), len(QE_QUERIES))
