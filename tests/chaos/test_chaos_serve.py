"""Fault injection at the serve- and storage-layer chaos sites.

The resilience contract (docs/ROBUSTNESS.md) under test, for every new
site × {raise, delay} — the request-core sites (``serve.admit``,
``serve.wake``) on both transports, threads and an inline cluster:

* a request either succeeds **byte-identical** to the fault-free
  baseline, or fails with a **typed** :class:`ReproError`
  (``REPRO-*`` code) — never a bare exception, never a corrupt result,
  never a hang;
* transient faults at ``catalog.open`` leave the entry registered, so
  the next lookup simply retries;
* storage faults at the columnar sites surface as
  :class:`StorageError` naming the failed check.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Engine
from repro.guard import ChaosSpec, InjectedFault, ReproError, inject
from repro.serve import (ClusterService, DocumentCatalog, QueryRequest,
                         QueryService, RetryPolicy)
from repro.xmltree.columnar import ColumnarDocument, StorageError

SITE_XML = ("<site><people>"
            "<person><name>John</name><emailaddress>j@x</emailaddress>"
            "</person>"
            "<person><name>Mary</name></person>"
            "</people></site>")

QUERIES = ("$input//person[emailaddress]/name",
           "$input//person/name",
           "$input//people")


def keys(results):
    return [getattr(item, "pre", item) for item in results]


def site_catalog() -> DocumentCatalog:
    catalog = DocumentCatalog()
    catalog.add_xml("site", SITE_XML)
    return catalog


def serve(catalog: DocumentCatalog, cluster: bool, **options):
    """The service under test: a thread pool, or an inline cluster
    over the same catalog."""
    if cluster:
        return ClusterService.from_catalog(catalog, workers=2,
                                           transport="inline", **options)
    return QueryService(catalog, workers=2, **options)


def wait_for(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class Gate:
    """Holds a worker mid-execution so followers can coalesce."""

    def __init__(self, engine: Engine, query_text: str) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        original = engine.execute

        def gated_execute(compiled, *args, **kwargs):
            if compiled.text == query_text:
                self.started.set()
                assert self.release.wait(10), "gate never released"
            return original(compiled, *args, **kwargs)

        engine.execute = gated_execute


@pytest.mark.parametrize("action", ["raise", "delay"])
@pytest.mark.parametrize("site,cluster",
                         [("serve.admit", False), ("serve.execute", False),
                          ("serve.admit", True)],
                         ids=["serve.admit", "serve.execute",
                              "serve.admit-cluster"])
class TestServeSites:
    def test_identical_success_or_typed_error(self, site, cluster, action):
        catalog = site_catalog()
        engine = catalog.engine("site")
        baseline = {query: keys(engine.run(query)) for query in QUERIES}
        service = serve(catalog, cluster)
        spec = ChaosSpec(site=site, action=action, rate=0.5,
                         delay_seconds=0.001)
        try:
            with inject(spec, seed=3) as injector:
                for index in range(24):
                    query = QUERIES[index % len(QUERIES)]
                    try:
                        results = service.query("site", query)
                    except ReproError as err:
                        assert err.code.startswith("REPRO-")
                    else:
                        assert keys(results) == baseline[query]
            assert injector.fired(site) > 0
        finally:
            service.close()

    def test_retries_absorb_raises(self, site, cluster, action):
        """With the retry policy on, per-attempt faults at a serve
        site never corrupt a result — and (except at admission, which
        is outside the attempt loop) mostly never surface at all.  A
        cluster has no retry policy: its admission faults surface the
        same way."""
        catalog = site_catalog()
        engine = catalog.engine("site")
        baseline = {query: keys(engine.run(query)) for query in QUERIES}
        options = {} if cluster else {"retry_policy": RetryPolicy(
            base_delay=0.0, max_delay=0.0, jitter=0.0)}
        service = serve(catalog, cluster, **options)
        spec = ChaosSpec(site=site, action=action, rate=0.3,
                         delay_seconds=0.001)
        try:
            with inject(spec, seed=5):
                for index in range(24):
                    query = QUERIES[index % len(QUERIES)]
                    try:
                        results = service.query("site", query)
                    except ReproError as err:
                        assert err.code.startswith("REPRO-")
                    else:
                        assert keys(results) == baseline[query]
        finally:
            service.close()


@pytest.mark.parametrize("action,cluster",
                         [("raise", False), ("delay", False),
                          ("raise", True), ("delay", True)],
                         ids=["raise", "delay", "raise-cluster",
                              "delay-cluster"])
class TestServeWakeSite:
    def test_coalesced_wakeup(self, action, cluster):
        """serve.wake fires on a coalesced follower's wake-up path: the
        leader's answer is never affected, and an injected raise
        surfaces to that follower as the typed fault."""
        catalog = site_catalog()
        engine = catalog.engine("site")
        query = QUERIES[0]
        baseline = keys(engine.run(query))
        specs = [ChaosSpec(site="serve.wake", action=action,
                           delay_seconds=0.001)]
        if cluster:
            # An inline worker runs on the submitting thread: the
            # leader is held at its dispatch instead.
            specs.append(ChaosSpec(site="cluster.dispatch",
                                   action="delay", delay_seconds=0.5))
        else:
            gate = Gate(engine, query)
        service = serve(catalog, cluster)
        leader = {}
        submitter = threading.Thread(target=lambda: leader.update(
            pending=service.submit(QueryRequest("site", query))))
        try:
            with inject(*specs, seed=1) as injector:
                submitter.start()
                wait_for(lambda: injector.fired("cluster.dispatch")
                         if cluster else gate.started.is_set())
                followers = [service.submit(QueryRequest("site", query))
                             for _ in range(3)]
                assert all(f.coalesced for f in followers)
                if not cluster:
                    gate.release.set()
                submitter.join(10)
                assert keys(leader["pending"].result(timeout=10)) \
                    == baseline
                for follower in followers:
                    try:
                        results = follower.result(timeout=10)
                    except InjectedFault as err:
                        assert err.code == "REPRO-CHAOS"
                        assert action == "raise"
                    else:
                        assert keys(results) == baseline
                assert injector.fired("serve.wake") == 3
        finally:
            if not cluster:
                gate.release.set()
            service.close()


@pytest.mark.parametrize("action", ["raise", "delay"])
class TestCatalogOpenSite:
    def test_transient_fault_keeps_entry(self, action):
        catalog = site_catalog()
        spec = ChaosSpec(site="catalog.open", action=action,
                         delay_seconds=0.001)
        with inject(spec, seed=1) as injector:
            if action == "raise":
                with pytest.raises(InjectedFault) as excinfo:
                    catalog.engine("site")
                assert excinfo.value.code == "REPRO-CHAOS"
            else:
                engine = catalog.engine("site")
                assert keys(engine.run(QUERIES[1]))
            assert injector.fired("catalog.open") > 0
        # A transient fault must not deregister or quarantine: the
        # next lookup retries the load and succeeds.
        assert "site" in catalog
        assert catalog.quarantined_names() == []
        engine = catalog.engine("site")
        assert len(engine.run(QUERIES[1])) == 2


@pytest.mark.parametrize("site,check", [("columnar.read", "mmap"),
                                        ("columnar.checksum", "checksum")])
class TestColumnarSites:
    def saved_index(self, tmp_path):
        engine = Engine.from_xml(SITE_XML)
        path = tmp_path / "site.rpxc"
        engine.document.save(str(path))
        return path, keys(engine.run(QUERIES[1]))

    def test_raise_surfaces_typed_storage_error(self, tmp_path, site,
                                                check):
        path, baseline = self.saved_index(tmp_path)
        with inject(ChaosSpec(site=site)) as injector:
            with pytest.raises(StorageError) as excinfo:
                ColumnarDocument.open(str(path), verify=True)
            assert excinfo.value.code == "REPRO-STORAGE"
            assert excinfo.value.context.get("check") == check
            assert injector.fired(site) > 0
        # Without the fault the same file opens and answers identically.
        engine = Engine.from_columnar_file(str(path), verify=True)
        assert keys(engine.run(QUERIES[1])) == baseline

    def test_delay_never_corrupts(self, tmp_path, site, check):
        path, baseline = self.saved_index(tmp_path)
        spec = ChaosSpec(site=site, action="delay", delay_seconds=0.001)
        with inject(spec, seed=1) as injector:
            engine = Engine.from_columnar_file(str(path), verify=True)
            assert injector.fired(site) > 0
        assert keys(engine.run(QUERIES[1])) == baseline
