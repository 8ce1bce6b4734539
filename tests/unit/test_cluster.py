"""The scatter-gather coordinator (:mod:`repro.serve.cluster`).

Fast paths (scatter planning, merge, framing, inline transport) run
in-process; a small set of tests drives real worker subprocesses to
cover spawn, kill/respawn, shutdown-reaping and the no-orphan
guarantee.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import threading
import time

import pytest

from repro import Engine, IndexedDocument
from repro.data import xmark_document
from repro.guard import (Budgets, BudgetExceeded, ChaosSpec, CircuitOpen,
                         InternalError, ReproError, ServiceClosed,
                         ServiceOverloaded, WorkerLost, inject)
from repro.serve import (BreakerPolicy, ClusterLayout, ClusterService,
                         QueryRequest, merge_shard_results, scatter_plan)
from repro.serve.worker import (MAX_FRAME_BYTES, recv_frame, send_frame,
                                wire_safe_error)


@pytest.fixture(scope="module")
def xmark_idx():
    return xmark_document(40, seed=11)


@pytest.fixture(scope="module")
def layout(xmark_idx, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster-layout")
    return ClusterLayout.build({"xmark": xmark_idx.columns},
                               str(directory), 4)


@pytest.fixture(scope="module")
def baseline(xmark_idx):
    return Engine(IndexedDocument(columns=xmark_idx.columns))


@pytest.fixture()
def inline(layout):
    service = ClusterService(layout, workers=2, transport="inline")
    yield service
    service.close()


def keys(sequence):
    return [getattr(item, "pre", item) for item in sequence]


# -- framing -----------------------------------------------------------------


def test_frame_round_trip():
    buffer = io.BytesIO()
    message = {"type": "task", "task_id": 7, "query": "$input//a"}
    send_frame(buffer, message)
    buffer.seek(0)
    assert recv_frame(buffer) == message
    assert recv_frame(buffer) is None  # clean EOF


def test_frame_truncation_is_typed():
    buffer = io.BytesIO()
    send_frame(buffer, {"payload": "x" * 100})
    truncated = io.BytesIO(buffer.getvalue()[:-5])
    with pytest.raises(InternalError):
        recv_frame(truncated)


def test_frame_length_bound():
    buffer = io.BytesIO()
    import struct
    buffer.write(struct.pack("<Q", MAX_FRAME_BYTES + 1))
    buffer.seek(0)
    with pytest.raises(InternalError):
        recv_frame(buffer)


def test_wire_safe_error_wraps_and_pickles():
    class Hostile(Exception):
        def __reduce__(self):
            raise TypeError("not today")

    safe = wire_safe_error(Hostile("boom"))
    clone = pickle.loads(pickle.dumps(safe))
    assert isinstance(clone, ReproError)
    typed = wire_safe_error(BudgetExceeded("wall", 1.0, 2.0))
    assert typed.code == "REPRO-BUDGET-WALL"


# -- scatter planning --------------------------------------------------------


SCATTERABLE = [
    "$input//person/name",
    "$input//person[profile]/name",
    "$input/site/people/person/@id",
    "$input//open_auction//increase",
]
NOT_SCATTERABLE = [
    "count($input//item)",                      # aggregate
    "$input//bidder[2]",                        # positional
    "for $p in $input//person return $p/name",  # FLWOR
    "$input/site[people]/regions",              # predicated first step
    "$input/*[people]",                         # wildcard first step + pred
]


@pytest.mark.parametrize("query", SCATTERABLE)
def test_scatterable(baseline, query):
    assert scatter_plan(baseline.compile(query), "site")


@pytest.mark.parametrize("query", NOT_SCATTERABLE)
def test_not_scatterable(baseline, query):
    assert not scatter_plan(baseline.compile(query), "site")


def test_unpredicated_first_step_on_root_is_fine(baseline):
    assert scatter_plan(baseline.compile("$input/site/regions"), "site")


# -- merge -------------------------------------------------------------------


def test_merge_dedups_and_orders():
    streams = [[("n", 1), ("n", 5), ("n", 9)],
               [("n", 1), ("n", 3)],
               [("n", 1), ("n", 9), ("n", 12)]]
    assert merge_shard_results(streams) == [1, 3, 5, 9, 12]


def test_merge_rejects_atomics():
    with pytest.raises(InternalError):
        merge_shard_results([[("v", 42)]])


# -- inline coordinator ------------------------------------------------------


def test_inline_matches_baseline(inline, baseline):
    for query in SCATTERABLE + NOT_SCATTERABLE:
        expected = keys(baseline.execute(baseline.compile(query)))
        assert keys(inline.query("xmark", query)) == expected, query


def test_modes_are_recorded(inline):
    inline.query("xmark", "$input//person/name")
    inline.query("xmark", "count($input//item)")
    stats = inline.cluster_stats()
    assert stats.scattered == 1 and stats.whole_document == 1


def test_node_identity_matches_catalog(inline):
    results = inline.query("xmark", "$input//person/name")
    document = inline.catalog.engine("xmark").document
    assert all(item is document.node_at(item.pre) for item in results)


def test_unknown_document(inline):
    with pytest.raises(ReproError, match="unknown cluster document"):
        inline.query("nope", "$input//a")


def test_typed_error_crosses_boundary(inline):
    with pytest.raises(ReproError) as info:
        inline.query("xmark", "$input//person[")
    assert info.value.code.startswith("REPRO-")


def test_expired_deadline_is_budget_exceeded(layout):
    service = ClusterService(layout, workers=1, transport="inline",
                             clock=time.monotonic)
    try:
        with pytest.raises(BudgetExceeded):
            service.query("xmark", "$input//person/name", timeout=0.0)
    finally:
        service.close()


def test_queue_limit_sheds(layout):
    service = ClusterService(layout, workers=1, transport="inline",
                             queue_limit=1)
    try:
        # A scatter of a 3-shard document needs 3 slots; limit is 1.
        with pytest.raises(ServiceOverloaded):
            service.query("xmark", "$input//person/name")
    finally:
        service.close()


def test_closed_service_rejects(layout):
    service = ClusterService(layout, workers=1, transport="inline")
    service.close()
    with pytest.raises(ServiceClosed):
        service.query("xmark", "$input//person/name")
    service.close()  # idempotent


def test_from_catalog_round_trip(xmark_idx):
    from repro.serve import DocumentCatalog
    catalog = DocumentCatalog()
    catalog.add_document("xmark", xmark_idx)
    service = ClusterService.from_catalog(catalog, shard_count=3,
                                          workers=2, transport="inline")
    directory = service._owned_directory
    try:
        assert len(service.query("xmark", "$input//person/name")) == 40
        assert os.path.isdir(directory)
    finally:
        service.close()
    assert not os.path.exists(directory)


def test_default_budgets_flow_to_workers(layout):
    service = ClusterService(layout, workers=1, transport="inline",
                             default_budgets=Budgets(max_steps=1))
    try:
        with pytest.raises(BudgetExceeded):
            service.query("xmark", "$input//person/name")
    finally:
        service.close()


# -- the shared request core -------------------------------------------------


def strict_breaker():
    return BreakerPolicy(window=4, min_samples=4, failure_threshold=0.5,
                         reset_seconds=60.0)


def test_identical_submits_coalesce(layout):
    # Whole-document, so the leader is held at exactly one dispatch.
    query = "count($input//item)"
    hold = ChaosSpec(site="cluster.dispatch", action="delay",
                     delay_seconds=0.5)
    with ClusterService(layout, workers=1, transport="inline") as service:
        leader = {}
        with inject(hold) as injector:
            # An inline dispatch runs the worker on the submitting
            # thread, so the leader submits from its own.
            thread = threading.Thread(target=lambda: leader.update(
                pending=service.submit(QueryRequest("xmark", query))))
            thread.start()
            deadline = time.monotonic() + 10
            while not injector.fired("cluster.dispatch"):
                assert time.monotonic() < deadline, "leader never dispatched"
                time.sleep(0.005)
            followers = [service.submit(QueryRequest("xmark", query))
                         for _ in range(3)]
            thread.join(10)
        assert injector.fired("cluster.dispatch") == 1
        assert all(follower.coalesced for follower in followers)
        results = leader["pending"].result(timeout=10)
        assert all(follower.result(timeout=10) is results
                   for follower in followers)
        assert service.stats().coalesced == 3


def test_open_document_breaker_sheds_or_degrades(layout):
    with ClusterService(layout, workers=1, transport="inline",
                        breaker_policy=strict_breaker()) as service:
        with inject(ChaosSpec(site="cluster.gather")):
            for _ in range(4):
                with pytest.raises(ReproError):
                    service.query("xmark", "$input//person/name")
        with pytest.raises(CircuitOpen) as excinfo:
            service.query("xmark", "$input//person/name")
        assert excinfo.value.document == "xmark"
        response = service.submit(
            QueryRequest("xmark", "$input//nosuchtag")).response(timeout=10)
        assert response.degraded and response.results == []
        stats = service.stats()
        assert stats.breaker_rejected == 1 and stats.degraded == 1
        # The workers answered every frame: their breakers stay closed.
        assert {worker.breaker_state for worker
                in service.cluster_stats().workers} == {"closed"}


def test_health_and_probe(layout):
    with ClusterService(layout, workers=1, transport="inline",
                        breaker_policy=strict_breaker()) as service:
        assert len(service.query("xmark", "$input//person/name")) == 40
        health = service.health()
        assert health.status == "healthy"
        (document,) = health.documents
        assert document.document == "xmark"
        assert document.successes == 1 and document.breaker_state == "closed"
        assert document.degraded_capable
        probed = service.probe("xmark")
        assert probed.last_probe_ok is True and probed.probes == 1


# -- real worker processes ---------------------------------------------------


def _orphan_pids(pids):
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except OSError:
            continue
        alive.append(pid)
    return alive


def test_process_cluster_end_to_end(layout, baseline):
    service = ClusterService(layout, workers=2)
    pids = []
    try:
        pids = list(service.worker_pids())
        assert all(pid is not None and pid != os.getpid()
                   for pid in pids)
        for query in ("$input//person/name", "count($input//item)"):
            expected = keys(baseline.execute(baseline.compile(query)))
            assert keys(service.query("xmark", query,
                                      timeout=60.0)) == expected
    finally:
        service.close()
    assert _orphan_pids(pids) == []


def test_process_kill_respawns_and_retries(layout):
    service = ClusterService(layout, workers=2,
                             breaker_policy=BreakerPolicy())
    try:
        victim = service.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 10
        while service.worker_pids()[0] == victim:
            assert time.time() < deadline, "worker never respawned"
            time.sleep(0.05)
        assert len(service.query("xmark", "$input//person/name",
                                 timeout=60.0)) == 40
        assert service.cluster_stats().respawns >= 1
    finally:
        service.close()


def test_close_drain_false_fails_pending(layout):
    service = ClusterService(layout, workers=1)
    pids = list(service.worker_pids())
    pending = service.submit(QueryRequest(
        document="xmark", query="$input//person/name"))
    service.close(drain=False)
    response = pending.response(timeout=10.0)
    # Either the task raced to completion or it was failed typed —
    # never a hang, never a bare error.
    assert response.error is None or isinstance(response.error,
                                                (ServiceClosed, WorkerLost))
    assert _orphan_pids(pids) == []


def test_worker_lost_without_respawn(layout):
    service = ClusterService(layout, workers=1, respawn=False)
    try:
        os.kill(service.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises((WorkerLost, ReproError)):
            service.query("xmark", "$input//person/name", timeout=10.0)
    finally:
        service.close()


def test_drain_survives_a_worker_killed_while_closing(layout):
    """A worker that dies while ``close(drain=True)`` waits on it fails
    its tasks typed: the drain returns at once, nothing hangs."""
    service = ClusterService(layout, workers=1)
    pid = service.worker_pids()[0]
    os.kill(pid, signal.SIGSTOP)
    try:
        pending = service.submit(QueryRequest(
            document="xmark", query="$input//person/name"))
        closer = threading.Thread(target=service.close)
        started = time.monotonic()
        closer.start()
        time.sleep(0.2)
    finally:
        os.kill(pid, signal.SIGKILL)
    closer.join(timeout=5)
    assert not closer.is_alive(), "close(drain=True) hung on a dead worker"
    response = pending.response(timeout=5)
    assert isinstance(response.error, (WorkerLost, ServiceClosed))
    assert time.monotonic() - started < 5
    assert _orphan_pids([pid]) == []
