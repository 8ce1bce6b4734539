"""The resilience layer: retry policy, circuit breaker, health, degraded
mode (docs/ROBUSTNESS.md)."""

from __future__ import annotations

import pytest

from repro import Engine
from repro.guard import (AlgorithmError, BudgetExceeded, CircuitOpen,
                         DocumentQuarantined, InjectedFault, InputError,
                         InternalError)
from repro.serve import BreakerPolicy, CircuitBreaker, HealthTracker, \
    RetryPolicy
from repro.serve.resilience import (CLOSED, FATAL, HALF_OPEN, OPEN, RETRY,
                                    provably_empty)
from repro.xmltree.columnar import StorageError

SITE_XML = ("<site><people>"
            "<person><name>John</name></person>"
            "<person><name>Mary</name></person>"
            "</people></site>")


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FixedRandom:
    """rng whose random() always returns a fixed value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


# -- RetryPolicy ---------------------------------------------------------------

class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify(InjectedFault("boom")) == RETRY
        assert policy.classify(StorageError("bad", check="mmap")) == RETRY
        assert policy.classify(InternalError("bug")) == RETRY
        # The engine raises these after its own fallback chain ran out.
        assert policy.classify(AlgorithmError("algo died")) == FATAL
        assert policy.classify(BudgetExceeded("steps", 10, 11)) == FATAL
        assert policy.classify(BudgetExceeded("wall", 1.0, 2.0)) == FATAL
        assert policy.classify(DocumentQuarantined("q")) == FATAL
        assert policy.classify(InputError("typo")) == FATAL
        assert policy.classify(ValueError("bare")) == FATAL

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.010, max_delay=0.030,
                             multiplier=2.0, jitter=0.0)
        rng = FixedRandom(0.0)
        assert policy.delay(1, rng) == pytest.approx(0.010)
        assert policy.delay(2, rng) == pytest.approx(0.020)
        assert policy.delay(3, rng) == pytest.approx(0.030)  # capped
        assert policy.delay(9, rng) == pytest.approx(0.030)

    def test_jitter_stretches_up_to_fraction(self):
        policy = RetryPolicy(base_delay=0.010, jitter=0.5)
        assert policy.delay(1, FixedRandom(0.0)) == pytest.approx(0.010)
        assert policy.delay(1, FixedRandom(1.0)) == pytest.approx(0.015)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# -- CircuitBreaker ------------------------------------------------------------

def make_breaker(clock, **overrides) -> CircuitBreaker:
    defaults = dict(window=8, min_samples=4, failure_threshold=0.5,
                    reset_seconds=10.0)
    defaults.update(overrides)
    return CircuitBreaker(BreakerPolicy(**defaults), clock=clock)


class TestCircuitBreaker:
    def test_stays_closed_below_min_samples(self):
        breaker = make_breaker(FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_at_failure_threshold(self):
        # 2 failures / 4 samples hits the 0.5 threshold exactly on the
        # fourth outcome.
        breaker = make_breaker(FakeClock())
        for _ in range(2):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # below min_samples
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_successes_keep_it_closed(self):
        breaker = make_breaker(FakeClock())
        for _ in range(6):
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # 2/8 < 0.5

    def test_open_cooldown_then_half_open(self):
        clock = FakeClock()
        breaker = make_breaker(clock, reset_seconds=10.0)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(6.0)
        assert breaker.retry_after() == pytest.approx(4.0)
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        # The window was cleared: old failures don't count anymore.
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(11.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(10.0)


# -- HealthTracker -------------------------------------------------------------

class TestHealthTracker:
    def test_statuses(self):
        clock = FakeClock()
        tracker = HealthTracker(
            breaker_policy=BreakerPolicy(window=4, min_samples=4,
                                         reset_seconds=10.0),
            clock=clock)
        tracker.record_success("site")
        health = tracker.document_health("site")
        assert health.status == "healthy"
        assert health.breaker_state == CLOSED

        tracker.record_failure("site", InjectedFault("boom"))
        health = tracker.document_health("site")
        assert health.status == "degraded"
        assert health.consecutive_failures == 1
        assert health.last_error == "REPRO-CHAOS"

        for _ in range(3):
            tracker.record_failure("site", InjectedFault("boom"))
        health = tracker.document_health("site")
        assert health.breaker_state == OPEN
        assert health.status == "unhealthy"
        assert tracker.document_health(
            "site", degraded_capable=True).status == "degraded"

    def test_snapshot_takes_worst_status(self):
        tracker = HealthTracker()
        tracker.record_success("good")
        tracker.record_failure("bad", InternalError("x"))
        snapshot = tracker.snapshot()
        assert snapshot.status == "degraded"
        assert [doc.document for doc in snapshot.documents] \
            == ["bad", "good"]
        assert "degraded" in snapshot.report()

    def test_quarantine_degrades_healthy_service(self):
        tracker = HealthTracker()
        tracker.record_success("site")
        snapshot = tracker.snapshot(quarantined=("member",))
        assert snapshot.status == "degraded"
        assert snapshot.quarantined == ("member",)

    def test_probe_feeds_breaker(self):
        clock = FakeClock()
        tracker = HealthTracker(
            breaker_policy=BreakerPolicy(window=4, min_samples=4,
                                         reset_seconds=10.0),
            clock=clock)
        for _ in range(4):
            tracker.record_failure("site", InjectedFault("boom"))
        assert tracker.breaker("site").state == OPEN
        clock.advance(11.0)
        engine = Engine.from_xml(SITE_XML)
        assert tracker.probe("site", lambda: engine)
        assert tracker.breaker("site").state == CLOSED
        health = tracker.document_health("site")
        assert health.probes == 1
        assert health.last_probe_ok is True

    def test_probe_failure_recorded(self):
        tracker = HealthTracker()

        def broken():
            raise StorageError("gone", check="open")

        assert not tracker.probe("site", broken)
        health = tracker.document_health("site")
        assert health.last_probe_ok is False
        assert health.last_error == "REPRO-STORAGE"

    def test_without_breaker_policy(self):
        tracker = HealthTracker()
        tracker.record_success("site")
        assert tracker.breaker("site") is None
        assert tracker.document_health("site").breaker_state is None


# -- provably_empty ------------------------------------------------------------

class TestProvablyEmpty:
    def engine(self, **options) -> Engine:
        return Engine.from_xml(SITE_XML, **options)

    def prove(self, engine: Engine, query: str) -> bool:
        return provably_empty(engine.compile(query, optimize=True),
                              engine)

    def test_absent_tag_is_provably_empty(self):
        engine = self.engine()
        assert self.prove(engine, "$input//nosuchtag")
        # And the claim is true: the engine agrees.
        assert engine.run("$input//nosuchtag") == []

    def test_matching_query_is_not_empty(self):
        assert not self.prove(self.engine(), "$input//person/name")

    def test_absent_path_with_predicate(self):
        engine = self.engine()
        query = "$input//nosuchtag[name]"
        assert self.prove(engine, query)
        assert engine.run(query) == []

    def test_constant_results_never_qualify(self):
        # `1 + 1` is non-empty regardless of the document; the analyzer
        # must refuse anything that is not summary-grounded.
        assert not self.prove(self.engine(), "1 + 1")

    def test_requires_summary(self):
        engine = self.engine(use_summary=False)
        assert not self.prove(engine, "$input//nosuchtag")


# -- new error types -----------------------------------------------------------

class TestResilienceErrors:
    def test_circuit_open_payload(self):
        err = CircuitOpen("circuit open", document="site",
                          retry_after_seconds=2.5)
        assert err.code == "REPRO-CIRCUIT-OPEN"
        assert err.document == "site"
        assert err.retry_after_seconds == 2.5
        assert err.to_dict()["retry_after_seconds"] == 2.5

    def test_document_quarantined_payload(self):
        err = DocumentQuarantined("quarantined", document="m",
                                  path="/tmp/m.rpxc")
        assert err.code == "REPRO-STORAGE-QUARANTINED"
        assert err.document == "m"
        assert err.path == "/tmp/m.rpxc"

    def test_internal_error_is_typed(self):
        err = InternalError("wrapped")
        assert err.code == "REPRO-INTERNAL"
        assert isinstance(err, ValueError)
