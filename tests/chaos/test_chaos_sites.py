"""Fault injection across every chaos site and the QE1–QE6 query set.

The contract under test (ISSUE: execution guardrails):

* **strict mode** — an injected fault at any site surfaces as the
  original :class:`InjectedFault`;
* **fallback mode** (the default) — the engine recovers transparently,
  the results are identical to the navigational baseline, and the
  degradation is visible in the metrics / :class:`TracedRun`.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import QE_QUERIES
from repro.guard import (BudgetExceeded, Budgets, ChaosSpec, InjectedFault,
                         inject)
from repro.obs import ExecMetrics

#: chaos site → the strategy whose execution passes through it.
SITE_STRATEGIES = {
    "eval.ttp": "scjoin",
    "nljoin.match": "nljoin",
    "twigjoin.match": "twigjoin",
    "scjoin.match": "scjoin",
    "stacktree.match": "stacktree",
    "streaming.match": "streaming",
    "auto.choose": "auto",
    "cost.choose": "cost",
}

QE_ITEMS = sorted(QE_QUERIES.items())


def keys(results):
    return [getattr(item, "pre", item) for item in results]


@pytest.mark.parametrize("site,strategy", sorted(SITE_STRATEGIES.items()))
@pytest.mark.parametrize("name,query", QE_ITEMS)
class TestPerSite:
    def test_strict_surfaces_fault(self, strict_engine, site, strategy,
                                   name, query):
        """If the site fires, the original fault propagates; patterns the
        algorithm delegates internally (e.g. positional steps) may not
        reach it, in which case the run completes untouched."""
        compiled = strict_engine.compile(query)
        raised = False
        with inject(ChaosSpec(site=site)) as injector:
            try:
                strict_engine.execute(compiled, strategy=strategy)
            except InjectedFault as err:
                raised = True
                assert err.site == site
        assert raised == (injector.fired(site) > 0)

    def test_fallback_recovers_identical_results(self, qe_engine, site,
                                                 strategy, name, query):
        compiled = qe_engine.compile(query)
        baseline = keys(qe_engine.execute(compiled, strategy="nljoin"))
        metrics = ExecMetrics()
        with inject(ChaosSpec(site=site)) as injector:
            recovered = qe_engine.execute(compiled, strategy=strategy,
                                          metrics=metrics)
        assert keys(recovered) == baseline
        if injector.fired(site):
            assert metrics.fallbacks, \
                f"{site} fired on {name} but no fallback was recorded"
        else:
            assert not metrics.fallbacks


class TestCoverage:
    def test_every_site_fires_somewhere(self, strict_engine):
        """Each chaos point is reachable from at least one QE query under
        its designated strategy — no dead sites in the map."""
        for site, strategy in SITE_STRATEGIES.items():
            fired = 0
            for _, query in QE_ITEMS:
                compiled = strict_engine.compile(query)
                with inject(ChaosSpec(site=site)) as injector:
                    try:
                        strict_engine.execute(compiled, strategy=strategy)
                    except InjectedFault:
                        pass
                fired += injector.fired(site)
            assert fired > 0, f"site {site} never fired on any QE query"


class TestDelayAndBudgets:
    def test_injected_stall_trips_wall_budget(self, qe_engine):
        """A delay injected into the algorithm is caught by the wall
        budget — and a wall trip is final (no retry storm)."""
        compiled = qe_engine.compile(QE_QUERIES["QE1"])
        metrics = ExecMetrics()
        with inject(ChaosSpec(site="scjoin.match", action="delay",
                              delay_seconds=0.05)):
            with pytest.raises(BudgetExceeded) as exc:
                qe_engine.execute(compiled, strategy="scjoin",
                                  budgets=Budgets(wall_seconds=0.01),
                                  metrics=metrics)
        assert exc.value.kind == "wall"
        assert metrics.fallbacks == []

    def test_fault_plus_budget_single_structured_error(self, qe_engine):
        """Faults on every strategy plus a tiny step budget: the caller
        still sees exactly one structured error, never a hang."""
        compiled = qe_engine.compile(QE_QUERIES["QE4"])
        with inject(ChaosSpec(site="*.match")):
            with pytest.raises((BudgetExceeded, Exception)) as exc:
                qe_engine.execute(compiled, strategy="twigjoin",
                                  budgets=Budgets(max_steps=10))
        assert getattr(exc.value, "code", "").startswith("REPRO-")


class TestCorruption:
    def test_differential_comparison_detects_corruption(self, qe_engine):
        """A corrupted tuple stream (one element silently dropped) is
        exactly what the cross-strategy differential check must catch."""
        compiled = qe_engine.compile(QE_QUERIES["QE1"])
        baseline = keys(qe_engine.execute(compiled, strategy="nljoin"))
        assert baseline, "QE1 must have matches for this test to bite"
        with inject(ChaosSpec(site="twigjoin.match", action="corrupt")):
            corrupted = keys(qe_engine.execute(compiled,
                                               strategy="twigjoin"))
        assert corrupted != baseline
        assert len(corrupted) == len(baseline) - 1

    def test_corruption_at_the_evaluator_drops_one_match(self, qe_engine):
        """``eval.ttp`` carries a batch's match column: a corruption
        there drops exactly one match, and no raw exception escapes."""
        compiled = qe_engine.compile(QE_QUERIES["QE1"])
        baseline = keys(qe_engine.execute(compiled, strategy="nljoin"))
        with inject(ChaosSpec(site="eval.ttp", action="corrupt")) \
                as injector:
            corrupted = keys(qe_engine.execute(compiled, strategy="scjoin"))
        assert injector.fired("eval.ttp")
        assert len(corrupted) == len(baseline) - 1


class TestDeterminism:
    def test_same_seed_same_fires(self, qe_engine):
        def run(seed):
            compiled = qe_engine.compile(QE_QUERIES["QE3"])
            with inject(ChaosSpec(site="*.match", action="corrupt",
                                  rate=0.5), seed=seed) as injector:
                qe_engine.execute(compiled, strategy="twigjoin")
                return list(injector.log), list(injector.visits)

        assert run(1) == run(1)

    def test_seed_changes_fires(self, qe_engine):
        def fires(seed):
            compiled = qe_engine.compile(QE_QUERIES["QE3"])
            with inject(ChaosSpec(site="*", action="corrupt", rate=0.5),
                        seed=seed) as injector:
                qe_engine.execute(compiled, strategy="scjoin")
                return list(injector.log)

        logs = {tuple(fires(seed)) for seed in range(8)}
        assert len(logs) > 1
