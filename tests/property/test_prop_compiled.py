"""Observability parity between the compiled and interpreted backends.

The interpreter evaluates an operator once per *batch* of tuples, the
compiled backend once per tuple; both charge their counters per tuple
*activation*.  So for grammar-generated queries
(:mod:`tests.support.qgen`) the two backends must agree on:

* **results** — byte-identical sequences (the differential wall's
  invariant, re-checked here because metrics assertions are vacuous on
  diverging runs);
* **every evaluator counter** — ``operator_evals`` (same keys, same
  values: an operator that is never activated leaves no key in either),
  ``items_produced``, ``tuples_produced``, chooser decisions and
  fallbacks, exactly;
* **prefilter checks** — ``prune_hits`` and ``prune_misses``: one check
  per context handed to a pattern, whatever the batch;
* **per-operator rows** — the ``op_stats`` aggregates *(name, rows)*.

What is deliberately *not* compared, one reason each:

* ``pattern_evals`` — counts kernel invocations: one per batch in the
  interpreter, one per tuple in compiled code;
* ``nodes_visited`` / ``stream_scanned`` — a batch kernel reads the hull
  slice of all its contexts' regions, a single context reads its own
  region;
* span counts and ``op_stats.calls`` — one span and one ``record_op``
  call per batch vs per activation;
* span *parentage* and per-span durations/governor depth — fused stages
  of compiled code stay open while downstream per-tuple code runs (see
  ``docs/PIPELINE.md``).

``derandomize=True`` keeps the corpus fixed, so this is a seeded
regression run rather than a flaky one.
"""

from collections import Counter

from hypothesis import given, settings

from repro import Engine
from repro.data import member_document, xmark_document
from repro.obs import ExecMetrics
from repro.trace import Tracer
from repro.xmltree import serialize

from tests.support import qgen

_MEMBER = Engine(member_document(600, depth=5, tag_count=4, seed=7))
_XMARK = Engine(xmark_document(40, seed=11))


def rendered(sequence):
    out = []
    for item in sequence:
        if hasattr(item, "pre"):
            out.append((item.pre, serialize(item)))
        else:
            out.append(repr(item))
    return out


def traced(engine, query, backend):
    run = engine.run_traced(query, tracer=Tracer(), backend=backend)
    assert run.trace is not None
    return run


#: counters that depend on how many tuples a kernel call answers.
PER_CALL = ("pattern_evals", "visited.", "scanned.")


def shared_counters(metrics):
    """The counters both backends define the same way."""
    return {name: value for name, value in metrics.counters().items()
            if not name.startswith(PER_CALL)}


def op_aggregates(trace):
    """Per-operator aggregates, identity-free: plan node ids differ
    between runs only if plans differ, but the multiset of (name, rows)
    must not."""
    return Counter((stat.name, stat.rows)
                   for stat in trace.op_stats.values())


def assert_observability_parity(engine, query):
    # Warm the plan cache (and the compiled backend's lazy codegen)
    # first: compile-stage spans appear only on cache misses, which is
    # cache state, not backend behaviour — the comparison below covers
    # execution.
    engine.run(query)
    engine.run(query, backend="compiled")
    interpreted = traced(engine, query, "interpreted")
    compiled = traced(engine, query, "compiled")

    assert rendered(compiled.results) == rendered(interpreted.results), (
        f"results diverged on {query!r}")

    # Counters: exact equality, key by key.
    assert isinstance(interpreted.metrics, ExecMetrics)
    assert shared_counters(compiled.metrics) \
        == shared_counters(interpreted.metrics), (
            f"ExecMetrics diverged on {query!r}")
    assert compiled.metrics.fallbacks == interpreted.metrics.fallbacks

    # The same exact per-operator cardinalities.
    assert op_aggregates(compiled.trace) \
        == op_aggregates(interpreted.trace), (
            f"op_stats diverged on {query!r}")

    # Both traces nest under the same root and close cleanly.
    for run in (interpreted, compiled):
        root = run.trace.spans[0]
        assert root.name == "query"
        assert all(span.end is not None for span in run.trace.spans)


@given(query=qgen.member_queries())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_member_observability_parity(query):
    assert_observability_parity(_MEMBER, query)


@given(query=qgen.xmark_queries())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_xmark_observability_parity(query):
    assert_observability_parity(_XMARK, query)
