"""Properties of the observability layer.

For random MemBeR documents and generated path queries:

* optimized and unoptimized plans produce the same results;
* cached and uncached compiles produce equal canonical plans (and the
  cache actually hits);
* every :class:`~repro.obs.ExecMetrics` counter is non-negative, and the
  counters are mutually consistent — in particular, when a chooser
  strategy runs, its decision tally equals the number of pattern
  evaluations (one choice per single-output pattern evaluation).
"""

from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.data import member_document
from repro.obs import ExecMetrics

_DOCS = {seed: member_document(220, depth=5, tag_count=3, seed=seed)
         for seed in range(3)}
_ENGINES = {seed: Engine(document) for seed, document in _DOCS.items()}

_TAGS = ["t01", "t02", "t03"]
_AXES = ["child::", "desc::"]


@st.composite
def path_queries(draw):
    """A random downward path query over the MemBeR tags."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        axis = draw(st.sampled_from(_AXES))
        tag = draw(st.sampled_from(_TAGS))
        step = f"{axis}{tag}"
        if draw(st.integers(0, 2)) == 0:
            predicate_tag = draw(st.sampled_from(_TAGS))
            predicate_axis = draw(st.sampled_from(_AXES))
            step += f"[{predicate_axis}{predicate_tag}]"
        parts.append(step)
    return "$input/" + "/".join(parts)


def keys(sequence):
    return [getattr(item, "pre", item) for item in sequence]


@given(seed=st.sampled_from(sorted(_ENGINES)), query=path_queries())
@settings(max_examples=60, deadline=None)
def test_optimized_and_unoptimized_agree(seed, query):
    engine = _ENGINES[seed]
    assert keys(engine.run(query, optimize=True)) == \
        keys(engine.run(query, optimize=False))


@given(seed=st.sampled_from(sorted(_ENGINES)), query=path_queries())
@settings(max_examples=60, deadline=None)
def test_cached_compile_equals_uncached(seed, query):
    engine = _ENGINES[seed]
    first = engine.compile(query)
    hits_before = engine.plan_cache.stats.hits
    second = engine.compile(query)                    # cache hit
    fresh = engine.compile(query, use_cache=False)    # recompiled
    assert engine.plan_cache.stats.hits == hits_before + 1
    assert second is first
    assert fresh is not first
    assert fresh.canonical_plan() == first.canonical_plan()


@given(seed=st.sampled_from(sorted(_ENGINES)), query=path_queries(),
       strategy=st.sampled_from(["nljoin", "twigjoin", "scjoin",
                                 "stacktree", "streaming"]))
@settings(max_examples=60, deadline=None)
def test_counters_non_negative(seed, query, strategy):
    engine = _ENGINES[seed]
    traced = engine.run_traced(query, strategy=strategy)
    counters = traced.metrics.counters()
    assert all(value >= 0 for value in counters.values()), counters
    # A run that evaluated anything evaluated at least one operator.
    assert sum(traced.metrics.operator_evals.values()) > 0
    # Compile timings exist and are non-negative (there are none on a
    # plan-cache hit: the run paid no compile).
    assert traced.pipeline is not None
    assert all(seconds >= 0.0
               for seconds in traced.pipeline.stages.values())
    # No chooser ran, so no decisions were recorded.
    assert traced.metrics.decisions_total == 0


@given(seed=st.sampled_from(sorted(_ENGINES)), query=path_queries(),
       chooser=st.sampled_from(["auto", "cost"]))
@settings(max_examples=60, deadline=None)
def test_chooser_decisions_match_pattern_evals(seed, query, chooser):
    engine = _ENGINES[seed]
    traced = engine.run_traced(query, strategy=chooser)
    metrics = traced.metrics
    # The optimizer emits single-output patterns for path queries, so
    # each pattern evaluation that survives the structural prefilter
    # consults the chooser exactly once.
    assert metrics.decisions_total == \
        metrics.pattern_evals - metrics.prune_hits
    assert metrics.prune_hits + metrics.prune_misses == \
        metrics.pattern_evals
    assert len(metrics.decision_ring) == \
        min(metrics.decisions_total, metrics.decision_ring.maxlen)


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=40))
@settings(max_examples=60, deadline=None)
def test_merge_adds_counters(values):
    left, right = ExecMetrics(), ExecMetrics()
    for index, value in enumerate(values):
        target = left if index % 2 == 0 else right
        target.nodes_visited["nljoin"] += value
        target.items_produced += value
    merged_total = left.merge(right)
    assert merged_total.nodes_visited["nljoin"] == sum(values)
    assert merged_total.items_produced == sum(values)
