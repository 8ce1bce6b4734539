"""Property: the full compilation pipeline preserves query semantics.

Random queries from the tree-pattern-adjacent fragment are run through
the optimizing pipeline (under every physical strategy) and compared to
the unoptimized reference evaluation.
"""

import gc

from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.algebra.optimizer import OptimizerOptions
from repro.data import member_document
from repro.rewrite import RewriteTrace, rewrite_to_tpnf
from tests.support import qgen
from tests.support.rewrite_checks import (ABLATION_OPTIONS,
                                          assert_analyses_fresh,
                                          assert_identity_contract,
                                          assert_same_normal_form,
                                          normalized)

_ENGINES = {seed: Engine(member_document(180, depth=5, tag_count=3,
                                         seed=seed + 100))
            for seed in range(3)}

#: the same documents under the Section 7 positional extension — every
#: random query must behave identically with it enabled.
_EXTENDED = {seed: Engine(engine.document,
                          optimizer_options=OptimizerOptions(
                              enable_positional=True))
             for seed, engine in _ENGINES.items()}

_TAGS = ["t01", "t02", "t03"]
_AXES = ["/", "//"]


@st.composite
def path_queries(draw):
    """Random path/FLWOR queries over the 3-tag documents."""
    parts = ["$input"]
    step_count = draw(st.integers(min_value=1, max_value=4))
    for _ in range(step_count):
        axis = draw(st.sampled_from(_AXES))
        tag = draw(st.sampled_from(_TAGS))
        predicate = ""
        choice = draw(st.integers(0, 4))
        if choice == 0:
            predicate = f"[{draw(st.sampled_from(_TAGS))}]"
        elif choice == 1:
            predicate = f"[{draw(st.integers(1, 3))}]"
        elif choice == 2:
            inner = draw(st.sampled_from(_TAGS))
            predicate = f"[.//{inner}]"
        parts.append(f"{axis}{tag}{predicate}")
    return "".join(parts)


@st.composite
def flwor_queries(draw):
    base = draw(path_queries())
    style = draw(st.integers(0, 2))
    if style == 0:
        return base
    if style == 1:
        tag = draw(st.sampled_from(_TAGS))
        return f"for $x in {base} return $x/{tag}"
    tag = draw(st.sampled_from(_TAGS))
    return (f"for $x in {base} where $x/{tag} return $x")


def reference_keys(engine, query):
    result = engine.run(query, optimize=False)
    return [getattr(item, "pre", item) for item in result]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(_ENGINES)), path_queries())
def test_path_queries_preserved(seed, query):
    engine = _ENGINES[seed]
    expected = reference_keys(engine, query)
    for strategy in ("nljoin", "twigjoin", "scjoin"):
        result = engine.run(query, strategy=strategy)
        assert [getattr(i, "pre", i) for i in result] == expected, \
            (query, strategy)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(_ENGINES)), flwor_queries())
def test_flwor_queries_preserved(seed, query):
    engine = _ENGINES[seed]
    expected = reference_keys(engine, query)
    for strategy in ("nljoin", "scjoin"):
        result = engine.run(query, strategy=strategy)
        assert [getattr(i, "pre", i) for i in result] == expected, \
            (query, strategy)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(_ENGINES)), flwor_queries())
def test_extensions_preserve_semantics(seed, query):
    """The positional extension never changes results."""
    expected = reference_keys(_ENGINES[seed], query)
    extended = _EXTENDED[seed]
    for strategy in ("nljoin", "twigjoin", "scjoin"):
        result = extended.run(query, strategy=strategy)
        assert [getattr(i, "pre", i) for i in result] == expected, \
            (query, strategy)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(_ENGINES)), path_queries())
def test_path_results_distinct_doc_ordered(seed, query):
    """Path expressions always yield distinct nodes in document order."""
    engine = _ENGINES[seed]
    result = engine.run(query)
    pres = [node.pre for node in result]
    assert pres == sorted(set(pres))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(_ENGINES)), path_queries())
def test_compilation_deterministic(seed, query):
    engine = _ENGINES[seed]
    first = engine.compile(query).canonical_plan()
    second = engine.compile(query).canonical_plan()
    assert first == second


# -- the change-tracked rewriting contract, on the derandomized qgen stream --


def check_rewriting_contract(query):
    """Identity fixpoint, the string fixpoint's normal form under every
    ablation option set, and per-pass analyses equal to fresh ones after
    every pass (see ``tests/support/rewrite_checks.py``)."""
    core = normalized(query)
    assert_identity_contract(core)
    for options in ABLATION_OPTIONS.values():
        assert_same_normal_form(core, options)
    trace = RewriteTrace()
    rewrite_to_tpnf(core, trace=trace)
    for expr in [core] + [snapshot for _, snapshot in trace.steps]:
        assert_analyses_fresh(expr)


@given(query=qgen.member_queries())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_member_stream_rewriting_contract(query):
    check_rewriting_contract(query)


@given(query=qgen.xmark_queries())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_xmark_stream_rewriting_contract(query):
    check_rewriting_contract(query)


def test_cold_compiles_do_not_accumulate():
    """2 000 compile + execute cycles with the plan cache off leave the
    heap and the summary's per-pattern memo where the first 100 left
    them: a dropped plan takes its patterns' memo entries along (at the
    parent commit every pattern ever seen stayed pinned — 2.5 KB per
    cycle)."""
    # a document of its own: the module's engines keep cached plans,
    # whose patterns rightly keep their entries.
    engine = Engine(member_document(180, depth=5, tag_count=3, seed=100),
                    plan_cache_size=0)
    queries = ["$input//t01[t02]/t03", "$input//t02[.//t03]",
               "$input/t01/t02[1]/t03", "count($input//t03)",
               "$input//t01[t02[t03]]/t02", "$input//t03[t01]/t02[t03]",
               "for $x in $input//t01 where $x/t02 return $x/t03",
               "$input//t02/t03[1]", "$input//t01//t02[t01]",
               "for $x in $input//t02 return $x/t01[t03]"]
    summary = engine.document.summary

    def cycles(count):
        for index in range(count):
            engine.run(queries[index % len(queries)])
        gc.collect()
        return len(gc.get_objects()), len(summary._pattern_memo)

    objects_early, memo_early = cycles(100)
    objects_late, memo_late = cycles(1900)
    assert memo_late <= memo_early <= 8
    assert objects_late <= objects_early + 200
