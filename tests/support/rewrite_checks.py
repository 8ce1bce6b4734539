"""Shared checks for the TPNF' rewriting contract.

Used by ``tests/unit/test_rewrite_core.py`` (curated corpora) and
``tests/property/test_prop_pipeline.py`` (the derandomized qgen stream):

* :func:`string_fixpoint` — the *old* termination criterion (iterate the
  four families until ``alpha_canonical`` stops changing), kept here as
  the reference the identity fixpoint is compared against;
* :func:`assert_identity_contract` — a family that does not fire returns
  the object it was given;
* :func:`assert_analyses_fresh` — the per-pass memos of sequence facts,
  types and variable usage answer what a fresh analysis answers, on
  every node.
"""

from __future__ import annotations

from repro.bench import QE_QUERIES, catalog_queries, generate_variants
from repro.rewrite import (RewriteOptions, remove_redundant_ddo,
                           rewrite_flwor, rewrite_to_tpnf,
                           rewrite_typeswitches, split_loops)
from repro.rewrite.facts import SINGLETON, UNKNOWN, sequence_facts
from repro.typing import ItemType, TypeEnv, infer_type
from repro.xqcore import (CFor, CLet, CTypeswitch, alpha_canonical,
                          free_vars, normalize_query, usage_count)
from repro.xqcore.cast import usage_counts
from repro.xquery import parse_query
from repro.xquery.abbrev import resolve_abbreviations

FAMILIES = (("typeswitch", rewrite_typeswitches), ("flwor", rewrite_flwor),
            ("docorder", remove_redundant_ddo), ("loop_split", split_loops))

#: the rewrite-option combinations of the E5 ablation
#: (``benchmarks/bench_ablation.py``).
ABLATION_OPTIONS = {
    "full": RewriteOptions(),
    "no-typeswitch": RewriteOptions(typeswitch=False),
    "no-flwor": RewriteOptions(flwor=False),
    "no-docorder": RewriteOptions(docorder=False),
    "no-loopsplit": RewriteOptions(loop_split=False),
    "nothing": RewriteOptions.none(),
}


def normalized(text):
    return normalize_query(resolve_abbreviations(parse_query(text))).core


def chain(step, count):
    """The paper's §5.3 shape: ``$input`` followed by ``count`` steps."""
    return "$input" + step * count


def curated_queries():
    """§5.1 variants, QE1–QE6, the XMark catalog, and positional chains
    up to the paper's k = 15."""
    queries = {f"variant-{index:02d}": text
               for index, text in enumerate(generate_variants())}
    queries.update(QE_QUERIES)
    queries.update(catalog_queries())
    for count in range(1, 16):
        queries[f"(/t1[1])^{count}"] = chain("/t1[1]", count)
        queries[f"(/*[1])^{count}"] = chain("/*[1]", count)
    return queries


def string_fixpoint(expr, options):
    """Rounds of the enabled families until the printed form repeats."""
    passes = [rule for name, rule in FAMILIES if getattr(options, name)]
    previous = alpha_canonical(expr)
    for _ in range(50):
        for rule in passes:
            expr = rule(expr)
        current = alpha_canonical(expr)
        if current == previous:
            return expr
        previous = current
    raise AssertionError("no fixpoint within 50 rounds")


def assert_identity_contract(core):
    """Each family hands the final TPNF' back as the same object, and so
    does the whole pipeline."""
    tpnf = rewrite_to_tpnf(core)
    for name, rule in FAMILIES:
        assert rule(tpnf) is tpnf, f"{name} rebuilt a normal form"
    assert rewrite_to_tpnf(tpnf) is tpnf
    return tpnf


def assert_same_normal_form(core, options):
    assert (alpha_canonical(rewrite_to_tpnf(core, options=options))
            == alpha_canonical(string_fixpoint(core, options)))


def assert_analyses_fresh(expr):
    """Walk ``expr`` the way the rewriters do (children first, binders
    extending the environments) with one memo per analysis, and compare
    every answer with an analysis started from scratch."""
    facts_memo, type_memo, usage_memo = {}, {}, {}

    def visit(node, facts_env, type_env):
        if isinstance(node, CLet):
            visit(node.value, facts_env, type_env)
            scopes = [(node.body,
                       {**facts_env, node.var: sequence_facts(
                           node.value, facts_env, facts_memo)},
                       type_env.bind(node.var, infer_type(
                           node.value, type_env, type_memo)))]
        elif isinstance(node, CFor):
            visit(node.source, facts_env, type_env)
            inner_facts = {**facts_env, node.var: SINGLETON}
            inner_types = type_env.bind(node.var, infer_type(
                node.source, type_env, type_memo))
            if node.position_var is not None:
                inner_facts[node.position_var] = SINGLETON
                inner_types = inner_types.bind(node.position_var,
                                               ItemType.NUMERIC)
            scopes = [(child, inner_facts, inner_types)
                      for child in node.children()[1:]]
        elif isinstance(node, CTypeswitch):
            visit(node.input, facts_env, type_env)
            input_type = infer_type(node.input, type_env, type_memo)
            scopes = [(case.body, {**facts_env, case.var: UNKNOWN},
                       type_env.bind(case.var,
                                     ItemType.NUMERIC
                                     if case.seqtype == "numeric"
                                     else ItemType.ANY))
                      for case in node.cases]
            scopes.append((node.default_body,
                           {**facts_env, node.default_var: UNKNOWN},
                           type_env.bind(node.default_var, input_type)))
        else:
            scopes = [(child, facts_env, type_env)
                      for child in node.children()]
        for child, child_facts, child_types in scopes:
            visit(child, child_facts, child_types)
        assert (sequence_facts(node, facts_env, facts_memo)
                == sequence_facts(node, facts_env))
        assert (infer_type(node, type_env, type_memo)
                == infer_type(node, type_env))
        counts = usage_counts(node, usage_memo)
        assert set(counts) == free_vars(node)
        for var, uses in counts.items():
            assert uses == min(2, usage_count(node, var))

    visit(expr, {}, TypeEnv())
