"""Which algorithm evaluates which pattern, pinned.

Two tables in ``data/physical_counters.json``, recorded before the
pattern dispatch moved into ``repro.physical.base``:

* ``queries`` — every golden-corpus query under each of the seven
  strategies: the result (node ``pre``s, atomics by ``repr``) and every
  :meth:`~repro.obs.ExecMetrics.counters` entry.  A counter is keyed by
  the algorithm that did the work, so a pattern that moves from an
  algorithm to its NLJoin fallback (or back) changes the table.
* ``patterns`` — patterns on the borders of each algorithm's fragment
  (``text()``, positions on the path and inside a branch, ``self``,
  ``parent``, attributes, steps from an attribute, binding
  enumeration), evaluated by each algorithm directly: one
  :meth:`evaluate` from the root and one :meth:`evaluate_each` over a
  batch of nested contexts (a multi-output pattern: one
  :meth:`evaluate` per context).

Every strategy gives the same answers, so the results are kept once and
the counters per strategy.

A third table, ``data/physical_steps.json``, holds the steps a governed
run charges for every golden-corpus query under each strategy: the
evaluator's own and every kernel's, as ``governor.steps`` reads them
after the run.

Regenerate, only when a dispatch or charging change is intended, with::

    PYTHONPATH=src python -m tests.unit.test_dispatch_pins
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algebra import EvalContext, eval_item
from repro.guard import Budgets
from repro.guard.governor import ResourceGovernor
from repro.obs import ExecMetrics
from repro.pattern import parse_pattern
from repro.physical import Run, Strategy, make_algorithm
from repro.xmltree import Node

from tests.support.make_golden import golden_queries, reference_engines

PINS = Path(__file__).resolve().parent / "data" / "physical_counters.json"
STEP_PINS = PINS.with_name("physical_steps.json")

STRATEGIES = tuple(strategy.value for strategy in Strategy)
CHOOSERS = (Strategy.AUTO.value, Strategy.COST.value)

PATTERNS = (
    "IN#d/descendant::person/child::name{o}",
    "IN#d/descendant::person[child::emailaddress]/child::name{o}",
    "IN#d/descendant::name/child::text(){o}",
    "IN#d/descendant::person[child::name/child::text()]{o}",
    "IN#d/descendant::open_auction/child::bidder[2]{o}",
    "IN#d/descendant::open_auction[child::bidder[2]]/child::current{o}",
    "IN#d/descendant::person/self::person{o}",
    "IN#d/descendant::person[self::*]/child::name{o}",
    "IN#d/descendant::person/attribute::id{o}",
    "IN#d/descendant::person/attribute::*{o}",
    "IN#d/descendant::*[attribute::*]{o}",
    "IN#d/descendant::person/attribute::id/self::node(){o}",
    "IN#d/descendant::name/parent::person{o}",
    "IN#d/descendant::open_auction/descendant-or-self::*{o}",
    "IN#d/descendant::open_auction/descendant::node(){o}",
    "IN#d/descendant::person{p}/child::name{n}",
    "IN#d/descendant::open_auction{a}[child::current]/child::bidder{b}"
    "/child::increase{i}",
    "IN#d/descendant::person{p}/attribute::id{i}",
    "IN#d/self::node(){o}",
)


def _result(items) -> str:
    return " ".join(str(item.pre) if isinstance(item, Node) else repr(item)
                    for item in items)


def _bindings(bindings) -> str:
    """One word per binding: its nodes' ``pre``s in field order."""
    return " ".join(",".join(str(node.pre) for _, node
                             in sorted(binding.items()))
                    for binding in bindings)


def _batch(algorithm, document, contexts, pattern, run) -> list:
    """One word list per context, as :func:`_bindings` writes it: one
    :meth:`evaluate_each` for a single-output pattern, one
    :meth:`evaluate` per context for a multi-output one (as the
    evaluator runs them)."""
    if pattern.single_output_field is None:
        return [_bindings(algorithm.evaluate(document, [context], pattern,
                                             run)) for context in contexts]
    matches, offsets = algorithm.evaluate_each(document, contexts, pattern,
                                               run)
    return [" ".join(map(str, matches[low:high]))
            for low, high in zip(offsets, offsets[1:])]


def _contexts(document) -> list:
    """Nested contexts for a batch: the root, the top element, its
    children and the first person's attributes."""
    top = document.root.children[0]
    person = next(iter(document.stream("person")))
    return ([document.root, top] + list(top.children)
            + list(person.attributes))


def pinned_runs() -> dict:
    engines = reference_engines()
    queries = {}
    for stem, query in sorted(golden_queries().items()):
        engine = engines[stem.split("_", 1)[0]]
        compiled = engine.compile(query)
        runs = {}
        for strategy in STRATEGIES:
            metrics = ExecMetrics()
            results = engine.execute(compiled, strategy=strategy,
                                     metrics=metrics)
            runs[strategy] = {"results": _result(results),
                              "counters": metrics.counters()}
        queries[stem] = _shared_results(runs)
    document = engines["xmark"].document
    contexts = _contexts(document)
    patterns = {}
    for text in PATTERNS:
        pattern = parse_pattern(text)
        runs = {}
        for strategy in STRATEGIES:
            algorithm = make_algorithm(strategy, document)
            metrics = ExecMetrics()
            # The instruments the pins were recorded with: counters for
            # every strategy, the document's summary for the choosers.
            run = Run(metrics=metrics, summary=document.summary
                      if strategy in CHOOSERS else None)
            single = algorithm.evaluate(document, [document.root], pattern,
                                        run)
            runs[strategy] = {
                "results": [_bindings(single)]
                + _batch(algorithm, document, contexts, pattern, run),
                "counters": metrics.counters()}
        patterns[text] = _shared_results(runs)
    return {"queries": queries, "patterns": patterns}


def governed_steps(engine, compiled, strategy: str) -> int:
    """``governor.steps`` after one run of the optimized plan under
    ``Budgets(max_steps=10**9)``, with the run ``Engine.execute``
    builds: the governor and the document's summary."""
    governor = ResourceGovernor(Budgets(max_steps=10**9))
    root = [engine.document.root]
    bindings = {var: root
                for var in compiled.normalized.global_vars.values()}
    bindings[compiled.normalized.context_var] = root
    eval_item(compiled.optimized, EvalContext(
        document=engine.document, strategy=make_algorithm(strategy),
        globals=bindings,
        run=Run(governor=governor, summary=engine.document.summary)))
    return governor.steps


def pinned_steps() -> dict:
    engines = reference_engines()
    steps = {}
    for stem, query in sorted(golden_queries().items()):
        engine = engines[stem.split("_", 1)[0]]
        compiled = engine.compile(query)
        steps[stem] = {strategy: governed_steps(engine, compiled, strategy)
                       for strategy in STRATEGIES}
    return steps


def _shared_results(runs: dict) -> dict:
    """The results once — every strategy must give them — and the
    counters per strategy."""
    shared = runs[STRATEGIES[0]]["results"]
    for strategy, run in runs.items():
        assert run["results"] == shared, strategy
    return {"results": shared,
            "counters": {strategy: run["counters"]
                         for strategy, run in runs.items()}}


@pytest.fixture(scope="module")
def runs():
    return pinned_runs()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def assert_pinned(got: dict, pinned: dict) -> None:
    assert got["results"] == pinned["results"]
    for strategy in STRATEGIES:
        assert got["counters"][strategy] == pinned["counters"][strategy], \
            strategy


@pytest.mark.parametrize("stem", sorted(golden_queries()))
def test_golden_query_dispatch_is_pinned(runs, pins, stem):
    assert_pinned(runs["queries"][stem], pins["queries"][stem])


@pytest.mark.parametrize("text", PATTERNS)
def test_border_pattern_dispatch_is_pinned(runs, pins, text):
    assert_pinned(runs["patterns"][text], pins["patterns"][text])


@pytest.fixture(scope="module")
def step_runs():
    return pinned_steps()


@pytest.fixture(scope="module")
def step_pins():
    return json.loads(STEP_PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("stem", sorted(golden_queries()))
def test_golden_query_step_charges_are_pinned(step_runs, step_pins, stem):
    assert step_runs[stem] == step_pins[stem]


def main() -> int:
    for path, table in ((PINS, pinned_runs()), (STEP_PINS, pinned_steps())):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
