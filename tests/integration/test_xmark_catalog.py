"""The adapted XMark query catalog, end to end."""

import pytest

from repro import Engine
from repro.algebra.optimizer import OptimizerOptions
from repro.bench import XMARK_CATALOG, catalog_queries
from repro.data import xmark_document


@pytest.fixture(scope="module")
def engine():
    return Engine(xmark_document(80, seed=5))


def keys(sequence):
    return [getattr(item, "pre", item) for item in sequence]


class TestCatalog:
    def test_catalog_well_formed(self):
        assert len(XMARK_CATALOG) >= 15
        assert all(entry.original.startswith("XMark")
                   for entry in XMARK_CATALOG.values())

    def test_catalog_queries_filter(self):
        with_joins = catalog_queries(include_joins=True)
        without = catalog_queries(include_joins=False)
        assert set(without) < set(with_joins)

    @pytest.mark.parametrize("name", sorted(XMARK_CATALOG))
    def test_strategies_agree(self, engine, name):
        entry = XMARK_CATALOG[name]
        reference = keys(engine.run(entry.query, optimize=False))
        for strategy in ("nljoin", "twigjoin", "scjoin", "cost"):
            assert keys(engine.run(entry.query, strategy=strategy)) \
                == reference, strategy

    @pytest.mark.parametrize("name", sorted(XMARK_CATALOG))
    def test_extensions_agree(self, engine, name):
        entry = XMARK_CATALOG[name]
        extended = Engine(engine.document,
                          optimizer_options=OptimizerOptions(
                              enable_positional=True))
        reference = keys(engine.run(entry.query, optimize=False))
        assert keys(extended.run(entry.query)) == reference

    def test_most_queries_return_results(self, engine):
        nonempty = 0
        for entry in XMARK_CATALOG.values():
            result = engine.run(entry.query)
            if result and result != [0]:
                nonempty += 1
        assert nonempty >= len(XMARK_CATALOG) - 2

    def test_positional_entry_uses_positional_plan(self, engine):
        entry = XMARK_CATALOG["XQ2"]
        assert entry.positional
        extended = Engine(engine.document,
                          optimizer_options=OptimizerOptions(
                              enable_positional=True))
        plain_count = engine.compile(entry.query).tree_pattern_count()
        extended_count = extended.compile(entry.query).tree_pattern_count()
        assert extended_count < plain_count

    def test_join_entries_keep_selects(self, engine):
        from repro.algebra import Select, walk_plan
        entry = XMARK_CATALOG["XQ1"]
        compiled = engine.compile(entry.query)
        assert any(isinstance(node, Select)
                   for node in walk_plan(compiled.optimized))
