"""The persistence differential: answers from a saved file.

Every golden-corpus query runs under every physical strategy on a
document saved to ``.rpxc`` and mmap-opened back, and must serialize
byte-identically to the recorded golden bytes (which
tests/integration/test_golden.py pins for the parsed documents).  The
compiled backend (:mod:`repro.compiled`) is held to the same bar on the
same opened documents.  The generated-query stream runs on the columns
in tests/property/test_prop_fuzz_differential.py.
"""

import atexit
import os
import tempfile

import pytest

from repro import Engine
from repro.xmltree import IndexedDocument

from tests.support.make_golden import (GOLDEN_DIR, golden_queries,
                                       reference_engines, render_results)

ALL_STRATEGIES = ("nljoin", "twigjoin", "scjoin", "stacktree",
                  "streaming", "auto", "cost", "item")

_QUERIES = golden_queries()

# Save each reference document once and mmap-open it back, so every
# test in this module exercises the actual persistence path.
_TMP = tempfile.TemporaryDirectory(prefix="repro-columnar-diff-")
atexit.register(_TMP.cleanup)

_COLUMNAR_ENGINES = {}
for _name, _engine in reference_engines().items():
    _path = os.path.join(_TMP.name, f"{_name}.rpxc")
    _engine.document.save(_path)
    _COLUMNAR_ENGINES[_name] = Engine(IndexedDocument.open(_path))


def _expected(stem):
    return (GOLDEN_DIR / f"{stem}.xml").read_text(encoding="utf-8")


class TestGoldenCorpusOnColumnar:
    """Every strategy on the opened documents against the recorded
    golden bytes."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("stem", sorted(_QUERIES))
    def test_golden_bytes(self, stem, strategy):
        name = stem.split("_", 1)[0]
        got = render_results(
            _COLUMNAR_ENGINES[name].run(_QUERIES[stem],
                                        strategy=strategy))
        assert got == _expected(stem), (
            f"{stem} under {strategy} (opened file) drifted from the "
            f"golden corpus")

    def test_documents_opened_from_disk(self):
        for engine in _COLUMNAR_ENGINES.values():
            assert engine.document.columns.is_mapped


class TestGoldenCorpusCompiled:
    """The compiled backend against the recorded golden bytes on the
    opened documents — byte-identity with the interpreted evaluator is
    transitive through the pinned corpus."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("stem", sorted(_QUERIES))
    def test_golden_bytes_compiled(self, stem, strategy):
        name = stem.split("_", 1)[0]
        engine = _COLUMNAR_ENGINES[name]
        got = render_results(engine.execute(
            engine.compile(_QUERIES[stem]), strategy=strategy,
            backend="compiled"))
        assert got == _expected(stem), (
            f"{stem} under {strategy} (compiled) drifted from the golden "
            f"corpus")
