"""E10 — columnar store: parse, save, mmap open, memory.

Three measurements of ``repro.xmltree.columnar`` (docs/STORAGE.md):

* **build & persist** — parse time (the parser appends straight to
  the columns), save time and on-disk size for the Table 1 MemBeR
  series;
* **catalog open** — re-parsing the XML (what ``DocumentCatalog`` paid
  before this format existed) vs ``IndexedDocument.open``'s lazy mmap.
  The acceptance bar — mmap open at least 2× faster — is asserted, and
  a *first-query* column shows the laziness is not just deferring the
  whole cost;
* **resident memory** — peak Python heap to parse a document and to
  open its saved file, plus the columnar byte footprint, which for a
  mapped document lives in the page cache, not the heap.

Run styles::

    pytest benchmarks/bench_columnar.py --benchmark-only
    python benchmarks/bench_columnar.py
"""

from __future__ import annotations

import os
import tempfile
import tracemalloc
from typing import Dict, List

import pytest

from repro import Engine
from repro.bench import QE_QUERIES, scaled, time_call
from repro.data import member_document
from repro.xmltree import IndexedDocument, serialize

#: MemBeR sizes for the build/persist series — the Table 1 shape,
#: thinned to three points (build cost is linear; five adds nothing).
BUILD_NODE_COUNTS = [4_000, 12_000, 20_000]

#: the open-time measurements run on the middle Table 1 size.
OPEN_NODES = 12_000

#: required mmap-open advantage over re-parse (acceptance bar).
OPEN_SPEEDUP_FLOOR = 2.0

REPEATS = 3


def _member_xml(node_count: int) -> str:
    doc = member_document(node_count, depth=4, tag_count=100,
                          seed=20070415)
    return serialize(doc.root)


def _parse(xml_text: str) -> IndexedDocument:
    """The pre-index catalog path: parse the text into columns."""
    return IndexedDocument.from_string(xml_text)


def measure_build(node_counts: List[int] | None = None,
                  repeats: int = REPEATS) -> List[Dict[str, float]]:
    """Parse/save/open seconds and file size per document size."""
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-e10-") as tmp:
        for base in (node_counts or BUILD_NODE_COUNTS):
            count = scaled(base)
            xml_text = _member_xml(count)
            parse_seconds = time_call(lambda: _parse(xml_text), repeats)
            doc = _parse(xml_text)
            path = os.path.join(tmp, f"member-{count}.rpxc")
            save_seconds = time_call(lambda: doc.save(path), repeats)
            open_seconds = _mmap_open_seconds(path, repeats)
            rows.append({
                "nodes": float(doc.size),
                "parse": parse_seconds,
                "save": save_seconds,
                "bytes": float(os.path.getsize(path)),
                "mmap open": open_seconds,
            })
    return rows


def _mmap_open_seconds(path: str, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        opened = IndexedDocument.open(path, verify=False)
        best = min(best, opened.columns.open_seconds)
        opened.close()
    return best


def measure_open(node_count: int | None = None,
                 repeats: int = REPEATS) -> Dict[str, float]:
    """Catalog-open comparison on one document: seconds to a usable
    engine, seconds to the first query result, and the speedup."""
    count = scaled(node_count or OPEN_NODES)
    xml_text = _member_xml(count)
    with tempfile.TemporaryDirectory(prefix="repro-e10-") as tmp:
        path = os.path.join(tmp, "member.rpxc")
        _parse(xml_text).save(path)
        query = QE_QUERIES["QE4"]

        parse_open = time_call(lambda: _parse(xml_text), repeats)
        mmap_open = _mmap_open_seconds(path, repeats)

        def parse_first_query():
            Engine(_parse(xml_text)).run(query, strategy="scjoin")

        def mmap_first_query():
            doc = IndexedDocument.open(path, verify=False)
            try:
                Engine(doc).run(query, strategy="scjoin")
            finally:
                doc.close()

        return {
            "nodes": float(count),
            "parse open": parse_open,
            "mmap open": mmap_open,
            "speedup": parse_open / mmap_open,
            "parse first query": time_call(parse_first_query, repeats),
            "mmap first query": time_call(mmap_first_query, repeats),
        }


def measure_memory(node_count: int | None = None) -> Dict[str, float]:
    """Peak Python-heap bytes to parse a document and to open it."""
    count = scaled(node_count or OPEN_NODES)
    xml_text = _member_xml(count)

    tracemalloc.start()
    doc = _parse(xml_text)
    _, parse_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    columns = doc.columns
    with tempfile.TemporaryDirectory(prefix="repro-e10-") as tmp:
        path = os.path.join(tmp, "member.rpxc")
        columns.save(path)
        tracemalloc.start()
        opened = IndexedDocument.open(path, verify=False)
        opened.tag_pres     # touch the lazy stream directory
        _, mmap_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        opened.close()

    return {
        "nodes": float(count),
        "parse heap peak": float(parse_peak),
        "column bytes": float(columns.nbytes()),
        "mmap open heap peak": float(mmap_peak),
    }


def generate_table() -> str:
    sections = []

    build_rows = measure_build()
    lines = ["Build & persist (MemBeR, seconds; bytes on disk)",
             f"{'nodes':>8}{'parse':>10}{'save':>10}{'bytes':>10}"
             f"{'mmap open':>12}"]
    for row in build_rows:
        lines.append(f"{row['nodes']:>8.0f}{row['parse']:>10.5f}"
                     f"{row['save']:>10.5f}{row['bytes']:>10.0f}"
                     f"{row['mmap open']:>12.6f}")
    sections.append("\n".join(lines))

    opened = measure_open()
    assert opened["speedup"] >= OPEN_SPEEDUP_FLOOR, (
        f"mmap open is only {opened['speedup']:.1f}× faster than "
        f"re-parse (floor {OPEN_SPEEDUP_FLOOR}×)")
    sections.append(
        f"Catalog open ({opened['nodes']:.0f} nodes, best of {REPEATS})\n"
        f"  re-parse           {opened['parse open']:.5f}s\n"
        f"  mmap open          {opened['mmap open']:.6f}s   "
        f"({opened['speedup']:.0f}x faster)\n"
        f"  first query incl. open: parse "
        f"{opened['parse first query']:.5f}s, mmap "
        f"{opened['mmap first query']:.5f}s")

    memory = measure_memory()
    sections.append(
        f"Resident memory ({memory['nodes']:.0f} nodes)\n"
        f"  parse heap peak          {memory['parse heap peak']:>12,.0f} B\n"
        f"  columnar column bytes    {memory['column bytes']:>12,.0f} B\n"
        f"  mmap open heap peak      "
        f"{memory['mmap open heap peak']:>12,.0f} B")

    return "\n\n".join(sections)


# --- pytest-benchmark entry points -----------------------------------

@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    xml_text = _member_xml(scaled(OPEN_NODES))
    path = tmp_path_factory.mktemp("e10") / "member.rpxc"
    _parse(xml_text).save(path)
    return {"xml": xml_text, "path": path}


def test_open_by_parsing(benchmark, saved):
    benchmark(lambda: _parse(saved["xml"]))


def test_open_mmap(benchmark, saved):
    def open_and_close():
        IndexedDocument.open(saved["path"], verify=False).close()
    benchmark(open_and_close)


if __name__ == "__main__":
    print(generate_table())
