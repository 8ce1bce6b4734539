"""Regenerate every paper table and figure in one run.

Usage::

    python benchmarks/run_all.py            # scaled-down defaults
    REPRO_SCALE=10 python benchmarks/run_all.py   # paper-sized workloads

The output is the material recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
import time

import bench_ablation
import bench_columnar
import bench_extensions
import bench_figure4
import bench_figure6
import bench_obsplane
import bench_selective
import bench_serve
import bench_table1
import bench_trace
import bench_xmark_catalog


def main() -> int:
    sections = [
        ("Table 1 (Section 5.2)", bench_table1.generate_table),
        ("Figure 4 (Section 5.1)", bench_figure4.generate_figure),
        ("Figure 6 (Section 5.2)", bench_figure6.generate_figure),
        ("Section 5.3 table", bench_selective.generate_table),
        ("Summary prefilter (docs/INDEXING.md)",
         bench_selective.generate_prefilter_table),
        ("Ablation (DESIGN.md E5)", bench_ablation.generate_table),
        ("Adapted XMark catalog (workload family)",
         bench_xmark_catalog.generate_table),
        ("Extensions: positional patterns (Section 7)",
         bench_extensions.generate_positional_table),
        ("Extensions: cost-based choice (Section 7)",
         bench_extensions.generate_chooser_table),
        ("Serving layer under load (docs/SERVING.md, E8)",
         bench_serve.generate_table),
        ("Tracing overhead (docs/TRACING.md, E9)",
         bench_trace.generate_table),
        ("Columnar store (docs/STORAGE.md, E10)",
         bench_columnar.generate_table),
        ("Resilience under chaos (docs/ROBUSTNESS.md, E11)",
         bench_serve.generate_chaos_table),
        ("Multi-process sharded cluster (docs/CLUSTER.md, E13)",
         bench_serve.generate_cluster_table),
        ("Distributed telemetry plane (docs/OBSPLANE.md, E14)",
         bench_obsplane.generate_table),
    ]
    for title, generate in sections:
        start = time.perf_counter()
        print("#" * 72)
        print(f"# {title}")
        print("#" * 72)
        print(generate())
        print(f"[generated in {time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
