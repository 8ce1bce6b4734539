"""Span-based tracing: measurement substrate for the whole engine.

The paper's Section 5 message — no physical algorithm dominates, so
measure before you choose — needs more than the counters in
:mod:`repro.obs`: it needs wall time attributed to individual plan
operators and individual served requests.  This package provides:

* :class:`Tracer` / :class:`Trace` / :class:`Span` — nested spans with
  monotonic timing, typed attributes, point events, bounded buffers and
  a deterministic :class:`RatioSampler` (:mod:`repro.trace.tracer`);
* exporters — Chrome ``chrome://tracing`` JSON, Prometheus text format,
  JSONL span logs, each with a validator (:mod:`repro.trace.export`);
* :class:`FlightRecorder` — bounded retention of the slowest and most
  recent request traces for the serve layer
  (:mod:`repro.trace.recorder`).

See docs/TRACING.md for the span model and format references.
"""

from .distrib import TraceContext, graft_remote, pack_trace
from .export import (chrome_trace, prometheus_text, spans_jsonl,
                     validate_chrome_trace, validate_prometheus,
                     write_chrome_trace, write_prometheus,
                     write_spans_jsonl)
from .recorder import FlightEntry, FlightRecorder, FlightSnapshot
from .tracer import (MAX_EVENTS, MAX_SPANS, OpStat, RatioSampler, Span,
                     Trace, TraceAggregates, Tracer, format_seconds,
                     maybe_span)

__all__ = [
    "FlightEntry", "FlightRecorder", "FlightSnapshot",
    "MAX_EVENTS", "MAX_SPANS", "OpStat", "RatioSampler", "Span", "Trace",
    "TraceAggregates", "TraceContext", "Tracer", "chrome_trace",
    "format_seconds", "graft_remote", "maybe_span", "pack_trace",
    "prometheus_text", "spans_jsonl", "validate_chrome_trace",
    "validate_prometheus", "write_chrome_trace", "write_prometheus",
    "write_spans_jsonl",
]
