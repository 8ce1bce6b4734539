"""EXPLAIN ANALYZE: the optimized plan annotated with measured reality.

:class:`ExplainAnalysis` pairs a compiled query with the trace of one
actual execution and renders the operator tree with per-operator wall
time, call counts and output cardinalities (from the trace's exact
``op_stats`` aggregation, so buffer truncation never loses a node),
plus pipeline stage timings and the prune/decision/fallback events the
run emitted.  ``Engine.explain(analyze=True)`` builds one; the CLI
surfaces it as ``repro explain --analyze`` and, via
:meth:`ExplainAnalysis.to_dot`, as an annotated Graphviz plan graph
(``--dot out.dot``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..algebra.dot import describe_plan, plan_to_dot
from .tracer import OpStat, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import ExecMetrics

__all__ = ["ExplainAnalysis", "format_seconds"]

#: engine pipeline stage names, in pipeline order (mirrors Engine): the
#: compile stages, then the summary build the first execute does.
_STAGES = ("parse", "normalize", "rewrite", "compile", "optimize",
           "summary")

_LABEL_WIDTH = 46


def format_seconds(seconds: float) -> str:
    """Adaptive µs/ms/s rendering (traces span six orders of magnitude)."""
    if seconds < 0.001:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"


class ExplainAnalysis:
    """One executed query, annotated: plan tree × measured trace."""

    def __init__(self, query: str, compiled: Any, trace: Trace,
                 strategy: str, results: List[Any],
                 metrics: "Optional[ExecMetrics]" = None) -> None:
        self.query = query
        self.compiled = compiled
        self.trace = trace
        self.strategy = strategy
        self.results = results
        self.metrics = metrics

    # -- derived views -------------------------------------------------------

    @property
    def op_stats(self) -> Dict[int, OpStat]:
        """Exact per-plan-operator aggregates, keyed by ``id(node)``."""
        return self.trace.op_stats

    def stage_seconds(self) -> Dict[str, float]:
        """Pipeline stage name → seconds, from the compile spans."""
        stages: Dict[str, float] = {}
        wanted = set(_STAGES)
        for span in self.trace.spans:
            if span.name in wanted and span.name not in stages:
                stages[span.name] = span.duration
        return stages

    def event_counts(self) -> Counter:
        """Point-event name → occurrences across the whole trace."""
        counts: Counter = Counter()
        for span in self.trace.spans:
            for _offset, name, _attrs in span.events:
                counts[name] += 1
        return counts

    def execute_seconds(self) -> float:
        for span in self.trace.spans:
            if span.name == "execute":
                return span.duration
        return 0.0

    # -- rendering -----------------------------------------------------------

    def _annotation(self, node: Any) -> str:
        stat = self.op_stats.get(id(node))
        if stat is None:
            return "(not executed)"
        calls = f"{stat.calls}x " if stat.calls != 1 else ""
        return (f"{calls}{format_seconds(stat.seconds)} "
                f"-> {stat.rows} rows")

    def render(self) -> str:
        """The full EXPLAIN ANALYZE report as plain text."""
        lines = [
            f"EXPLAIN ANALYZE  {self.query}",
            f"strategy={self.strategy}  items={len(self.results)}  "
            f"total={format_seconds(self.trace.duration)}  "
            f"execute={format_seconds(self.execute_seconds())}",
        ]
        stages = self.stage_seconds()
        if stages:
            rendered = "  ".join(
                f"{name}={format_seconds(stages[name])}"
                for name in _STAGES if name in stages)
            lines.append(f"stages: {rendered}")
        lines.append("")
        self._render_node(self.compiled.optimized, 0, "", lines)
        events = self.event_counts()
        if events:
            rendered = "  ".join(f"{name}={count}" for name, count
                                 in sorted(events.items()))
            lines.append("")
            lines.append(f"events: {rendered}")
        if self.metrics is not None and self.metrics.fallbacks:
            for event in self.metrics.fallbacks:
                lines.append(f"fallback: {event.from_strategy} -> "
                             f"{event.to_strategy} ({event.error_code})")
        if self.trace.dropped_spans or self.trace.dropped_events:
            lines.append(f"note: trace buffers dropped "
                         f"{self.trace.dropped_spans} spans, "
                         f"{self.trace.dropped_events} events "
                         f"(op stats remain exact)")
        return "\n".join(lines)

    def _render_node(self, node: Any, depth: int, role: str,
                     lines: List[str]) -> None:
        label, dependents, inputs = describe_plan(node)
        label = label.replace("\\n", " ")
        if role:
            label = f"{role}: {label}"
        text = "  " * depth + label
        padding = max(_LABEL_WIDTH - len(text), 2)
        lines.append(f"{text}{' ' * padding}{self._annotation(node)}")
        for dependent in dependents:
            self._render_node(dependent, depth + 1, "dep", lines)
        for input_plan in inputs:
            self._render_node(input_plan, depth + 1, "", lines)

    def dot_annotations(self) -> Dict[int, str]:
        """``id(node)`` → annotation line for :func:`plan_to_dot`."""
        return {op_id: (f"{stat.calls}x {format_seconds(stat.seconds)} "
                        f"-> {stat.rows} rows")
                for op_id, stat in self.op_stats.items()}

    def to_dot(self, name: Optional[str] = None) -> str:
        """The optimized plan as DOT, annotated with time/cardinality."""
        return plan_to_dot(self.compiled.optimized,
                           name=name or self.query,
                           annotations=self.dot_annotations())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query, "strategy": self.strategy,
            "items": len(self.results),
            "total_seconds": self.trace.duration,
            "execute_seconds": self.execute_seconds(),
            "stages": self.stage_seconds(),
            "operators": [stat.to_dict()
                          for stat in self.op_stats.values()],
            "events": dict(self.event_counts()),
            "trace": self.trace.to_dict(),
        }
