"""Public façade: compile and run queries through the paper's pipeline.

::

    from repro import Engine

    engine = Engine.from_xml("<site>...</site>")
    names = engine.run("$input//person[emailaddress]/name")

    compiled = engine.compile("$input//person[emailaddress]/name")
    print(compiled.explain())          # every compilation stage
    engine.execute(compiled, strategy="twigjoin")

The compilation stages mirror Figure 2 of the paper: parse →
normalization (XQuery Core) → core rewriting (TPNF') → algebraic
compilation → algebraic optimization (tree-pattern detection) →
physical algorithm choice at execution time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .algebra import (EvalContext, ItemPlan, TupleTreePattern, compile_core,
                      count_operators, eval_item, optimize_plan,
                      plan_canonical, plan_to_string)
from .algebra.optimizer import OptimizerOptions
from .compiled import CodegenError, CompiledPlan, compile_plan
from .guard import (AlgorithmError, BudgetExceeded, Budgets, FallbackEvent,
                    InputError, ResourceGovernor)
from .obs import ExecMetrics, PipelineMetrics, PlanCache, TracedRun
from .pattern import TreePattern
from .physical import Run, Strategy, make_algorithm
from .rewrite import RewriteOptions, RewriteTrace, rewrite_to_tpnf
from .trace import Trace, Tracer, maybe_span
from .typing import infer_type
from .xmltree import IndexedDocument, Node, is_columnar_file, parse_xml
from .xqcore import CExpr, NormalizedQuery, Var, alpha_canonical, normalize_query, pretty
from .xquery import ast as surface_ast
from .xquery import parse_query
from .xquery.abbrev import resolve_abbreviations

#: pseudo-strategy name for the pure item evaluator: the *unoptimized*
#: plan has no ``TupleTreePattern`` operators, so evaluating it bypasses
#: every physical tree-pattern algorithm — the fallback of last resort.
ITEM_EVALUATOR = "item"

#: strategies ``Engine.execute`` retries on algorithm failure or a
#: (non-wall) budget trip, in order; the item evaluator last.
DEFAULT_FALLBACK_CHAIN: Tuple[str, ...] = ("nljoin", ITEM_EVALUATOR)

#: soft cap on document source size (characters); ``Engine.from_xml``
#: refuses larger inputs unless ``max_document_size`` is raised/``None``.
DEFAULT_MAX_DOCUMENT_SIZE = 64 * 1024 * 1024

#: execution backends of ``Engine.execute``: the set-at-a-time
#: (loop-lifted) interpreter (:mod:`repro.algebra.eval`) and the
#: tuple-at-a-time produce/consume plan compiler (:mod:`repro.compiled`),
#: which runs uninstrumented requests only.
BACKENDS = ("interpreted", "compiled")


@contextmanager
def _typed_depth_errors(metrics: PipelineMetrics):
    """Query text is external input: a query nested deeper than the
    (recursive) compile stages can walk is an :class:`InputError`, not a
    raw ``RecursionError``.  The stage that gave up is the last one
    ``metrics`` timed."""
    try:
        yield
    except RecursionError as err:
        stage = next(reversed(metrics.stages), "parse")
        raise InputError(
            f"query nests too deeply: the {stage} stage exceeded the "
            f"recursion limit", stage=stage) from err


def _check_query(query: Any) -> None:
    """Query text is external input: refuse a non-string or a blank."""
    if not isinstance(query, str):
        raise InputError(
            f"query must be a string, got {type(query).__name__}")
    if not query.strip():
        raise InputError("empty query text")


@dataclass
class CompiledQuery:
    """A query with all of its intermediate compilation stages."""

    text: str
    surface: surface_ast.Expr
    normalized: NormalizedQuery
    tpnf: CExpr
    plan: ItemPlan
    optimized: ItemPlan
    #: per-pass snapshots of the core rewriting, when compiled with
    #: ``trace=True``.
    rewrite_trace: Optional[RewriteTrace] = None
    #: wall-clock seconds per compilation stage (see :mod:`repro.obs`).
    pipeline_metrics: Optional[PipelineMetrics] = None
    #: codegen artifacts for the compiled backend, keyed by plan role
    #: (``"optimized"`` / ``"plan"``) and generated at the first
    #: uninstrumented ``backend="compiled"`` execute: a
    #: :class:`~repro.compiled.CompiledPlan`, or the
    #: :class:`~repro.compiled.CodegenError` that refused it (a negative
    #: cache, so a failing plan is not re-attempted every execute).
    #: Living on the query object, the generated closures share the plan
    #: cache's lifetime and LRU policy for free.
    codegen: Dict[str, Any] = field(default_factory=dict)

    @property
    def core(self) -> CExpr:
        return self.normalized.core

    def tree_pattern_count(self) -> int:
        """How many ``TupleTreePattern`` operators the optimizer found."""
        return count_operators(self.optimized, TupleTreePattern)

    def tree_patterns(self) -> List[TreePattern]:
        from .algebra import walk_plan
        return [node.pattern for node in walk_plan(self.optimized)
                if isinstance(node, TupleTreePattern)]

    def canonical_plan(self) -> str:
        """Renaming-invariant plan text (used to compare plans of
        syntactic variants, as in the paper's Section 5.1)."""
        return plan_canonical(self.optimized)

    def explain(self, metrics: bool = False) -> str:
        """A report showing every compilation stage.

        With ``metrics=True`` (and when the query was compiled through
        an :class:`Engine`, which records them) the report ends with the
        per-stage wall-clock timings.
        """
        sections = [
            ("Query", self.text),
            ("Normalized core (Section 2)", pretty(self.core)),
            ("TPNF' after rewriting (Section 3)", pretty(self.tpnf)),
            ("Algebraic plan (Section 4)", plan_to_string(self.plan)),
            ("Optimized plan with tree patterns (Section 4.2)",
             plan_to_string(self.optimized)),
        ]
        if metrics and self.pipeline_metrics is not None:
            sections.append(("Stage timings", self.pipeline_metrics.report()))
        blocks = []
        for title, body in sections:
            bar = "=" * len(title)
            blocks.append(f"{title}\n{bar}\n{body}")
        return "\n\n".join(blocks)


class Engine:
    """An XQuery engine over one indexed document."""

    def __init__(self, document: IndexedDocument,
                 rewrite_options: Optional[RewriteOptions] = None,
                 optimizer_options: Optional[OptimizerOptions] = None,
                 default_strategy: Strategy | str = Strategy.STAIRCASE,
                 plan_cache_size: int = 64,
                 budgets: Optional[Budgets] = None,
                 fallback_chain: Optional[Sequence[str]]
                 = DEFAULT_FALLBACK_CHAIN,
                 strict: bool = False,
                 use_summary: bool = True) -> None:
        self.document = document
        self.rewrite_options = rewrite_options or RewriteOptions()
        self.optimizer_options = optimizer_options or OptimizerOptions()
        self.default_strategy = Strategy(default_strategy)
        #: this engine's view on the process-wide LRU of compiled plans;
        #: ``plan_cache_size=0`` disables caching.
        self.plan_cache = PlanCache(plan_cache_size)
        #: default per-query resource limits (see :mod:`repro.guard`);
        #: ``None`` runs ungoverned.
        self.budgets = budgets
        #: strategies tried, in order, after the requested one fails;
        #: ``None``/empty disables graceful degradation.
        self.fallback_chain = self._normalize_chain(fallback_chain)
        #: with ``strict=True`` failures re-raise immediately — no
        #: fallback, original algorithm exceptions unwrapped.
        self.strict = strict
        #: build and use the document's structural summary: pattern
        #: prefiltering plus selectivity-aware costing.  ``False`` (the
        #: CLI's ``--no-summary``) runs on flat tag statistics only.
        self.use_summary = use_summary

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_xml(cls, text: str,
                 max_document_size: Optional[int]
                 = DEFAULT_MAX_DOCUMENT_SIZE, **kwargs) -> "Engine":
        if not isinstance(text, str):
            raise InputError(
                f"document must be an XML string, "
                f"got {type(text).__name__}")
        if max_document_size is not None and len(text) > max_document_size:
            raise InputError(
                f"document of {len(text)} characters exceeds the soft "
                f"limit of {max_document_size}; pass a larger "
                f"max_document_size (or None) to override",
                size=len(text), limit=max_document_size)
        return cls(IndexedDocument.from_string(text), **kwargs)

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "Engine":
        """Build an engine from a file on disk: a saved columnar index
        (see ``repro index`` / :meth:`from_columnar_file`), known by its
        magic, is mmap-opened, and anything else is parsed as XML.

        A path that is missing, a directory or not UTF-8 text raises
        :class:`~repro.guard.InputError` carrying ``path``.
        """
        if is_columnar_file(path):
            return cls.from_columnar_file(path, **kwargs)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError as err:
            raise InputError(f"no such document file: {path}",
                             path=path) from err
        except IsADirectoryError as err:
            raise InputError(f"{path} is a directory, not a document "
                             f"file", path=path) from err
        except UnicodeDecodeError as err:
            raise InputError(
                f"{path} is neither a columnar index nor UTF-8 text: "
                f"{err.reason} at byte {err.start}", path=path) from err
        return cls.from_xml(text, **kwargs)

    @classmethod
    def from_columnar_file(cls, path: str, verify: bool = True,
                           **kwargs) -> "Engine":
        """mmap-open a saved columnar index (``.rpxc``) — O(1), no
        re-parse, no re-index (see :mod:`repro.xmltree.columnar`)."""
        return cls(IndexedDocument.open(path, verify=verify), **kwargs)

    @classmethod
    def from_columnar(cls, columns, **kwargs) -> "Engine":
        """Build an engine directly over a
        :class:`~repro.xmltree.columnar.ColumnarDocument` — the
        shard-aware entry the cluster workers use: each worker wraps
        its mmap-opened shard columns without touching the filesystem
        layer again (see :mod:`repro.serve.cluster`)."""
        return cls(IndexedDocument(columns=columns), **kwargs)

    # -- compilation ------------------------------------------------------------

    def compile(self, query: str, optimize: bool = True,
                trace: bool = False, use_cache: bool = True,
                tracing: Optional[Trace] = None) -> CompiledQuery:
        """Run the full compilation pipeline on a query string.

        Results are cached through :attr:`plan_cache` keyed by
        ``(query, optimize, options)`` — never the document: the stages
        read only the query — so repeated compiles of the same query, on
        this engine or any other with the same cache size, return the
        same :class:`CompiledQuery` object; pass ``use_cache=False`` to
        force recompilation.  Per-stage wall times are recorded on the
        result's ``pipeline_metrics``.

        With ``trace=True`` the result carries a
        :class:`~repro.rewrite.RewriteTrace` recording the core
        expression after each rewriting pass that changed it (traced
        compiles bypass the cache).

        ``tracing`` optionally attaches the compile to a span
        :class:`~repro.trace.Trace`: one span per pipeline stage nested
        under a ``compile_pipeline`` span (a cache hit records none).
        """
        _check_query(query)
        if trace or not use_cache:
            return self._compile(query, optimize, trace, tracing)
        return self._cached(query, optimize, tracing)[0]

    def _cached(self, query: str, optimize: bool,
                tracing: Optional[Trace]) -> Tuple[CompiledQuery, bool]:
        """The plan cache's entry for ``query``, compiled on a miss, and
        whether it was a hit."""
        # The options are frozen, so they key the entry as they are.
        key = (query, optimize, self.rewrite_options,
               self.optimizer_options)
        return self.plan_cache.get_or_build(
            key, self._compile, query, optimize, False, tracing)

    def _compile(self, query: str, optimize: bool, trace: bool,
                 tracing: Optional[Trace]) -> CompiledQuery:
        metrics = PipelineMetrics()
        with _typed_depth_errors(metrics), \
                maybe_span(tracing, "compile_pipeline"):
            with metrics.stage("parse", tracing):
                surface = resolve_abbreviations(parse_query(query))
            with metrics.stage("normalize", tracing):
                normalized = normalize_query(surface)
            rewrite_trace = RewriteTrace() if trace else None
            with metrics.stage("rewrite", tracing):
                if optimize:
                    tpnf = rewrite_to_tpnf(normalized.core,
                                           options=self.rewrite_options,
                                           trace=rewrite_trace)
                else:
                    tpnf = normalized.core
            with metrics.stage("compile", tracing):
                plan = compile_core(tpnf)
            with metrics.stage("optimize", tracing):
                if optimize:
                    optimized = optimize_plan(
                        plan, options=self.optimizer_options)
                else:
                    optimized = plan
        return CompiledQuery(text=query, surface=surface,
                             normalized=normalized, tpnf=tpnf, plan=plan,
                             optimized=optimized,
                             rewrite_trace=rewrite_trace,
                             pipeline_metrics=metrics)

    # -- execution ---------------------------------------------------------------

    def execute(self, compiled: CompiledQuery,
                strategy: Optional[Strategy | str] = None,
                variables: Optional[Dict[str, Sequence]] = None,
                optimized: bool = True,
                metrics: Optional[ExecMetrics] = None,
                budgets: Optional[Budgets] = None,
                tracing: Optional[Trace] = None,
                backend: str = "interpreted") -> List:
        """Evaluate a compiled query and return the result sequence.

        Every free query variable (``$input``, ``$d``, …) that is not
        supplied in ``variables`` is bound to the document root, as is
        the initial context item for absolute paths.

        When ``metrics`` is given, operator/algorithm counters for this
        run are accumulated into it (see :class:`repro.obs.ExecMetrics`).

        When ``tracing`` is given, the run records spans into it: an
        ``execute`` span, one ``attempt`` span per strategy tried, and
        per-operator spans from the evaluator (see :mod:`repro.trace`);
        fallbacks and budget trips become span events.

        Work is charged against ``budgets`` (default: the engine's) and
        trips raise :class:`~repro.guard.BudgetExceeded`; when a physical
        algorithm fails — or a non-wall budget trips — the run is retried
        on each strategy of the engine's ``fallback_chain`` in turn (the
        wall deadline is *shared* across attempts), each decision
        recorded in ``metrics`` as a :class:`~repro.guard.FallbackEvent`.
        On a ``strict`` engine nothing is retried and the algorithm's
        original exception propagates.

        ``backend="compiled"`` runs the plan as generated Python (see
        :mod:`repro.compiled`) when the request has no metrics, budgets
        or trace; any other request, and a plan the code generator
        refuses, is interpreted with the same results.
        """
        if backend not in BACKENDS:
            raise InputError(
                f"unknown backend {backend!r}; valid backends: "
                f"{', '.join(BACKENDS)}", backend=repr(backend))
        if budgets is None:
            budgets = self.budgets
        if budgets is not None and not budgets.enabled():
            budgets = None
        requested = self._strategy_name(
            strategy if strategy is not None else self.default_strategy)
        attempts = [requested]
        if not self.strict:
            attempts.extend(name for name in self.fallback_chain
                            if name != requested)
        deadline = None
        if budgets is not None and budgets.wall_seconds is not None:
            deadline = time.perf_counter() + budgets.wall_seconds
        exec_span = tracing.begin_span("execute", strategy=requested) \
            if tracing is not None else None
        last = len(attempts) - 1
        for index, name in enumerate(attempts):
            governor = None
            if budgets is not None:
                # Fresh step/depth counters per attempt; one shared wall
                # deadline so fallback cannot multiply the timeout.
                governor = ResourceGovernor(budgets, deadline=deadline,
                                            trace=tracing)
                governor.check_clock()
            attempt_span = tracing.begin_span("attempt", strategy=name) \
                if tracing is not None else None
            try:
                results = self._execute_once(compiled, name, variables,
                                             optimized, metrics, governor,
                                             tracing, backend)
            except (AlgorithmError, BudgetExceeded) as err:
                # Close the failed attempt's span before (possibly)
                # opening the next one, so retries nest as siblings.
                code = getattr(err, "code", type(err).__name__)
                if attempt_span is not None:
                    tracing.end_span(attempt_span, error=code)
                if isinstance(err, AlgorithmError):
                    if self.strict:
                        cause = err.__cause__
                        if isinstance(cause, Exception):
                            raise cause
                        raise
                    if index == last:
                        raise
                else:
                    if self.strict or err.kind == "wall" or index == last:
                        raise
                self._record_fallback(metrics, name, attempts[index + 1],
                                      err)
                if tracing is not None:
                    tracing.event("fallback", from_strategy=name,
                                  to_strategy=attempts[index + 1],
                                  error_code=code)
            else:
                if attempt_span is not None:
                    tracing.end_span(attempt_span, rows=len(results))
                    tracing.end_span(exec_span, strategy=name,
                                     rows=len(results))
                return results
        raise AssertionError("unreachable: attempts is never empty")

    def _execute_once(self, compiled: CompiledQuery, strategy_name: str,
                      variables: Optional[Dict[str, Sequence]],
                      optimized: bool, metrics: Optional[ExecMetrics],
                      governor: Optional[ResourceGovernor],
                      tracing: Optional[Trace], backend: str) -> List:
        if strategy_name == ITEM_EVALUATOR:
            # The unoptimized plan has no TupleTreePattern operators, so
            # the strategy is never consulted; evaluating it sidesteps
            # every physical algorithm.
            algorithm = make_algorithm(Strategy.NESTED_LOOP)
            plan = compiled.plan
        else:
            algorithm = make_algorithm(strategy_name)
            plan = compiled.optimized if optimized else compiled.plan
        summary = None
        if self.use_summary:
            # Built at the first execute and kept by the document: a
            # compiled plan is shared between documents, so compile
            # cannot build it.
            with maybe_span(tracing, "summary"):
                summary = self.document.summary
        bindings: Dict[Var, List] = {}
        root = [self.document.root]
        for name, var in compiled.normalized.global_vars.items():
            if variables is not None and name in variables:
                bindings[var] = list(variables[name])
            else:
                bindings[var] = list(root)
        bindings[compiled.normalized.context_var] = list(root)
        context = EvalContext(document=self.document, strategy=algorithm,
                              globals=bindings,
                              run=Run(metrics, governor, tracing, summary))
        if backend == "compiled" and not context.run.instrumented:
            # Generated once per plan role and kept on the query, a
            # refusal too; a refused plan is interpreted.
            role = "optimized" if plan is compiled.optimized else "plan"
            program = compiled.codegen.get(role)
            if program is None:
                try:
                    program = compile_plan(plan)
                except CodegenError as err:
                    program = err
                compiled.codegen[role] = program
            if isinstance(program, CompiledPlan):
                return program.run(context)
        return eval_item(plan, context)

    @staticmethod
    def _record_fallback(metrics: Optional[ExecMetrics], from_name: str,
                         to_name: str, err: Exception) -> None:
        if metrics is None:
            return
        metrics.record_fallback(FallbackEvent(
            from_strategy=from_name, to_strategy=to_name,
            error_code=getattr(err, "code", type(err).__name__),
            error=getattr(err, "message", str(err))))

    def run(self, query: str,
            strategy: Optional[Strategy | str] = None,
            variables: Optional[Dict[str, Sequence]] = None,
            optimize: bool = True) -> List:
        """Compile and evaluate in one call."""
        compiled = self.compile(query, optimize=optimize)
        return self.execute(compiled, strategy=strategy,
                            variables=variables, optimized=optimize)

    def run_traced(self, query: str,
                   strategy: Optional[Strategy | str] = None,
                   variables: Optional[Dict[str, Sequence]] = None,
                   optimize: bool = True,
                   tracer: Optional[Tracer] = None) -> TracedRun:
        """Compile and evaluate with full observability.

        Returns a :class:`repro.obs.TracedRun` carrying the result
        sequence plus the compile stages this run paid (none on a
        plan-cache hit), execution counters (operator evaluations,
        per-algorithm nodes visited / streams scanned, chooser
        decisions) and plan-cache statistics.  When a
        :class:`~repro.trace.Tracer` is supplied and admits the run, the
        query compiles past the plan cache, so every stage span is
        measured, and the result carries the finished span
        :class:`~repro.trace.Trace` on its ``trace`` field: its
        ``render()`` is EXPLAIN ANALYZE.
        """
        _check_query(query)
        trace = tracer.begin("query", query=query) \
            if tracer is not None else None
        if trace is None:
            compiled, cache_hit = self._cached(query, optimize, None)
        else:
            compiled, cache_hit = self._compile(query, optimize, False,
                                                trace), False
        metrics = ExecMetrics()
        start = time.perf_counter()
        try:
            results = self.execute(compiled, strategy=strategy,
                                   variables=variables, optimized=optimize,
                                   metrics=metrics, tracing=trace)
            wall = time.perf_counter() - start
        finally:
            if trace is not None:
                trace.finish()
        chosen = self._strategy_name(
            strategy if strategy is not None else self.default_strategy)
        # The strategy that actually produced the results: the last
        # fallback target when graceful degradation kicked in, the
        # requested strategy otherwise.
        effective = metrics.fallbacks[-1].to_strategy \
            if metrics.fallbacks else chosen
        return TracedRun(results=results, strategy=chosen,
                         wall_seconds=wall, metrics=metrics,
                         pipeline=PipelineMetrics() if cache_hit
                         else compiled.pipeline_metrics,
                         cache=self.plan_cache.stats.snapshot(),
                         cache_hit=cache_hit, effective_strategy=effective,
                         trace=trace, compiled=compiled)

    # -- explain ---------------------------------------------------------------

    def explain(self, query: str, analyze: bool = False,
                strategy: Optional[Strategy | str] = None,
                metrics: bool = False) -> str:
        """The compilation stages of a query — or, with
        ``analyze=True``, the EXPLAIN ANALYZE report: the optimized plan
        annotated with measured per-operator wall time and
        cardinalities from one traced execution."""
        if not analyze:
            return self.compile(query).explain(metrics=metrics)
        return self.run_traced(query, strategy=strategy,
                               tracer=Tracer()).render()

    def _strategy_name(self, strategy: Strategy | str) -> str:
        """Validate a strategy designator, returning its canonical name
        (``Strategy`` values plus the ``"item"`` pseudo-strategy)."""
        if isinstance(strategy, Strategy):
            return strategy.value
        if isinstance(strategy, str):
            if strategy == ITEM_EVALUATOR:
                return ITEM_EVALUATOR
            try:
                return Strategy(strategy).value
            except ValueError:
                valid = ", ".join(member.value for member in Strategy)
                raise InputError(
                    f"unknown strategy {strategy!r}; valid strategies: "
                    f"{valid} (or {ITEM_EVALUATOR!r})",
                    strategy=strategy) from None
        raise InputError(
            f"strategy must be a Strategy or a strategy name string, "
            f"got {type(strategy).__name__}", strategy=repr(strategy))

    def _normalize_chain(self,
                         chain: Optional[Sequence[str]]) -> Tuple[str, ...]:
        """Validate a fallback chain (also accepts a comma-separated
        string, e.g. from the command line)."""
        if chain is None:
            return ()
        if isinstance(chain, str):
            chain = [part.strip() for part in chain.split(",")
                     if part.strip()]
        return tuple(self._strategy_name(entry) for entry in chain)


def execute_query(xml_text: str, query: str, **kwargs) -> List:
    """One-shot convenience: parse, compile, run."""
    return Engine.from_xml(xml_text).run(query, **kwargs)


def xpath(document: "IndexedDocument | str", path: str,
          strategy: Strategy | str = Strategy.STAIRCASE,
          **kwargs) -> List:
    """Evaluate one path expression against a document.

    ``document`` may be an :class:`IndexedDocument` or an XML string;
    the path's free variables (and absolute steps) resolve to the
    document root.

    >>> from repro import xpath
    >>> [n.string_value() for n in xpath("<a><b>x</b></a>", "//b")]
    ['x']
    """
    if isinstance(document, str):
        engine = Engine.from_xml(document)
    else:
        engine = Engine(document)
    return engine.run(path, strategy=strategy, **kwargs)
