"""Produce/consume plan compilation (ROADMAP item 1).

The interpreter in :mod:`repro.algebra.eval` is set-at-a-time: every
operator is evaluated once per batch of tuples and materializes one
result per tuple, behind a dispatch and (when observability is attached)
a metrics/governor/trace wrapper per batch.  This module takes the
opposite route and *compiles* a plan into one Python function: the
tuple-sorted operator chains (``MapFromItem`` → ``Select`` →
``TupleTreePattern`` → …) fuse into nested loops with **tuple-at-a-time
push semantics** — a tuple is a set of Python locals, pushed through the
downstream stages' code the moment it is produced — and only the
*pipeline breakers* materialize:

* ``fs:ddo`` (sort + duplicate removal needs the whole sequence),
* aggregation ``FnCall``\\ s whose argument drains a tuple pipeline,
* the pattern evaluation inside ``TupleTreePattern`` (the join's build
  side: :meth:`~repro.physical.base.TreePatternAlgorithm.evaluate`
  returns the per-tuple binding list in one call).

The architecture follows the ``CompileState``/``Pipelined`` design of
push-based query compilers: each tuple operator's code generator calls
its input's generator with a *consume* callback that emits the
downstream per-tuple code into the innermost loop body.

One function is generated per plan, and it counts, charges and traces
nothing: the engine runs it only for a request with no metrics, budgets
or trace (the interpreter's own fast-path test) and interprets every
other request.  Chaos points fire in it as they do in plain interpreted
runs.

Field names are uniquified at algebra-compile time (see
``repro.algebra.compile``), so tuple fields map to Python locals with a
flat compile-time scope and never shadow.  Generated source embeds no
runtime ids and no memory addresses: compiling the same query twice
yields the same source text (snapshot-stable).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..algebra.eval import EvalContext, _is_numeric_singleton
from ..algebra.functions import call_function
from ..algebra.ops import (Arith, Compare, Const, DDOPlan, FieldAccess,
                           FnCall, IfPlan, InputTuple, ItemPlan, LetPlan,
                           Logical, MapFromItem, MapToItem, Select,
                           SeqPlan, TreeJoin, TuplePlan, TupleTreePattern,
                           TypeswitchPlan, VarPlan, walk_plan)
from ..algebra.runtime import (DynamicError, Sequence_, arithmetic,
                               effective_boolean_value, general_compare)
from ..guard.errors import ReproError
from ..pattern import TreePattern
from ..xmltree.axes import step as axis_step
from ..xmltree.document import ddo
from ..xmltree.node import Node
from ..xqcore.cast import Var
from .runtime import context_nodes, raise_dynamic, ttp_eval, unknown_field

__all__ = ["CodegenError", "CompiledPlan", "compile_plan", "compile_count"]


class CodegenError(ReproError):
    """The plan compiler cannot generate code for this plan.

    Raised at codegen time, never from generated code; the engine
    interprets the plan instead and keeps the error, so the plan is not
    generated again."""

    code = "REPRO-CODEGEN"


#: total successful :func:`compile_plan` runs in this process — lets the
#: cache-reuse tests prove a plan is generated once and re-run many
#: times.
_COMPILE_COUNT = itertools.count()
_COMPILED_TOTAL = 0


def compile_count() -> int:
    """How many plans have been compiled to Python so far."""
    return _COMPILED_TOTAL


#: functions every generated module can see.  Names are short because
#: they appear once per call site in generated source.
_HELPERS = {
    "_step": axis_step,
    "_ddo": ddo,
    "_ebv": effective_boolean_value,
    "_gc": general_compare,
    "_arith": arithmetic,
    "_call": call_function,
    "_ttp_eval": ttp_eval,
    "_ctx_nodes": context_nodes,
    "_unknown_field": unknown_field,
    "_raise_dyn": raise_dynamic,
    "_is_num1": _is_numeric_singleton,
    "_Node": Node,
    "_Dyn": DynamicError,
}

#: aggregate-style built-ins: a call over a tuple pipeline drains it.
_PIPELINE_SINKS = (MapToItem,)


@dataclass
class CompiledPlan:
    """One plan compiled to Python.

    ``source`` is the generated text (the snapshot the unit tests pin);
    ``breakers`` names every materialization point, in emission order;
    ``run`` evaluates the plan in an
    :class:`~repro.algebra.eval.EvalContext` whose run has no metrics,
    budgets or trace.
    """

    plan: ItemPlan
    source: str
    breakers: Tuple[str, ...]
    run: Callable[[EvalContext], Sequence_]


def compile_plan(plan: ItemPlan) -> CompiledPlan:
    """Compile an item plan into a :class:`CompiledPlan`.

    Raises :class:`CodegenError` — and nothing else — when the plan (or
    a pattern inside it) is outside the compilable fragment.
    """
    global _COMPILED_TOTAL
    if not isinstance(plan, ItemPlan):
        raise CodegenError(
            f"can only compile item-sorted root plans, "
            f"got {type(plan).__name__}")
    try:
        source, consts, breakers = _Codegen().generate(plan)
        function = _assemble(source, consts)
    except CodegenError:
        raise
    except Exception as err:  # defensive: never leak codegen bugs
        raise CodegenError(
            f"plan code generation failed: {err}") from err
    _COMPILED_TOTAL = next(_COMPILE_COUNT) + 1
    return CompiledPlan(plan=plan, source=source, breakers=tuple(breakers),
                        run=function)


def _assemble(source: str, consts: List[object]) -> Callable:
    namespace = dict(_HELPERS)
    for index, value in enumerate(consts):
        namespace[f"_k{index}"] = value
    code = compile(source, "<repro.compiled>", "exec")
    exec(code, namespace)
    return namespace["_compiled"]


class _Codegen:
    """One generation pass over a plan."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 1
        self.consts: List[object] = []
        self._const_names: Dict[int, str] = {}
        self._counter = 0
        self.breakers: List[str] = []
        #: compile-time scope: tuple field name -> local; let var -> local.
        self.fields: Dict[str, str] = {}
        self.vars: Dict[Var, str] = {}
        #: > 0 while emitting a dependent sub-plan (``IN`` is bound).
        self.in_tuple = 0

    # -- emission primitives ------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def const(self, value: object) -> str:
        name = self._const_names.get(id(value))
        if name is None:
            name = f"_k{len(self.consts)}"
            self.consts.append(value)
            self._const_names[id(value)] = name
        return name

    @contextmanager
    def block(self):
        """An indented suite; emits ``pass`` if the body stays empty."""
        self.indent += 1
        mark = len(self.lines)
        try:
            yield
        finally:
            if len(self.lines) == mark:
                self.emit("pass")
            self.indent -= 1

    @contextmanager
    def scoped_fields(self, bindings: Dict[str, str]):
        saved = {name: self.fields.get(name) for name in bindings}
        self.fields.update(bindings)
        try:
            yield
        finally:
            for name, previous in saved.items():
                if previous is None:
                    self.fields.pop(name, None)
                else:
                    self.fields[name] = previous

    @contextmanager
    def scoped_var(self, var: Var, local: str):
        previous = self.vars.get(var)
        self.vars[var] = local
        try:
            yield
        finally:
            if previous is None:
                del self.vars[var]
            else:
                self.vars[var] = previous

    @contextmanager
    def dependent(self):
        """Emitting a per-tuple dependent sub-plan (``IN`` is bound)."""
        self.in_tuple += 1
        try:
            yield
        finally:
            self.in_tuple -= 1

    # -- entry point --------------------------------------------------------

    def generate(self, plan: ItemPlan):
        """Emit the whole function; returns (source, consts, breakers)."""
        out = self.item(plan)
        self.emit(f"return {out}")
        header = ["def _compiled(ctx):",
                  "    _doc = ctx.document",
                  "    _strategy = ctx.strategy",
                  "    _lookupv = ctx.lookup_var"]
        source = "\n".join(header + self.lines) + "\n"
        return source, self.consts, self.breakers

    # -- item-sorted operators ----------------------------------------------

    def item(self, plan: ItemPlan) -> str:
        """Emit one item-operator activation; returns the local holding
        its materialized result list."""
        out = self.fresh("s")
        if isinstance(plan, Const):
            self.emit(f"{out} = list({self.const(plan.values)})")
        elif isinstance(plan, VarPlan):
            local = self.vars.get(plan.var)
            if local is not None:
                self.emit(f"{out} = list({local})")
            else:
                self.emit(f"{out} = list(_lookupv({self.const(plan.var)}))")
        elif isinstance(plan, FieldAccess):
            local = self.fields.get(plan.field)
            if local is not None:
                self.emit(f"{out} = list({local})")
            else:
                self.emit(f"{out} = _unknown_field({plan.field!r})")
        elif isinstance(plan, TreeJoin):
            inp = self.item(plan.input)
            axis = self.const(plan.axis)
            test = self.const(plan.test)
            item = self.fresh("i")
            self.emit(f"{out} = []")
            self.emit(f"for {item} in {inp}:")
            with self.block():
                self.emit(f"if not isinstance({item}, _Node):")
                with self.block():
                    self.emit('_raise_dyn("TreeJoin over a non-node item")')
                self.emit(f"{out}.extend(_step({item}, {axis}, {test}))")
        elif isinstance(plan, DDOPlan):
            self.breakers.append("ddo")
            inp = self.item(plan.input)
            item = self.fresh("i")
            self.emit(f"for {item} in {inp}:")
            with self.block():
                self.emit(f"if not isinstance({item}, _Node):")
                with self.block():
                    self.emit('_raise_dyn("fs:ddo over a non-node item")')
            self.emit(f"{out} = _ddo({inp})")
        elif isinstance(plan, MapToItem):
            self.emit(f"{out} = []")

            def consume() -> None:
                with self.dependent():
                    dep = self.item(plan.dep)
                self.emit(f"{out}.extend({dep})")

            self.tuples(plan.input, consume)
        elif isinstance(plan, FnCall):
            if any(isinstance(node, _PIPELINE_SINKS)
                   for arg in plan.args for node in walk_plan(arg)):
                # plan.name already carries its namespace ("fn:count").
                self.breakers.append(plan.name)
            args = [self.item(arg) for arg in plan.args]
            self.emit(f"{out} = _call({plan.name!r}, [{', '.join(args)}])")
        elif isinstance(plan, Compare):
            left = self.item(plan.left)
            right = self.item(plan.right)
            self.emit(f"{out} = [_gc({plan.op!r}, {left}, {right})]")
        elif isinstance(plan, Logical):
            left = self.item(plan.left)
            short = "[False]" if plan.op == "and" else "[True]"
            guard = "not _ebv" if plan.op == "and" else "_ebv"
            self.emit(f"if {guard}({left}):")
            with self.block():
                self.emit(f"{out} = {short}")
            self.emit("else:")
            with self.block():
                right = self.item(plan.right)
                self.emit(f"{out} = [_ebv({right})]")
        elif isinstance(plan, Arith):
            left = self.item(plan.left)
            right = self.item(plan.right)
            self.emit(f"{out} = _arith({plan.op!r}, {left}, {right})")
        elif isinstance(plan, IfPlan):
            condition = self.item(plan.condition)
            self.emit(f"if _ebv({condition}):")
            with self.block():
                then = self.item(plan.then_branch)
                self.emit(f"{out} = {then}")
            self.emit("else:")
            with self.block():
                other = self.item(plan.else_branch)
                self.emit(f"{out} = {other}")
        elif isinstance(plan, LetPlan):
            value = self.item(plan.value)
            with self.scoped_var(plan.var, value):
                body = self.item(plan.body)
            self.emit(f"{out} = {body}")
        elif isinstance(plan, SeqPlan):
            self.emit(f"{out} = []")
            for item_plan in plan.items:
                part = self.item(item_plan)
                self.emit(f"{out}.extend({part})")
        elif isinstance(plan, TypeswitchPlan):
            value = self.item(plan.input)
            numeric = next((case for case in plan.cases
                            if case.seqtype == "numeric"), None)
            if numeric is not None:
                self.emit(f"if _is_num1({value}):")
                with self.block():
                    with self.scoped_var(numeric.var, value):
                        body = self.item(numeric.body)
                    self.emit(f"{out} = {body}")
                self.emit("else:")
                with self.block():
                    with self.scoped_var(plan.default_var, value):
                        default = self.item(plan.default_body)
                    self.emit(f"{out} = {default}")
            else:
                with self.scoped_var(plan.default_var, value):
                    default = self.item(plan.default_body)
                self.emit(f"{out} = {default}")
        else:
            raise CodegenError(
                f"cannot compile item operator {type(plan).__name__}")
        return out

    # -- tuple-sorted operators (the fused pipelines) ------------------------

    def tuples(self, plan: TuplePlan, push: Callable[[], None]) -> None:
        """Emit the pipeline rooted at ``plan``, calling ``push`` to
        emit the downstream per-tuple code into the innermost loop."""
        if isinstance(plan, InputTuple):
            if not self.in_tuple:
                self.emit('_raise_dyn("IN used outside a dependent plan")')
            else:
                push()
        elif isinstance(plan, MapFromItem):
            items = self.item(plan.input)
            item = self.fresh("i")
            bindings = {plan.bind_field: self.fresh("f")}
            if plan.index_field is not None:
                index = self.fresh("x")
                bindings[plan.index_field] = self.fresh("f")
                self.emit(f"for {index}, {item} in enumerate({items}, 1):")
            else:
                self.emit(f"for {item} in {items}:")
            with self.block():
                self.emit(f"{bindings[plan.bind_field]} = [{item}]")
                if plan.index_field is not None:
                    self.emit(f"{bindings[plan.index_field]} = [{index}]")
                with self.scoped_fields(bindings):
                    push()
        elif isinstance(plan, Select):
            def filtered() -> None:
                with self.dependent():
                    predicate = self.item(plan.predicate)
                self.emit(f"if _ebv({predicate}):")
                with self.block():
                    push()

            self.tuples(plan.input, filtered)
        elif isinstance(plan, TupleTreePattern):
            self._ttp_body(plan, push)
        else:
            raise CodegenError(
                f"cannot compile tuple operator {type(plan).__name__}")

    def _ttp_body(self, plan: TupleTreePattern,
                  push: Callable[[], None]) -> None:
        pattern: TreePattern = plan.pattern
        # Every algorithm returns a pattern's bindings in one call: the
        # join's build side materializes, then code resumes per binding.
        self.breakers.append("pattern")
        pattern_const = self.const(pattern)
        self.emit("if _doc is None:")
        with self.block():
            self.emit('_raise_dyn("TupleTreePattern requires an '
                      'indexed document")')

        def per_tuple() -> None:
            contexts = self.fresh("c")
            source = self.fields.get(pattern.input_field)
            if source is None:
                source = f"_unknown_field({pattern.input_field!r})"
            self.emit(f"{contexts} = _ctx_nodes({source})")
            bindings = self.fresh("b")
            self.emit(f"{bindings} = _ttp_eval(_strategy, _doc, {contexts},"
                      f" {pattern_const}, ctx.run)")
            binding = self.fresh("t")
            self.emit(f"for {binding} in {bindings}:")
            with self.block():
                locals_ = {name: self.fresh("f")
                           for name in pattern.output_fields()}
                for name, local in locals_.items():
                    self.emit(f"{local} = [{binding}[{name!r}]]")
                with self.scoped_fields(locals_):
                    push()

        self.tuples(plan.input, per_tuple)
