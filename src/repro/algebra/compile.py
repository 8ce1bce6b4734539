"""Compilation of XQuery Core into the tuple algebra ([28]'s scheme).

The translation that produces the paper's plan P1 from Q1-tp:

* ``for $x (at $i)? in E (where C)? return B`` becomes::

      MapToItem{[B]}((Select{[C]})? (MapFromItem{[x : IN]}([E])))

  with ``$x`` (and ``$i``) turned into tuple fields accessed via
  ``IN#x``;
* steps become ``TreeJoin[axis::test]([input])``;
* ``ddo`` becomes ``fs:ddo(...)``;
* ``let`` stays an item-level binding (it plays no role in tree-pattern
  detection, which runs after the FLWOR rewritings have inlined the
  relevant ``let``s).

Field names are uniquified per compilation so that a tuple can carry
the fields of its enclosing tuples without ever shadowing one.
"""

from __future__ import annotations

from typing import Dict, Set

from ..guard.errors import ReproError
from ..xqcore.cast import (CCall, CDDO, CEmpty, CExpr, CFor, CGenCmp, CIf,
                           CArith, CLet, CLit, CLogical, CSeq, CStep,
                           CTypeswitch, CVar, Var)
from .ops import (Arith, Compare, Const, DDOPlan, FieldAccess, FnCall,
                  IfPlan, ItemPlan, LetPlan, Logical, MapFromItem, MapToItem,
                  Select, SeqPlan, TreeJoin, TypeswitchCase, TypeswitchPlan,
                  VarPlan)


class CompilationError(ReproError):
    """Raised when a core expression cannot be compiled."""

    code = "REPRO-COMPILE"


def compile_core(expr: CExpr) -> ItemPlan:
    """Compile a core expression into an (unoptimized) item plan."""
    return _Compiler().compile(expr)


class _Compiler:
    def __init__(self) -> None:
        self._field_names: Dict[Var, str] = {}
        self._used_names: Set[str] = set()

    def _field(self, var: Var) -> str:
        if var not in self._field_names:
            base = var.name.replace(":", "_")
            name = base
            counter = 1
            while name in self._used_names:
                counter += 1
                name = f"{base}{counter}"
            self._used_names.add(name)
            self._field_names[var] = name
        return self._field_names[var]

    def compile(self, expr: CExpr) -> ItemPlan:
        if isinstance(expr, CLit):
            return Const((expr.value,))
        if isinstance(expr, CEmpty):
            return Const(())
        if isinstance(expr, CVar):
            if expr.var in self._field_names:
                return FieldAccess(self._field(expr.var))
            return VarPlan(expr.var)
        if isinstance(expr, CSeq):
            return SeqPlan([self.compile(item) for item in expr.items])
        if isinstance(expr, CDDO):
            return DDOPlan(self.compile(expr.arg))
        if isinstance(expr, CStep):
            return TreeJoin(expr.axis, expr.test, self.compile(expr.input))
        if isinstance(expr, CLet):
            value = self.compile(expr.value)
            body = self.compile(expr.body)
            return LetPlan(expr.var, value, body)
        if isinstance(expr, CFor):
            return self._compile_for(expr)
        if isinstance(expr, CIf):
            return IfPlan(self.compile(expr.condition),
                          self.compile(expr.then_branch),
                          self.compile(expr.else_branch))
        if isinstance(expr, CCall):
            return FnCall(expr.name, [self.compile(arg) for arg in expr.args])
        if isinstance(expr, CGenCmp):
            return Compare(expr.op, self.compile(expr.left),
                           self.compile(expr.right))
        if isinstance(expr, CLogical):
            return Logical(expr.op, self.compile(expr.left),
                           self.compile(expr.right))
        if isinstance(expr, CArith):
            return Arith(expr.op, self.compile(expr.left),
                         self.compile(expr.right))
        if isinstance(expr, CTypeswitch):
            cases = [TypeswitchCase(case.seqtype, case.var,
                                    self.compile(case.body))
                     for case in expr.cases]
            return TypeswitchPlan(self.compile(expr.input), cases,
                                  expr.default_var,
                                  self.compile(expr.default_body))
        raise CompilationError(f"cannot compile {type(expr).__name__}")

    def _compile_for(self, expr: CFor) -> ItemPlan:
        source = self.compile(expr.source)
        bind_field = self._field(expr.var)
        index_field = (self._field(expr.position_var)
                       if expr.position_var is not None else None)
        tuples = MapFromItem(bind_field, source, index_field)
        if expr.where is not None:
            tuples = Select(self.compile(expr.where), tuples)
        return MapToItem(self.compile(expr.body), tuples)
