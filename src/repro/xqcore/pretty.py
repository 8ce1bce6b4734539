"""Pretty-printing of Core expressions in the paper's concrete syntax.

The printer alpha-renames: each distinct variable gets its display name,
suffixed with a counter when several distinct variables share one name
(normalization introduces many ``$dot``/``$seq``).  Because renaming is
assigned in a canonical traversal order, the printed form doubles as an
alpha-equivalence witness: two Core expressions print identically if and
only if they are equal up to variable renaming.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .cast import (CaseClause, CCall, CDDO, CEmpty, CExpr, CFor, CGenCmp,
                   CIf, CArith, CLet, CLit, CLogical, CSeq, CStep,
                   CTypeswitch, CVar, Var, walk)


def pretty(expr: CExpr, indent: int = 0, unique_names: bool = True) -> str:
    """Render a core expression.

    With ``unique_names`` (the default), distinct variables sharing a
    display name get numeric suffixes; without it, the raw display names
    are used (closest to the paper's figures).
    """
    names = _assign_names(expr, unique_names)
    return _Printer(names).render(expr, indent)


def alpha_canonical(expr: CExpr) -> str:
    """A canonical string equal for alpha-equivalent core expressions."""
    names: Dict[Var, str] = {}
    for node in walk(expr):
        if isinstance(node, CVar) and node.var not in names:
            names[node.var] = f"v{len(names)}"
        for var in node.bound_vars():
            if var not in names:
                names[var] = f"v{len(names)}"
    return _Printer(names, bare_dot_steps=False).render(expr, 0)


def _assign_names(expr: CExpr, unique_names: bool) -> Dict[Var, str]:
    seen: Dict[str, int] = {}
    names: Dict[Var, str] = {}

    def assign(var: Var) -> None:
        if var in names:
            return
        count = seen.get(var.name, 0)
        seen[var.name] = count + 1
        if count == 0 or not unique_names:
            names[var] = var.name
        else:
            names[var] = f"{var.name}{count + 1}"

    for node in walk(expr):
        for var in node.bound_vars():
            assign(var)
        if isinstance(node, CVar):
            assign(node.var)
    return names


#: one output line: its indentation level relative to the rendered node,
#: and its text.  ``None`` marks a line that is never indented — the tail
#: of a multi-line child embedded inside a one-line construct.
_Line = Tuple[Optional[int], str]


def _block(text: str) -> List[_Line]:
    """Lines of an embedded text: only the first one follows the pad."""
    first, *rest = text.split("\n")
    return [(0, first)] + [(None, line) for line in rest]


def _nested(lines: List[_Line]) -> List[_Line]:
    return [(None if level is None else level + 1, text)
            for level, text in lines]


def _join(lines: List[_Line], depth: int) -> str:
    return "\n".join(text if level is None
                     else "  " * (depth + level) + text
                     for level, text in lines)


class _Printer:
    """Renders every node once: :meth:`lines` does not depend on the
    depth, so nesting a child deeper only shifts its lines."""

    def __init__(self, names: Dict[Var, str], bare_dot_steps: bool = True) -> None:
        self.names = names
        self.bare_dot_steps = bare_dot_steps

    def var(self, var: Var) -> str:
        return "$" + self.names.get(var, f"{var.name}?{var.uid}")

    def render(self, expr: CExpr, depth: int) -> str:
        return _join(self.lines(expr), depth)

    def flat(self, expr: CExpr) -> str:
        """The rendering at depth 0, for embedding in a line."""
        return self.render(expr, 0).strip()

    def inline(self, expr: CExpr) -> str:
        """A compact one-line rendering for binding values and sources."""
        return " ".join(self.flat(expr).split())

    def lines(self, expr: CExpr) -> List[_Line]:
        if isinstance(expr, CLit):
            if isinstance(expr.value, str):
                return [(0, '"' + expr.value.replace('"', '""') + '"')]
            if isinstance(expr.value, bool):
                return [(0, "fn:true()" if expr.value else "fn:false()")]
            return [(0, repr(expr.value))]
        if isinstance(expr, CEmpty):
            return [(0, "()")]
        if isinstance(expr, CVar):
            return [(0, self.var(expr.var))]
        if isinstance(expr, CSeq):
            rendered = ", ".join(self.render(item, 0)
                                 for item in expr.items)
            return _block(f"({rendered})")
        if isinstance(expr, CDDO):
            inner = self.lines(expr.arg)
            compact = " ".join(_join(inner, 0).split())
            if len(compact) <= 60:
                return [(0, f"ddo({compact})")]
            inner = _nested(inner)
            inner[-1] = (inner[-1][0], inner[-1][1] + ")")
            return [(0, "ddo(")] + inner
        if isinstance(expr, CStep):
            step_text = f"{expr.axis.value}::{expr.test.to_string()}"
            if (self.bare_dot_steps and isinstance(expr.input, CVar)
                    and expr.input.var.name == "dot"):
                return [(0, step_text)]
            return _block(f"{self.render(expr.input, 0)}/{step_text}")
        if isinstance(expr, CLet):
            value = self.inline(expr.value)
            return ([(0, f"let {self.var(expr.var)} := {value}")]
                    + self.lines(expr.body))
        if isinstance(expr, CFor):
            at_clause = (f" at {self.var(expr.position_var)}"
                         if expr.position_var is not None else "")
            source = self.inline(expr.source)
            lines = [(0, f"for {self.var(expr.var)}{at_clause} in {source}")]
            if expr.where is not None:
                lines.append((0, "where " + self.inline(expr.where)))
            lines.append((0, "return"))
            return lines + _nested(self.lines(expr.body))
        if isinstance(expr, CIf):
            return (_block(f"if ({self.flat(expr.condition)})")
                    + [(0, "then")] + _nested(self.lines(expr.then_branch))
                    + [(0, "else")] + _nested(self.lines(expr.else_branch)))
        if isinstance(expr, CCall):
            name = "ddo" if expr.name == "fs:distinct-doc-order" else expr.name
            args = ", ".join(self.flat(arg) for arg in expr.args)
            return _block(f"{name}({args})")
        if isinstance(expr, CGenCmp):
            return _block(f"{self.flat(expr.left)} {expr.op} "
                          f"{self.flat(expr.right)}")
        if isinstance(expr, (CArith, CLogical)):
            return _block(f"({self.flat(expr.left)} {expr.op} "
                          f"{self.flat(expr.right)})")
        if isinstance(expr, CTypeswitch):
            lines = [(0, f"typeswitch ({self.inline(expr.input)})")]
            for case in expr.cases:
                lines += _block(f"  case {self.var(case.var)} as "
                                f"{case.seqtype}() return "
                                f"{self.flat(case.body)}")
            return lines + _block(f"  default {self.var(expr.default_var)} "
                                  f"return {self.flat(expr.default_body)}")
        raise TypeError(f"cannot print {type(expr).__name__}")
