"""Graphviz DOT rendering of plans and tree patterns.

``plan_to_dot`` draws the operator tree (tuple operators as boxes, item
operators as ellipses, dependent sub-plans as dashed edges);
``pattern_to_dot`` draws a tree pattern with its spine, predicate
branches and output annotations.  The output is plain DOT text — render
with ``dot -Tsvg`` or paste into any Graphviz viewer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..pattern import PatternPath, TreePattern
from .ops import (Arith, Compare, Const, DDOPlan, FieldAccess, FnCall,
                  IfPlan, InputTuple, LetPlan, Logical, MapFromItem,
                  MapToItem, Plan, Select, SeqPlan, TreeJoin, TuplePlan,
                  TupleTreePattern, TypeswitchPlan, VarPlan)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def plan_to_dot(plan: Plan, name: str = "plan",
                annotations: Optional[Dict[int, str]] = None) -> str:
    """Render a plan as a DOT digraph.

    ``annotations`` optionally maps ``id(node)`` to an extra label line
    (e.g. the EXPLAIN ANALYZE per-operator time/cardinality annotations
    of :meth:`repro.obs.TracedRun.to_dot`); annotated
    nodes render bold so hot operators stand out.
    """
    lines: List[str] = [f'digraph "{_escape(name)}" {{',
                        "  rankdir=BT;",
                        '  node [fontname="Helvetica", fontsize=11];']
    counter = [0]

    def emit(node: Plan) -> str:
        identifier = f"n{counter[0]}"
        counter[0] += 1
        label, dependents, inputs = _describe(node)
        extra = annotations.get(id(node)) if annotations else None
        style = ""
        if extra is not None:
            label = f"{label}\\n{extra}"
            style = ", style=bold"
        shape = "box" if isinstance(node, TuplePlan) else "ellipse"
        lines.append(f'  {identifier} [label="{_escape(label)}", '
                     f'shape={shape}{style}];')
        for dependent in dependents:
            child_id = emit(dependent)
            lines.append(f'  {child_id} -> {identifier} [style=dashed, '
                         f'label="dep"];')
        for input_plan in inputs:
            child_id = emit(input_plan)
            lines.append(f"  {child_id} -> {identifier};")
        return identifier

    emit(plan)
    lines.append("}")
    return "\n".join(lines)


def _describe(node: Plan):
    """(label, dependent children, input children) of an operator."""
    if isinstance(node, Const):
        return f"Const {list(node.values)!r}", [], []
    if isinstance(node, VarPlan):
        return f"${node.var.name}", [], []
    if isinstance(node, FieldAccess):
        return f"IN#{node.field}", [], []
    if isinstance(node, InputTuple):
        return "IN", [], []
    if isinstance(node, TreeJoin):
        return (f"TreeJoin\\n{node.axis.value}::{node.test.to_string()}",
                [], [node.input])
    if isinstance(node, DDOPlan):
        return "fs:ddo", [], [node.input]
    if isinstance(node, MapToItem):
        return "MapToItem", [node.dep], [node.input]
    if isinstance(node, MapFromItem):
        index = (f"; {node.index_field}: INDEX"
                 if node.index_field is not None else "")
        return (f"MapFromItem\\n[{node.bind_field} : IN{index}]",
                [], [node.input])
    if isinstance(node, Select):
        return "Select", [node.predicate], [node.input]
    if isinstance(node, TupleTreePattern):
        return (f"TupleTreePattern\\n{node.pattern.to_string()}",
                [], [node.input])
    if isinstance(node, FnCall):
        return node.name, [], list(node.args)
    if isinstance(node, Compare):
        return f"cmp {node.op}", [], [node.left, node.right]
    if isinstance(node, Logical):
        return node.op, [], [node.left, node.right]
    if isinstance(node, Arith):
        return f"arith {node.op}", [], [node.left, node.right]
    if isinstance(node, IfPlan):
        return ("if", [node.condition],
                [node.then_branch, node.else_branch])
    if isinstance(node, LetPlan):
        return f"let ${node.var.name}", [], [node.value, node.body]
    if isinstance(node, SeqPlan):
        return "seq", [], list(node.items)
    if isinstance(node, TypeswitchPlan):
        return "typeswitch", [], list(node.children())
    return type(node).__name__, [], list(node.children())


#: public alias: (label, dependent children, input children) — shared
#: with the EXPLAIN ANALYZE renderer, :meth:`repro.obs.TracedRun.render`.
describe_plan = _describe


def pattern_to_dot(pattern: TreePattern, name: str = "pattern") -> str:
    """Render a tree pattern as a DOT digraph (edges labelled by axis)."""
    lines: List[str] = [f'digraph "{_escape(name)}" {{',
                        "  rankdir=TB;",
                        '  node [fontname="Helvetica", fontsize=11];',
                        f'  ctx [label="IN#{_escape(pattern.input_field)}", '
                        f"shape=box];"]
    counter = [0]

    def emit_path(path: PatternPath, anchor: str, spine: bool) -> None:
        parent = anchor
        for step in path.steps:
            identifier = f"p{counter[0]}"
            counter[0] += 1
            label = step.test.to_string()
            if step.output_field is not None:
                label += " {" + step.output_field + "}"
            if step.position is not None:
                label += f" [{step.position}]"
            style = "solid" if spine else "dotted"
            peripheries = 2 if step.output_field is not None else 1
            lines.append(f'  {identifier} [label="{_escape(label)}", '
                         f"peripheries={peripheries}];")
            edge_style = ("dashed"
                          if step.axis.value.startswith("descendant")
                          else "solid")
            lines.append(f'  {parent} -> {identifier} '
                         f'[label="{step.axis.value}", style={edge_style}];')
            for branch in step.predicates:
                emit_path(branch, identifier, spine=False)
            parent = identifier

    emit_path(pattern.path, "ctx", spine=True)
    lines.append("}")
    return "\n".join(lines)
