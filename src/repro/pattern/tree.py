"""Tree patterns (paper Section 4.1).

The grammar::

    TreePattern ::= IN#FieldName (/ Pattern)?
    Pattern     ::= Step ([Pattern])* (/ Pattern)?
    Step        ::= Axis NodeTest ({FieldName})?

A tree pattern names the tuple field holding the context nodes
(``IN#dot``), then a path of steps; each step may carry predicate
*branches* (existential sub-patterns in square brackets) and an optional
*output field* annotation in curly braces.  The *extraction point* is
the last step of the main path (Definition 4.1).  Only main-path steps
bind a field, each field once, and a step applies its branches before
its one position (``a[b][1]``): ``parse_pattern`` refuses the rest.

The structure is immutable-by-convention: the merge operations used by
the algebraic rules (d)/(e) return new patterns.  That is what makes the
``cached_property`` analyses below sound: an answer computed once per
pattern object stays true, and the evaluators read it per input tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional

from ..guard.errors import ReproError
from ..xmltree.axes import Axis, axis_from_string
from ..xmltree.nodetest import (AnyKindTest, ElementTest, NameTest, NodeTest,
                                TextTest, WildcardTest)


class PatternError(ReproError):
    """Raised on malformed patterns."""

    code = "REPRO-PATTERN"


@dataclass(frozen=True)
class PatternStep:
    """One step of a pattern: axis, node test, branches, output field.

    ``position`` is the *positional tree pattern* extension (the paper's
    Section 7 future work): when set to n, only the n-th candidate — in
    document order, counted per single preceding context node, after the
    existential branches have filtered — survives.  This is the
    semantics of the XPath step ``axis::test[P1]...[Pk][n]``.
    """

    axis: Axis
    test: NodeTest
    predicates: tuple["PatternPath", ...] = ()
    output_field: Optional[str] = None
    position: Optional[int] = None

    def to_string(self) -> str:
        text = f"{self.axis.value}::{self.test.to_string()}"
        if self.output_field is not None:
            text += "{" + self.output_field + "}"
        for predicate in self.predicates:
            text += "[" + predicate.to_string() + "]"
        if self.position is not None:
            text += f"[{self.position}]"
        return text

    @property
    def keeps_context(self) -> bool:
        """The step returns its context node whatever its kind
        (``self::node()``, ``descendant-or-self::node()``) — the only way
        a path goes on from an attribute node, which has no children and
        no entry in the element/text ``pre`` streams."""
        return (self.axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF)
                and isinstance(self.test, AnyKindTest))

    def with_position(self, position: int) -> "PatternStep":
        return replace(self, position=position)

    def without_output(self) -> "PatternStep":
        return replace(self, output_field=None)

    def with_output(self, field_name: Optional[str]) -> "PatternStep":
        return replace(self, output_field=field_name)

    def with_predicates(self, extra: tuple["PatternPath", ...]) -> "PatternStep":
        return replace(self, predicates=self.predicates + tuple(extra))


@dataclass(frozen=True)
class PatternPath:
    """A ``/``-chain of steps."""

    steps: tuple[PatternStep, ...]

    def to_string(self) -> str:
        return "/".join(step.to_string() for step in self.steps)

    @property
    def last(self) -> PatternStep:
        return self.steps[-1]

    @cached_property
    def axes(self) -> frozenset:
        """Every axis the path steps along, predicate branches included:
        what a physical algorithm's fragment is checked against."""
        return frozenset(step.axis for step in self.steps).union(
            *(branch.axes for step in self.steps
              for branch in step.predicates))

    @cached_property
    def is_downward(self) -> bool:
        """All axes, predicate branches included, are within the
        tree-pattern fragment (downward)."""
        return all(axis.is_downward for axis in self.axes)

    @cached_property
    def uses_text(self) -> bool:
        """Some step, predicate branches included, tests ``text()``."""
        return any(isinstance(step.test, TextTest)
                   or any(branch.uses_text for branch in step.predicates)
                   for step in self.steps)

    @cached_property
    def has_position(self) -> bool:
        """One of this path's own steps is positional (``step[n]``)."""
        return any(step.position is not None for step in self.steps)

    @cached_property
    def uses_position(self) -> bool:
        """Some step, predicate branches included, is positional."""
        return self.has_position or any(
            branch.uses_position
            for step in self.steps for branch in step.predicates)

    @cached_property
    def attribute_sensitive(self) -> bool:
        """Attributes taken as context nodes can show in the answer: the
        first step keeps its context (:attr:`PatternStep.keeps_context`)
        or the path :attr:`continues_from_attribute`.  False for nearly
        every pattern, which is all an evaluation has to read."""
        return self.steps[0].keeps_context or self.continues_from_attribute

    @cached_property
    def continues_from_attribute(self) -> bool:
        """Some step or predicate branch is taken *from* the attributes
        an earlier step selected and keeps them
        (:attr:`PatternStep.keeps_context`): outside what the stream
        algorithms evaluate, so they hand the pattern to NLJoin."""
        at_attribute = False
        for step in self.steps:
            if at_attribute and step.keeps_context:
                return True
            at_attribute = at_attribute or step.axis is Axis.ATTRIBUTE
            if any(branch.continues_from_attribute
                   or (at_attribute and branch.steps[0].keeps_context)
                   for branch in step.predicates):
                return True
        return False

    def replace_last(self, step: PatternStep) -> "PatternPath":
        return PatternPath(self.steps[:-1] + (step,))

    def concat(self, other: "PatternPath") -> "PatternPath":
        return PatternPath(self.steps + other.steps)

    def strip_outputs(self) -> "PatternPath":
        return PatternPath(tuple(
            replace(step, output_field=None,
                    predicates=tuple(p.strip_outputs()
                                     for p in step.predicates))
            for step in self.steps))


@dataclass(frozen=True)
class TreePattern:
    """A complete tree pattern with its input-field designation."""

    input_field: str
    path: PatternPath

    def to_string(self) -> str:
        return f"IN#{self.input_field}/{self.path.to_string()}"

    def __str__(self) -> str:
        return self.to_string()

    # -- structural queries -------------------------------------------------

    @property
    def extraction_point(self) -> PatternStep:
        """The last step of the main path (Definition 4.1)."""
        return self.path.last

    def output_fields(self) -> List[str]:
        """All output-field annotations, in root-to-leaf lexical order."""
        return list(self._output_fields)

    @cached_property
    def _output_fields(self) -> tuple[str, ...]:
        # Predicate branches are existential: no evaluator binds an
        # annotation inside one, and ``parse_pattern`` refuses them.
        return tuple(step.output_field for step in self.path.steps
                     if step.output_field is not None)

    @cached_property
    def single_output_field(self) -> Optional[str]:
        """The pattern's output field when it is the only one and sits on
        the extraction point — the case in which the operator's semantics
        coincides with XPath (Section 4.1) — else ``None``."""
        fields = self._output_fields
        if len(fields) == 1 and self.path.last.output_field == fields[0]:
            return fields[0]
        return None

    def is_single_output_at_extraction_point(self) -> bool:
        return self.single_output_field is not None

    def is_downward(self) -> bool:
        """All axes are within the tree-pattern fragment (downward)."""
        return self.path.is_downward

    # -- merge operations used by the optimizer -----------------------------

    def append_path(self, continuation: PatternPath,
                    output_field: Optional[str]) -> "TreePattern":
        """Rule (d): extend the main path with ``continuation``.

        The old extraction point loses its output annotation; the new
        extraction point is the last step of the continuation, annotated
        with ``output_field``.
        """
        trimmed = self.path.replace_last(self.path.last.without_output())
        continuation = PatternPath(
            continuation.steps[:-1]
            + (continuation.last.with_output(output_field),))
        return TreePattern(self.input_field, trimmed.concat(continuation))

    def add_predicates(self, branches: List[PatternPath]) -> "TreePattern":
        """Rule (e): attach existential branches at the extraction point.

        Output annotations inside the branches are dropped — predicate
        branches only assert existence.
        """
        stripped = tuple(branch.strip_outputs() for branch in branches)
        new_last = self.path.last.with_predicates(stripped)
        return TreePattern(self.input_field, self.path.replace_last(new_last))


def single_step_pattern(input_field: str, axis: Axis, test: NodeTest,
                        output_field: str) -> TreePattern:
    """The pattern introduced by rules (a)/(b) for one ``TreeJoin``."""
    step = PatternStep(axis=axis, test=test, predicates=(),
                       output_field=output_field)
    return TreePattern(input_field, PatternPath((step,)))


# -- parsing (for tests and the pattern-language examples) -------------------


def parse_pattern(text: str) -> TreePattern:
    """Parse the paper's pattern notation, e.g.
    ``IN#x/descendant::a/child::c{y}[@id]/child::d{z}``."""
    parser = _PatternParser(text)
    pattern = parser.parse_tree_pattern()
    parser.expect_end()
    return pattern


class _PatternParser:
    def __init__(self, text: str) -> None:
        self.text = text.strip()
        self.pos = 0
        #: how many predicate branches enclose the current step.
        self.branch_depth = 0
        #: the main path's output fields so far.
        self.fields: set[str] = set()

    def error(self, message: str, at: Optional[int] = None) -> PatternError:
        offset = self.pos if at is None else at
        return PatternError(f"{message} (at offset {offset} in {self.text!r})")

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def expect_end(self) -> None:
        if self.pos != len(self.text):
            raise self.error("trailing input")

    def _name(self) -> str:
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum()
                    or self.text[self.pos] in "_-.")):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def parse_tree_pattern(self) -> TreePattern:
        self.expect("IN#")
        input_field = self._name()
        self.expect("/")
        return TreePattern(input_field, self.parse_path())

    def parse_path(self) -> PatternPath:
        steps = [self.parse_step()]
        while self.text.startswith("/", self.pos):
            self.pos += 1
            steps.append(self.parse_step())
        return PatternPath(tuple(steps))

    def parse_step(self) -> PatternStep:
        if self.text.startswith("@", self.pos):
            self.pos += 1
            axis = Axis.ATTRIBUTE
        else:
            axis_name = self._name()
            separator = "::"
            if not self.text.startswith(separator, self.pos):
                # An unqualified name is a child step (abbreviated syntax).
                return self._finish_step(Axis.CHILD, self._test_from(axis_name))
            self.pos += len(separator)
            axis = axis_from_string(
                {"desc": "descendant", "dos": "descendant-or-self"}.get(
                    axis_name, axis_name))
        test = self.parse_test()
        return self._finish_step(axis, test)

    def parse_test(self) -> NodeTest:
        if self.text.startswith("*", self.pos):
            self.pos += 1
            return WildcardTest()
        name = self._name()
        return self._test_from(name, consume_parens=True)

    def _test_from(self, name: str, consume_parens: bool = False) -> NodeTest:
        if consume_parens and self.text.startswith("()", self.pos):
            self.pos += 2
            if name == "node":
                return AnyKindTest()
            if name == "text":
                return TextTest()
            if name == "element":
                return ElementTest()
            raise self.error(f"unknown kind test {name}()")
        return NameTest(name)

    def _finish_step(self, axis: Axis, test: NodeTest) -> PatternStep:
        output_field: Optional[str] = None
        predicates: list[PatternPath] = []
        position: Optional[int] = None
        while self.pos < len(self.text) and self.text[self.pos] in "{[":
            if self.text[self.pos] == "{":
                # Only the main path binds, one field per step, each
                # field once: what the evaluators honour.
                brace = self.pos
                if self.branch_depth:
                    raise self.error("a predicate branch binds no output "
                                     "field")
                if output_field is not None:
                    raise self.error("a step binds at most one output field")
                self.pos += 1
                output_field = self._name()
                if output_field in self.fields:
                    raise self.error(f"output field {output_field!r} is "
                                     "bound twice", at=brace)
                self.fields.add(output_field)
                self.expect("}")
            else:
                if position is not None:
                    raise self.error("a predicate after a position: a step "
                                     "applies its branches first")
                self.pos += 1
                if self.text[self.pos:self.pos + 1].isdigit():
                    start = self.pos
                    while self.text[self.pos:self.pos + 1].isdigit():
                        self.pos += 1
                    position = int(self.text[start:self.pos])
                else:
                    self.branch_depth += 1
                    predicates.append(self.parse_path())
                    self.branch_depth -= 1
                self.expect("]")
        return PatternStep(axis=axis, test=test,
                           predicates=tuple(predicates),
                           output_field=output_field,
                           position=position)
