"""XPath node tests.

A node test filters the nodes selected by an axis.  The fragment used by
the paper needs name tests (``person``), the wildcard (``*``) and the
kind tests ``node()``, ``text()`` and ``element()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .node import AttributeNode, ElementNode, Node, TextNode


@dataclass(frozen=True)
class NodeTest:
    """Base class: matches principal-axis nodes only."""

    def matches(self, node: Node, principal_kind: str = "element") -> bool:
        raise NotImplementedError

    def stream(self, columns, attribute: bool = False) -> Sequence[int]:
        """The document-wide sorted ``pre`` stream of a
        :class:`~repro.xmltree.columnar.ColumnarDocument` holding every
        node this test selects: on the attribute axis when ``attribute``
        is set, else on the child/descendant axes (which never reach
        attributes)."""
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class NameTest(NodeTest):
    """Matches elements (or attributes, on the attribute axis) by name."""

    name: str

    def matches(self, node: Node, principal_kind: str = "element") -> bool:
        if principal_kind == "attribute":
            return isinstance(node, AttributeNode) and node.name == self.name
        return isinstance(node, ElementNode) and node.name == self.name

    def stream(self, columns, attribute: bool = False) -> Sequence[int]:
        if attribute:
            return columns.attribute_stream(self.name)
        return columns.element_stream(self.name)

    def to_string(self) -> str:
        return self.name


@dataclass(frozen=True)
class WildcardTest(NodeTest):
    """``*``: any node of the principal kind."""

    def matches(self, node: Node, principal_kind: str = "element") -> bool:
        if principal_kind == "attribute":
            return isinstance(node, AttributeNode)
        return isinstance(node, ElementNode)

    def stream(self, columns, attribute: bool = False) -> Sequence[int]:
        if attribute:
            return columns.all_attribute_pres
        return columns.element_pres

    def to_string(self) -> str:
        return "*"


@dataclass(frozen=True)
class AnyKindTest(NodeTest):
    """``node()``: any node."""

    def matches(self, node: Node, principal_kind: str = "element") -> bool:
        return True

    def stream(self, columns, attribute: bool = False) -> Sequence[int]:
        if attribute:
            return columns.all_attribute_pres
        return columns.non_attribute_pres

    def to_string(self) -> str:
        return "node()"


@dataclass(frozen=True)
class TextTest(NodeTest):
    """``text()``: text nodes."""

    def matches(self, node: Node, principal_kind: str = "element") -> bool:
        return isinstance(node, TextNode)

    def stream(self, columns, attribute: bool = False) -> Sequence[int]:
        return () if attribute else columns.text_pres

    def to_string(self) -> str:
        return "text()"


@dataclass(frozen=True)
class ElementTest(NodeTest):
    """``element()`` or ``element(name)``."""

    name: str | None = None

    def matches(self, node: Node, principal_kind: str = "element") -> bool:
        if not isinstance(node, ElementNode):
            return False
        return self.name is None or node.name == self.name

    def stream(self, columns, attribute: bool = False) -> Sequence[int]:
        if attribute:
            return ()
        if self.name is None:
            return columns.element_pres
        return columns.element_stream(self.name)

    def to_string(self) -> str:
        return f"element({self.name})" if self.name else "element()"


ANY_NODE = AnyKindTest()
ANY_ELEMENT = WildcardTest()


def name_test(name: str) -> NameTest:
    return NameTest(name)
