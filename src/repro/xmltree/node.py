"""XDM node classes with region encoding.

The data model follows a small but faithful subset of the XQuery 1.0 Data
Model (XDM): document, element, attribute and text nodes.  Every node
carries the *region encoding* used by structural-join algorithms:

``pre``
    the node's position in document order (a pre-order numbering),
``post``
    the node's position in a post-order traversal,
``level``
    the node's depth (the document node is at level 0),
``end``
    the largest ``pre`` value in the node's subtree, so that the subtree
    of ``n`` is exactly the interval ``[n.pre, n.end]``.

The encoding gives O(1) ancestor/descendant tests (`Node.contains`) and,
like the Galax data model the paper relies on, constant-time access to a
node's parent and children.

Nodes are identity-based: two nodes are equal only if they are the same
Python object, and document order between nodes of the same tree is the
order of their ``pre`` numbers.

A node of a parsed or opened document is made from the document's
columns when it is first asked for (see
:meth:`~repro.xmltree.columnar.ColumnarDocument.node`).  An element or
document node starts as a *shell* — :class:`ElementShell`,
:class:`DocumentShell` — whose ``_children``/``_attributes`` slots are
empty; the first read of either fills both and turns the shell into a
plain :class:`ElementNode`/:class:`DocumentNode`, so that every later
read is an ordinary slot read.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence


class Node:
    """Base class for all XDM nodes."""

    __slots__ = ("pre", "post", "level", "end", "parent", "singleton")

    kind = "node"

    def __init__(self) -> None:
        self.pre: int = -1
        self.post: int = -1
        self.level: int = -1
        self.end: int = -1
        self.parent: Optional[Node] = None
        #: ``[self]`` once an evaluator has bound this node to a tuple
        #: field (``repro.algebra.eval._one``); never changed in place.
        self.singleton: Optional[list] = None

    # -- structural predicates -------------------------------------------

    def contains(self, other: "Node") -> bool:
        """True if ``other`` is a proper descendant of ``self``."""
        return self.pre < other.pre <= self.end

    def contains_or_self(self, other: "Node") -> bool:
        """True if ``other`` is ``self`` or a descendant of ``self``."""
        return self.pre <= other.pre <= self.end

    def is_ancestor_of(self, other: "Node") -> bool:
        return self.contains(other)

    def is_descendant_of(self, other: "Node") -> bool:
        return other.contains(self)

    def doc_order_key(self) -> int:
        return self.pre

    # -- content accessors (overridden by subclasses) --------------------

    @property
    def children(self) -> Sequence["Node"]:
        return ()

    @property
    def name(self) -> Optional[str]:
        """Element/attribute name, ``None`` for other kinds."""
        return None

    def string_value(self) -> str:
        """The XDM string value (concatenated text descendants)."""
        return ""

    def typed_value(self) -> str:
        return self.string_value()

    # -- convenience traversal -------------------------------------------

    def iter_descendants(self) -> Iterator["Node"]:
        """All descendants in document order (excluding ``self``)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_descendants_or_self(self) -> Iterator["Node"]:
        yield self
        yield from self.iter_descendants()

    def iter_ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def store(self):
        """The :class:`~repro.xmltree.columnar.ColumnarDocument` this
        node's tree is a view of; ``None`` for a tree put together by
        hand."""
        return getattr(self.root(), "_owner", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} pre={self.pre}>"


class DocumentNode(Node):
    """The document root node.

    Its single sequence of children normally contains one element (the
    document element), possibly surrounded by text produced by lenient
    parsing modes.
    """

    __slots__ = ("_children", "uri", "_owner")

    kind = "document"

    def __init__(self, uri: str = "") -> None:
        super().__init__()
        self.uri = uri
        self._children: list[Node] = []
        #: the column store this tree is a view of; ``None`` for a tree
        #: put together by hand.
        self._owner = None

    @property
    def children(self) -> Sequence[Node]:
        return self._children

    def append_child(self, child: Node) -> None:
        child.parent = self
        self._children.append(child)

    @property
    def document_element(self) -> Optional["ElementNode"]:
        for child in self._children:
            if isinstance(child, ElementNode):
                return child
        return None

    def string_value(self) -> str:
        if self._owner is not None:
            return self._owner.string_value(self.pre)
        return "".join(child.string_value() for child in self._children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        element = self.document_element
        name = element.name if element is not None else "?"
        return f"<DocumentNode <{name}> pre={self.pre}>"


class ElementNode(Node):
    """An element node with attributes and children."""

    __slots__ = ("_name", "_children", "_attributes")

    kind = "element"

    def __init__(self, name: str) -> None:
        super().__init__()
        self._name = name
        self._children: list[Node] = []
        self._attributes: list[AttributeNode] = []

    @property
    def name(self) -> str:
        return self._name

    @property
    def children(self) -> Sequence[Node]:
        return self._children

    @property
    def attributes(self) -> Sequence["AttributeNode"]:
        return self._attributes

    def append_child(self, child: Node) -> None:
        child.parent = self
        self._children.append(child)

    def set_attribute(self, name: str, value: str) -> "AttributeNode":
        attribute = AttributeNode(name, value)
        attribute.parent = self
        self._attributes.append(attribute)
        return attribute

    def get_attribute(self, name: str) -> Optional[str]:
        for attribute in self._attributes:
            if attribute.name == name:
                return attribute.value
        return None

    def string_value(self) -> str:
        store = self.store()
        if store is not None:
            return store.string_value(self.pre)
        parts: list[str] = []
        for node in self.iter_descendants_or_self():
            if isinstance(node, TextNode):
                parts.append(node.text)
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ElementNode <{self._name}> pre={self.pre}>"


class AttributeNode(Node):
    """An attribute node.

    Attributes participate in the region numbering (they receive ``pre``
    numbers immediately after their owner element, matching the document
    order rules of the XDM), but they are not children of their element.
    """

    __slots__ = ("_name", "value")

    kind = "attribute"

    def __init__(self, name: str, value: str) -> None:
        super().__init__()
        self._name = name
        self.value = value

    @property
    def name(self) -> str:
        return self._name

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AttributeNode {self._name}={self.value!r} pre={self.pre}>"


class TextNode(Node):
    """A text node."""

    __slots__ = ("text",)

    kind = "text"

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snippet = self.text if len(self.text) <= 20 else self.text[:17] + "..."
        return f"<TextNode {snippet!r} pre={self.pre}>"


class _Shell:
    """A node whose ``_children`` (and ``_attributes``) are still in
    the columns of the store that made it.

    ``__getattr__`` runs only for a slot that is empty, which on a
    shell is one of those two: the store at the top of the parent chain
    fills them and assigns the plain class, and the plain class has no
    ``__getattr__`` (a class that has one reads every slot slower).
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "_children" and name != "_attributes":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.store().expand(self)
        return getattr(self, name)


class ElementShell(_Shell, ElementNode):
    """An :class:`ElementNode` before the first read of its content."""

    __slots__ = ()


class DocumentShell(_Shell, DocumentNode):
    """A :class:`DocumentNode` before the first read of its children."""

    __slots__ = ()


def assign_regions(document: DocumentNode) -> int:
    """Assign ``pre``/``post``/``level``/``end`` numbers to a whole tree.

    Attributes are numbered right after their owner element, before the
    element's children, which matches XDM document order.  Uses an
    explicit stack so arbitrarily deep documents (e.g. the depth-15+
    MemBeR documents of the paper's Section 5.3) never hit the Python
    recursion limit.  Returns the total number of numbered nodes.
    """
    pre_counter = 0
    post_counter = 0
    # Each frame is (node, level, phase) where phase 0 = enter, 1 = leave.
    stack: list[tuple[Node, int, int]] = [(document, 0, 0)]
    while stack:
        node, level, phase = stack.pop()
        if phase == 0:
            node.pre = pre_counter
            node.level = level
            pre_counter += 1
            if isinstance(node, ElementNode):
                for attribute in node.attributes:
                    attribute.pre = pre_counter
                    attribute.level = level + 1
                    attribute.post = post_counter
                    attribute.end = attribute.pre
                    pre_counter += 1
                    post_counter += 1
            stack.append((node, level, 1))
            for child in reversed(node.children):
                stack.append((child, level + 1, 0))
        else:
            node.post = post_counter
            post_counter += 1
            node.end = pre_counter - 1
    return pre_counter
