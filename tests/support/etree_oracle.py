"""A twig matcher the engine did not write, over ``xml.etree.ElementTree``.

It shares no parser, numbering or axis code with the program: the
document is read by expat, steps walk ElementTree's element lists, and
document order is a walk of ElementTree's elements.  It takes a path —
``$input`` followed by

* ``/`` and ``//`` steps, and the ``child::``, ``desc::``/``descendant::``
  and ``attribute::``/``@`` axes;
* name tests, ``*`` and ``text()`` (an element's ``text`` and its
  children's ``tail`` strings are its text children);
* predicates that are nested relative paths or positions ``[n]``,
  applied in order with XPath's per-context positions (``//x[1]`` is
  the first ``x`` child of each node, ``desc::x[1]`` the first ``x``
  descendant)

— or ``count(path)``, or a sum ``count(path) + count(path) + …``.
Anything else (other functions, comparisons, FLWOR) parses to ``None``
and is left to the other suites.

Adapted from the repository benchmark's ``check_against_etree``
(``benchmarks/suite/oracle.py``), extended to attribute and text steps,
positions and counts.  An answer is a list of items in document order:
an element as its canonical markup, an attribute as its ``(name,
value)`` pair, a text node as ``("text()", value)``; a count's answer is
the one integer.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Tuple, Union

#: (axis, test, predicates): axis is ``child``, ``desc``,
#: ``attribute``, or ``child-of-desc``/``attribute-of-desc`` for ``//``
#: (a child or attribute of the context or of any node below it); the
#: test is a name, ``*`` or ``text()``; a predicate is a position or a
#: path.
Step = Tuple[str, str, list]
#: ``("nodes", [path])`` or ``("count", [path, …])``, a path being a
#: list of steps.
Query = Tuple[str, List[List[Step]]]
Item = Union[Tuple[str, str], str, int]

TEXT = "text()"

_TOKEN = re.compile(r"\s*(\$input|count\(|text\(\)|//|/|\[|\]|\)|\+|@"
                    r"|child::|desc::|descendant::|attribute::|\*|\d+"
                    r"|[A-Za-z_][\w.-]*)")
_NAME = re.compile(r"[A-Za-z_][\w.-]*")
_AXES = {"child::": "child", "desc::": "desc", "descendant::": "desc",
         "attribute::": "attribute", "@": "attribute"}


def parse_query(query: str) -> Optional[Query]:
    """The query if it is inside the fragment above, else ``None``."""
    tokens, position, text = [], 0, query.strip()
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            return None
        tokens.append(match.group(1))
        position = match.end()
    tokens.append("")

    def path(index: int, relative: bool):
        steps: List[Step] = []
        if not relative:
            if tokens[index] != "$input":
                return None
            index += 1
        while True:
            axis = "child"
            if tokens[index] in ("/", "//"):
                axis = "child" if tokens[index] == "/" else "child-of-desc"
                index += 1
            elif not (relative and not steps):
                break
            if tokens[index] in _AXES:
                named = _AXES[tokens[index]]
                if axis == "child-of-desc":
                    if named != "attribute":
                        return None
                    named = "attribute-of-desc"
                axis = named
                index += 1
            name = tokens[index]
            if name == TEXT:
                if axis.startswith("attribute"):
                    return None
            elif not (name == "*" or _NAME.fullmatch(name)):
                return None
            index += 1
            predicates: list = []
            while tokens[index] == "[":
                if tokens[index + 1].isdigit() and tokens[index + 2] == "]":
                    predicates.append(int(tokens[index + 1]))
                    index += 3
                    continue
                inner = path(index + 1, relative=True)
                if inner is None or tokens[inner[1]] != "]":
                    return None
                predicates.append(inner[0])
                index = inner[1] + 1
            steps.append((axis, name, predicates))
        return (steps, index) if steps else None

    if tokens[0] != "count(":
        parsed = path(0, relative=False)
        if parsed is None or tokens[parsed[1]] != "":
            return None
        return ("nodes", [parsed[0]])
    paths, index = [], 0
    while True:
        if tokens[index] != "count(":
            return None
        parsed = path(index + 1, relative=False)
        if parsed is None or tokens[parsed[1]] != ")":
            return None
        paths.append(parsed[0])
        index = parsed[1] + 1
        if tokens[index] == "":
            return ("count", paths)
        if tokens[index] != "+":
            return None
        index += 1


class Document:
    """An expat-parsed document under a holder standing for the
    document node.

    A node is an element, an attribute ``(element, name)`` or a text
    node ``(element, index)``: index 0 is the element's ``text``, index
    ``i`` the ``tail`` of its child ``i - 1``.  Every node is numbered
    in document order: an element, its attributes in source order, its
    text, then each child's subtree followed by that child's tail."""

    def __init__(self, text: str) -> None:
        self.holder = ET.Element("document-node")
        self.holder.append(ET.fromstring(text))
        self.order: Dict[object, int] = {}
        stack: list = [self.holder]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):
                self.order[(id(node[0]), node[1])] = len(self.order)
                continue
            self.order[id(node)] = len(self.order)
            for name in node.attrib:
                self.order[(id(node), name)] = len(self.order)
            if node.text:
                self.order[(id(node), 0)] = len(self.order)
            for index in range(len(node) - 1, -1, -1):
                if node[index].tail:
                    stack.append((node, index + 1))
                stack.append(node[index])

    def key(self, node) -> int:
        """The node's place in document order."""
        if isinstance(node, tuple):
            return self.order[(id(node[0]), node[1])]
        return self.order[id(node)]

    @staticmethod
    def texts(element) -> list:
        """The element's text children, in document order."""
        found = [(element, 0)] if element.text else []
        return found + [(element, index + 1)
                        for index, child in enumerate(element)
                        if child.tail]

    def _groups(self, node, axis: str, test: str) -> List[list]:
        """The candidates of one step from ``node``, in document order,
        in groups that positions count within: one group, except for
        ``//``, whose candidates are the children (or attributes) of
        each node below, counted per parent."""
        if isinstance(node, tuple):
            return []   # attributes and texts have no children
        if test == TEXT:
            if axis == "child":
                return [self.texts(node)]
            if axis == "desc":
                return [sorted((text for below in node.iter()
                                for text in self.texts(below)),
                               key=self.key)]
            return [self.texts(below) for below in node.iter()]
        if axis == "child":
            return [list(node)]
        if axis == "desc":
            return [list(node.iter())[1:]]
        if axis == "attribute":
            return [[(node, name) for name in node.attrib]]
        if axis == "child-of-desc":
            return [list(below) for below in node.iter()]
        return [[(below, name) for name in below.attrib]
                for below in node.iter()]

    def select(self, contexts: list, steps: List[Step]) -> list:
        for axis, test, predicates in steps:
            found = {}
            for context in contexts:
                for candidates in self._groups(context, axis, test):
                    if test not in ("*", TEXT):
                        candidates = [node for node in candidates
                                      if (node[1] if isinstance(node, tuple)
                                          else node.tag) == test]
                    for predicate in predicates:
                        if isinstance(predicate, int):
                            candidates = candidates[predicate - 1:predicate]
                        else:
                            candidates = [node for node in candidates
                                          if self.select([node], predicate)]
                    for node in candidates:
                        found[self.key(node)] = node
            contexts = [found[key] for key in sorted(found)]
            if not contexts:
                break
        return contexts

    def answer(self, query: Query) -> List[Item]:
        kind, paths = query
        if kind == "count":
            return [sum(len(self.select([self.holder], steps))
                        for steps in paths)]
        items: List[Item] = []
        for node in self.select([self.holder], paths[0]):
            if isinstance(node, tuple):
                element, name = node
                if isinstance(name, str):
                    items.append((name, element.attrib[name]))
                else:
                    items.append((TEXT, element.text if name == 0
                                  else element[name - 1].tail))
            else:
                tail, node.tail = node.tail, None
                items.append(canonical(ET.tostring(node, encoding="unicode")))
                node.tail = tail
        return items


def canonical(markup: str) -> str:
    """C14N form of one element's markup, so that attribute order,
    quoting and character escapes do not count."""
    return ET.canonicalize(markup)
