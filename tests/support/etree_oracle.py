"""A twig matcher the engine did not write, over ``xml.etree.ElementTree``.

It shares no parser, numbering or axis code with the program: the
document is read by expat, steps walk ElementTree's element lists, and
document order is ElementTree's iteration order.  It takes
``$input`` followed by

* ``/`` and ``//`` steps, and the ``child::``, ``desc::``/``descendant::``
  and ``attribute::``/``@`` axes;
* name tests and ``*``;
* predicates that are nested relative paths or positions ``[n]``,
  applied in order with XPath's per-context positions (``//x[1]`` is
  the first ``x`` child of each node, ``desc::x[1]`` the first ``x``
  descendant).

Anything else (text(), functions, comparisons, FLWOR) parses to
``None`` and is left to the other suites.

Adapted from the repository benchmark's ``check_against_etree``
(``benchmarks/suite/oracle.py``), extended to attribute steps and
positions.  An answer is a list of items in document order: an element
as its canonical markup, an attribute as its ``(name, value)`` pair.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Tuple, Union

#: (axis, name test, predicates): axis is ``child``, ``desc``,
#: ``attribute``, or ``child-of-desc``/``attribute-of-desc`` for ``//``
#: (a child or attribute of the context or of any node below it); a
#: predicate is a position or a path.
Step = Tuple[str, str, list]
Item = Union[Tuple[str, str], str]

_TOKEN = re.compile(r"\s*(//|/|\[|\]|@|child::|desc::|descendant::"
                    r"|attribute::|\*|\d+|[A-Za-z_][\w.-]*)")
_NAME = re.compile(r"[A-Za-z_][\w.-]*")
_AXES = {"child::": "child", "desc::": "desc", "descendant::": "desc",
         "attribute::": "attribute", "@": "attribute"}


def parse_twig(query: str) -> Optional[List[Step]]:
    """The steps of a query inside the fragment above, else ``None``."""
    if not query.startswith("$input"):
        return None
    tokens, position, text = [], 0, query[len("$input"):]
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            return None
        tokens.append(match.group(1))
        position = match.end()
    tokens.append("")

    def path(index: int, relative: bool):
        steps: List[Step] = []
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
            if not (name == "*" or _NAME.fullmatch(name)):
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

    parsed = path(0, relative=False)
    if parsed is None or tokens[parsed[1]] != "":
        return None
    return parsed[0]


class Document:
    """An expat-parsed document under a holder standing for the
    document node, numbered in ElementTree's iteration order."""

    def __init__(self, text: str) -> None:
        self.holder = ET.Element("document-node")
        self.holder.append(ET.fromstring(text))
        self.order: Dict[int, int] = {
            id(element): index
            for index, element in enumerate(self.holder.iter())}

    def key(self, node) -> tuple:
        """Document order: an element, then its attributes in source
        order, then its children."""
        if isinstance(node, tuple):
            element, name = node
            return (self.order[id(element)],
                    1 + list(element.attrib).index(name))
        return (self.order[id(node)], 0)

    @staticmethod
    def _groups(node, axis: str) -> List[list]:
        """The candidates of one step from ``node``, in document order,
        in groups that positions count within: one group, except for
        ``//``, whose candidates are the children (or attributes) of
        each node below, counted per parent."""
        if isinstance(node, tuple):
            return []          # an attribute has no children or attributes
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
        for axis, name, predicates in steps:
            found = {}
            for context in contexts:
                for candidates in self._groups(context, axis):
                    candidates = [node for node in candidates
                                  if name == "*"
                                  or (node[1] if isinstance(node, tuple)
                                      else node.tag) == name]
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

    def answer(self, steps: List[Step]) -> List[Item]:
        items: List[Item] = []
        for node in self.select([self.holder], steps):
            if isinstance(node, tuple):
                element, name = node
                items.append((name, element.attrib[name]))
            else:
                tail, node.tail = node.tail, None
                items.append(canonical(ET.tostring(node, encoding="unicode")))
                node.tail = tail
        return items


def canonical(markup: str) -> str:
    """C14N form of one element's markup, so that attribute order,
    quoting and character escapes do not count."""
    return ET.canonicalize(markup)
