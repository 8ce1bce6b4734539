"""Dynamic-semantics helpers: EBV, atomization, comparisons.

Items are either :class:`~repro.xmltree.node.Node` instances or Python
atomics (``str``, ``int``, ``float``, ``bool``); sequences are lists.
"""

from __future__ import annotations

from typing import List, Union

from ..guard.errors import ReproError
from ..xmltree.node import Node

Item = Union[Node, str, int, float, bool]
Sequence_ = List[Item]


class DynamicError(ReproError):
    """Raised on dynamic (runtime) errors, e.g. a bad EBV."""

    code = "REPRO-DYNAMIC"


def effective_boolean_value(seq: Sequence_) -> bool:
    """XPath 2.0 effective boolean value."""
    if not seq:
        return False
    first = seq[0]
    if isinstance(first, Node):
        return True
    if len(seq) > 1:
        raise DynamicError(
            "effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return first != 0 and first == first  # NaN is false
    if isinstance(first, str):
        return len(first) > 0
    raise DynamicError(f"no effective boolean value for {type(first).__name__}")


def atomize(seq: Sequence_) -> list:
    """Replace nodes by their typed (string) values."""
    return [item.typed_value() if isinstance(item, Node) else item
            for item in seq]


def _coerce_pair(left, right):
    """Untyped-data coercion for general comparisons.

    Follows XPath 1.0-style comparison of untyped values: if either side
    is numeric, compare numerically; booleans compare as booleans;
    otherwise compare as strings.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return bool(left), bool(right)
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        try:
            return float(left), float(right)
        except (TypeError, ValueError):
            return None
    return str(left), str(right)


_OPERATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


#: integers of at most this magnitude are exact as floats, so comparing
#: two of them directly answers as the float comparison would.
_EXACT = 2 ** 53


def general_compare(op: str, left_seq: Sequence_, right_seq: Sequence_) -> bool:
    """Existential general comparison over atomized operands."""
    compare = _OPERATORS[op]
    if len(left_seq) == 1 and len(right_seq) == 1:
        # ``IN#position = 1``: two plain integers (``type``, so no
        # ``bool``) need no atomization, coercion or loop.
        left, right = left_seq[0], right_seq[0]
        if (type(left) is int and type(right) is int
                and -_EXACT <= left <= _EXACT
                and -_EXACT <= right <= _EXACT):
            return compare(left, right)
    left_atoms = atomize(left_seq)
    right_atoms = atomize(right_seq)
    for left in left_atoms:
        for right in right_atoms:
            pair = _coerce_pair(left, right)
            if pair is None:
                continue
            if compare(*pair):
                return True
    return False


def numeric_value(seq: Sequence_, context: str) -> float | int | None:
    """Atomize to a single number; empty propagates as ``None``."""
    atoms = atomize(seq)
    if not atoms:
        return None
    if len(atoms) > 1:
        raise DynamicError(f"{context}: expected a singleton, got {len(atoms)}")
    value = atoms[0]
    if isinstance(value, bool):
        raise DynamicError(f"{context}: boolean is not a number")
    if isinstance(value, (int, float)):
        return value
    try:
        as_float = float(value)
    except (TypeError, ValueError) as error:
        raise DynamicError(f"{context}: cannot cast {value!r} to a number") from error
    if as_float.is_integer():
        return int(as_float)
    return as_float


def arithmetic(op: str, left_seq: Sequence_, right_seq: Sequence_) -> Sequence_:
    """Empty-propagating arithmetic on atomized singletons."""
    left = numeric_value(left_seq, f"left operand of {op}")
    right = numeric_value(right_seq, f"right operand of {op}")
    if left is None or right is None:
        return []
    if op == "+":
        return [left + right]
    if op == "-":
        return [left - right]
    if op == "*":
        return [left * right]
    if op == "div":
        if right == 0:
            raise DynamicError("division by zero")
        value = left / right
        return [int(value) if isinstance(value, float) and value.is_integer()
                else value]
    if op == "mod":
        if right == 0:
            raise DynamicError("modulo by zero")
        return [left % right]
    raise DynamicError(f"unknown arithmetic operator {op!r}")


def string_value(seq: Sequence_) -> str:
    """``fn:string`` of a sequence's first item (empty → '')."""
    if not seq:
        return ""
    item = seq[0]
    if isinstance(item, Node):
        return item.string_value()
    if isinstance(item, bool):
        return "true" if item else "false"
    return str(item)
