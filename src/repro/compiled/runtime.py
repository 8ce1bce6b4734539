"""Runtime shims called from generated pipeline code.

The code generator (:mod:`repro.compiled.codegen`) emits plain Python
loops; everything with interpreter-visible semantics — pattern
evaluation with its chaos point and error wrapping, context-node
checking, the dynamic-error raises — funnels through this module so the
generated source stays small and the behaviour stays byte-identical to
:mod:`repro.algebra.eval`.

Every helper is the one-tuple form of a check the interpreter makes per
batch, including error messages: the differential test wall compares
the two backends down to the rendered error text.
"""

from __future__ import annotations

from typing import List

from ..guard.chaos import chaos_point
from ..guard.errors import AlgorithmError
from ..guard.governor import BudgetExceeded
from ..algebra.runtime import DynamicError, Sequence_
from ..xmltree.node import Node

__all__ = ["context_nodes", "raise_dynamic", "ttp_eval", "unknown_field"]


def ttp_eval(strategy, document, contexts, pattern, run):
    """One tuple's pattern evaluation, guarded as the interpreter's
    ``TupleTreePattern`` kernel guards a batch: through the ``eval.ttp``
    chaos point, with budget/dynamic errors propagated and any algorithm
    failure wrapped in :class:`~repro.guard.AlgorithmError` (eligible
    for strategy fallback)."""
    try:
        return chaos_point(
            "eval.ttp", strategy.evaluate(document, contexts, pattern, run))
    except (BudgetExceeded, DynamicError):
        raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as err:
        name = getattr(strategy, "name", type(strategy).__name__)
        raise AlgorithmError(
            f"physical algorithm {name!r} failed: {err}",
            algorithm=name) from err


def context_nodes(values: Sequence_) -> List[Node]:
    """The pattern's context nodes from a tuple field's item sequence
    (the interpreter's context check, for one tuple)."""
    nodes: list[Node] = []
    for value in values:
        if not isinstance(value, Node):
            raise DynamicError("tree pattern context is not a node")
        nodes.append(value)
    return nodes


def unknown_field(name: str) -> Sequence_:
    """A field read that no enclosing tuple defines (the interpreter's
    ``unknown tuple field`` error)."""
    raise DynamicError(f"unknown tuple field {name}")


def raise_dynamic(message: str) -> Sequence_:
    """Raise a :class:`DynamicError` from generated code."""
    raise DynamicError(message)
