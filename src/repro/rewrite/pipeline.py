"""The full Core rewriting pipeline to TPNF' (paper Section 3).

Runs the four rule families — type rewritings, FLWOR rewritings,
document-order rewritings and loop splitting — in the paper's order,
round after round, until a fixpoint.  Each family is one traversal that
returns **its input object** when no rule fired (every ``_rewrite``
rebuilds a node only if a child came back different), so the fixpoint
test is ``is``: the driver stops as soon as every family in a row has
handed its input back.  Nothing here prints or compares expressions to
decide anything.  A new rule must keep that contract: return the node it
was given unless it really rewrote it — a rule that rebuilds an equal
node never lets the driver stop, and runs into the round cap below.

Each family individually shrinks or preserves the expression (no family
undoes another), so the iteration terminates; the cap turns a
hypothetical divergence into a loud error instead of a hang.  Static
analyses (sequence facts, types, variable usage) are derived once per
node per traversal, in memos owned by the family's pass and dropped with
it (see :data:`repro.rewrite.facts.FactsMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from ..guard.errors import InternalError
from ..xqcore.cast import CExpr
from .docorder import remove_redundant_ddo
from .flwor import rewrite_flwor
from .loopsplit import split_loops
from .typeswitch import rewrite_typeswitches

_MAX_ROUNDS = 50


@dataclass(frozen=True)
class RewriteOptions:
    """Toggles for the rule families (used by the ablation benchmarks)."""

    typeswitch: bool = True
    flwor: bool = True
    docorder: bool = True
    loop_split: bool = True

    @classmethod
    def none(cls) -> "RewriteOptions":
        return cls(typeswitch=False, flwor=False, docorder=False,
                   loop_split=False)


@dataclass
class RewriteTrace:
    """Per-pass snapshots, for explain() output and the examples."""

    steps: List[Tuple[str, CExpr]] = field(default_factory=list)

    def record(self, name: str, expr: CExpr) -> None:
        self.steps.append((name, expr))


def rewrite_to_tpnf(expr: CExpr,
                    options: RewriteOptions | None = None,
                    trace: RewriteTrace | None = None) -> CExpr:
    """Rewrite a normalized core expression into TPNF'."""
    options = options or RewriteOptions()
    passes: list[tuple[str, Callable[[CExpr], CExpr]]] = []
    if options.typeswitch:
        passes.append(("typeswitch", rewrite_typeswitches))
    if options.flwor:
        passes.append(("flwor", rewrite_flwor))
    if options.docorder:
        passes.append(("docorder", remove_redundant_ddo))
    if options.loop_split:
        passes.append(("loop-split", split_loops))
    if not passes:
        return expr

    quiet = 0   # consecutive passes that returned their input
    for turn in range(_MAX_ROUNDS * len(passes)):
        name, rule = passes[turn % len(passes)]
        rewritten = rule(expr)
        if rewritten is expr:
            quiet += 1
            if quiet == len(passes):
                return expr
            continue
        quiet = 0
        if trace is not None:
            trace.record(name, rewritten)
        expr = rewritten
    raise InternalError(
        f"core rewriting (rewrite_to_tpnf) did not reach a fixpoint within "
        f"{_MAX_ROUNDS} rounds: a rule keeps firing, or rebuilds a node "
        f"without changing it (a rule must return its input when it does "
        f"not fire)", stage="rewrite", max_rounds=_MAX_ROUNDS)
