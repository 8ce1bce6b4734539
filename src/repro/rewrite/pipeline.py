"""The rule driver of both compile phases, and the Core → TPNF' pipeline.

The four rule families of Section 3 (type, FLWOR and document-order
rewritings, loop splitting) and the Figure 3 rules of
:mod:`repro.algebra.optimizer` state only their rules and scopes; this
module runs them.  A :class:`RulePass` is one traversal that returns
**its input object** when no rule fired (it rebuilds a node only if a
child came back different), so :func:`fixpoint` stops on ``is`` as soon
as every pass in a row has handed its input back.  Nothing here prints
or compares expressions.  A rule must keep that contract: return the
node it was given unless it really rewrote it — a rule that rebuilds an
equal node never lets the loop stop, and runs into the round cap.

Each family shrinks or preserves the expression (no family undoes
another), so the iteration terminates; the cap turns a hypothetical
divergence into a loud error instead of a hang.  Static analyses
(sequence facts, types, variable usage) are derived once per node per
traversal, in memos owned by the family's pass and dropped with it (see
:data:`repro.rewrite.facts.FactsMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from ..guard.errors import InternalError
from ..xqcore.cast import CExpr, CFor, CLet, CTypeswitch, Var
from .facts import SINGLETON, UNKNOWN, Facts, FactsMemo, sequence_facts

_MAX_ROUNDS = 100

#: built-ins that consume only the effective boolean value of their
#: argument: an order/duplicate-insensitive context, over Core
#: (``docorder``) and over plans (the optimizer) alike.
_EBV_FUNCTIONS = frozenset({"fn:boolean", "fn:exists", "fn:empty", "fn:not"})

#: ``rule(pass, node, ctx)``: a rewritten node, or ``node`` itself.
Rule = Callable[[Any, Any, Any], Any]


class RulePass:
    """One traversal.  At a node it fires its class's ``pre`` rules until
    none fires, rewrites the children in ``children()`` order, each under
    the context its class's ``scopes`` entry gives it (or the node's own,
    for a class without one), and last fires its class's ``post`` rule.
    A family states these tables as class data, a disabled rule absent."""

    pre: Mapping[type, Sequence[Rule]] = {}
    post: Mapping[type, Rule] = {}
    #: ``scope(pass, node, index, done, ctx)``: the context of child
    #: ``index``, ``done`` holding its elder siblings, rewritten.
    scopes: Mapping[type, Callable[..., Any]] = {}

    def run(self, node: Any, ctx: Any) -> Any:
        """``node`` rewritten; ``node`` itself when no rule fired below."""
        # The tables as closure cells: the walk reads them at every node.
        pre, post, scopes = self.pre, self.post, self.scopes
        settle = self.settle

        def visit(node: Any, ctx: Any) -> Any:
            kind = type(node)
            if kind in pre:
                node = settle(node, ctx)
                kind = type(node)
            children = node.children()
            if children:
                scope = scopes.get(kind)
                done = []
                same = True
                for index, child in enumerate(children):
                    new = visit(child, ctx if scope is None else
                                scope(self, node, index, done, ctx))
                    same = same and new is child
                    done.append(new)
                if not same:
                    node = node.replace_children(done)
            return post[kind](self, node, ctx) if kind in post else node

        try:
            return visit(node, ctx)
        finally:
            # ``visit`` refers to itself: unbinding it frees the pass and
            # its memos now, not at the next cyclic garbage collection.
            del visit

    def settle(self, node: Any, ctx: Any) -> Any:
        """Fire ``pre`` rules at ``node`` until none fires."""
        while True:
            for rule in self.pre.get(type(node), ()):
                rewritten = rule(self, node, ctx)
                if rewritten is not node:
                    node = rewritten
                    break
            else:
                return node


class CorePass(RulePass):
    """A pass over Core with one environment of variables, valued by the
    family's :meth:`bind`: a ``let`` binds its variable over its body, a
    ``for`` its item and ``at`` variables over ``where`` and body, a
    ``typeswitch`` each clause's variable over that clause.  Binders
    never shadow (:func:`repro.xqcore.cast.free_vars`), so a binder's
    variables enter once its first child, the bound value, is rewritten,
    and never leave."""

    def __init__(self) -> None:
        self.env: Dict[Var, Any] = {}

    def enter(self, node: CExpr, done: List[CExpr]) -> None:
        """Bind the variables of the binder ``node``, its value ``done[0]``
        rewritten: a binder's scope calls this before its second child."""
        for var in node.bound_vars():
            self.env[var] = self.bind(node, var, done)

    def _binder(self, node: CExpr, index: int, done: List[CExpr],
                ctx: Any) -> Any:
        if index == 1:
            self.enter(node, done)
        return ctx

    scopes = dict.fromkeys((CLet, CFor, CTypeswitch), _binder)

    def bind(self, node: CExpr, var: Var, done: List[CExpr]) -> Any:
        """What the family knows of ``var``, bound by ``node`` over the
        rewritten value ``done[0]``."""
        raise NotImplementedError


class FactsPass(CorePass):
    """Sequence facts, the FLWOR and document-order families' analysis:
    a ``let`` variable has its value's, ``for`` and ``at`` variables
    are one item each, clause variables unknown."""

    def __init__(self) -> None:
        super().__init__()
        self.facts: FactsMemo = {}

    def bind(self, node: CExpr, var: Var, done: List[CExpr]) -> Facts:
        if isinstance(node, CFor):
            return SINGLETON
        return self.facts_of(done[0]) if isinstance(node, CLet) else UNKNOWN

    def facts_of(self, expr: CExpr) -> Facts:
        return sequence_facts(expr, self.env, self.facts)


def fixpoint(node: Any, passes: Sequence[Tuple[str, Callable[[Any], Any]]],
             stage: str, trace: "RewriteTrace | None" = None) -> Any:
    """Run ``passes`` (``(name, pass)`` pairs) round-robin until every
    one in a row hands its input back; ``trace`` records the others."""
    quiet = 0   # consecutive passes that returned their input
    for turn in range(_MAX_ROUNDS * len(passes)):
        name, rule = passes[turn % len(passes)]
        rewritten = rule(node)
        if rewritten is node:
            quiet += 1
            if quiet == len(passes):
                return node
            continue
        quiet = 0
        if trace is not None:
            trace.record(name, rewritten)
        node = rewritten
    raise InternalError(
        f"the {stage} phase did not reach a fixpoint within {_MAX_ROUNDS} "
        f"rounds: a rule keeps firing, or rebuilds a node without changing "
        f"it (a rule must return its input when it does not fire)",
        stage=stage, max_rounds=_MAX_ROUNDS)


# The families are stated on the driver above, so they are imported
# after it; ``rewrite_to_tpnf`` reads them from this module's namespace.
from .docorder import remove_redundant_ddo  # noqa: E402
from .flwor import rewrite_flwor  # noqa: E402
from .loopsplit import split_loops  # noqa: E402
from .typeswitch import rewrite_typeswitches  # noqa: E402


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
    families = [(name, family) for name, family, enabled in (
        ("typeswitch", rewrite_typeswitches, options.typeswitch),
        ("flwor", rewrite_flwor, options.flwor),
        ("docorder", remove_redundant_ddo, options.docorder),
        ("loop-split", split_loops, options.loop_split)) if enabled]
    if not families:
        return expr
    return fixpoint(expr, families, "rewrite", trace)
