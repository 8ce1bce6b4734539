"""Deterministic fault injection for the physical operators.

The physical algorithms and the evaluator's ``TupleTreePattern``
operator pass through named *chaos points* (:data:`KNOWN_SITES`).  When
an injector is active (:func:`inject`), each point consults the
injector's specs and may

* ``raise`` an :class:`InjectedFault`,
* ``delay`` (sleep) to simulate a stall — the way to exercise wall-clock
  budgets deterministically, or
* ``corrupt`` the payload (drop one element of a result list) to prove
  the differential suites detect silent corruption.

Injection is **deterministic**: specs with ``rate < 1.0`` draw from a
``random.Random(seed)`` owned by the injector, so the same seed fires
the same sites in the same order.  When no injector is active a chaos
point is one global load and an ``is None`` compare.

::

    from repro.guard.chaos import ChaosSpec, inject

    with inject(ChaosSpec(site="twigjoin.match")) as injector:
        results = engine.run(query, strategy="twigjoin")
    assert injector.log  # the fault fired (and the engine fell back)

Site naming: ``<algorithm>.<operation>`` — ``match`` for
``match_single``, ``choose`` for a chooser decision — plus
``eval.ttp``, the evaluator-side wrapper
around every pattern evaluation.  Specs may use ``fnmatch`` wildcards
(``"*.match"``); exact names are validated against
:data:`KNOWN_SITES`.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterator, List, Optional, Tuple

from .errors import InputError, ReproError

__all__ = ["ChaosInjector", "ChaosSpec", "InjectedFault", "KNOWN_SITES",
           "active_injector", "chaos_point", "default_seed", "inject",
           "worker_seed"]

#: every chaos point wired into the stack.  The first block sits inside
#: the physical operators; the second covers the serving and storage
#: layers (queue admission, leader execution, coalesce follower wake,
#: catalog open, columnar mmap read and checksum verify — see
#: ``tests/chaos/test_chaos_serve.py``).
KNOWN_SITES = (
    "eval.ttp",
    "nljoin.match",
    "twigjoin.match",
    "scjoin.match",
    "stacktree.match",
    "streaming.match",
    "auto.choose",
    "cost.choose",
    "serve.admit", "serve.execute", "serve.wake",
    "catalog.open",
    "columnar.read", "columnar.checksum",
    "cluster.dispatch", "cluster.gather",
)

_ACTIONS = ("raise", "delay", "corrupt")


class InjectedFault(ReproError):
    """The exception the ``raise`` action throws at a chaos point."""

    code = "REPRO-CHAOS"

    def __init__(self, message: str, *, site: str = "?") -> None:
        super().__init__(message, site=site)
        self.site = site


@dataclass(frozen=True)
class ChaosSpec:
    """What to inject where.

    ``site`` is an exact name from :data:`KNOWN_SITES` or an ``fnmatch``
    pattern; ``rate`` below 1.0 fires probabilistically from the
    injector's seeded generator."""

    site: str
    action: str = "raise"
    rate: float = 1.0
    delay_seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise InputError(
                f"unknown chaos action {self.action!r}; "
                f"expected one of {_ACTIONS}", code="REPRO-INPUT-CHAOS")
        if not (0.0 <= self.rate <= 1.0):
            raise InputError(f"chaos rate must be in [0, 1], got {self.rate}",
                             code="REPRO-INPUT-CHAOS")
        is_pattern = any(ch in self.site for ch in "*?[")
        if not is_pattern and self.site not in KNOWN_SITES:
            raise InputError(
                f"unknown chaos site {self.site!r}; known sites: "
                f"{', '.join(KNOWN_SITES)}", code="REPRO-INPUT-CHAOS")


class ChaosInjector:
    """Holds the active specs, the seeded generator and a fire log."""

    def __init__(self, *specs: ChaosSpec, seed: int = 0) -> None:
        self.specs: Tuple[ChaosSpec, ...] = specs
        self.seed = seed
        self.random = random.Random(seed)
        #: every action fired, in order: ``(site, action)`` pairs.
        self.log: List[Tuple[str, str]] = []
        #: every chaos point passed through, fired or not.
        self.visits: List[str] = []

    def fired(self, site: Optional[str] = None) -> int:
        return sum(1 for fired_site, _ in self.log
                   if site is None or fired_site == site)

    def visit(self, site: str, payload: Any = None) -> Any:
        self.visits.append(site)
        for spec in self.specs:
            if not fnmatchcase(site, spec.site):
                continue
            if spec.rate < 1.0 and self.random.random() >= spec.rate:
                continue
            self.log.append((site, spec.action))
            if spec.action == "raise":
                raise InjectedFault(f"{spec.message} at {site}", site=site)
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.action == "corrupt":
                payload = self._corrupt(payload)
        return payload

    def _corrupt(self, payload: Any) -> Any:
        """Drop one deterministic element from a list payload (chaos
        points that carry no list payload are left unchanged)."""
        if isinstance(payload, list) and payload:
            clone = list(payload)
            clone.pop(self.random.randrange(len(clone)))
            return clone
        return payload


_ACTIVE: Optional[ChaosInjector] = None


def active_injector() -> Optional[ChaosInjector]:
    return _ACTIVE


def chaos_point(site: str, payload: Any = None) -> Any:
    """The hook the operators call: a no-op returning ``payload`` unless
    an injector is active."""
    if _ACTIVE is None:
        return payload
    return _ACTIVE.visit(site, payload)


def default_seed() -> int:
    """The seed :func:`inject` uses when none is given: the
    ``REPRO_CHAOS_SEED`` environment variable, or 0.  Lets CI (and bug
    reproductions) pin or vary the whole suite's fire sequences without
    touching test code."""
    try:
        return int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    except ValueError:
        return 0


def worker_seed(base_seed: int, worker_index: int) -> int:
    """The chaos seed for worker ``worker_index`` of a cluster pool.

    Derived as ``base_seed + worker_index`` so a single
    ``REPRO_CHAOS_SEED`` pins the whole pool's fire sequences while
    each worker still draws an independent stream — sweeps over the
    base seed stay reproducible across the pool (see
    :mod:`repro.serve.cluster`)."""
    return base_seed + worker_index


@contextmanager
def inject(*specs: ChaosSpec,
           seed: Optional[int] = None) -> Iterator[ChaosInjector]:
    """Activate an injector for the duration of a ``with`` block.

    ``seed`` defaults to :func:`default_seed` (the ``REPRO_CHAOS_SEED``
    environment variable).  Nesting replaces the active injector and
    restores the previous one on exit."""
    global _ACTIVE
    injector = ChaosInjector(*specs,
                             seed=default_seed() if seed is None else seed)
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
