"""The unified error taxonomy.

Every error this engine raises deliberately derives from
:class:`ReproError`, which carries

* a **machine-readable code** (``err.code``, e.g. ``REPRO-XQ-SYNTAX``,
  ``REPRO-BUDGET-STEPS``) so callers can dispatch without string
  matching;
* an optional **source span** (:class:`SourceSpan`) — line, column and a
  caret-annotated snippet of the offending input — attached by the
  parsers via :meth:`ReproError.attach_source`;
* free-form **context** key/values (``err.context``) surfaced by
  :meth:`ReproError.to_dict`.

``ReproError`` subclasses :class:`ValueError` so the historical
``except ValueError`` call sites (and tests) keep working; the six
scattered parser/compiler/runtime error classes now re-parent onto it
(see :mod:`repro.xquery.lexer`, :mod:`repro.xmltree.parser`,
:mod:`repro.xqcore.normalize`, :mod:`repro.algebra.compile`,
:mod:`repro.pattern.tree`, :mod:`repro.algebra.runtime`).

This module is intentionally dependency-free (stdlib only) so that any
layer of the stack — lexer to physical algorithms — can import it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional

__all__ = [
    "AlgorithmError", "CircuitOpen", "DocumentQuarantined",
    "FallbackEvent", "InputError", "InternalError", "ReproError",
    "ServiceClosed", "ServiceOverloaded", "SourceSpan", "WorkerLost",
]

#: longest source line rendered verbatim in a caret snippet; longer
#: lines are windowed around the caret.
_SNIPPET_WIDTH = 76


@dataclass(frozen=True)
class SourceSpan:
    """Where in the source text an error occurred (1-based line/column)."""

    offset: int
    line: int
    column: int
    source_line: str

    @classmethod
    def from_offset(cls, text: str, offset: int) -> "SourceSpan":
        offset = max(0, min(offset, len(text)))
        line = text.count("\n", 0, offset) + 1
        line_start = text.rfind("\n", 0, offset) + 1
        line_end = text.find("\n", line_start)
        if line_end < 0:
            line_end = len(text)
        return cls(offset=offset, line=line,
                   column=offset - line_start + 1,
                   source_line=text[line_start:line_end])

    def caret_snippet(self) -> str:
        """The source line with a caret under the error column, windowed
        for very long lines."""
        line = self.source_line
        caret = self.column - 1
        if len(line) > _SNIPPET_WIDTH:
            half = _SNIPPET_WIDTH // 2
            start = max(0, min(caret - half, len(line) - _SNIPPET_WIDTH))
            line = line[start:start + _SNIPPET_WIDTH]
            caret -= start
        caret = max(0, min(caret, len(line)))
        return f"    {line}\n    {' ' * caret}^"

    def to_dict(self) -> Dict[str, Any]:
        return {"offset": self.offset, "line": self.line,
                "column": self.column}


class ReproError(ValueError):
    """Base of every deliberate engine error.

    ``message`` is the human explanation; ``code`` overrides the class
    default; ``span`` locates the error in source text; any further
    keyword arguments become machine-readable ``context``.
    """

    code: ClassVar[str] = "REPRO-0000"

    def __init__(self, message: str, *, code: Optional[str] = None,
                 span: Optional[SourceSpan] = None, **context: Any) -> None:
        super().__init__(message)
        self.message = message
        if code is not None:
            self.code = code
        self.span = span
        self.context = context

    def attach_source(self, text: str,
                      offset: Optional[int] = None) -> "ReproError":
        """Fill :attr:`span` from the source ``text`` and a character
        offset (defaulting to the error's ``position`` attribute, which
        the syntax errors carry).  Returns ``self`` for chaining; a span
        that is already attached is kept."""
        if self.span is None:
            if offset is None:
                offset = getattr(self, "position", None)
            if offset is not None:
                self.span = SourceSpan.from_offset(text, offset)
        return self

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.span is not None:
            data["span"] = self.span.to_dict()
        data.update(self.context)
        return data

    def __str__(self) -> str:
        head = f"[{self.code}] {self.message}"
        if self.span is None:
            position = getattr(self, "position", None)
            if position is not None:
                head += f" (at offset {position})"
            return head
        head += f" (line {self.span.line}, column {self.span.column})"
        return f"{head}\n{self.span.caret_snippet()}"

    def __reduce__(self):
        # The default BaseException reduction rebuilds via
        # ``cls(*args)`` with ``args == (message,)``, which breaks for
        # every subclass whose __init__ takes extra required
        # positionals (e.g. BudgetExceeded(kind, limit, observed)).
        # Rebuild structurally instead: allocate without __init__, then
        # restore args and the instance dict — code, span, context and
        # subclass attributes all live there, so the round trip is
        # exact.  __cause__/__traceback__ are process-local and are
        # deliberately not carried (same as default exception
        # pickling); the serving layer's wire errors stay
        # self-contained.
        return (_rebuild_error, (type(self), self.args,
                                 dict(self.__dict__)))


def _rebuild_error(cls, args, state):
    """Pickle reconstructor for :class:`ReproError` (module-level so it
    is itself picklable by reference)."""
    err = cls.__new__(cls)
    ValueError.__init__(err, *args)
    err.__dict__.update(state)
    return err


class InputError(ReproError):
    """Invalid caller-supplied input: empty query text, an unknown
    strategy name, a wrong-typed argument, an oversized document."""

    code = "REPRO-INPUT"


class AlgorithmError(ReproError):
    """A physical tree-pattern algorithm failed while evaluating.

    Raised by the evaluator's ``TupleTreePattern`` operator wrapping the
    original exception (as ``__cause__``), so :meth:`Engine.execute` can
    tell an *algorithm* failure — eligible for graceful fallback — from
    an error of the query itself."""

    code = "REPRO-ALGO"

    def __init__(self, message: str, *, algorithm: str = "?",
                 **context: Any) -> None:
        super().__init__(message, algorithm=algorithm, **context)
        self.algorithm = algorithm


class ServiceOverloaded(ReproError):
    """The query service shed a request because its admission queue was
    full (see :class:`repro.serve.QueryService`).

    Load shedding is deliberate backpressure, not a crash: the caller
    should retry later or reduce concurrency.  ``queue_depth`` and
    ``queue_limit`` report the state that triggered the shed."""

    code = "REPRO-SERVICE-OVERLOADED"

    def __init__(self, message: str, *, queue_depth: int = 0,
                 queue_limit: int = 0, **context: Any) -> None:
        super().__init__(message, queue_depth=queue_depth,
                         queue_limit=queue_limit, **context)
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit


class ServiceClosed(ReproError):
    """A request was submitted to a query service that has been shut
    down (or is shutting down)."""

    code = "REPRO-SERVICE-CLOSED"


class CircuitOpen(ReproError):
    """A request was rejected because the target document's circuit
    breaker is open (see :mod:`repro.serve.resilience`).

    The breaker opens when the document's recent failure rate crosses
    its threshold; it rejects immediately — without queueing or burning
    a worker — until the cooldown elapses and a half-open probe
    succeeds.  ``retry_after_seconds`` is the remaining cooldown, a
    client backoff hint."""

    code = "REPRO-CIRCUIT-OPEN"

    def __init__(self, message: str, *, document: str = "?",
                 retry_after_seconds: float = 0.0, **context: Any) -> None:
        super().__init__(message, document=document,
                         retry_after_seconds=retry_after_seconds, **context)
        self.document = document
        self.retry_after_seconds = retry_after_seconds


class DocumentQuarantined(ReproError):
    """A catalog document is quarantined after a storage failure.

    :class:`~repro.serve.DocumentCatalog` moves a document here when
    loading it raised a storage error (corrupt index file, bad
    checksum, unreadable path) and no rebuild source was available; the
    registration slot is freed so the operator can fix the file and
    re-register under the same name."""

    code = "REPRO-STORAGE-QUARANTINED"

    def __init__(self, message: str, *, document: str = "?",
                 path: Any = None, **context: Any) -> None:
        super().__init__(message, document=document, path=path, **context)
        self.document = document
        self.path = path


class WorkerLost(ReproError):
    """A cluster worker process died (or its pipe broke) while tasks
    were in flight (see :mod:`repro.serve.cluster`).

    The coordinator re-dispatches lost shard tasks once to another
    worker; this error reaches the caller only when no retry was
    possible (the pool is closing, the deadline passed, or the retry
    failed too).  ``worker_index`` identifies the dead worker."""

    code = "REPRO-CLUSTER-WORKER-LOST"

    def __init__(self, message: str, *, worker_index: int = -1,
                 **context: Any) -> None:
        super().__init__(message, worker_index=worker_index, **context)
        self.worker_index = worker_index


class InternalError(ReproError):
    """An unexpected non-:class:`ReproError` exception crossed the
    service boundary.

    The serving layer guarantees callers only ever see typed errors:
    anything a worker raises that is not already part of the taxonomy
    is wrapped here (original exception as ``__cause__``) instead of
    leaking a bare exception — or worse, hanging the caller."""

    code = "REPRO-INTERNAL"

    @classmethod
    def wrap(cls, err: BaseException, where: str) -> ReproError:
        """``err`` itself when it is typed; otherwise an InternalError
        naming it and ``where`` it was raised, with ``err`` as its
        ``__cause__``."""
        if isinstance(err, ReproError):
            return err
        wrapped = cls(f"unexpected {type(err).__name__} {where}: {err}")
        wrapped.__cause__ = err
        return wrapped


@dataclass(frozen=True)
class FallbackEvent:
    """One graceful-degradation decision made by ``Engine.execute``."""

    from_strategy: str
    to_strategy: str
    error_code: str
    error: str

    def to_dict(self) -> Dict[str, str]:
        return {"from": self.from_strategy, "to": self.to_strategy,
                "error_code": self.error_code, "error": self.error}

    def __str__(self) -> str:
        return (f"{self.from_strategy} -> {self.to_strategy} "
                f"[{self.error_code}] {self.error}")
