"""A catalog of named documents, each served by one shared engine.

:class:`DocumentCatalog` is the serving layer's document registry: it
maps a name (``"site"``, ``"member-20k"``) to one
:class:`~repro.xmltree.IndexedDocument` and the single
:class:`~repro.engine.Engine` all workers share for it — so the plan
cache and the structural summary are built once per document, not once
per request.

Registration accepts a ready document, raw XML text, a file path or a
zero-argument factory (for synthetic workloads); construction is lazy
and double-check locked, so the first request for a document pays the
parse/index/summary cost exactly once, even when many workers ask for
it simultaneously.

**Load-failure handling** (see ``docs/ROBUSTNESS.md``): a loader that
fails deterministically (corrupt file, bad XML) does *not* leave a
half-registered entry behind — the slot is freed so re-registration
after fixing the file works.  Storage failures additionally move the
name into a **quarantined set**: subsequent lookups raise a typed
:class:`~repro.guard.DocumentQuarantined` naming the original check,
and :meth:`add_file` with ``rebuild=True`` falls back to re-parsing
the sibling ``.xml`` source (healing the saved index best-effort)
instead of quarantining at all.  Transient faults (injected chaos)
leave the entry registered, so the next lookup simply retries the
load.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..engine import Engine
from ..guard import DocumentQuarantined, InjectedFault, InputError, \
    chaos_point
from ..xmltree import IndexedDocument
from ..xmltree.columnar import StorageError

__all__ = ["DocumentCatalog", "QuarantineRecord"]


@dataclass(frozen=True)
class QuarantineRecord:
    """Why a document is quarantined (kept until re-registration)."""

    document: str
    path: Optional[str]
    code: str
    reason: str

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {"document": self.document, "path": self.path,
                "code": self.code, "reason": self.reason}


class _Entry:
    """One named document: a lazily-built engine plus its build lock."""

    def __init__(self, loader: Callable[[], Engine],
                 path: Optional[str] = None) -> None:
        self.loader = loader
        self.path = path
        self.engine: Optional[Engine] = None
        self.lock = threading.Lock()

    def get(self) -> Engine:
        if self.engine is None:
            with self.lock:
                if self.engine is None:
                    chaos_point("catalog.open")
                    engine = self.loader()
                    # Warm the summary under the entry lock so the first
                    # wave of workers shares one build instead of racing
                    # to it (the document property is itself locked, but
                    # warming here keeps the cost out of request latency).
                    if engine.use_summary:
                        engine.document.summary
                    self.engine = engine
        return self.engine


class DocumentCatalog:
    """Named documents with one shared :class:`Engine` each.

    ``engine_defaults`` (e.g. ``default_strategy=``, ``budgets=``,
    ``plan_cache_size=``) apply to every engine the catalog builds;
    per-document overrides can be passed at registration time.
    """

    def __init__(self, **engine_defaults) -> None:
        self._defaults = engine_defaults
        self._entries: Dict[str, _Entry] = {}
        self._quarantined: Dict[str, QuarantineRecord] = {}
        self._rebuilt: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- registration -------------------------------------------------------

    def add_document(self, name: str, document: IndexedDocument,
                     **engine_options) -> None:
        """Register an already-indexed document."""
        self._register(name,
                       lambda: Engine(document,
                                      **self._options(engine_options)))

    def add_engine(self, name: str, engine: Engine) -> None:
        """Register a fully-configured engine as-is."""
        entry = _Entry(lambda: engine)
        self._register_entry(name, entry)

    def add_xml(self, name: str, text: str, **engine_options) -> None:
        """Register raw XML text; parsed and indexed on first use."""
        self._register(name,
                       lambda: Engine.from_xml(
                           text, **self._options(engine_options)))

    def add_file(self, name: str, path: str, rebuild: bool = False,
                 **engine_options) -> None:
        """Register a file; loaded on first use.  A saved columnar index
        (``repro index``) is mmap-opened in O(1) — no re-parse, no
        re-index — and anything else is parsed as XML.

        With ``rebuild=True`` a storage failure on the saved index
        (corrupt, truncated, bad checksum) falls back to re-parsing
        the sibling ``.xml`` source and — best effort — re-saves the
        index over the corrupt file, instead of quarantining the
        document."""
        options = self._options(engine_options)

        def loader() -> Engine:
            try:
                return Engine.from_file(path, **options)
            except StorageError:
                if not rebuild:
                    raise
                source = self._xml_source_for(path)
                if source is None:
                    raise
                engine = Engine.from_file(source, **options)
                try:
                    engine.document.save(path)  # heal the corrupt index
                except Exception:
                    pass
                with self._lock:
                    self._rebuilt[name] = source
                return engine

        self._register_entry(name, _Entry(loader, path=path))

    def add_columnar_file(self, name: str, path: str, verify: bool = True,
                          **engine_options) -> None:
        """Register a saved columnar index file (see
        :meth:`~repro.xmltree.ColumnarDocument.save`); mmap-opened on
        first use without re-parsing."""
        self._register_entry(
            name,
            _Entry(lambda: Engine.from_columnar_file(
                path, verify=verify, **self._options(engine_options)),
                path=path))

    def add_factory(self, name: str,
                    factory: Callable[[], IndexedDocument],
                    **engine_options) -> None:
        """Register a document factory (e.g. a synthetic generator);
        called once, on first use."""
        self._register(name,
                       lambda: Engine(factory(),
                                      **self._options(engine_options)))

    @staticmethod
    def _xml_source_for(path: str) -> Optional[str]:
        """The XML sibling a saved index can be rebuilt from."""
        if path.endswith(".rpxc"):
            candidate = path[:-len(".rpxc")] + ".xml"
            if os.path.exists(candidate):
                return candidate
        return None

    def _options(self, overrides: Dict) -> Dict:
        options = dict(self._defaults)
        options.update(overrides)
        return options

    def _register(self, name: str, loader: Callable[[], Engine]) -> None:
        self._register_entry(name, _Entry(loader))

    def _register_entry(self, name: str, entry: _Entry) -> None:
        if not name or not isinstance(name, str):
            raise InputError(
                f"document name must be a non-empty string, got {name!r}")
        with self._lock:
            if name in self._entries:
                raise InputError(f"document {name!r} is already registered",
                                 document=name)
            # Re-registration is how an operator clears quarantine.
            self._quarantined.pop(name, None)
            self._rebuilt.pop(name, None)
            self._entries[name] = entry

    # -- lookup -------------------------------------------------------------

    def engine(self, name: str) -> Engine:
        """The shared engine for ``name`` (building it on first use).

        Raises :class:`~repro.guard.InputError` for unknown names and
        :class:`~repro.guard.DocumentQuarantined` for names whose load
        failed with a storage error (until re-registered)."""
        with self._lock:
            entry = self._entries.get(name)
            record = self._quarantined.get(name)
        if entry is None:
            if record is not None:
                raise DocumentQuarantined(
                    f"document {name!r} is quarantined after a storage "
                    f"failure ({record.code}): {record.reason}; fix the "
                    f"file and re-register it",
                    document=name, path=record.path, check=record.code)
            raise InputError(
                f"unknown document {name!r}; registered: "
                f"{', '.join(sorted(self._entries)) or '(none)'}",
                document=name)
        try:
            return entry.get()
        except OSError as err:
            # The loader touched a file the OS refused: surface typed.
            storage = StorageError(
                f"document {name!r}: cannot load: {err}",
                check="open", path=entry.path)
            storage.__cause__ = err
            self._note_load_failure(name, entry, storage)
            raise storage from err
        except Exception as err:
            self._note_load_failure(name, entry, err)
            raise

    def engine_if_built(self, name: str) -> Optional[Engine]:
        """The engine for ``name`` only if it is already built —
        never triggers a load (the degraded path must not re-enter a
        possibly-poisoned loader)."""
        with self._lock:
            entry = self._entries.get(name)
        return entry.engine if entry is not None else None

    def _note_load_failure(self, name: str, entry: _Entry,
                           err: Exception) -> None:
        """Keep the catalog consistent after a failed load: transient
        faults keep the entry (next lookup retries); deterministic
        failures free the slot so re-registration works; storage
        failures additionally quarantine the name."""
        if isinstance(err, InjectedFault):
            return
        with self._lock:
            if self._entries.get(name) is entry:
                del self._entries[name]
            if isinstance(err, (StorageError, DocumentQuarantined)):
                self._quarantined[name] = QuarantineRecord(
                    document=name, path=entry.path,
                    code=getattr(err, "code", type(err).__name__),
                    reason=getattr(err, "message", str(err)))

    def quarantined(self) -> Dict[str, QuarantineRecord]:
        """A snapshot of the quarantined documents."""
        with self._lock:
            return dict(self._quarantined)

    def quarantined_names(self) -> List[str]:
        with self._lock:
            return sorted(self._quarantined)

    def rebuilt(self) -> Dict[str, str]:
        """Documents rebuilt from their XML source after a storage
        failure (``add_file(rebuild=True)``): name → source path."""
        with self._lock:
            return dict(self._rebuilt)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def remove(self, name: str) -> None:
        """Drop a document (in-flight requests keep their engine alive)."""
        with self._lock:
            self._entries.pop(name, None)
            self._quarantined.pop(name, None)
            self._rebuilt.pop(name, None)
