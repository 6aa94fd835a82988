"""Durability of a :class:`~repro.api.service.QService`: save, open, autosave, idempotent writes.

Where the bytes go is chosen by :func:`~repro.persist.store.session_store`
alone, for :meth:`DurabilityMixin.save`, :meth:`DurabilityMixin.open` and
the construction-time autosave check.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import fields as dataclass_fields
from typing import Callable, Optional, Sequence

from ..datastore.database import Catalog
from ..matching.base import BaseMatcher
from ..obs.tracing import active_trace
from ..persist import (
    FileSessionStore,
    SessionPersistence,
    SnapshotError,
    restore_core,
    restore_overlay,
    session_store,
    sniff_sqlite_file,
)
from ..persist.snapshot import restore_graph_config
from .types import ServiceConfig

#: How many idempotency keys :meth:`DurabilityMixin.apply_once` remembers.
_APPLIED_OPS_LIMIT = 1024


def _restore_config(payload) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig` from its persisted payload.

    Field names come from the dataclass itself — the same source
    :func:`repro.persist.session.service_config_payload` serializes from —
    so a future config knob round-trips without touching either side.  A
    key no field names (a retired knob) is not read.
    """
    knobs = {field.name: payload[field.name] for field in dataclass_fields(ServiceConfig) if field.name != "graph"}
    return ServiceConfig(graph=restore_graph_config(payload["graph"]), **knobs)


class DurabilityMixin:
    """The persistence calls of :class:`~repro.api.service.QService`."""

    def _init_persistence(self, autosave, persistence: Optional[SessionPersistence] = None) -> None:
        """Set the session's durability state; a reopened session passes its ``persistence``.

        ``autosave=True`` with nowhere to write fails here, at construction,
        not on the first (already applied) mutation.
        """
        self._persistence = persistence
        self._autosave = bool(autosave)
        #: Sidecar path remembered from ``autosave=<path>`` or the first
        #: explicit ``save(path)``; ``None`` for in-database sessions.
        self._save_path = autosave if autosave and not isinstance(autosave, bool) else None
        if (
            persistence is None
            and self._autosave
            and session_store(self._save_path, self.catalog.backend) is None
        ):
            raise SnapshotError(
                "autosave=True needs a session-capable (SQLite) catalog "
                "backend; pass autosave=<path> to checkpoint a "
                "memory-backed session into a sidecar file"
            )
        #: Idempotency keys of the writes :meth:`apply_once` ran, each with
        #: its result: the latest ``_APPLIED_OPS_LIMIT``, oldest first.  Keys
        #: persist in the session overlay; results do not.
        self.applied_ops: "OrderedDict[str, object]" = OrderedDict()
        #: Set while :meth:`apply_once` runs a write: its save waits until
        #: the write's key is recorded.
        self._applying = False

    def save(self, path=None, compact: bool = False):
        """Checkpoint the whole session so :meth:`open` can restore it.

        The first call writes a full snapshot — search graph (nodes and
        alignment edges with features and original edge ids), weight
        vector, learner state, profile index, view registry (each view's
        keywords and ``k``, and its ranking while current), feedback log,
        and the graph's next edge number.  Later calls are *incremental*:
        one journal delta entry capturing the mutations since the previous
        save.  Once the journal reaches
        ``config.journal_compact_after`` entries (or ``compact=True``, or a
        change a delta cannot express), journal and snapshot fold into a
        fresh snapshot.

        Where the bytes go: on a SQLite-backed catalog, into
        ``_repro_session_*`` tables inside the catalog database itself
        (one file holds the whole session) — unless ``path`` is given,
        which always selects a JSON sidecar (snapshot at ``path``, journal
        at ``path + ".journal"``).  A memory-backed catalog requires a
        ``path`` on the first save; the sidecar then also carries the
        catalog's rows, giving the memory backend durability it never had.

        Returns a :class:`~repro.persist.SaveReport`.
        """
        if self._persistence is None:
            if path is not None:
                self._save_path = path
            store = session_store(self._save_path, self.catalog.backend)
            if store is None:
                raise SnapshotError(
                    "a memory-backed session has no durable home for its snapshot; "
                    "pass save(path=...) (or autosave=<path>) to choose a sidecar file"
                )
            self._persistence = SessionPersistence(
                store, compact_after=self.config.journal_compact_after
            )
        elif path is not None:
            store = self._persistence.store
            if not isinstance(store, FileSessionStore) or str(store.path) != str(path):
                raise SnapshotError(
                    f"this session already persists to {store.description}; "
                    "save() cannot be re-targeted to a different location"
                )
        # A table appended to since it was profiled is saved with its new values.
        self.profile_index.reprofile_stale()
        return self._persistence.save(self, compact=compact)

    @classmethod
    def open(
        cls,
        path=None,
        backend=None,
        config: Optional[ServiceConfig] = None,
        matchers: Optional[Sequence[BaseMatcher]] = None,
        autosave=False,
    ):
        """Warm-start a :class:`~repro.api.service.QService` from a saved snapshot + journal.

        ``open(path)`` sniffs the file: a SQLite database restores the
        whole session from its ``_repro_session_*`` tables (rows included);
        a JSON sidecar restores a memory-style session, re-ingesting the
        rows serialized in the snapshot.  ``backend=`` overrides the sniff
        — pass ``"sqlite:<path>"`` (or a live
        :class:`~repro.storage.base.StorageBackend`) to name the catalog
        database explicitly.

        No profiling, matching or alignment runs: graph, weights, profiles
        and view definitions come straight from the snapshot, the journal
        replays any post-snapshot mutations, and the graph's next edge
        number is set so the reopened session allocates the same ids a
        continuing live session would.  No view expands here: each expands
        on its first pull, to the ids it had, and resumes its saved ranking
        if nothing moved before then.  Restored sessions answer queries
        byte-identically to the session that saved them.  Only the current
        format opens: a session saved in an older one raises
        :class:`~repro.exceptions.SnapshotError` and is converted once with
        ``scripts/upgrade_session.py``.  So does a stored body that lacks a
        key the current writers write; the error names the key.

        ``config`` / ``matchers`` override the persisted session knobs and
        the (non-serializable) matcher stack; by default the saved config
        is restored and the default matchers are installed.
        """
        from ..storage import SqliteBackend, resolve_backend
        from ..storage.base import StorageBackend

        # A backend we construct here is ours to close if the restore
        # fails; one handed in live belongs to the caller.
        owns_backend = not isinstance(backend, StorageBackend)
        resolved = resolve_backend(backend) if backend is not None else None
        if resolved is None and path is not None and sniff_sqlite_file(path):
            resolved = SqliteBackend(path)
        store = session_store(backend=resolved) or session_store(path)
        if store is None:
            raise SnapshotError(
                "QService.open needs a session location: a path (sqlite "
                "database or JSON sidecar) and/or a session-capable backend"
            )
        try:
            loaded = store.load()
            if loaded is None:
                raise SnapshotError(f"no session stored in {store.description}")
            body, entries = loaded

            service = cls.__new__(cls)
            service.config = config if config is not None else _restore_config(body["config"])
            if store.holds_rows:
                catalog = Catalog(backend=resolved)
            else:
                from ..datastore.csvio import source_from_dict

                catalog = Catalog(
                    [source_from_dict(payload) for payload in body["catalog"]["sources"]],
                    backend=resolved,
                )
            graph, profile_index, overlay = restore_core(
                body, entries, catalog, service.config.graph, store.holds_rows
            )
            service._assemble(catalog, graph, profile_index, matchers)
            service._init_persistence(
                autosave,
                SessionPersistence(store, compact_after=service.config.journal_compact_after),
            )
            restore_overlay(service, overlay)
            service._persistence.attach_restored(service, body["snapshot_version"], overlay)
            return service
        except BaseException as exc:
            if owns_backend and resolved is not None:
                resolved.close()
            if isinstance(exc, KeyError):
                raise SnapshotError(f"corrupt session in {store.description}: missing key {exc}") from exc
            raise

    def probe_storage(self, save: bool = False) -> None:
        """Check that the session's storage answers, or raise what it met:
        the backend's metadata, then a save when ``save`` is set, else the
        session store (when the session is persistent)."""
        if self.catalog.backend is not None:
            self.catalog.backend.relation_keys()
        if save:
            self.save()
        elif self._persistence is not None:
            self._persistence.store.entry_count()

    def _after_mutation(self) -> None:
        """Autosave hook, called at the end of every mutating service call."""
        if self._autosave and not self._applying:
            with active_trace().span("autosave"):
                self.save()

    def apply_once(self, key: str, mutate: Callable[[], object]) -> object:
        """Run the write ``mutate`` at most once under the idempotency ``key``.

        The key is recorded with the write's result before the autosave, so
        a call that repeats a key whose write already landed (the retry of a
        write whose save failed) runs only the save and returns the recorded
        result.  A write that raises records nothing.  After a reopen a
        repeated key still runs nothing, and returns ``None``.
        """
        if key not in self.applied_ops:
            self._applying = True
            try:
                result = mutate()
            finally:
                self._applying = False
            self.applied_ops[key] = result
            if len(self.applied_ops) > _APPLIED_OPS_LIMIT:
                self.applied_ops.popitem(last=False)
        self._after_mutation()
        return self.applied_ops[key]
