"""Session stores: where the snapshot and journal physically live.

Two implementations cover the two storage worlds of the catalog layer:

* :class:`SqliteSessionStore` — the snapshot and journal live in dedicated
  ``_repro_session_snapshot`` / ``_repro_session_journal`` tables **inside
  the catalog's own SQLite database**, so one file holds the whole session:
  rows, schemas, graph, weights, profiles, views.  Because the rows are
  already durable there, snapshots omit them (``holds_rows``).
* :class:`FileSessionStore` — for memory-backed catalogs (which the seed
  could never persist at all): the snapshot is a JSON sidecar file at the
  user-supplied path and the journal is an append-only JSON-lines file next
  to it (``<path>.journal``).  Snapshots include full catalog row data.

Both stores frame every document with the format version and a SHA-256
checksum (see :mod:`repro.persist.snapshot`); loading a truncated, edited or
version-incompatible session raises a typed
:class:`~repro.exceptions.SnapshotError` instead of silently restoring
garbage.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..exceptions import SnapshotError
from .snapshot import unwrap_document, wrap_document

#: Suffix of the sidecar journal next to a file-store snapshot.
JOURNAL_SUFFIX = ".journal"

_SNAPSHOT_TABLE = "_repro_session_snapshot"
_JOURNAL_TABLE = "_repro_session_journal"

#: First bytes of every SQLite database file — used by
#: :func:`sniff_sqlite_file` so ``QService.open(path)`` can tell a whole-
#: session database from a JSON sidecar without the caller saying which.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def sniff_sqlite_file(path) -> bool:
    """Whether ``path`` exists and starts with the SQLite file magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


class SessionStore(ABC):
    """Where one session's snapshot and journal are read and written."""

    #: Whether relation rows are durable in the same place as the snapshot
    #: (the catalog backend).  When ``False``, snapshots and journal entries
    #: must carry row data themselves.
    holds_rows: bool = False

    #: Human-readable location, for error messages and reports.
    description: str = "session store"

    @abstractmethod
    def load(self) -> Optional[Tuple[Dict[str, object], List[Dict[str, object]]]]:
        """The stored ``(snapshot body, journal entry bodies)``, or ``None``."""

    @abstractmethod
    def write_snapshot(self, body: Dict[str, object]) -> None:
        """Replace the snapshot and truncate the journal (a checkpoint)."""

    @abstractmethod
    def append_entry(self, body: Dict[str, object]) -> None:
        """Append one journal entry after the current snapshot."""

    @abstractmethod
    def entry_count(self) -> int:
        """Number of journal entries on top of the stored snapshot."""


class SqliteSessionStore(SessionStore):
    """Snapshot + journal inside the catalog's own SQLite database.

    The ``_repro_session_*`` tables are created lazily on the first *write*:
    merely opening (or failing to open) a catalog database must not mutate
    it.  A snapshot replace and its journal truncation commit in **one**
    transaction, so a crash can never leave a new snapshot paired with the
    previous snapshot's journal entries.
    """

    holds_rows = True

    def __init__(self, backend) -> None:
        if not getattr(backend, "supports_session_store", False):
            raise SnapshotError(
                f"backend {getattr(backend, 'kind', backend)!r} cannot host a "
                "session store; save to a sidecar path instead"
            )
        self.backend = backend
        self.description = f"sqlite database {backend.path!r}"

    def _ensure_tables(self) -> None:
        self.backend.execute_write_batch(
            [
                (
                    f"CREATE TABLE IF NOT EXISTS {_SNAPSHOT_TABLE} "
                    "(id INTEGER PRIMARY KEY CHECK (id = 1), payload TEXT NOT NULL)",
                    (),
                ),
                (
                    f"CREATE TABLE IF NOT EXISTS {_JOURNAL_TABLE} "
                    "(seq INTEGER PRIMARY KEY, payload TEXT NOT NULL)",
                    (),
                ),
            ]
        )

    def _has_tables(self) -> bool:
        rows = self.backend.execute_sql(
            "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table' AND name = ?",
            (_SNAPSHOT_TABLE,),
        )
        return bool(rows[0][0])

    def load(self):
        if not self._has_tables():
            return None
        rows = self.backend.execute_sql(f"SELECT payload FROM {_SNAPSHOT_TABLE} WHERE id = 1")
        if not rows:
            return None
        snapshot = unwrap_document(rows[0][0], "snapshot")
        entries = [
            unwrap_document(payload, "journal entry")
            for (payload,) in self.backend.execute_sql(
                f"SELECT payload FROM {_JOURNAL_TABLE} ORDER BY seq"
            )
        ]
        return snapshot, entries

    def write_snapshot(self, body) -> None:
        self._ensure_tables()
        # One transaction: snapshot replace + journal truncation are atomic.
        self.backend.execute_write_batch(
            [
                (
                    f"INSERT OR REPLACE INTO {_SNAPSHOT_TABLE} (id, payload) VALUES (1, ?)",
                    (wrap_document(body),),
                ),
                (f"DELETE FROM {_JOURNAL_TABLE}", ()),
            ]
        )

    def append_entry(self, body) -> None:
        self._ensure_tables()
        self.backend.execute_write(
            f"INSERT INTO {_JOURNAL_TABLE} (seq, payload) VALUES "
            f"(COALESCE((SELECT MAX(seq) FROM {_JOURNAL_TABLE}), -1) + 1, ?)",
            (wrap_document(body),),
        )

    def entry_count(self) -> int:
        if not self._has_tables():
            return 0
        return self.backend.execute_sql(f"SELECT COUNT(*) FROM {_JOURNAL_TABLE}")[0][0]


class FileSessionStore(SessionStore):
    """Snapshot in a JSON sidecar file, journal in ``<path>.journal`` lines."""

    holds_rows = False

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.journal_path = Path(str(self.path) + JOURNAL_SUFFIX)
        self.description = f"session file {str(self.path)!r}"

    def load(self):
        if not self.path.exists():
            return None
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SnapshotError(f"cannot read {self.description}: {exc}") from exc
        snapshot = unwrap_document(text, "snapshot")
        return snapshot, [unwrap_document(line, "journal entry") for line in self._journal_lines()]

    def _journal_lines(self) -> List[str]:
        if not self.journal_path.exists():
            return []
        text = self.journal_path.read_text(encoding="utf-8")
        return [line for line in text.splitlines() if line.strip()]

    def write_snapshot(self, body) -> None:
        document = wrap_document(body)
        tmp = Path(str(self.path) + ".tmp")
        tmp.write_text(document + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        # Truncate the journal: the snapshot now includes everything.
        self.journal_path.write_text("", encoding="utf-8")

    def append_entry(self, body) -> None:
        if not self.path.exists():
            raise SnapshotError(
                f"cannot append a journal entry: {self.description} has no snapshot"
            )
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(wrap_document(body) + "\n")

    def entry_count(self) -> int:
        return len(self._journal_lines())


def session_store(path=None, backend=None) -> Optional[SessionStore]:
    """Where a session's bytes go: the one choice ``save``, ``open`` and autosave make.

    A ``path`` is a JSON sidecar; without one, the catalog's own database
    holds the session if its ``backend`` can; otherwise there is nowhere to
    write (``None``) and the caller says how to name a place.  ``open``
    asks the backend first (``session_store(backend=...) or
    session_store(path)``), since a path it opens may be that database.
    """
    if path is not None:
        return FileSessionStore(path)
    if backend is not None and backend.supports_session_store:
        return SqliteSessionStore(backend)
    return None
