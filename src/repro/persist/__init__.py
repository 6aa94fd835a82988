"""repro.persist — durable sessions: snapshot + journal persistence.

The Q system's value compounds over a session's lifetime — registered
sources, alignment edges, learned MIRA weights, materialized views — yet
before this subsystem all of it evaporated on process exit: only the *rows*
survived (on the SQLite backend), and the graph, weights, profiles and views
had to be rebuilt by re-running registration and replaying feedback.  This
package makes the whole session durable:

* :mod:`repro.persist.snapshot` — versioned, checksummed JSON payloads for
  every serializable subsystem: search graph (with original edge ids),
  weight vector, profile index, views (each one's definition and current
  ranking), feedback events, and the graph's next edge number.
* :mod:`repro.persist.journal` — shadow-diff mutation journal, so saves
  after the first checkpoint are incremental; entries replay deterministic
  state deltas (feedback weight movements, registrations/removals,
  confidence merges) on reopen.
* :mod:`repro.persist.store` — where the bytes live: dedicated
  ``_repro_session_*`` tables inside a SQLite catalog database (one file =
  whole session), or a JSON sidecar + ``.journal`` pair for memory-backed
  catalogs (giving the memory backend durability it never had).
* :mod:`repro.persist.session` — the checkpoint manager behind
  :meth:`QService.save() <repro.api.service.QService.save>` /
  :meth:`QService.open() <repro.api.service.QService.open>` /
  ``autosave=``, including journal compaction.

Restored sessions answer queries **byte-identically** (answers, provenance,
correspondences, k-best order) to the live session that saved them — the
cross-backend parity suite asserts it on the fig6/fig8 replays — and a warm
:meth:`~repro.api.service.QService.open` skips profiling, matching and
alignment entirely (``benchmarks/persist_bench.py`` gates the speedup).
"""

from ..exceptions import SnapshotError
from .session import (
    SaveReport,
    SessionPersistence,
    overlay_payload,
    restore_core,
    restore_overlay,
    service_config_payload,
    snapshot_body,
)
from .snapshot import FORMAT_VERSION, unwrap_document, wrap_document
from .store import (
    FileSessionStore,
    SessionStore,
    SqliteSessionStore,
    session_store,
    sniff_sqlite_file,
)

__all__ = [
    "FORMAT_VERSION",
    "FileSessionStore",
    "SaveReport",
    "SessionPersistence",
    "SessionStore",
    "SnapshotError",
    "SqliteSessionStore",
    "overlay_payload",
    "restore_core",
    "restore_overlay",
    "service_config_payload",
    "session_store",
    "sniff_sqlite_file",
    "snapshot_body",
    "unwrap_document",
    "wrap_document",
]
