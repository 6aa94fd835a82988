"""Pluggable relation storage: the swappable bottom layer of the stack.

See :mod:`repro.storage.base` for the :class:`StorageBackend` protocol
contract (scan ordering, canonicalization, ingest atomicity, versioning).

Backend selection guide
-----------------------
* :class:`MemoryBackend` (``"memory"``, the default) — Python-list rows,
  no dependencies, fastest for catalogs that fit comfortably in RAM.
* :class:`SqliteBackend` (``"sqlite"``) — one SQLite database per catalog.
  Pass a file path for datasets larger than RAM or sessions that must
  survive a restart (``Catalog``/``QService`` reconstruct themselves from
  the file), or ``":memory:"`` for an ephemeral database that still gets
  SQL pushdown and bulk ``executemany`` ingest.  It is the one SQL backend:
  the row model, the library's registered canon function and the SQL
  that calls it live in :mod:`repro.storage.sqlite`.

The ``REPRO_BACKEND`` environment variable switches the *default* backend
of every :class:`~repro.datastore.database.Catalog` created without an
explicit one — the hook the CI matrix uses to run the whole tier-1 suite
against both implementations.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ..exceptions import StorageError
from .base import StorageBackend
from .memory import MemoryBackend
from .sqlite import SqliteBackend

#: Accepted spellings of a backend choice.
BackendSpec = Union[None, str, StorageBackend]

_ENV_VAR = "REPRO_BACKEND"


def create_backend(kind: str, path: Optional[str] = None) -> StorageBackend:
    """Instantiate a backend by name (``"memory"`` or ``"sqlite"``).

    ``"sqlite"`` accepts an optional database ``path`` (default
    ``":memory:"``); a spec of the form ``"sqlite:<path>"`` is also
    understood so the choice can live in a single string (CLI flags, env).
    """
    if kind.startswith("sqlite:"):
        kind, path = "sqlite", kind.split(":", 1)[1]
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite":
        return SqliteBackend(path or ":memory:")
    raise StorageError(
        f"unknown storage backend {kind!r}; valid backends: memory, sqlite"
    )


def resolve_backend(spec: BackendSpec) -> Optional[StorageBackend]:
    """Normalize a backend spec: ``None`` | name string | live instance."""
    if spec is None or isinstance(spec, StorageBackend):
        return spec
    return create_backend(spec)


def backend_from_env() -> Optional[StorageBackend]:
    """A fresh backend per the ``REPRO_BACKEND`` env var, or ``None``.

    ``""``/unset/``"memory"`` mean "no catalog-level backend" — every table
    keeps its private in-memory storage, the seed behavior.  Each call
    returns a *new* instance so concurrently created catalogs never share
    one ``:memory:`` database by accident.
    """
    spec = os.environ.get(_ENV_VAR, "").strip()
    if not spec or spec == "memory":
        return None
    return create_backend(spec)


__all__ = [
    "BackendSpec",
    "MemoryBackend",
    "SqliteBackend",
    "StorageBackend",
    "StorageError",
    "backend_from_env",
    "create_backend",
    "resolve_backend",
]
