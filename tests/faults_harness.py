"""Scriptable fault injection for storage backends and session stores.

The ``fault_injection``-marked tests (``test_faults.py`` and the server
state machine in ``test_server_machine.py``) drive the *real* serving
stack — catalog, engine, writer lane, persistence — while this module makes
its storage layer misbehave on cue.  It lives in ``tests/`` because nothing
in ``src/`` runs it:

* :class:`FaultyBackend` wraps any
  :class:`~repro.storage.base.StorageBackend` and applies a
  :class:`FaultPlan` to every protocol call: raise a transient or fatal
  error on the Nth ``scan`` / ``insert_rows`` / ``execute_write`` / ...,
  add latency, or simulate a crash point.  Because
  :func:`~repro.storage.resolve_backend` passes live backend instances
  through unchanged, a wrapped backend plugs into
  ``QService(backend=FaultyBackend(...))`` with zero special-casing.
* :class:`FaultySessionStore` wraps a
  :class:`~repro.persist.store.SessionStore` the same way, covering the
  save/compaction path (``write_snapshot`` / ``append_entry``) — including
  the crash window between a sidecar snapshot replace and its journal
  truncation.

Faults are *typed*: transient rules raise
:class:`~repro.exceptions.TransientStorageError` (the writer lane retries
them), fatal rules raise :class:`InjectedFaultError` (a plain
``StorageError`` — the server degrades), and crash rules raise
:class:`InjectedCrashError` (callers treat it as a process death and
re-open from disk).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import StorageError, TransientStorageError
from repro.persist.store import SessionStore
from repro.storage.base import StorageBackend


class InjectedFaultError(StorageError):
    """A scripted *non-transient* storage failure (degrades the server)."""


class InjectedCrashError(StorageError):
    """A scripted crash point: the process 'dies' mid-operation.

    Tests catch this, abandon the live objects, and re-open the session
    from disk — the durability invariants must hold across it.
    """


@dataclass
class FaultRule:
    """One scripted fault: *which* operation misfires, *when*, and *how*.

    Parameters
    ----------
    op:
        Operation name the rule arms on — the wrapped method's name
        (``"scan"``, ``"insert_rows"``, ``"append_row"``, ``"execute_write"``,
        ``"write_snapshot"``, ...).
    error:
        ``"transient"`` → :class:`TransientStorageError`, ``"fatal"`` →
        :class:`InjectedFaultError`, ``"crash"`` → :class:`InjectedCrashError`,
        ``None`` → no error (latency-only rule).
    after:
        Fire starting with the Nth call of ``op`` (1-based) counted from
        plan arming; earlier calls pass through.
    every:
        With ``every=k``, fire on every kth eligible call instead of every
        one.
    times:
        Total number of firings before the rule disarms; ``None`` = forever.
    latency_s:
        Seconds to sleep before the call proceeds (or before raising).
    """

    op: str
    error: Optional[str] = "transient"
    after: int = 1
    every: int = 1
    times: Optional[int] = 1
    latency_s: float = 0.0
    fired: int = 0

    def should_fire(self, call_number: int) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if call_number < self.after:
            return False
        return (call_number - self.after) % max(self.every, 1) == 0

    def raise_error(self, op: str, call_number: int) -> None:
        if self.error is None:
            return
        message = f"injected {self.error} fault on {op} (call #{call_number})"
        if self.error == "transient":
            raise TransientStorageError(message)
        if self.error == "fatal":
            raise InjectedFaultError(message)
        if self.error == "crash":
            raise InjectedCrashError(message)
        raise ValueError(f"unknown fault kind {self.error!r}")


@dataclass
class FaultPlan:
    """A set of :class:`FaultRule`\\ s plus per-operation call counters.

    One plan may be shared between a :class:`FaultyBackend` and a
    :class:`FaultySessionStore`; counters are per operation name and
    thread-safe (the writer lane and the read pool may hit the same backend
    concurrently).  ``active=False`` (or :meth:`disable`) lets a harness
    build its session fault-free and arm the plan only for the chaos phase;
    counters start at the moment of arming.
    """

    rules: List[FaultRule] = field(default_factory=list)
    active: bool = True
    _counts: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def enable(self) -> None:
        with self._lock:
            self.active = True
            self._counts.clear()
            for rule in self.rules:
                rule.fired = 0

    def disable(self) -> None:
        with self._lock:
            self.active = False

    def faults_fired(self) -> int:
        with self._lock:
            return sum(rule.fired for rule in self.rules)

    def on_call(self, op: str) -> None:
        """Count one call of ``op``; sleep/raise according to the rules."""
        if not self.active:
            return
        with self._lock:
            count = self._counts.get(op, 0) + 1
            self._counts[op] = count
            firing = [rule for rule in self.rules if rule.op == op and rule.should_fire(count)]
            for rule in firing:
                rule.fired += 1
        for rule in firing:
            if rule.latency_s > 0:
                time.sleep(rule.latency_s)
            rule.raise_error(op, count)


class FaultyBackend(StorageBackend):
    """A :class:`StorageBackend` decorator that applies a :class:`FaultPlan`.

    Every protocol method consults the plan *before* delegating, so an
    injected error leaves the underlying backend untouched — exactly the
    semantics of an I/O error surfacing before the backend's own work.
    Both capability flags and the SQLite extras (``execute_sql`` /
    ``execute_write`` / ``execute_write_batch`` / ``path``) proxy through,
    so a wrapped backend is a drop-in for ``QService(backend=...)`` and the
    in-database session store alike.
    """

    def __init__(self, delegate: StorageBackend, plan: FaultPlan) -> None:
        self.delegate = delegate
        self.plan = plan
        self.kind = delegate.kind
        self.supports_sql_pushdown = delegate.supports_sql_pushdown
        self.supports_session_store = delegate.supports_session_store

    # -- relation lifecycle -------------------------------------------
    def create_relation(self, key, schema, initial_version: int = 0) -> None:
        self.plan.on_call("create_relation")
        self.delegate.create_relation(key, schema, initial_version)

    def bind_schema(self, key, schema) -> None:
        self.plan.on_call("bind_schema")
        self.delegate.bind_schema(key, schema)

    def has_relation(self, key: str) -> bool:
        return self.delegate.has_relation(key)

    def drop_relation(self, key: str) -> None:
        self.plan.on_call("drop_relation")
        self.delegate.drop_relation(key)

    def relation_keys(self) -> Tuple[str, ...]:
        # Gated so fault plans can fail the server's recovery probe too.
        self.plan.on_call("relation_keys")
        return self.delegate.relation_keys()

    # -- ingest --------------------------------------------------------
    def append_row(self, key, values):
        self.plan.on_call("append_row")
        return self.delegate.append_row(key, values)

    def insert_rows(self, key, rows: Iterable[Tuple[object, ...]]) -> int:
        self.plan.on_call("insert_rows")
        return self.delegate.insert_rows(key, rows)

    # -- reads ---------------------------------------------------------
    def scan(self, key: str):
        self.plan.on_call("scan")
        return self.delegate.scan(key)

    def row_count(self, key: str) -> int:
        return self.delegate.row_count(key)

    def version(self, key: str) -> int:
        return self.delegate.version(key)

    def distinct_values(self, key: str, attribute: str) -> frozenset:
        self.plan.on_call("distinct_values")
        return self.delegate.distinct_values(key, attribute)

    # -- catalog metadata ---------------------------------------------
    def save_source_schema(self, name: str, payload: dict) -> None:
        self.plan.on_call("save_source_schema")
        self.delegate.save_source_schema(name, payload)

    def delete_source_schema(self, name: str) -> None:
        self.plan.on_call("delete_source_schema")
        self.delegate.delete_source_schema(name)

    def persisted_source_schemas(self) -> List[dict]:
        return self.delegate.persisted_source_schemas()

    # -- introspection / lifecycle ------------------------------------
    def storage_size_bytes(self) -> int:
        return self.delegate.storage_size_bytes()

    def close(self) -> None:
        self.delegate.close()

    # -- SQLite extras (session store / pushdown), proxied when present
    @property
    def path(self):
        return self.delegate.path  # type: ignore[attr-defined]

    def execute_sql(self, sql: str, parameters: Sequence[object] = ()):
        self.plan.on_call("execute_sql")
        return self.delegate.execute_sql(sql, parameters)  # type: ignore[attr-defined]

    def execute_write(self, sql: str, parameters: Sequence[object] = ()):
        self.plan.on_call("execute_write")
        return self.delegate.execute_write(sql, parameters)  # type: ignore[attr-defined]

    def execute_write_batch(self, statements) -> None:
        self.plan.on_call("execute_write")
        return self.delegate.execute_write_batch(statements)  # type: ignore[attr-defined]

    def ensure_canon_index(self, key: str, attribute: str) -> None:
        self.delegate.ensure_canon_index(key, attribute)  # type: ignore[attr-defined]

    def table_sql_name(self, key: str) -> str:
        return self.delegate.table_sql_name(key)  # type: ignore[attr-defined]

    def column_sql_name(self, attribute: str) -> str:
        return self.delegate.column_sql_name(attribute)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyBackend({self.delegate!r}, fired={self.plan.faults_fired()})"


class FaultySessionStore(SessionStore):
    """A :class:`SessionStore` decorator applying a :class:`FaultPlan`.

    Arms the persistence path: rules on ``"write_snapshot"``,
    ``"append_entry"`` and ``"load"`` cover autosave failures mid-mutation
    (the idempotency-key scenario), failed compactions, and crash-point
    simulation inside save.
    """

    def __init__(self, delegate: SessionStore, plan: FaultPlan) -> None:
        self.delegate = delegate
        self.plan = plan
        self.holds_rows = delegate.holds_rows
        self.description = f"faulty({delegate.description})"

    def load(self):
        self.plan.on_call("load")
        return self.delegate.load()

    def write_snapshot(self, body) -> None:
        self.plan.on_call("write_snapshot")
        self.delegate.write_snapshot(body)

    def append_entry(self, body) -> None:
        self.plan.on_call("append_entry")
        self.delegate.append_entry(body)

    def entry_count(self) -> int:
        return self.delegate.entry_count()


def wrap_session_store(service, plan: FaultPlan) -> FaultySessionStore:
    """Swap a service's live session store for a fault-injecting wrapper.

    The service must have saved at least once (so its persistence layer
    exists).  Returns the wrapper; the original store stays reachable as
    ``wrapper.delegate``.
    """
    persistence = getattr(service, "_persistence", None)
    if persistence is None:
        raise ValueError("service has no persistence layer yet; call save() first")
    wrapper = FaultySessionStore(persistence.store, plan)
    persistence.store = wrapper
    return wrapper
