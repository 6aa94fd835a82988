"""Session-level persistence orchestration.

This module glues the payload builders (:mod:`repro.persist.snapshot`), the
diff journal (:mod:`repro.persist.journal`) and the stores
(:mod:`repro.persist.store`) into the checkpoint discipline
:class:`~repro.api.service.QService` exposes as ``save()`` / ``open()``:

* the **first** save writes a full snapshot;
* every later save appends one journal *delta entry* (graph/weight/catalog
  movement since the previous save) plus the current **overlay** — the
  small, always-rewritten tail state: view registry (with per-view
  query-graph deltas), feedback log, learner/registration counters, version
  counters and the graph's next edge number;
* once the journal reaches ``compact_after`` entries — or a change lands
  that a delta cannot express, such as rows appended to an existing
  relation of a sidecar-persisted session — the next save *compacts*:
  journal and snapshot fold into one fresh snapshot and the journal
  truncates.

Everything here is duck-typed over the service object (``service.graph``,
``service.catalog``, ``service.profile_index``, ...) so this package never
imports :mod:`repro.api` — the service imports us, not the other way
around.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from ..datastore.csvio import source_to_dict
from ..profiling.index import CatalogProfileIndex
from .journal import StateShadow, apply_delta, build_delta, is_empty_delta
from .snapshot import (
    event_payload,
    graph_config_payload,
    graph_payload,
    query_graph_delta_payload,
    restore_graph,
    restore_weights,
    weights_payload,
)
from .store import SessionStore


# ----------------------------------------------------------------------
# Payload builders (save side)
# ----------------------------------------------------------------------
def service_config_payload(config) -> Dict[str, object]:
    """Flatten a service config so a reopened session inherits its knobs.

    Field names come straight off the dataclass (the restore side reads
    them the same way), so adding a config knob round-trips automatically.
    """
    payload: Dict[str, object] = {
        field.name: getattr(config, field.name)
        for field in dataclass_fields(type(config))
        if field.name != "graph"
    }
    payload["graph"] = graph_config_payload(config.graph)
    return payload


def view_record_payload(record, base_graph) -> Dict[str, object]:
    """One view registry record, with its query-graph delta when reusable.

    The expansion delta is serialized only for views synced to the current
    graph structure — a structurally stale view rebuilds its query graph on
    the next read anyway (live and restored sessions alike, drawing the
    same numbers from the graph's edge-id sequence), so persisting its stale
    expansion would be wasted bytes.  Beside the delta goes the view's
    ranking (``"trees"``: per tree, in rank order, its sorted edge ids) when
    its last complete solve is current, so the reopened view's first read
    solves nothing; without the key (a stale view, an older save) it solves.
    """
    view = record.view
    payload: Dict[str, object] = {
        "view_id": record.view_id,
        "name": record.name,
        "keywords": list(view.keywords),
        "k": view.k,
        "created_index": record.created_index,
        "synced_weights_version": record.synced_weights_version,
        "synced_structure_version": record.synced_structure_version,
    }
    if record.synced_structure_version == base_graph.structure_version:
        payload["query_graph"] = query_graph_delta_payload(view.query_graph, base_graph)
        ranking = view.current_ranking()
        if ranking is not None:
            payload["trees"] = [sorted(tree.edge_ids) for tree in ranking]
    else:
        payload["query_graph"] = None
    return payload


def overlay_payload(service) -> Dict[str, object]:
    """The always-rewritten small tail state of one session."""
    # Duck-typed like everything else here: the tenant registry exists on
    # multi-tenant-capable services; older/simpler session objects without
    # one persist an empty mapping.
    tenants = getattr(service, "tenants", None)
    return {
        "tenants": tenants.export_state() if tenants is not None else {},
        "edge_id_counter": service.graph.next_edge_number,
        "weights_version": service.graph.weights.version,
        "structure_version": service.graph.structure_version,
        "views": {
            "created": service.views.created_count,
            "records": [
                view_record_payload(record, service.graph)
                for record in service.views.records()
            ],
        },
        "learner_steps": service.learner.steps_processed,
        "feedback_events": [event_payload(event) for event in service.feedback_log],
        "registrations": [
            [record.source_name, record.strategy]
            for record in service.registrar.history
        ],
        "refreshes": service._refreshes,
        "refreshes_skipped": service._refreshes_skipped,
        # Idempotency keys of applied mutations (serving-layer writer lane):
        # keys only — results are in-memory conveniences.  Duck-typed so
        # session objects predating the fault-tolerant server persist [].
        "applied_ops": list(getattr(service, "_applied_ops", None) or ()),
    }


def snapshot_body(service, holds_rows: bool, snapshot_version: int) -> Dict[str, object]:
    """The full session snapshot document body."""
    body: Dict[str, object] = {
        "kind": "session",
        "snapshot_version": snapshot_version,
        "config": service_config_payload(service.config),
        "graph": graph_payload(service.graph),
        "weights": weights_payload(service.graph.weights),
        "profiles": service.profile_index.export_state(),
        "overlay": overlay_payload(service),
    }
    if not holds_rows:
        body["catalog"] = {
            "sources": [source_to_dict(source) for source in service.catalog]
        }
    else:
        body["catalog"] = None
    return body


# ----------------------------------------------------------------------
# Restore side
# ----------------------------------------------------------------------
def restore_core(
    body: Dict[str, object],
    entries: List[Dict[str, object]],
    catalog,
    graph_config,
    holds_rows: bool,
) -> Tuple[object, CatalogProfileIndex, Dict[str, object]]:
    """Rebuild graph + profile index from a snapshot and replay the journal.

    Returns ``(graph, profile_index, overlay)`` where ``overlay`` is the
    most recent tail state (from the last journal entry, falling back to
    the snapshot's own).  The caller assembles the service around these and
    then installs the overlay's counters — replay bumps version counters as
    a side effect, so the overlay values are authoritative.
    """
    # Discard journal entries that belong to an older snapshot — possible
    # only if a crash separated a sidecar snapshot replace from its journal
    # truncation (the SQLite store commits both in one transaction).
    snapshot_version = body.get("snapshot_version", 1)
    entries = [
        entry
        for entry in entries
        if entry.get("after_snapshot_version", snapshot_version) == snapshot_version
    ]
    weights = restore_weights(body.get("weights") or {})
    graph = restore_graph(body.get("graph") or {}, config=graph_config, weights=weights)
    profile_index = CatalogProfileIndex.from_state(body.get("profiles") or {})
    for entry in entries:
        apply_delta(entry, catalog, graph, profile_index, holds_rows)
    overlay = entries[-1]["overlay"] if entries else body["overlay"]
    return graph, profile_index, overlay


# ----------------------------------------------------------------------
# The checkpoint manager
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SaveReport:
    """What one :meth:`QService.save` call actually did."""

    #: ``"snapshot"`` (full checkpoint written), ``"append"`` (one journal
    #: entry added) or ``"noop"`` (nothing changed since the last save).
    action: str
    snapshot_version: int
    journal_entries: int
    compacted: bool = False


class SessionPersistence:
    """Owns one session's store, shadow state and checkpoint policy."""

    def __init__(self, store: SessionStore, compact_after: int = 64) -> None:
        self.store = store
        self.compact_after = max(int(compact_after), 1)
        self.snapshot_version = 0
        self._shadow: Optional[StateShadow] = None
        self._last_overlay: Optional[Dict[str, object]] = None

    def attach_restored(
        self, service, snapshot_version: int, overlay: Dict[str, object]
    ) -> None:
        """Adopt a freshly restored session as the new shadow baseline."""
        self.snapshot_version = snapshot_version
        self._shadow = StateShadow(service)
        self._last_overlay = overlay

    def save(self, service, compact: bool = False) -> SaveReport:
        """Checkpoint ``service``: full snapshot, delta append, or no-op."""
        if self.snapshot_version == 0 or self._shadow is None:
            return self._write_snapshot(service, compacted=False)

        # Cheap compaction triggers first — a compacting save never needs
        # the diff it would immediately discard.
        entry_count = self.store.entry_count()
        if compact or entry_count + 1 > self.compact_after:
            return self._write_snapshot(service, compacted=True)
        delta, needs_snapshot = build_delta(
            service, self._shadow, self.store.holds_rows
        )
        if needs_snapshot:
            return self._write_snapshot(service, compacted=True)
        overlay = overlay_payload(service)
        if is_empty_delta(delta) and overlay == self._last_overlay:
            return SaveReport(
                action="noop",
                snapshot_version=self.snapshot_version,
                journal_entries=entry_count,
            )
        delta["overlay"] = overlay
        delta["after_snapshot_version"] = self.snapshot_version
        self.store.append_entry(delta)
        self._rebase(service, overlay)
        return SaveReport(
            action="append",
            snapshot_version=self.snapshot_version,
            journal_entries=entry_count + 1,
        )

    def _write_snapshot(self, service, compacted: bool) -> SaveReport:
        body = snapshot_body(
            service, self.store.holds_rows, snapshot_version=self.snapshot_version + 1
        )
        self.store.write_snapshot(body)
        self.snapshot_version += 1
        self._rebase(service, body["overlay"])
        return SaveReport(
            action="snapshot",
            snapshot_version=self.snapshot_version,
            journal_entries=0,
            compacted=compacted,
        )

    def _rebase(self, service, overlay: Dict[str, object]) -> None:
        if self._shadow is None:
            self._shadow = StateShadow(service)
        else:
            self._shadow.capture(service)
        self._last_overlay = overlay
