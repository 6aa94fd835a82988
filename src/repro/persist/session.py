"""Session-level persistence orchestration.

This module glues the payload builders (:mod:`repro.persist.snapshot`), the
diff journal (:mod:`repro.persist.journal`) and the stores
(:mod:`repro.persist.store`) into the checkpoint discipline
:class:`~repro.api.service.QService` exposes as ``save()`` / ``open()``:

* the **first** save writes a full snapshot;
* every later save appends one journal *delta entry*: graph/weight/catalog
  movement since the previous save plus what moved in the **overlay** — the
  tail state a snapshot holds whole: view registry (each view's definition
  and, while current, its ranking), feedback log, learner/registration
  counters, version counters and the graph's next edge number.  The
  feedback log is appended to: an entry holds the events added since the
  previous save.  Folding a journal's overlay deltas over its snapshot's
  overlay yields (``==``) what the last save saw;
* once the journal reaches ``compact_after`` entries — or a change lands
  that a delta cannot express, such as rows appended to an existing
  relation of a sidecar-persisted session — the next save *compacts*:
  journal and snapshot fold into one fresh snapshot and the journal
  truncates.

One format is read and written (:data:`~repro.persist.snapshot.FORMAT_VERSION`),
and every key its writers write is read as required: a body without one
raises ``KeyError``, which :meth:`QService.open` reports as a
:class:`~repro.exceptions.SnapshotError` naming the key.

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
from ..exceptions import SnapshotError
from ..learning.feedback import FeedbackLog
from ..profiling.index import CatalogProfileIndex
from .journal import StateShadow, apply_delta, build_delta, is_empty_delta
from .snapshot import (
    event_payload,
    graph_config_payload,
    graph_payload,
    restore_event,
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


def view_record_payload(record) -> Dict[str, object]:
    """One view registry record: the view's definition, and its ranking while current.

    A view is saved as what it was created from — keywords and ``k`` — and
    expands again on its first pull after an open, to the same edge ids.
    Beside the definition goes the view's ranking (``"trees"``: per tree, in
    rank order, its sorted edge ids) when its next pull would not re-solve
    (:meth:`~repro.core.view.RankedView.current_ranking`), so the reopened
    view's first read solves nothing; without the key it solves.
    """
    view = record.view
    payload: Dict[str, object] = {
        "view_id": record.view_id,
        "name": record.name,
        "keywords": list(view.keywords),
        "k": view.k,
        "created_index": record.created_index,
    }
    ranking = view.current_ranking()
    if ranking is not None:
        payload["trees"] = ranking
    return payload


def overlay_payload(service) -> Dict[str, object]:
    """The tail state of one session: whole in a snapshot, a delta in an entry."""
    return {
        "tenants": service.tenants.export_state(),
        "edge_id_counter": service.graph.next_edge_number,
        "weights_version": service.graph.weights.version,
        "structure_version": service.graph.structure_version,
        "views": {
            "created": service.views.created_count,
            "records": [view_record_payload(record) for record in service.views.records()],
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
        # keys only — results are in-memory conveniences.
        "applied_ops": list(service.applied_ops),
    }


def restore_overlay(service, overlay: Dict[str, object]) -> None:
    """Install the tail state :func:`overlay_payload` wrote: views, log, counters, ids.

    A view is restored as its definition and expands on its first pull; a
    ranking its record carries is adopted then, if neither the weights nor
    the graph moved in between.
    """
    from ..alignment.registration import RegistrationRecord
    from ..core.view import RankedView

    # Authoritative counters first: the journal replay moved versions as a
    # side effect; the saved values make staleness checks, carried rankings
    # and future edge-id allocation agree exactly with the session that saved.
    service.graph.weights.version = overlay["weights_version"]
    service.graph.structure_version = overlay["structure_version"]
    service.graph.next_edge_number = overlay["edge_id_counter"]
    views_spec = overlay["views"]
    records = views_spec["records"]
    builder = service._query_builder() if records else None
    for spec in records:
        view = RankedView(
            list(spec["keywords"]),
            service.catalog,
            service.graph,
            k=spec["k"],
            builder=builder,
            answer_limit=service.config.answer_limit,
            engine_context=service.engine_context,
        )
        if "trees" in spec:  # resumed by the first read if nothing moved before it
            view.carry_ranking(spec["trees"])
        service.views.restore(view, spec["name"], spec["view_id"], spec["created_index"])
    service.views.set_created(views_spec["created"])
    service.learner.steps_processed = overlay["learner_steps"]
    for event_spec in overlay["feedback_events"]:
        service.feedback_log.add(restore_event(event_spec))
    for name, strategy in overlay["registrations"]:
        service.registrar.history.append(
            RegistrationRecord(source_name=name, strategy=strategy)
        )
    service._refreshes = overlay["refreshes"]
    service._refreshes_skipped = overlay["refreshes_skipped"]
    # Tenant overlays: sparse per-tenant weight deltas over the shared
    # base vector, restored wholesale (no replay needed — the learned
    # shadows are the durable artifact).
    service.tenants.restore(overlay["tenants"])
    # Applied idempotency keys: results are not durable, the keys are —
    # a writer-lane retry resubmitted after a reopen still no-ops.
    service.applied_ops.update(dict.fromkeys(overlay["applied_ops"]))


def overlay_delta(last: Dict[str, object], overlay: Dict[str, object], appended: int) -> Dict[str, object]:
    """What moved from ``last`` to ``overlay``; empty when nothing did.

    Top-level keys appear only when their value moved.  ``"feedback_events"``
    holds the ``appended`` events the log gained since ``last``, not the log.
    ``"views"`` lists every registered view by id in registry order (absence
    is removal), each record holding only the fields that differ from that
    view's record in ``last``; a ranking that stopped being current is the
    tombstone ``"trees": None``.  A carried ranking nobody pulled is the same
    list object on both sides, which container ``==`` settles by identity.
    """
    delta = {
        key: value
        for key, value in overlay.items()
        if key not in ("views", "feedback_events") and last[key] != value
    }
    if appended:
        delta["feedback_events"] = overlay["feedback_events"][-appended:]
    views = overlay["views"]
    previous = {record["view_id"]: record for record in last["views"]["records"]}
    records = []
    for record in views["records"]:
        old = previous.get(record["view_id"], {})
        moved = {
            field: value
            for field, value in record.items()
            if field == "view_id" or field not in old or old[field] != value
        }
        if "trees" in old and "trees" not in record:
            moved["trees"] = None
        records.append(moved)
    if (
        views["created"] != last["views"]["created"]
        or list(previous) != [moved["view_id"] for moved in records]
        or any(len(moved) > 1 for moved in records)
    ):
        delta["views"] = {"created": views["created"], "records": records}
    return delta


def fold_overlay(overlay: Dict[str, object], delta: Dict[str, object]) -> Dict[str, object]:
    """Re-apply an :func:`overlay_delta` to the overlay it was taken against."""
    folded = {**overlay, **delta}
    if "feedback_events" in delta:  # appended, and held to the log's window
        events = overlay["feedback_events"] + delta["feedback_events"]
        folded["feedback_events"] = events[-FeedbackLog.window_size :]
    if "views" in delta:
        previous = {record["view_id"]: record for record in overlay["views"]["records"]}
        records = [{**previous.get(moved["view_id"], {}), **moved} for moved in delta["views"]["records"]]
        for record in records:
            if record.get("trees", ()) is None:  # the tombstone: no ranking any more
                del record["trees"]
        folded["views"] = {"created": delta["views"]["created"], "records": records}
    return folded


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

    The index is bound to the catalog's tables only after the replay, so
    their later writes mark them stale and nothing the store describes is
    profiled again.  Returns ``(graph, profile_index, overlay)`` where
    ``overlay`` is the most recent tail state: the snapshot's own with every
    entry's overlay delta folded over it.  The caller assembles the service around these and then
    installs the overlay's counters — replay bumps version counters as a
    side effect, so the overlay values are authoritative.
    """
    # Discard journal entries that belong to an older snapshot — possible
    # only if a crash separated a sidecar snapshot replace from its journal
    # truncation (the SQLite store commits both in one transaction).
    snapshot_version = body["snapshot_version"]
    entries = [entry for entry in entries if entry["after_snapshot_version"] == snapshot_version]
    weights = restore_weights(body["weights"])
    graph = restore_graph(body["graph"], config=graph_config, weights=weights)
    profile_index = CatalogProfileIndex.from_state(body["profiles"])
    overlay = body["overlay"]
    for entry in entries:
        apply_delta(entry, catalog, graph, profile_index, holds_rows)
        overlay = fold_overlay(overlay, entry["overlay_delta"])
    lost = {node.relation for node in graph.relation_nodes()}
    lost.difference_update(table.schema.qualified_name for table in catalog.all_tables())
    if lost:  # rows deleted behind the session's back, or a removal that was never saved
        raise SnapshotError(f"the catalog no longer holds the rows of {sorted(lost)}")
    profile_index.bind_tables(catalog)
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
        #: How many events the feedback log had taken in at the last save.
        self._events_saved = 0

    def attach_restored(self, service, snapshot_version: int, overlay: Dict[str, object]) -> None:
        """Adopt a freshly restored session as the new shadow baseline."""
        self.snapshot_version = snapshot_version
        self._rebase(service, overlay)

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
        appended = service.feedback_log.added - self._events_saved
        delta["overlay_delta"] = overlay_delta(self._last_overlay, overlay, appended)
        if is_empty_delta(delta):
            return SaveReport(
                action="noop",
                snapshot_version=self.snapshot_version,
                journal_entries=entry_count,
            )
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
        self._shadow = StateShadow(service)
        self._last_overlay = overlay
        self._events_saved = service.feedback_log.added
