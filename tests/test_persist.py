"""Durable sessions: save/open round trips, journaling, and replay parity.

The acceptance gate of :mod:`repro.persist`: a session saved after the
fig6-style replay (registration + feedback + views) must reopen from disk
with **byte-identical** answers, provenance and correspondence edges on both
storage backends — and the reopened graph must go on numbering its edges
where the saved one stopped, while a view's expansion numbers none.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import sqlite3
import weakref
from pathlib import Path

import pytest

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
    SnapshotError,
)
from repro.datastore import DataSource
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.graph.nodes import NodeKind
from repro.matching import MetadataMatcher, ValueOverlapMatcher
from repro.persist import overlay_payload, unwrap_document, wrap_document
from repro.persist.journal import is_empty_delta
from repro.persist.snapshot import event_payload

BACKEND_SPECS = ("memory", "sqlite")


def clone_source(source: DataSource) -> DataSource:
    return source_from_dict(source_to_dict(source))


def mini_sources():
    go = DataSource.build(
        "go",
        {"term": ["acc", "name"]},
        data={
            "term": [
                ("GO:0001", "plasma membrane"),
                ("GO:0002", "nucleus"),
                (" GO:0003 ", "plasma membrane transport"),
                (None, "orphan"),
            ]
        },
    )
    interpro = DataSource.build(
        "interpro",
        {"interpro2go": ["go_id", "entry_ac"]},
        data={
            "interpro2go": [
                ("GO:0001", "IPR001"),
                ("GO:0003", "IPR003"),
                ("GO:0002", "IPR002"),
                ("GO:0001", "IPR004"),
            ]
        },
    )
    return [go, interpro]


def answer_fingerprint(answers):
    """Everything observable about a ranked answer list, order included."""
    result = []
    for answer in answers:
        provenance = answer.provenance
        result.append(
            (
                tuple(answer.values.items()),
                answer.cost,
                None
                if provenance is None
                else (
                    provenance.query_id,
                    provenance.query_cost,
                    tuple(sorted(provenance.base_tuples)),
                ),
            )
        )
    return result


def graph_fingerprint(graph):
    """Edges (ids, kinds, features, metadata) + weights, order included."""
    return (
        [
            (e.edge_id, e.kind.value, dict(e.features.items()), repr(e.metadata))
            for e in graph.edges()
        ],
        [n.node_id for n in graph.nodes()],
        graph.weights.as_dict(),
        graph.weights.version,
        graph.structure_version,
    )


def read(service, view_ref):
    return answer_fingerprint(
        list(service.stream_answers(QueryRequest(view=view_ref)))
    )


def session_location(kind, tmp_path):
    """Backend spec + save/open location for one parameterized round trip."""
    if kind == "sqlite":
        db = tmp_path / "session.db"
        return f"sqlite:{db}", None, db
    path = tmp_path / "session.json"
    return None, path, path


def build_session(kind, tmp_path, sources=None):
    backend, save_path, location = session_location(kind, tmp_path)
    service = QService(
        sources=sources if sources is not None else mini_sources(),
        matchers=[ValueOverlapMatcher(min_confidence=0.3, min_shared_values=2)],
        config=ServiceConfig(top_k=5, top_y=1),
        backend=backend,
    )
    return service, save_path, location


def matched(service, keyword):
    """The values a new one-keyword view's expansion matched, sorted."""
    info = service.create_view(QueryRequest(keywords=(keyword,)))
    graph = service.view(info.view_id).query_graph.graph
    return sorted(node.label for node in graph.nodes() if node.kind is NodeKind.VALUE)


# ----------------------------------------------------------------------
# Round-trip parity (the replay acceptance gate)
# ----------------------------------------------------------------------
class TestRoundTripParity:
    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_full_session_replay_parity(self, kind, tmp_path):
        """Registration + feedback + views survive close/reopen byte-identically."""
        sources = mini_sources()
        service, save_path, location = build_session(
            kind, tmp_path, sources=[sources[0]]
        )
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.register_source(
            RegisterSourceRequest(source=sources[1], strategy="exhaustive")
        )
        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        assert answers, "workload produced no answers — parity would be vacuous"
        service.feedback(FeedbackRequest(view=info.view_id, answer=answers[0]))
        live = read(service, info.view_id)
        live_graph = graph_fingerprint(service.graph)
        service.save(save_path)
        service.close()

        reopened = QService.open(location)
        assert read(reopened, info.view_id) == live
        assert graph_fingerprint(reopened.graph) == live_graph
        stats = reopened.stats()
        assert stats.snapshot_version == 1
        assert stats.registrations == 1
        assert stats.feedback_events == 1
        assert stats.sources == 2
        reopened.close()

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_reopen_is_deterministic_without_counter_reset(self, kind, tmp_path):
        """Two opens of one file answer a *new* query identically.

        The snapshot carries the graph's next edge number, so each open
        restarts id allocation at the saved position.
        """
        service, save_path, location = build_session(kind, tmp_path)
        service.bootstrap_alignments()
        service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.save(save_path)
        service.close()

        first = QService.open(location)
        first_new = answer_fingerprint(
            list(first.stream_answers(QueryRequest(keywords=("membrane", "IPR003"))))
        )
        first_trees = [
            (t.cost, tuple(sorted(t.edge_ids)))
            for t in first.views.latest().view.state.trees
        ]
        first.close()
        second = QService.open(location)
        second_new = answer_fingerprint(
            list(second.stream_answers(QueryRequest(keywords=("membrane", "IPR003"))))
        )
        second_trees = [
            (t.cost, tuple(sorted(t.edge_ids)))
            for t in second.views.latest().view.state.trees
        ]
        second.close()
        assert first_new == second_new
        assert first_trees == second_trees
        assert first_trees, "new query solved no trees — determinism check vacuous"

    def test_an_expansion_consumes_no_edge_number(self, tmp_path):
        """The overlay key ``edge_id_counter`` keeps its name and meaning — where
        the reopened graph numbers its next search-graph edge — and a view's
        expansion takes no number: its edges are named by their endpoints."""
        sources = mini_sources()
        service, save_path, _ = build_session("memory", tmp_path, sources=[sources[0]])
        service.bootstrap_alignments()
        before = service.graph.next_edge_number
        service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.save(save_path)
        saved = unwrap_document(save_path.read_text())["overlay"]["edge_id_counter"]
        assert saved == service.graph.next_edge_number == before
        service.close()

        with QService.open(save_path) as reopened:
            assert reopened.graph.next_edge_number == saved
            info = reopened.create_view(QueryRequest(keywords=("membrane", "IPR003")))
            derived = [
                edge
                for edge in reopened.view(info.view_id).query_graph.graph.edges()
                if not reopened.graph.has_edge(edge.edge_id)
            ]
            assert derived and all(edge.edge_id == f"{edge.kind.value}:{edge.u}|{edge.v}" for edge in derived)
            assert reopened.graph.next_edge_number == saved
            reopened.register_source(RegisterSourceRequest(source=sources[1], strategy="exhaustive"))
            numbered = [edge for edge in reopened.graph.edges() if edge.edge_id.endswith(f"#{saved}")]
            assert len(numbered) == 1 and reopened.graph.next_edge_number > saved

    def test_restored_view_ids_continue_sequence(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        assert info.view_id == "view-0001"
        service.save(save_path)

        reopened = QService.open(save_path)
        restored = reopened.view_info(info.view_id)
        assert restored.view_id == "view-0001"
        assert restored.keywords == ("plasma", "IPR001")
        next_info = reopened.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        assert next_info.view_id == "view-0002"

    def test_stale_view_rebuilds_identically_on_both_sides(self, tmp_path):
        """A view left stale at save time rebuilds on read — same on reopen."""
        sources = mini_sources()
        service, save_path, _ = build_session("memory", tmp_path, sources=[sources[0]])
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        # Structural mutation *after* the view's last sync, then save without
        # reading: the view is stale in the snapshot.
        service.register_source(
            RegisterSourceRequest(source=sources[1], strategy="exhaustive")
        )
        service.save(save_path)

        live = read(service, info.view_id)  # live rebuilds
        # The restored view expands on its first read too, to the same
        # endpoint-named edges the live rebuild made.
        reopened = QService.open(save_path)
        restored = read(reopened, info.view_id)
        assert restored == live
        assert live, "stale-view rebuild produced no answers — check workload"


# ----------------------------------------------------------------------
# A current view's ranking travels with it
# ----------------------------------------------------------------------
def gbco_session(gbco_dataset, kind, tmp_path, views=3, held_out=(), backend=None):
    """A GBCO session with ``views`` views, each created and read in turn."""
    default_backend, save_path, location = session_location(kind, tmp_path)
    backend = backend or default_backend
    service = QService(
        sources=[
            clone_source(source) for source in gbco_dataset.catalog if source.name not in held_out
        ],
        config=ServiceConfig(top_k=5, top_y=1),
        backend=backend,
    )
    service.bootstrap_alignments()
    view_ids = []
    for entry in list(gbco_dataset.query_log)[:views]:
        info = service.create_view(QueryRequest(keywords=tuple(entry.keywords)), materialize=False)
        view_ids.append(info.view_id)
        assert read(service, info.view_id), "a view without answers proves nothing"
    return service, view_ids, save_path, location


def saved_view_records(save_path):
    body = unwrap_document(save_path.read_text())
    return body, {record["view_id"]: record for record in body["overlay"]["views"]["records"]}


class TestCarriedRankings:
    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_current_views_reopen_and_read_without_solving(self, gbco_dataset, kind, tmp_path):
        service, view_ids, save_path, location = gbco_session(gbco_dataset, kind, tmp_path)
        # Later expansions moved the shared version under the earlier views;
        # one more pass makes every view's last solve the current one.
        live = [read(service, view_id) for view_id in view_ids]
        service.save(save_path)
        service.close()

        reopened = QService.open(location)
        did = reopened.engine_context.steiner_cache.solver
        for view_id, expected in zip(view_ids, live):
            assert reopened.view_info(view_id).tree_count > 0  # before any read
            assert read(reopened, view_id) == expected
            assert reopened.view(view_id).last_refresh.queries_executed > 0
        # Nothing was enumerated and nothing was even asked of the solver.
        assert vars(did) == {name: 0 for name in vars(did)}
        reopened.close()

    def test_view_whose_costs_moved_is_saved_without_trees(self, gbco_dataset, tmp_path):
        service, (first, second), save_path, _ = gbco_session(gbco_dataset, "memory", tmp_path, views=2)
        answers = list(service.stream_answers(QueryRequest(view=first)))
        service.feedback(FeedbackRequest(view=first, answer=answers[-1]))
        read(service, first)  # re-ranked under the learned costs; `second` is not
        service.save(save_path)
        _, records = saved_view_records(save_path)
        assert len(records[first]["trees"]) == len(service.view(first).state.trees) > 1
        assert "query_graph" not in records[second] and "trees" not in records[second]

        live = [read(service, first), read(service, second)]
        reopened = QService.open(save_path)
        did = reopened.engine_context.steiner_cache.solver
        assert read(reopened, first) == live[0] and did.base_solves == 0
        assert read(reopened, second) == live[1] and did.base_solves > 0

    def test_sidecar_stripped_of_its_trees_opens_like_one_saved_before_them(
        self, gbco_dataset, tmp_path
    ):
        service, view_ids, save_path, _ = gbco_session(gbco_dataset, "memory", tmp_path, views=2)
        live = [read(service, view_id) for view_id in view_ids]
        service.save(save_path)
        body, records = saved_view_records(save_path)
        assert all(record.pop("trees") for record in records.values())
        save_path.write_text(wrap_document(body) + "\n")

        reopened = QService.open(save_path)
        did = reopened.engine_context.steiner_cache.solver
        assert [read(reopened, view_id) for view_id in view_ids] == live
        assert did.base_solves > 0 and did.recalls == 0

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_save_carrying_the_retired_sync_ledger_opens_unchanged(self, gbco_dataset, kind, tmp_path):
        """Before a view kept its own ledger a save held two sync versions per
        view record and ``read_workers`` in its config.  Such a save opens,
        answers identically, still resumes a current view without solving,
        and is rewritten without the keys."""
        service, view_ids, save_path, location = gbco_session(gbco_dataset, kind, tmp_path)
        live = [read(service, view_id) for view_id in view_ids]  # every view current
        service.save(save_path)
        store = service._persistence.store
        fresh, _ = store.load()
        body = json.loads(json.dumps(fresh))
        assert "read_workers" not in body["config"]
        body["config"]["read_workers"] = 4
        for record in body["overlay"]["views"]["records"]:
            assert not {"synced_weights_version", "synced_structure_version"} & set(record)
            record["synced_weights_version"] = body["overlay"]["weights_version"]
            # One view claims a structure the graph has since left: the ledger is not read.
            record["synced_structure_version"] = body["overlay"]["structure_version"] - (
                record["view_id"] == view_ids[0]
            )
        store.write_snapshot(body)
        service.close()  # a no-op save: nothing moved since the snapshot

        reopened = QService.open(location)
        assert not hasattr(reopened.config, "read_workers")
        assert overlay_payload(reopened) == fresh["overlay"]
        assert reopened.save().action == "noop"  # save -> open -> save is a fixed point
        did = reopened.engine_context.steiner_cache.solver
        assert [read(reopened, view_id) for view_id in view_ids] == live
        assert vars(did) == {name: 0 for name in vars(did)}

        answers = list(reopened.stream_answers(QueryRequest(view=view_ids[0])))
        reopened.feedback(FeedbackRequest(view=view_ids[0], answer=answers[-1]))
        learned = [read(reopened, view_id) for view_id in view_ids]
        assert reopened.save(compact=True).action == "snapshot"
        rewritten, entries = reopened._persistence.store.load()
        assert not entries and "read_workers" not in rewritten["config"]
        assert [sorted(record) for record in rewritten["overlay"]["views"]["records"]] == [
            sorted(record) for record in fresh["overlay"]["views"]["records"]
        ]
        reopened.close()
        again = QService.open(location)
        assert [read(again, view_id) for view_id in view_ids] == learned
        again.close()


# ----------------------------------------------------------------------
# A journal entry holds what changed, and a save builds only what moved
# ----------------------------------------------------------------------
def journal_entries(save_path):
    journal = save_path.parent / (save_path.name + ".journal")
    return [unwrap_document(line, "journal entry") for line in journal.read_text().splitlines()]


def holds_key(document, key):
    """Whether ``key`` appears as a dict key anywhere inside ``document``."""
    if isinstance(document, dict):
        return key in document or any(holds_key(value, key) for value in document.values())
    return isinstance(document, list) and any(holds_key(item, key) for item in document)


def rankings(service, view_ids):
    return {v: [sorted(tree.edge_ids) for tree in service.view(v).state.trees] for v in view_ids}


class TestEntriesHoldWhatChanged:
    def test_entry_is_small_and_grows_by_what_moved(self, gbco_dataset, tmp_path):
        service, view_ids, save_path, _ = gbco_session(
            gbco_dataset, "memory", tmp_path, views=4, held_out=("variant",)
        )
        for view_id in view_ids:
            read(service, view_id)
        service.save(save_path)
        service.close()
        snapshot_size = save_path.stat().st_size

        # Reopen, read everything, save: counters moved, nothing else did.
        service = QService.open(save_path)
        for view_id in view_ids:
            read(service, view_id)
        assert service.save().action == "append"
        (entry,) = journal_entries(save_path)
        assert not holds_key(entry, "query_graph") and not holds_key(entry, "feedback_events")
        assert "overlay" not in entry and entry["overlay_delta"]
        journal = save_path.parent / (save_path.name + ".journal")
        assert journal.stat().st_size < snapshot_size / 20

        # One feedback: the rankings that moved are written, no expansion is,
        # and the feedback log gains the one event, not a copy of itself.
        before = rankings(service, view_ids)
        answers = list(service.stream_answers(QueryRequest(view=view_ids[0])))
        service.feedback(FeedbackRequest(view=view_ids[0], answer=answers[-1]))
        for view_id in view_ids:
            read(service, view_id)
        after = rankings(service, view_ids)
        service.save()
        entry = journal_entries(save_path)[-1]
        assert not holds_key(entry, "query_graph")
        assert entry["overlay_delta"]["feedback_events"] == [event_payload(service.feedback_log.events[-1])]
        records = {r["view_id"]: r for r in entry["overlay_delta"]["views"]["records"]}
        assert list(records) == view_ids
        assert after[view_ids[0]] != before[view_ids[0]]
        for view_id in view_ids:
            assert ("trees" in records[view_id]) == (after[view_id] != before[view_id])
            assert records[view_id].get("trees", after[view_id]) == after[view_id]

        # A registration re-expands every view: no expansion is written, and
        # the only weights set are new ones — no learned weight is re-seeded.
        learned = service.graph.weights.as_dict()
        service.register_source(
            RegisterSourceRequest(
                source=clone_source(gbco_dataset.catalog.source("variant")), strategy="exhaustive"
            )
        )
        live = [read(service, view_id) for view_id in view_ids]
        service.save()
        entry = journal_entries(save_path)[-1]
        assert not holds_key(entry, "query_graph")
        assert not set(entry["weights_set"]) & set(learned)
        service.close()
        reopened = QService.open(save_path)
        assert [read(reopened, view_id) for view_id in view_ids] == live

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_ranking_that_stopped_being_current_is_tombstoned_in_an_entry(
        self, gbco_dataset, kind, tmp_path
    ):
        service, (first, second), save_path, location = gbco_session(
            gbco_dataset, kind, tmp_path, views=2
        )
        (tmp_path / "twin").mkdir()
        twin, _, _, _ = gbco_session(gbco_dataset, kind, tmp_path / "twin", views=2)
        for session in (service, twin):
            for view_id in (first, second):
                read(session, view_id)
        service.save(save_path)  # the snapshot carries both rankings
        for session in (service, twin):
            answers = list(session.stream_answers(QueryRequest(view=first)))
            session.feedback(FeedbackRequest(view=first, answer=answers[-1]))
            read(session, first)  # re-ranked under the learned costs; `second` is not
        assert service.save().action == "append"
        _, entries = service._persistence.store.load()
        records = {r["view_id"]: r for r in entries[-1]["overlay_delta"]["views"]["records"]}
        assert records[second]["trees"] is None and "query_graph" not in records[second]
        assert records[first]["trees"]

        service.close()
        reopened = QService.open(location)
        saved = {r["view_id"]: r for r in overlay_payload(reopened)["views"]["records"]}
        assert "trees" not in saved[second] and "query_graph" not in saved[second]
        did = reopened.engine_context.steiner_cache.solver
        assert read(reopened, first) == read(twin, first) and did.base_solves == 0
        assert read(reopened, second) == read(twin, second) and did.base_solves > 0
        reopened.close()
        twin.close()

    def test_untouched_restored_view_resaves_its_ranking_verbatim(
        self, gbco_dataset, tmp_path, monkeypatch
    ):
        """A reopened view is its definition plus the ranking its record carried:
        ``open`` expands nothing, a view nobody pulled re-saves that ranking as
        it was read, and one pulled over an unchanged session expands to the
        same ids and adopts it.  A save that moved only counters then journals
        no view, edge or weight."""
        from repro.graph import QueryGraphBuilder

        service, view_ids, save_path, _ = gbco_session(
            gbco_dataset, "memory", tmp_path, views=3, held_out=("variant",)
        )
        edge = next(e for e in service.graph.edges() if e.kind.value == "association")
        service.graph.add_association(*_attribute(edge.u), *_attribute(edge.v), {"merge-test": 0.4})
        service.register_source(
            RegisterSourceRequest(
                source=clone_source(gbco_dataset.catalog.source("variant")), strategy="exhaustive"
            )
        )
        service.save(save_path)  # every view is stale: none carries a ranking
        assert not any("trees" in record for record in overlay_payload(service)["views"]["records"])
        for _ in range(2):  # the second pass finds every ranking current
            live = [read(service, view_id) for view_id in view_ids]
        saved = overlay_payload(service)
        assert all("trees" in record for record in saved["views"]["records"])
        service.close()

        expansions = []
        expand = QueryGraphBuilder.expand
        monkeypatch.setattr(
            QueryGraphBuilder, "expand", lambda *args: expansions.append(args[2]) or expand(*args)
        )
        reopened = QService.open(save_path)
        assert not expansions
        assert overlay_payload(reopened) == saved and reopened.save().action == "noop"
        did = reopened.engine_context.steiner_cache.solver
        assert read(reopened, view_ids[0]) == live[0]
        assert len(expansions) == 1 and vars(did) == {name: 0 for name in vars(did)}
        assert reopened.save().action == "append"
        entry = journal_entries(save_path)[-1]
        assert set(entry.pop("overlay_delta")) == {"refreshes_skipped"}  # the read solved nothing
        del entry["after_snapshot_version"]
        assert is_empty_delta(entry)  # and no node, edge or weight moved
        reopened.close()

        again = QService.open(save_path)
        assert [read(again, view_id) for view_id in view_ids] == live
        did = again.engine_context.steiner_cache.solver
        assert vars(did) == {name: 0 for name in vars(did)}
        again.close()


class TestFeedbackLogAppends:
    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_an_entry_carries_the_events_added_since_the_last_save(self, gbco_dataset, kind, tmp_path):
        service, view_ids, save_path, location = gbco_session(gbco_dataset, kind, tmp_path, views=2)
        for view_id in view_ids:  # N events: one in the snapshot, one in an entry
            answers = list(service.stream_answers(QueryRequest(view=view_id)))
            service.feedback(FeedbackRequest(view=view_id, answer=answers[-1]))
            service.save(save_path)
        saved = len(service.feedback_log)
        answers = list(service.stream_answers(QueryRequest(view=view_ids[0])))
        service.feedback(FeedbackRequest(view=view_ids[0], answer=answers[0]))
        assert len(service.feedback_log) == saved + 1
        assert service.save().action == "append"
        _, entries = service._persistence.store.load()
        assert [entry["overlay_delta"]["feedback_events"] for entry in entries] == [
            [event_payload(event)] for event in service.feedback_log.events[1:]
        ]
        live = [read(service, view_id) for view_id in view_ids]
        logged = [event_payload(event) for event in service.feedback_log]
        service.close()

        reopened = QService.open(location)
        assert [event_payload(event) for event in reopened.feedback_log] == logged
        assert reopened.save().action == "noop"
        assert [read(reopened, view_id) for view_id in view_ids] == live
        reopened.close()

    def test_a_log_past_its_window_folds_to_the_window(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        answers = read(service, info.view_id) and list(service.stream_answers(QueryRequest(view=info.view_id)))
        event = service.view(info.view_id).annotate(answers[0], "correct")
        service.apply_feedback_events(info.view_id, [event] * 30)
        service.save(save_path)
        service.apply_feedback_events(info.view_id, [event] * 30)  # 60 taken in, 50 kept
        assert len(service.feedback_log) == service.feedback_log.window_size == 50
        assert service.save().action == "append"
        (entry,) = journal_entries(save_path)
        assert len(entry["overlay_delta"]["feedback_events"]) == 30
        logged = [event_payload(event) for event in service.feedback_log]
        service.close()
        reopened = QService.open(save_path)
        assert [event_payload(event) for event in reopened.feedback_log] == logged
        assert reopened.save().action == "noop"


class TestStrictReads:
    def test_a_body_without_a_key_its_writers_write_is_refused_naming_it(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        read(service, info.view_id)
        service.tenants.profile("acme")
        service.save(save_path)
        body = unwrap_document(save_path.read_text())
        paths = [("overlay", key) for key in body["overlay"]] + [
            ("overlay", "views", "created"),
            ("overlay", "views", "records"),
            ("overlay", "tenants", "acme", "shadow"),
            ("overlay", "tenants", "acme", "local_version"),
            ("overlay", "tenants", "acme", "events_applied"),
            ("snapshot_version",),
            ("config",),
            ("config", "top_k"),
            ("graph", "structure_version"),
            ("graph", "edges"),
            ("weights", "version"),
            ("weights", "values"),
            ("profiles", "shard_count"),
            ("profiles", "rare_token_df"),
            ("profiles", "epoch"),
            ("catalog",),
        ]
        assert len(paths) == len(body["overlay"]) + 16 > 25
        for path in paths:
            damaged = json.loads(json.dumps(body))
            holder = damaged
            for key in path[:-1]:
                holder = holder[key]
            del holder[path[-1]]
            save_path.write_text(wrap_document(damaged) + "\n")
            with pytest.raises(SnapshotError, match=f"missing key '{path[-1]}'"):
                QService.open(save_path)

        # A journal entry is read as strictly as the snapshot it follows.
        save_path.write_text(wrap_document(body) + "\n")
        reopened = QService.open(save_path)
        reopened.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        assert reopened.save().action == "append"
        reopened.close()
        (entry,) = journal_entries(save_path)
        for key in ("after_snapshot_version", "weights_set", "overlay_delta", "profile_epoch"):
            journal = save_path.parent / (save_path.name + ".journal")
            journal.write_text(wrap_document({k: v for k, v in entry.items() if k != key}) + "\n")
            with pytest.raises(SnapshotError, match=f"missing key '{key}'"):
                QService.open(save_path)


def _attribute(node_id):
    """``attr:<source>.<relation>.<attribute>`` -> (qualified relation, attribute)."""
    relation, _, attribute = node_id[len("attr:"):].rpartition(".")
    return relation, attribute


# ----------------------------------------------------------------------
# Sessions the commit before the slotted edge saved (tests/data/), converted
# ----------------------------------------------------------------------
SAVED = Path(__file__).parent / "data"


def saved_by_an_earlier_commit(kind, tmp_path, upgrade_session):
    """The checked-in format-2 session, converted to format 4; where to open it.

    The converter reads a private copy of the fixture (a SQLite one is
    rebuilt from its dump) and must leave that copy byte for byte as it was.
    """
    (tmp_path / "saved").mkdir()
    if kind == "sqlite":
        old = tmp_path / "saved" / "saved_session.db"
        connection = sqlite3.connect(old)
        connection.executescript((SAVED / "saved_session.sql").read_text())
        connection.close()
        inputs = [old]
    else:
        names = ("saved_session.json", "saved_session.json.journal")
        inputs = [shutil.copy(SAVED / name, tmp_path / "saved" / name) for name in names]
        old = Path(inputs[0])
    before = [Path(path).read_bytes() for path in inputs]
    location = tmp_path / old.name
    assert upgrade_session.main([str(old), str(location)]) == 0
    assert [Path(path).read_bytes() for path in inputs] == before
    return location


class TestSavedByAnEarlierCommit:
    """Snapshot + journal written in format 2, while every association edge
    stored its own ``{"origin", "matchers"}``: a registration, a feedback step
    and a merge onto a saved edge (``edges_changed``) sit in the journal.  See
    ``tests/data/make_saved_session.py``.  ``src/`` does not read format 2:
    ``scripts/upgrade_session.py`` converts it once, and the converted session
    answers and holds what the commit that saved it did."""

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_opens_answers_and_holds_the_same_edges(self, kind, tmp_path, upgrade_session):
        expected = json.loads((SAVED / "saved_session.expected.json").read_text())
        location = saved_by_an_earlier_commit(kind, tmp_path, upgrade_session)
        service = QService.open(location)
        assert service._persistence.store.entry_count() == 0  # converted is compacted
        answers = list(service.stream_answers(QueryRequest(view=expected["view_id"])))
        assert [[sorted(map(list, a.values.items())), a.cost] for a in answers] == expected["answers"]
        held = [
            [e.edge_id, dict(e.features.items()), json.loads(json.dumps(dict(e.metadata)))]
            for e in service.graph.edges()
        ]
        assert held == expected["edges"]
        assert [list(record[2]) for record in held] == [list(record[2]) for record in expected["edges"]]
        service.close()

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_save_open_save_is_a_fixed_point(self, kind, tmp_path, upgrade_session):
        def rewritten(service):
            """The snapshot with every edge written again by this commit, as stored."""
            assert service.save().action == "noop"
            assert service.save(compact=True).action == "snapshot"
            body, journal = service._persistence.store.load()
            assert journal == []
            del body["snapshot_version"]  # counts the compactions
            return json.dumps(body)

        location = saved_by_an_earlier_commit(kind, tmp_path, upgrade_session)
        service = QService.open(location)
        converted, _ = service._persistence.store.load()
        first = rewritten(service)
        service.close()
        reopened = QService.open(location)
        assert graph_fingerprint(reopened.graph) == graph_fingerprint(service.graph)
        assert rewritten(reopened) == first
        reopened.close()
        # The converter wrote what this commit writes, but for the retired config key.
        del converted["snapshot_version"]
        del converted["config"]["pair_memo_limit"]
        assert json.dumps(converted) == first

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_a_retired_config_key_is_dropped_on_open(self, kind, tmp_path, upgrade_session):
        # The session was saved while ``ServiceConfig`` had ``pair_memo_limit``;
        # the converter keeps the config as saved, the first compaction drops it.
        location = saved_by_an_earlier_commit(kind, tmp_path, upgrade_session)
        service = QService.open(location)
        saved_config, _ = service._persistence.store.load()
        assert "pair_memo_limit" in saved_config["config"]
        assert len(dataclasses.fields(ServiceConfig)) == 11
        assert not hasattr(service.config, "pair_memo_limit")
        assert service.config.top_k == saved_config["config"]["top_k"]
        assert service.save(compact=True).action == "snapshot"
        rewritten, _ = service._persistence.store.load()
        assert set(saved_config["config"]) - set(rewritten["config"]) == {"pair_memo_limit"}
        service.close()

    def test_the_converter_refuses_what_it_cannot_convert_and_leaves_no_output(
        self, gbco_dataset, tmp_path, upgrade_session
    ):
        service, _, save_path, _ = gbco_session(gbco_dataset, "memory", tmp_path, views=1)
        service.save(save_path)  # already format 4
        service.close()
        database = tmp_path / "catalog.db"
        QService(sources=mini_sources(), backend=f"sqlite:{database}").close()  # rows, no session
        for old in (save_path, database):
            new = tmp_path / f"new-{old.name}"
            assert upgrade_session.main([str(old), str(new)]) == 1
            assert not new.exists()

    def test_open_refuses_the_unconverted_session_naming_the_converter(self, tmp_path):
        shutil.copy(SAVED / "saved_session.json", tmp_path / "saved_session.json")
        with pytest.raises(SnapshotError, match="version 2 .*scripts/upgrade_session.py"):
            QService.open(tmp_path / "saved_session.json")


# ----------------------------------------------------------------------
# A dropped session is freed by its last reference, not by the collector
# ----------------------------------------------------------------------
class TestDroppedSession:
    def test_session_is_not_a_reference_cycle(self, gbco_dataset, tmp_path):
        for kind in BACKEND_SPECS:  # a SQLite catalog and its sources included
            (tmp_path / kind).mkdir()
            service, view_ids, save_path, _ = gbco_session(gbco_dataset, kind, tmp_path / kind, views=2)
            service.save(save_path)
            service.close()
            held = (service, service.graph, service.view(view_ids[0]), service.catalog, service.catalog.backend)
            watched = [weakref.ref(obj) for obj in held if obj is not None]
            del held
            gc.collect()
            gc.disable()
            try:
                del service
                assert [ref() for ref in watched] == [None] * len(watched), kind
            finally:
                gc.enable()

    def test_hooks_of_a_live_session_work_closed_or_not(self, gbco_dataset, tmp_path):
        service, view_ids, _, _ = gbco_session(  # a closed sqlite catalog cannot be sized
            gbco_dataset, "memory", tmp_path, views=2, held_out=("variant",), backend="memory"
        )

        def observed():
            stats = service.stats()
            scraped = service.metrics("json")
            assert f"q_sources {float(stats.sources)}" in service.metrics().splitlines()
            assert scraped["q_views"] == stats.views and scraped["q_pairs_scored_total"] == stats.pairs_scored
            return stats.views, stats.sources, stats.registrations, stats.pairs_scored

        assert observed() == (2, 17, 0, 0)
        service.register_source(
            RegisterSourceRequest(
                source=clone_source(gbco_dataset.catalog.source("variant")), strategy="exhaustive"
            )
        )
        views, sources, registrations, pairs_scored = observed()
        assert (views, sources, registrations) == (2, 18, 1) and pairs_scored > 0
        assert read(service, view_ids[0])
        service.close()
        assert observed() == (views, sources, registrations, pairs_scored)


# ----------------------------------------------------------------------
# fig6 / fig8 replay acceptance: the full workloads survive a round trip
# ----------------------------------------------------------------------
class TestReplayAcceptance:
    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_fig6_replay_round_trip(self, gbco_dataset, kind, tmp_path):
        """Registration + feedback + views on the GBCO fig6 workload."""
        trial = list(gbco_dataset.query_log)[0]
        excluded = {relation.split(".")[0] for relation in trial.new_relations}
        backend, save_path, location = session_location(kind, tmp_path)
        service = QService(
            sources=[
                clone_source(source)
                for source in gbco_dataset.catalog
                if source.name not in excluded
            ],
            matchers=[ValueOverlapMatcher(min_confidence=0.6, min_shared_values=5)],
            config=ServiceConfig(top_k=5, top_y=1),
            backend=backend,
        )
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=tuple(trial.keywords)))
        for relation in trial.new_relations:
            source_name = relation.split(".")[0]
            service.register_source(
                RegisterSourceRequest(
                    source=clone_source(gbco_dataset.catalog.source(source_name)),
                    strategy="view_based",
                    matcher=MetadataMatcher(),
                )
            )
        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        assert answers, "fig6 replay produced no answers — parity would be vacuous"
        service.feedback(FeedbackRequest(view=info.view_id, answer=answers[0]))
        live = read(service, info.view_id)
        live_graph = graph_fingerprint(service.graph)
        service.save(save_path)
        service.close()

        reopened = QService.open(location)
        # Byte-identical answers, provenance and correspondence edges.
        assert read(reopened, info.view_id) == live
        assert graph_fingerprint(reopened.graph) == live_graph
        profiles = reopened.profile_index
        assert profiles.export_state() == service.profile_index.export_state()
        reopened.close()

    def test_fig8_grown_catalog_round_trip(self, tmp_path):
        """A fig8-style grown catalog (synthetic sources wired directly into
        catalog + graph, bypassing the service API) is still captured by the
        shadow-diff save and restored byte-identically."""
        from repro.datasets import build_gbco, grow_catalog_and_graph

        gbco = build_gbco(rows_per_relation=10)
        trial = list(gbco.query_log)[0]
        excluded = {relation.split(".")[0] for relation in trial.new_relations}
        service = QService(
            sources=[
                clone_source(source)
                for source in gbco.catalog
                if source.name not in excluded
            ],
            matchers=[ValueOverlapMatcher(min_confidence=0.6, min_shared_values=5)],
            config=ServiceConfig(top_k=5, top_y=1),
        )
        service.bootstrap_alignments()
        grow_catalog_and_graph(
            service.catalog, service.graph, target_source_count=30, seed=30
        )
        info = service.create_view(QueryRequest(keywords=tuple(trial.keywords)))
        live = read(service, info.view_id)
        assert live, "fig8 replay produced no answers — parity would be vacuous"
        service.save(tmp_path / "fig8.json")

        reopened = QService.open(tmp_path / "fig8.json")
        assert reopened.catalog.source_count == 30
        assert read(reopened, info.view_id) == live
        assert graph_fingerprint(reopened.graph) == graph_fingerprint(service.graph)


# ----------------------------------------------------------------------
# Journal behavior: incremental saves, compaction, expressiveness limits
# ----------------------------------------------------------------------
class TestJournal:
    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_second_save_appends_then_replays(self, kind, tmp_path):
        service, save_path, location = build_session(kind, tmp_path)
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        first = service.save(save_path)
        assert first.action == "snapshot" and first.snapshot_version == 1

        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        service.feedback(FeedbackRequest(view=info.view_id, answer=answers[0]))
        live = read(service, info.view_id)
        second = service.save()
        assert second.action == "append"
        assert second.snapshot_version == 1
        assert second.journal_entries == 1
        service.close()

        reopened = QService.open(location)
        assert read(reopened, info.view_id) == live
        assert reopened.stats().journal_entries == 1
        reopened.close()

    def test_noop_save_reports_noop(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.save(save_path)
        report = service.save()
        assert report.action == "noop"
        assert report.journal_entries == 0

    def test_compaction_folds_journal_into_snapshot(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.config.journal_compact_after = 2
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.save(save_path)
        actions = []
        for _ in range(3):
            answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
            service.feedback(FeedbackRequest(view=info.view_id, answer=answers[0]))
            actions.append(service.save())
        assert [r.action for r in actions] == ["append", "append", "snapshot"]
        assert actions[-1].compacted
        assert actions[-1].snapshot_version == 2
        assert actions[-1].journal_entries == 0
        live = read(service, info.view_id)
        reopened = QService.open(save_path)
        assert read(reopened, info.view_id) == live
        assert reopened.stats().snapshot_version == 2

    def test_explicit_compact_flag(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.save(save_path)
        service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        report = service.save(compact=True)
        assert report.action == "snapshot" and report.compacted

    def test_row_mutation_forces_snapshot_on_sidecar_store(self, tmp_path):
        """Appended rows of an existing relation cannot ride in a delta when
        the store holds no row data — the save must compact instead."""
        service, save_path, _ = build_session("memory", tmp_path)
        service.save(save_path)
        service.catalog.relation("go.term").append(("GO:0009", "golgi apparatus"))
        report = service.save()
        assert report.action == "snapshot" and report.compacted
        reopened = QService.open(save_path)
        assert len(reopened.catalog.relation("go.term")) == 5

    @pytest.mark.parametrize("kind", BACKEND_SPECS)
    def test_appended_row_is_matched_live_and_after_open(self, kind, tmp_path):
        """Keyword matching reads the profile index, so a table appended to
        is re-profiled before a lookup and before a save: a keyword only the
        new row holds, and a needle remembered before it came, both find it."""
        service, save_path, location = build_session(kind, tmp_path)
        service.save(save_path)
        assert matched(service, "membrane") == ["plasma membrane", "plasma membrane transport"]
        service.catalog.relation("go.term").append(("GO:0009", "golgi membrane"))
        assert matched(service, "golgi") == ["golgi membrane"]
        grown = ["golgi membrane", "plasma membrane", "plasma membrane transport"]
        assert matched(service, "Membrane") == grown
        service.save()
        reopened = QService.open(location)
        assert reopened.profile_index.profile("go.term", "name").distinct_values >= {"golgi membrane"}
        assert matched(reopened, "golgi") == ["golgi membrane"]
        assert matched(reopened, "MEMBRANE") == grown

    def test_row_appended_to_a_registered_source_is_matched(self, tmp_path):
        """A needle remembered before a registration gains the new source's
        cells, and forgets them when that source's table is appended to, even
        before any expansion has read the grown catalog."""
        go, interpro = mini_sources()
        service, _, _ = build_session("memory", tmp_path, sources=[go])
        assert matched(service, "ipr") == []
        service.register_source(RegisterSourceRequest(source=interpro, strategy="exhaustive"))
        service.catalog.relation("interpro.interpro2go").append(("GO:0002", "IPR009"))
        assert matched(service, "Ipr") == ["IPR001", "IPR002", "IPR003", "IPR004", "IPR009"]

    def test_remove_source_is_journaled(self, tmp_path):
        sources = mini_sources()
        service, save_path, _ = build_session("memory", tmp_path, sources=sources)
        service.bootstrap_alignments()
        service.save(save_path)
        service.remove_source("interpro")
        report = service.save()
        assert report.action == "append"
        reopened = QService.open(save_path)
        assert set(reopened.catalog.source_names()) == {"go"}
        assert not any(
            (node.relation or "").startswith("interpro.")
            for node in reopened.graph.nodes()
        )
        assert not reopened.profile_index.has_relation("interpro.interpro2go")

    def test_registration_after_snapshot_is_journaled(self, tmp_path):
        sources = mini_sources()
        service, save_path, _ = build_session("memory", tmp_path, sources=[sources[0]])
        service.bootstrap_alignments()
        service.save(save_path)
        service.register_source(
            RegisterSourceRequest(source=sources[1], strategy="exhaustive")
        )
        report = service.save()
        assert report.action == "append"
        live_graph = graph_fingerprint(service.graph)
        reopened = QService.open(save_path)
        assert graph_fingerprint(reopened.graph) == live_graph
        assert set(reopened.catalog.source_names()) == {"go", "interpro"}
        assert reopened.profile_index.has_relation("interpro.interpro2go")
        # The journal carried the rows (sidecar stores hold no row data).
        assert len(reopened.catalog.relation("interpro.interpro2go")) == 4


# ----------------------------------------------------------------------
# Autosave and close semantics
# ----------------------------------------------------------------------
class TestAutosaveAndClose:
    def test_autosave_path_checkpoints_every_mutation(self, tmp_path):
        path = tmp_path / "auto.json"
        service = QService(
            sources=mini_sources(),
            matchers=[ValueOverlapMatcher(min_confidence=0.3, min_shared_values=2)],
            autosave=path,
        )
        service.bootstrap_alignments()
        assert path.exists(), "autosave did not write on first mutation"
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        live = read(service, info.view_id)
        # No explicit save: the checkpoint happened inside create_view.
        reopened = QService.open(path)
        assert read(reopened, info.view_id) == live

    def test_autosave_true_requires_session_capable_backend(self, tmp_path):
        db = tmp_path / "auto.db"
        service = QService(
            sources=mini_sources(), backend=f"sqlite:{db}", autosave=True
        )
        service.bootstrap_alignments()
        assert service.stats().snapshot_version == 1
        service.close()
        reopened = QService.open(db)
        assert reopened.stats().sources == 2
        reopened.close()

        # Rejected at construction (not after a mutation already applied):
        # autosave=True has nowhere to write on a memory-backed catalog.
        with pytest.raises(SnapshotError):
            QService(sources=mini_sources(), backend="memory", autosave=True)

    def test_close_flushes_pending_changes(self, tmp_path):
        db = tmp_path / "session.db"
        service = QService(
            sources=mini_sources(),
            matchers=[ValueOverlapMatcher(min_confidence=0.3, min_shared_values=2)],
            backend=f"sqlite:{db}",
        )
        service.bootstrap_alignments()
        service.save()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        live = read(service, info.view_id)
        service.close()  # must flush the unsaved view
        reopened = QService.open(db)
        assert read(reopened, info.view_id) == live
        reopened.close()

    def test_unsaved_session_closes_without_persisting(self, tmp_path):
        db = tmp_path / "session.db"
        service = QService(sources=mini_sources(), backend=f"sqlite:{db}")
        service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.close()  # never saved: pre-persistence behavior
        with pytest.raises(SnapshotError):
            QService.open(db)

    def test_close_is_idempotent_after_save(self, tmp_path):
        db = tmp_path / "session.db"
        service = QService(sources=mini_sources(), backend=f"sqlite:{db}")
        service.save()
        service.close()
        service.close()  # must not raise on the closed connection

    def test_failed_open_leaves_catalog_database_untouched(self, tmp_path):
        """Opening a catalog-only database must not create session tables."""
        import sqlite3

        db = tmp_path / "catalog-only.db"
        service = QService(sources=mini_sources(), backend=f"sqlite:{db}")
        service.close()  # rows persisted, but no session ever saved
        with pytest.raises(SnapshotError):
            QService.open(db)
        with sqlite3.connect(db) as conn:
            names = {
                name
                for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert not any(name.startswith("_repro_session") for name in names)

    def test_stale_journal_from_interrupted_compaction_is_discarded(self, tmp_path):
        """Crash-consistency: a sidecar journal left over from before a
        compaction (snapshot replaced, truncate lost) must not replay."""
        service, save_path, _ = build_session("memory", tmp_path)
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.save(save_path)
        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        service.feedback(FeedbackRequest(view=info.view_id, answer=answers[0]))
        live = read(service, info.view_id)
        service.save()  # one journal entry after snapshot v1
        journal = save_path.parent / (save_path.name + ".journal")
        stale = journal.read_text()
        service.save(compact=True)  # snapshot v2, journal truncated
        journal.write_text(stale)  # simulate the lost truncation
        reopened = QService.open(save_path)
        assert reopened.stats().snapshot_version == 2
        assert read(reopened, info.view_id) == live


# ----------------------------------------------------------------------
# Error surface
# ----------------------------------------------------------------------
class TestErrors:
    def test_memory_save_without_path(self):
        service = QService(sources=mini_sources(), backend="memory")
        with pytest.raises(SnapshotError):
            service.save()

    def test_save_cannot_be_retargeted(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.save(save_path)
        with pytest.raises(SnapshotError):
            service.save(tmp_path / "elsewhere.json")

    def test_open_missing_location(self, tmp_path):
        with pytest.raises(SnapshotError):
            QService.open(tmp_path / "never-written.json")
        with pytest.raises(SnapshotError):
            QService.open()

    def test_open_database_without_session(self, tmp_path):
        db = tmp_path / "bare.db"
        service = QService(sources=mini_sources(), backend=f"sqlite:{db}")
        service.close()
        with pytest.raises(SnapshotError):
            QService.open(db)

    def test_matchers_override_on_open(self, tmp_path):
        service, save_path, _ = build_session("memory", tmp_path)
        service.save(save_path)
        reopened = QService.open(save_path, matchers=[MetadataMatcher()])
        assert isinstance(reopened.matchers[0], MetadataMatcher)
        # Default restore installs the standard stack.
        again = QService.open(save_path)
        assert len(again.matchers) == 2

    def test_config_survives_round_trip(self, tmp_path):
        config = ServiceConfig(top_k=3, top_y=1, answer_limit=17, default_page_size=4)
        config.graph.foreign_key_cost = 0.25
        service = QService(sources=mini_sources(), config=config)
        service.save(tmp_path / "s.json")
        reopened = QService.open(tmp_path / "s.json")
        assert reopened.config.top_k == 3
        assert reopened.config.answer_limit == 17
        assert reopened.config.default_page_size == 4
        assert reopened.config.graph.foreign_key_cost == 0.25
        assert reopened.graph.config.foreign_key_cost == 0.25

    def test_retired_config_keys_in_a_saved_session_are_ignored(self, tmp_path):
        """Sessions saved with since-retired knobs in their 21-key config open.

        The scoring pool's two, and the eight whose one value in use became
        a constant at its consumer.
        """
        retired = dict(
            registration_workers=4,
            registration_pool="process",
            feedback_window=7,
            sketch_bands=3,
            sketch_rare_token_df=2,
            write_retry_attempts=9,
            write_retry_base_delay_s=1.0,
            write_retry_max_delay_s=2.0,
            slow_query_log_size=1,
            decision_log_size=1,
        )
        sources = mini_sources()
        service, save_path, _ = build_session("memory", tmp_path, sources=[sources[0]])
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("plasma", "IPR001")))
        service.register_source(
            RegisterSourceRequest(source=sources[1], strategy="exhaustive")
        )
        live = read(service, info.view_id)
        assert live, "workload produced no answers — parity would be vacuous"
        service.save(save_path)
        service.close()

        body = unwrap_document(save_path.read_text())
        assert not set(retired) & set(body["config"])
        body["config"].update(retired)
        save_path.write_text(wrap_document(body) + "\n")

        reopened = QService.open(save_path)
        assert read(reopened, info.view_id) == live
        assert reopened.config.top_k == 5 and reopened.config.top_y == 1
        for name in retired:
            assert not hasattr(reopened.config, name), name
        # The consumers run on their own constants, not the payload's values.
        assert reopened.feedback_log.window_size == 50
        assert reopened.profile_index.rare_token_df == 16
        reopened.close()

    def test_sidecar_contains_catalog_rows(self, tmp_path):
        """The sidecar file is self-contained: schema + rows + session."""
        service, save_path, _ = build_session("memory", tmp_path)
        service.save(save_path)
        document = json.loads(save_path.read_text())
        sources = document["body"]["catalog"]["sources"]
        assert {spec["name"] for spec in sources} == {"go", "interpro"}
        assert sources[0]["relations"]["term"]["rows"]
