"""Snapshot carry-over is keyed on prices and tables: a slot survives every
write that moves no weight its view's query graph carries and no table its
queries read, and only those.

A (view, tenant) slot's answers are a function of the view's query-graph
object, the weight, under the slot's vector, of each feature the graph's
learnable edges carry, and the tables its queries read.
:class:`~repro.service.snapshots.ReadSnapshot` carries a slot over to the
next snapshot exactly when all three are unchanged.  These tests pin both
directions of that rule with hand-placed weight moves and a row write,
check every carried slot against a fresh materialization over random moves,
and hold the count of materializations of one serial serving scenario.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FeedbackRequest, QService, QueryRequest, ServiceConfig
from repro.datasets import build_gbco
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.service import QServer
from server_oracle import fingerprint

#: Query-log entries of the views these scenarios read (``serve_mixed``'s).
ENTRIES = (2, 3, 7, 12)
TENANTS = (None, "alice", "bob")
#: A feature no learnable edge of any view carries.
NOWHERE = "edge::nowhere"


def _session(gbco_dataset, entries):
    service = QService(
        sources=[source_from_dict(source_to_dict(s)) for s in gbco_dataset.catalog],
        config=ServiceConfig(top_k=5, top_y=1),
    )
    service.bootstrap_alignments()
    view_ids = [
        service.create_view(
            QueryRequest(keywords=tuple(gbco_dataset.query_log[entry].keywords)), materialize=False
        ).view_id
        for entry in entries
    ]
    return service, view_ids


def _priced_features(service, server, view_id):
    """The features ``view_id``'s query graph prices by, on the published snapshot."""
    graph = server.snapshot().views[view_id].query_graph.graph
    return set(service.engine_context.steiner_cache.features(graph))


def _set_weight(service, server, feature, weight, tenant=None):
    """One write through the writer lane: a base weight, or a tenant's shadow."""

    def write():
        vector = service.graph.weights if tenant is None else service.tenants.overlay(tenant)
        vector.set(feature, weight)

    server.submit_mutation(write, kind="weights").result(timeout=30)


def _counts(server):
    stats = server.stats()
    return stats.pinned_materializations, stats.pinned_carryovers


def _read(server, view_id, tenant=None):
    return fingerprint(server.query(QueryRequest(view=view_id, tenant=tenant)).answers)


class TestCarryRule:
    """View A is ``pancreas sample``, view B is ``diabetes publication``."""

    def test_a_write_on_features_b_does_not_carry_keeps_b(self, gbco_dataset):
        service, (a, b) = _session(gbco_dataset, ENTRIES[:2])
        with service, QServer(service, read_workers=1) as server:
            only_a = sorted(_priced_features(service, server, a) - _priced_features(service, server, b))
            assert only_a, "the two views must differ in at least one keyword edge"
            before = {view: _read(server, view) for view in (a, b)}
            materialized, carried = _counts(server)
            _set_weight(service, server, only_a[0], 7.5)
            assert _read(server, b) == before[b]
            _read(server, a)
            # B's slot came over without a materialization; A's was rebuilt.
            assert _counts(server) == (materialized + 1, carried + 1)

    def test_a_write_on_a_feature_b_carries_rebuilds_b(self, gbco_dataset):
        service, (a, b) = _session(gbco_dataset, ENTRIES[:2])
        with service, QServer(service, read_workers=1) as server:
            only_b = sorted(_priced_features(service, server, b) - _priced_features(service, server, a))
            for feature, view_carried in (("keyword_mismatch", 0), (only_b[0], 1)):
                for view in (a, b):
                    _read(server, view)
                materialized, carried = _counts(server)
                _set_weight(service, server, feature, service.graph.weights.get(feature) + 0.25)
                for view in (a, b):
                    _read(server, view)
                # B always rebuilds; A survives a move on one of B's own edges.
                assert _counts(server) == (
                    materialized + 2 - view_carried, carried + view_carried
                ), feature

    def test_a_tenant_shadow_rebuilds_only_that_tenants_slot(self, gbco_dataset):
        service, (b,) = _session(gbco_dataset, ENTRIES[1:2])
        with service, QServer(service, read_workers=1) as server:
            for tenant in (None, "alice"):
                _read(server, b, tenant)
            materialized, carried = _counts(server)
            _set_weight(service, server, "keyword_mismatch", 3.0, tenant="alice")
            for tenant in (None, "alice"):
                _read(server, b, tenant)
            assert _counts(server) == (materialized + 1, carried + 1)
            assert set(server.snapshot()._pinned) == {(b, None), (b, "alice")}


def test_a_row_written_to_a_table_the_view_reads_rebuilds_its_slot():
    """A write that appends a row and moves no weight: the view's slot must
    not come over, or the server serves the answers of the old table.  The
    query-log entry 7 view of a seed-7 GBCO reads ``pathway.pathway``; a copy
    of one of its rows takes the view from 15 answers to 18."""
    dataset = build_gbco(seed=7, rows_per_relation=30)
    service, (view_id,) = _session(dataset, (7,))
    with service, QServer(service, read_workers=1) as server:
        assert len(server.query(QueryRequest(view=view_id)).answers) == 15
        table = service.catalog.relation("pathway.pathway")
        row = table.scan()[0]
        server.submit_mutation(lambda: table.append(row), kind="rows").result(timeout=30)
        served = server.query(QueryRequest(view=view_id)).answers
        live = list(service.stream_answers(QueryRequest(view=view_id)))
        assert len(served) == 18
        assert fingerprint(served) == fingerprint(live)
        assert _counts(server) == (2, 0)


_WEIGHTS = st.sampled_from((None, -0.5, 0.0, 0.4, 1.0, 2.5))
_MOVE = st.tuples(
    st.sampled_from(TENANTS),
    st.sampled_from(("keyword_mismatch", "only_a", "only_b", "shared", NOWHERE)),
    _WEIGHTS,
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(moves=st.lists(_MOVE, min_size=1, max_size=5))
def test_every_carried_slot_equals_a_fresh_materialization(gbco_dataset, moves):
    """Random base moves and tenant shadows; ``None`` rewrites the current
    weight, a write that moves nothing.  After each one, every slot the new
    snapshot carried must hold what materializing it afresh returns."""
    service, (a, b) = _session(gbco_dataset, ENTRIES[:2])
    with service, QServer(service, read_workers=1) as server:
        carries_a, carries_b = _priced_features(service, server, a), _priced_features(service, server, b)
        pool = {
            "only_a": sorted(carries_a - carries_b)[0],
            "only_b": sorted(carries_b - carries_a)[0],
            "shared": sorted(f for f in carries_a & carries_b if f.startswith("relation::"))[0],
        }
        for tenant, name, weight in moves:
            for view in (a, b):
                for reader in TENANTS:
                    _read(server, view, reader)
            feature = pool.get(name, name)
            vector = service.graph.weights if tenant is None else service.tenants.overlay(tenant)
            _set_weight(service, server, feature, vector.get(feature) if weight is None else weight, tenant)
            snapshot = server.snapshot()
            with snapshot._lock:
                carried = dict(snapshot._pinned)
            for (view_id, reader), entry in carried.items():
                fresh = snapshot._materialize(snapshot.views[view_id], reader)
                assert fingerprint(entry.answers) == fingerprint(fresh), (view_id, reader, feature)


def test_serial_scenario_materializes_fifty_slots(gbco_dataset):
    """4 views x 3 tenants, eight feedback writes (base and tenant), every slot
    read after each: 12 materializations to warm, then only the slots whose
    carried weights moved.  Keyed on a weights version, the same scenario
    materialized 76 slots and carried 32."""
    writes = [
        (0, None, 1), (1, "alice", 0), (2, None, 2), (3, "bob", 1),
        (0, "alice", 3), (1, None, 0), (2, "bob", 0), (3, None, 2),
    ]
    service, view_ids = _session(gbco_dataset, ENTRIES)
    with service, QServer(service, read_workers=1) as server:
        for view_id in view_ids:
            for tenant in TENANTS:
                assert _read(server, view_id, tenant)
        for view, tenant, index in writes:
            answers = server.query(QueryRequest(view=view_ids[view], tenant=tenant)).answers
            server.feedback(
                FeedbackRequest(view=view_ids[view], answer=answers[index % len(answers)], tenant=tenant)
            )
            for view_id in view_ids:
                for reader in TENANTS:
                    _read(server, view_id, reader)
        assert server.stats().writes_applied == len(writes)
        assert _counts(server) == (50, 58)
