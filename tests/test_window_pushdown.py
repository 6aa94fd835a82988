"""Windowed ranked-union pushdown, posting persistence, DB-API backend.

The acceptance gates of the rank-aware pushdown PR:

* the windowed ``SELECT`` (:mod:`repro.storage.windowed`) returns answers
  byte-identical — values, key order, cost, provenance, list order — to the
  Python :func:`~repro.engine.executor.ranked_union`, pagination included;
* the pagination edge cases behave through the windowed path exactly as
  through the Python path (offset past the end, ``limit=0`` rejection,
  deterministic cost-tie order, snapshot isolation of a mid-stream publish);
* the windowed ``SELECT`` and the posting self-join are actually *served by
  indexes* (``EXPLAIN QUERY PLAN`` assertions);
* posting tables make a warm :meth:`~repro.api.service.QService.open` skip
  the in-memory posting rebuild with zero behavior change;
* the generic DB-API backend satisfies the storage contract through a plain
  ``sqlite3`` DB-API connection, and the Postgres flavor degrades into a
  clear error (not an import crash) without psycopg2 installed.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import (
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.core import RankedView
from repro.datasets import build_interpro_go
from repro.datastore import Catalog, ConjunctiveQuery, DataSource
from repro.datastore.schema import RelationSchema
from repro.engine.context import PYTHON, SQL, ExecutionContext
from repro.engine.executor import ranked_union, union_column_plan
from repro.exceptions import QueryError, StorageError
from repro.faults.budget import Budget
from repro.matching import ValueOverlapMatcher
from repro.profiling.index import CatalogProfileIndex
from repro.storage import DbApiBackend, SqliteBackend, create_backend
from repro.storage.postings import PostingStore
from repro.storage.windowed import WindowedUnionPushdown

from test_storage_backends import (
    _make_query,
    _mini_sources,
    answer_fingerprint,
    clone_source,
    reset_edge_ids,
)

#: Whether this process can exercise the windowed path at all (old SQLite
#: builds lack window functions — these tests then assert the *fallback*).
WINDOWED_AVAILABLE = sqlite3.sqlite_version_info >= (3, 25, 0)

requires_windowed = pytest.mark.skipif(
    not WINDOWED_AVAILABLE,
    reason="windowed pushdown unavailable (SQLite older than 3.25)",
)


def _sqlite_view(keywords=("kinase", "title"), k=5, path=None, answer_limit=200):
    """A multi-query ranked view on a SQLite-backed service, plus the service."""
    reset_edge_ids()
    dataset = build_interpro_go(include_foreign_keys=True)
    service = QService(
        sources=[dataset.interpro],
        config=ServiceConfig(top_k=k, top_y=2, answer_limit=answer_limit),
        backend=SqliteBackend(path or ":memory:"),
    )
    service.bootstrap_alignments(top_y=2)
    info = service.create_view(QueryRequest(keywords=keywords, k=k))
    return service, service.view(info.view_id), info


# ----------------------------------------------------------------------
# Ranked parity: the windowed SELECT vs the Python ranked union
# ----------------------------------------------------------------------
class TestWindowedRankedParity:
    @requires_windowed
    def test_full_read_byte_identical_to_python_union(self):
        service, view, _ = _sqlite_view()
        windowed = view.answers_page()
        assert service.engine_context.statistics.pushdown_union_queries >= 1
        # Same view, same query objects, windowed path switched off: the
        # Python ranked union is the oracle.
        view.allow_window_pushdown = False
        view.invalidate_cache()
        python = view.answers_page()
        assert answer_fingerprint(windowed) == answer_fingerprint(python)
        assert len(windowed) > 3, "parity would be near-vacuous"
        service.close()

    @requires_windowed
    def test_every_page_equals_the_python_slice(self):
        service, view, _ = _sqlite_view()
        view.allow_window_pushdown = False
        full = view.answers()
        view.allow_window_pushdown = True
        assert len(full) >= 4
        for offset in range(0, len(full) + 2, 2):
            page = view.answers_page(limit=2, offset=offset)
            assert answer_fingerprint(page) == answer_fingerprint(
                full[offset : offset + 2]
            ), f"page at offset {offset} diverged"
        service.close()

    @requires_windowed
    def test_answers_accessor_primes_via_single_round_trip(self):
        # The cold refresh executes every generated query in ONE windowed
        # SELECT; a second read reuses the primed cache entirely.
        service, view, _ = _sqlite_view()
        stats = service.engine_context.statistics
        before = stats.pushdown_union_queries
        view.invalidate_cache()
        view.refresh()
        assert stats.pushdown_union_queries == before + 1
        executed = view.last_refresh.queries_executed
        assert executed == len(view.state.queries)
        view.refresh()
        assert view.last_refresh.queries_reused == executed
        assert stats.pushdown_union_queries == before + 1
        service.close()

    def test_budgeted_read_is_pure_fallback(self):
        # A deadline budget must not change a single answer byte — it only
        # moves the work back into the per-query path, where the read can
        # be truncated at query boundaries.
        service_on, view_on, info_on = _sqlite_view()
        on = answer_fingerprint(list(service_on.stream_answers(
            QueryRequest(view=info_on.view_id)
        )))
        service_on.close()
        service_off, view_off, info_off = _sqlite_view()
        view_off.invalidate_cache()
        stats = service_off.engine_context.statistics
        unions_before = stats.pushdown_union_queries
        budget = Budget(deadline_s=60.0)
        off = answer_fingerprint(list(view_off.stream_answers(budget=budget)))
        assert stats.pushdown_union_queries == unions_before
        assert not budget.truncated
        target, reason = service_off.engine_context.choose_target(
            [g.query for g in view_off.state.queries], budget=budget
        )
        assert target == PYTHON and reason.startswith("deadline-budgeted read")
        service_off.close()
        assert on == off and on

    @requires_windowed
    def test_foreign_backend_relation_falls_back(self):
        # A union touching a relation that lives outside the SQLite backend
        # cannot push down; the Python engine serves it, identically.
        service, view, _ = _sqlite_view()
        context = service.engine_context
        queries = [g.query for g in view.state.queries]
        assert context.choose_target(queries) == (SQL, None)
        expected = answer_fingerprint(view.answers())
        relation = queries[0].atoms[0].relation
        service.catalog.relation(relation).detach()
        try:
            target, reason = context.choose_target(queries)
            assert target == PYTHON
            assert reason == f"relation(s) not stored on the SQL backend: {relation}"
            unions_before = context.statistics.pushdown_union_queries
            view.invalidate_cache()
            assert answer_fingerprint(view.answers()) == expected
            assert context.statistics.pushdown_union_queries == unions_before
        finally:
            service.close()

    def test_every_other_fallback_reason_is_reachable(self):
        # The remaining conditions of the one capability check, each driven
        # by something observable: an old SQLite (no window functions), a
        # per-query limit, a branch without output columns.
        backend = SqliteBackend(":memory:")
        backend.supports_window_pushdown = False  # what SQLite < 3.25 reports
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        context = ExecutionContext(catalog)
        query = _make_query()
        assert context.choose_target([query]) == (
            PYTHON,
            "backend does not support window functions",
        )
        assert context.choose_target([query], ranked=False) == (SQL, None)
        target, reason = context.choose_target([query], ranked=False, limit=2)
        assert target == PYTHON and reason.startswith("per-query limit")
        backend.close()

        outputless = ConjunctiveQuery(provenance="tree-2", cost=0.25)
        outputless.add_atom("go.term", "t")
        capable = Catalog(
            [clone_source(s) for s in _mini_sources()],
            backend=SqliteBackend(":memory:"),
        )
        capable_context = ExecutionContext(capable)
        assert capable_context.choose_target([outputless], ranked=False) == (SQL, None)
        if WINDOWED_AVAILABLE:
            assert capable_context.choose_target([query, outputless]) == (
                PYTHON,
                "a branch query has no output columns",
            )
        capable.close()


# ----------------------------------------------------------------------
# Satellite: stable-order parity of the k-way merge and the window order
# ----------------------------------------------------------------------
class TestStableOrderParity:
    def _tied_queries(self):
        """Two equal-cost queries — the stable sort's tie-break territory."""
        first = ConjunctiveQuery(provenance="tree-a", cost=1.0)
        first.add_atom("go.term", "t")
        first.add_output("t", "name", "label")
        second = ConjunctiveQuery(provenance="tree-b", cost=1.0)
        second.add_atom("interpro.interpro2go", "i")
        second.add_output("i", "entry_ac", "label")
        third = ConjunctiveQuery(provenance="tree-c", cost=0.5)
        third.add_atom("go.term", "u")
        third.add_output("u", "acc", "label")
        return [first, second, third]

    def test_python_merge_keeps_query_then_emission_order(self):
        # The k-way merge (satellite 1) must reproduce the stable sort:
        # ascending cost, equal costs in query order, then emission order.
        catalog = Catalog([clone_source(s) for s in _mini_sources()])
        context = ExecutionContext(catalog)
        from repro.engine.executor import PlanExecutor

        executor = PlanExecutor(catalog, context)
        queries = self._tied_queries()
        pairs = [(q, executor.execute(q)) for q in queries]
        merged = ranked_union(pairs)
        costs = [a.cost for a in merged]
        assert costs == sorted(costs)
        # All cost-1.0 answers: every tree-a answer precedes every tree-b
        # answer (query order), each block in its own emission order.
        tied = [a.provenance.query_id for a in merged if a.cost == 1.0]
        assert tied == sorted(tied, key=lambda q: q != "tree-a")
        assert "tree-a" in tied and "tree-b" in tied

    @requires_windowed
    def test_window_order_matches_python_merge_on_ties(self):
        catalog = Catalog(
            [clone_source(s) for s in _mini_sources()],
            backend=SqliteBackend(":memory:"),
        )
        context = ExecutionContext(catalog)
        from repro.engine.executor import PlanExecutor

        executor = PlanExecutor(catalog, context)
        queries = sorted(self._tied_queries(), key=lambda q: q.cost)
        columns, mappings = union_column_plan(queries)
        assert context.choose_target(queries) == (SQL, None)
        windowed = context.window_pushdown.execute_ranked(
            catalog, queries, columns, mappings
        )
        python = ranked_union([(q, executor.execute(q)) for q in queries])
        assert answer_fingerprint(windowed) == answer_fingerprint(python)
        assert len({a.cost for a in python}) < len(python), "no ties — vacuous"


# ----------------------------------------------------------------------
# Satellite: pagination edge cases through the windowed path
# ----------------------------------------------------------------------
class TestPaginationEdges:
    def test_offset_past_last_answer_is_empty(self):
        service, view, _ = _sqlite_view()
        total = len(view.answers())
        assert view.answers_page(limit=5, offset=total) == []
        assert view.answers_page(limit=5, offset=total + 100) == []
        service.close()

    def test_limit_zero_and_negative_offset_rejected(self):
        service, view, _ = _sqlite_view()
        with pytest.raises(QueryError):
            view.answers_page(limit=0)
        with pytest.raises(QueryError):
            view.answers_page(limit=-3)
        with pytest.raises(QueryError):
            view.answers_page(limit=1, offset=-1)
        service.close()

    def test_offset_never_reaches_past_answer_limit_cap(self):
        # The view's answer_limit caps the union; a window starting at the
        # cap must be empty even if more joined tuples exist beneath it.
        service, view, _ = _sqlite_view(answer_limit=3)
        assert len(view.answers()) == 3
        assert view.answers_page(limit=5, offset=3) == []
        assert len(view.answers_page(limit=5, offset=2)) == 1
        service.close()

    def test_single_answer_pages_tile_the_tie_region(self):
        # Cost ties must paginate deterministically: limit=1 pages, read in
        # any order, tile the full list exactly (row-id tie-break).
        service, view, _ = _sqlite_view()
        view.allow_window_pushdown = False
        full = view.answers()
        view.allow_window_pushdown = True
        assert len({a.cost for a in full}) < len(full), "no ties — vacuous"
        for offset in reversed(range(len(full))):
            page = view.answers_page(limit=1, offset=offset)
            assert answer_fingerprint(page) == answer_fingerprint(
                [full[offset]]
            ), f"tie region unstable at offset {offset}"
        service.close()

    @requires_windowed
    def test_mid_stream_publish_cannot_split_the_snapshot(self):
        # The windowed prime is one indivisible round trip: a publish
        # landing after the first pulled answer must not leak into the
        # remainder of an already-started stream.
        service, view, info = _sqlite_view()
        expected = answer_fingerprint(view.answers())
        view.invalidate_cache()
        stream = service.stream_answers(QueryRequest(view=info.view_id))
        got = [next(stream)]
        relation = view.state.queries[0].query.atoms[0].relation
        table = service.catalog.relation(relation)
        arity = len(table.schema.attribute_names)
        table.append(tuple(f"published-{i}" for i in range(arity)))
        got.extend(stream)
        assert answer_fingerprint(got) == expected
        # The *next* read does see the new data version (cache invalidated
        # by the version bump), so isolation is per-stream, not staleness.
        view.invalidate_cache()
        assert view.last_refresh is not None
        service.close()


# ----------------------------------------------------------------------
# Satellite: the windowed SELECT and posting join run on indexes
# ----------------------------------------------------------------------
class TestExplainQueryPlan:
    def _explain(self, backend, sql, params):
        return "\n".join(
            str(row[-1]) for row in backend.execute_sql("EXPLAIN QUERY PLAN " + sql, params)
        )

    @requires_windowed
    def test_windowed_union_uses_canon_expression_indexes(self):
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        query = _make_query()
        context = ExecutionContext(catalog)
        # One real execution creates the on-demand repro_canon(...) indexes
        # on the join columns.
        from repro.engine.executor import PlanExecutor

        PlanExecutor(catalog, context).execute(query)
        pushdown = WindowedUnionPushdown(backend)
        columns, mappings = union_column_plan([query])
        sql, params, _, _ = pushdown.compile_ranked(
            catalog, [query], columns, mappings
        )
        plan = self._explain(backend, sql, params)
        # The join probe must run on the on-demand repro_canon expression
        # index (SQLite reports expression-index probes as "<expr>=?").
        assert "USING INDEX ix_20_interpro.interpro2go_go_id (<expr>=?)" in plan, plan
        backend.close()

    def test_colliding_index_names_get_one_index_each(self):
        # ("src.term", "go_id") and ("src.term_go", "id") once shared the
        # name ix_src_term_go_id: CREATE INDEX IF NOT EXISTS silently
        # skipped the second, which then joined without an index.
        backend = SqliteBackend(":memory:")
        source = DataSource.build(
            "src",
            {"term": ["go_id", "name"], "term_go": ["id", "name"]},
            data={
                "term": [(f"GO:{i}", f"t{i}") for i in range(50)],
                "term_go": [(f"GO:{i}", f"g{i}") for i in range(50)],
            },
        )
        catalog = Catalog([source], backend=backend)
        query = ConjunctiveQuery(provenance="tree-1", cost=1.0)
        query.add_atom("src.term", "t")
        query.add_atom("src.term_go", "g")
        query.add_join("t", "go_id", "g", "id")
        query.add_output("t", "name", "term")
        query.add_output("g", "name", "go")
        backend.ensure_canon_index("src.term", "go_id")
        backend.ensure_canon_index("src.term_go", "id")
        indexes = backend.execute_sql(
            "SELECT tbl_name FROM sqlite_master WHERE type = 'index' "
            "AND name LIKE 'ix_%' ORDER BY tbl_name"
        )
        assert indexes == [("src.term",), ("src.term_go",)]
        # Whichever side SQLite probes, its canon index is there to serve it.
        sql, params, _, _ = WindowedUnionPushdown(backend).compile_raw(catalog, [query])
        plan = self._explain(backend, sql, params)
        assert "USING INDEX ix_" in plan and "(<expr>=?)" in plan, plan
        backend.close()

    def test_posting_self_join_probes_the_value_index(self):
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        index = CatalogProfileIndex.from_catalog(catalog)
        store = PostingStore(backend)
        assert store.sync(index)
        sql = (
            "SELECT other.relation, other.attribute, COUNT(*) "
            "FROM _repro_postings_values AS mine "
            "JOIN _repro_postings_values AS other ON other.value = mine.value "
            "WHERE mine.relation = ? AND mine.attribute = ? "
            "AND NOT (other.relation = mine.relation "
            "AND other.attribute = mine.attribute) "
            "GROUP BY other.relation, other.attribute"
        )
        plan = self._explain(backend, sql, ("go", "acc"))
        assert "ix_repro_postings_values_value" in plan, plan
        assert "ix_repro_postings_values_attr" in plan, plan
        backend.close()


# ----------------------------------------------------------------------
# Posting persistence: parity and the warm-open rebuild skip
# ----------------------------------------------------------------------
class TestPostingStore:
    def _indexed_catalog(self):
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        index = CatalogProfileIndex.from_catalog(catalog)
        return backend, catalog, index

    def test_store_candidates_equal_in_memory_walk(self):
        backend, catalog, index = self._indexed_catalog()
        store = PostingStore(backend)
        assert store.sync(index)
        assert not store.sync(index), "second sync must be a no-op"
        for profile in index.iter_attribute_profiles():
            relation, attribute = profile.relation, profile.attribute
            assert store.value_candidates(relation, attribute) == dict(
                index.value_candidates(relation, attribute)
            ), (relation, attribute)
        backend.close()

    def test_store_tfidf_round_trips_byte_identical(self):
        backend, catalog, index = self._indexed_catalog()
        store = PostingStore(backend)
        store.sync(index)
        index.attach_posting_store(store)
        for profile in index.iter_attribute_profiles():
            computed = index.content_tfidf(profile.relation, profile.attribute)
            stored = store.tfidf_vector(profile.relation, profile.attribute)
            assert stored == computed, (profile.relation, profile.attribute)
            assert list(stored) == list(computed), "iteration order differs"
        backend.close()

    def test_token_reads_match_through_the_store(self):
        backend, catalog, index = self._indexed_catalog()
        store = PostingStore(backend)
        store.sync(index)
        fresh = CatalogProfileIndex.from_catalog(catalog)
        for token in ("plasma", "membrane", "ipr001"):
            assert store.token_postings(token) == tuple(
                sorted(fresh.token_postings(token))
            )
            assert store.token_document_frequency(
                token
            ) == fresh.token_document_frequency(token)
        assert store.distinct_value_count() == fresh.distinct_value_count
        backend.close()

    def test_warm_open_skips_the_posting_rebuild(self, tmp_path):
        db = tmp_path / "catalog.db"
        service, view, info = _sqlite_view(path=db)
        cold = answer_fingerprint(view.answers())
        cold_stats = service.stats()
        assert cold_stats.posting_syncs >= 1
        assert cold_stats.posting_builds == 0
        service.save()  # session store lives inside the catalog database
        service.close()

        reset_edge_ids()
        reopened = QService.open(db)
        stats = reopened.stats()
        # The acceptance counter: a warm open performs NO full in-memory
        # posting rebuild and NO posting-table rewrite.
        assert stats.posting_builds == 0
        assert stats.posting_syncs == 0
        warm = answer_fingerprint(reopened.view(info.view_id).answers())
        assert warm == cold and warm
        assert reopened.stats().posting_builds == 0
        reopened.close()

    def test_registration_after_warm_open_stays_correct(self, tmp_path):
        # A post-open registration moves the epoch: the store goes stale,
        # candidate reads rebuild/fall back, and the tables re-sync.
        db = tmp_path / "catalog.db"
        service, view, info = _sqlite_view(path=db)
        service.save()
        service.close()

        reset_edge_ids()
        reopened = QService.open(db)
        # A new source overlapping interpro's entry accessions, so the
        # value-filtered alignment exercises the candidate lookup.
        donor = reopened.catalog.relation("interpro.entry")
        accs = [row.values[0] for row in donor.scan()][:8]
        from repro.datastore import DataSource

        source = DataSource.build(
            "extra",
            {"entry_notes": ["entry_ac", "note"]},
            data={"entry_notes": [(acc, f"note-{i}") for i, acc in enumerate(accs)]},
        )
        response = reopened.register_source(
            RegisterSourceRequest(
                source=source,
                strategy="exhaustive",
                matcher=ValueOverlapMatcher(min_confidence=0.5, min_shared_values=2),
                value_filter=True,
            )
        )
        assert response.attribute_comparisons > 0
        stats = reopened.stats()
        assert stats.posting_syncs >= 1, "mutation must re-sync the tables"
        # The store is current again: its join equals the live walk.
        store = reopened._posting_store
        assert store.is_current(
            reopened.profile_index.epoch, reopened.profile_index.attribute_count
        )
        for profile in list(reopened.profile_index.iter_attribute_profiles())[:4]:
            assert store.value_candidates(
                profile.relation, profile.attribute
            ) == dict(
                reopened.profile_index.value_candidates(
                    profile.relation, profile.attribute
                )
            )
        reopened.close()


# ----------------------------------------------------------------------
# The generic DB-API backend and the gated Postgres flavor
# ----------------------------------------------------------------------
class TestDbApiBackend:
    def _backend(self):
        return DbApiBackend(sqlite3.connect(":memory:"))

    def test_contract_smoke(self):
        backend = self._backend()
        schema = RelationSchema("r", ["a", "b"], source="s")
        backend.create_relation("s.r", schema)
        with pytest.raises(StorageError):
            backend.create_relation("s.r", schema)
        row = backend.append_row("s.r", ("x", True))
        assert (row.row_id, row.values) == (0, ("x", True))
        assert backend.insert_rows("s.r", [("y", 1), ("z", 2.5), (None, False)]) == 3
        assert backend.row_count("s.r") == 4
        assert backend.version("s.r") == 2
        scanned = [(r.row_id, r.values) for r in backend.scan("s.r")]
        assert scanned == [
            (0, ("x", True)),
            (1, ("y", 1)),
            (2, ("z", 2.5)),
            (3, (None, False)),
        ]
        assert backend.distinct_values("s.r", "a") == frozenset({"x", "y", "z"})
        with pytest.raises(StorageError):
            backend.insert_rows("s.r", [("wrong-arity",)])
        assert backend.row_count("s.r") == 4, "failed batch must roll back"
        backend.drop_relation("s.r")
        assert not backend.has_relation("s.r")
        backend.close()
        assert backend.closed

    def test_catalog_on_dbapi_backend_falls_back_to_python_engine(self):
        # Fallback by construction: no pushdown capability, every read goes
        # through the Python engine — and matches the memory backend.
        query = _make_query()
        memory_catalog = Catalog([clone_source(s) for s in _mini_sources()])
        memory_context = ExecutionContext(memory_catalog)
        dbapi_catalog = Catalog(
            [clone_source(s) for s in _mini_sources()], backend=self._backend()
        )
        dbapi_context = ExecutionContext(dbapi_catalog)
        assert dbapi_context.choose_target([query], ranked=False) == (
            PYTHON,
            "backend has no SQL pushdown (Python join engine)",
        )
        from repro.engine.executor import PlanExecutor

        memory_answers = PlanExecutor(memory_catalog, memory_context).execute(query)
        dbapi_answers = PlanExecutor(dbapi_catalog, dbapi_context).execute(query)
        assert answer_fingerprint(dbapi_answers) == answer_fingerprint(memory_answers)
        assert memory_answers
        assert dbapi_context.statistics.pushdown_queries == 0
        assert dbapi_context.statistics.pushdown_union_queries == 0

    def test_posting_store_works_on_dbapi_backend(self):
        backend = self._backend()
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        index = CatalogProfileIndex.from_catalog(catalog)
        store = PostingStore(backend)
        assert store.sync(index)
        for profile in index.iter_attribute_profiles():
            assert store.value_candidates(
                profile.relation, profile.attribute
            ) == dict(index.value_candidates(profile.relation, profile.attribute))
        backend.close()

    def test_source_schema_persistence(self):
        backend = self._backend()
        backend.save_source_schema("one", {"name": "one"})
        backend.save_source_schema("two", {"name": "two"})
        backend.save_source_schema("one", {"name": "one", "v": 2})
        assert backend.persisted_source_schemas() == [
            {"name": "one", "v": 2},
            {"name": "two"},
        ]
        backend.delete_source_schema("one")
        assert backend.persisted_source_schemas() == [{"name": "two"}]
        backend.close()

    def test_invalid_paramstyle_rejected(self):
        with pytest.raises(StorageError, match="paramstyle"):
            DbApiBackend(sqlite3.connect(":memory:"), paramstyle="pyformat")

    def test_postgres_without_driver_is_a_clear_error(self):
        pytest.importorskip  # (not used: the point is psycopg2's absence)
        try:
            import psycopg2  # noqa: F401

            pytest.skip("psycopg2 installed — the gate cannot be observed")
        except ImportError:
            pass
        with pytest.raises(StorageError, match="psycopg2"):
            create_backend("postgres:dbname=repro")

    def test_registry_spellings(self):
        with pytest.raises(StorageError, match="DSN"):
            create_backend("postgres")
        with pytest.raises(StorageError, match="postgres"):
            create_backend("bogus")


# ----------------------------------------------------------------------
# Satellite: the counters surface in SystemStats
# ----------------------------------------------------------------------
class TestStatsCounters:
    @requires_windowed
    def test_union_counter_surfaces_on_sqlite(self):
        service, view, info = _sqlite_view()
        list(service.stream_answers(QueryRequest(view=info.view_id)))
        stats = service.stats()
        assert stats.pushdown_union_queries >= 1
        assert stats.posting_syncs >= 1
        assert stats.posting_builds == 0
        service.close()

    @pytest.mark.memory_engine_internals
    def test_counters_stay_zero_on_memory(self):
        reset_edge_ids()
        dataset = build_interpro_go(include_foreign_keys=True)
        service = QService(
            sources=[dataset.interpro],
            config=ServiceConfig(top_k=5, top_y=2),
        )
        service.bootstrap_alignments(top_y=2)
        list(service.stream_answers(QueryRequest(keywords=("kinase", "title"))))
        stats = service.stats()
        assert stats.pushdown_union_queries == 0
        assert stats.pushdown_queries == 0
        assert stats.posting_syncs == 0
        service.close()
