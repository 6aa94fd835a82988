"""Storage-backend tests: protocol contract, SQL pushdown, parity, persistence.

The cross-backend parity suite is the acceptance gate of the pluggable
storage layer: the memory and SQLite backends must produce byte-identical
ranked answers, provenance and registration correspondences on the
fig6/fig8 fixture replays, and a SQLite catalog must survive a close /
reopen round trip.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.core import RankedView
from repro.datasets import build_gbco, grow_catalog_and_graph
from repro.datastore import Catalog, ConjunctiveQuery, DataSource
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.datastore.sqlgen import (
    query_to_parameterized_sql,
    query_to_sql,
    selection_condition,
    union_to_parameterized_sql,
    union_to_sql,
)
from repro.datastore.query import SelectionPredicate
from repro.engine.context import ExecutionContext
from repro.engine.executor import PlanExecutor
from repro.engine.predicates import compile_predicates
from repro.exceptions import QueryError, StorageError
from repro.graph import SearchGraph
from repro.matching import MetadataMatcher, ValueOverlapMatcher
from repro.storage import (
    DbApiBackend,
    MemoryBackend,
    SqliteBackend,
    backend_from_env,
    create_backend,
    resolve_backend,
)
from repro.storage.pushdown import SqlPushdown
from repro.storage.windowed import WindowedUnionPushdown

#: ``dbapi`` is the generic base class SqliteBackend inherits, driven through
#: the standard library's sqlite3 driver: it must hold the whole protocol
#: contract on its own, not just the slice its subclass happens to exercise.
BACKENDS = ("memory", "sqlite", "dbapi")


def make_backend(kind, tmp_path=None):
    if kind == "memory":
        return MemoryBackend()
    if kind == "dbapi":
        return DbApiBackend(sqlite3.connect(":memory:", check_same_thread=False))
    if tmp_path is not None:
        return SqliteBackend(tmp_path / "catalog.db")
    return SqliteBackend(":memory:")


@pytest.fixture(params=BACKENDS)
def backend(request):
    """One fresh backend per test, parameterized over every implementation."""
    instance = make_backend(request.param)
    yield instance
    instance.close()


def clone_source(source: DataSource) -> DataSource:
    return source_from_dict(source_to_dict(source))


def reset_edge_ids():
    """Restart the process-global edge-id counter.

    Edge ids embed a global sequence number, so two sessions built in one
    process number their (structurally identical) graphs differently —
    which shifts tree signatures and equal-cost tie-breaks.  Resetting the
    counter before each replay makes independent runs byte-comparable,
    so the parity assertions below can demand *identical* ranked answers
    rather than merely equal answer sets.
    """
    import itertools

    import repro.graph.edges as edges

    edges._edge_counter = itertools.count()


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


def correspondence_fingerprint(correspondences):
    return sorted(
        (c.source.qualified, c.target.qualified, c.confidence, c.matcher)
        for c in correspondences
    )


# ----------------------------------------------------------------------
# Protocol contract
# ----------------------------------------------------------------------
class TestBackendProtocol:
    def _schema(self):
        from repro.datastore.schema import RelationSchema

        return RelationSchema("r", ["a", "b"], source="s")

    def test_duplicate_relation_rejected(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema)
        with pytest.raises(StorageError):
            backend.create_relation("s.r", schema)

    def test_scan_order_and_row_ids(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema)
        backend.insert_rows("s.r", [("x", 1), ("y", 2), ("z", 3)])
        rows = backend.scan("s.r")
        assert [row.row_id for row in rows] == [0, 1, 2]
        assert [row["a"] for row in rows] == ["x", "y", "z"]
        backend.append_row("s.r", ("w", 4))
        assert backend.scan("s.r")[3].row_id == 3
        assert backend.row_count("s.r") == 4

    def test_bulk_ingest_bumps_version_once(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema, initial_version=7)
        assert backend.version("s.r") == 7
        backend.insert_rows("s.r", iter([("x", 1), ("y", 2)]))
        assert backend.version("s.r") == 8
        backend.insert_rows("s.r", [])
        assert backend.version("s.r") == 8

    def test_ingest_atomicity(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema)
        backend.insert_rows("s.r", [("x", 1)])
        version = backend.version("s.r")

        def bad_rows():
            yield ("ok", 2)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            backend.insert_rows("s.r", bad_rows())
        assert backend.row_count("s.r") == 1
        assert backend.version("s.r") == version
        # The next successful ingest continues with dense row ids.
        backend.insert_rows("s.r", [("y", 3)])
        assert [row.row_id for row in backend.scan("s.r")] == [0, 1]

    def test_distinct_values_canonicalize(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema)
        backend.insert_rows(
            "s.r", [(" 42 ", None), (42, ""), (42.0, "kept"), (None, "kept")]
        )
        assert backend.distinct_values("s.r", "a") == {"42"}
        assert backend.distinct_values("s.r", "b") == {"kept"}

    def test_drop_relation(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema)
        assert backend.has_relation("s.r")
        backend.drop_relation("s.r")
        assert not backend.has_relation("s.r")
        backend.drop_relation("s.r")  # idempotent
        backend.create_relation("s.r", schema)  # key is reusable

    def test_storage_size_reported(self, backend):
        schema = self._schema()
        backend.create_relation("s.r", schema)
        backend.insert_rows("s.r", [("some text", i) for i in range(50)])
        assert backend.storage_size_bytes() > 0


class TestSqliteValues:
    def test_bool_none_roundtrip(self):
        backend = SqliteBackend(":memory:")
        from repro.datastore.schema import RelationSchema

        schema = RelationSchema("r", ["flag", "n"], source="s")
        backend.create_relation("s.r", schema)
        backend.insert_rows("s.r", [(True, None), (False, 3), (None, 2.5)])
        values = [tuple(row.values) for row in backend.scan("s.r")]
        assert values == [(True, None), (False, 3), (None, 2.5)]
        # Canonical semantics match the memory backend's.
        assert backend.distinct_values("s.r", "flag") == {"true", "false"}

    def test_unsupported_value_type_rejected_atomically(self):
        backend = SqliteBackend(":memory:")
        from repro.datastore.schema import RelationSchema

        schema = RelationSchema("r", ["a"], source="s")
        backend.create_relation("s.r", schema)
        with pytest.raises(StorageError):
            backend.insert_rows("s.r", [("fine",), ({"not": "fine"},)])
        assert backend.row_count("s.r") == 0


# ----------------------------------------------------------------------
# Table attach/detach and catalog routing
# ----------------------------------------------------------------------
class TestAttachDetach:
    def _source(self):
        return DataSource.build(
            "go",
            {"term": ["acc", "name"]},
            data={"term": [("GO:1", "alpha"), ("GO:2", "beta")]},
        )

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_add_source_attaches_tables(self, kind):
        backend = make_backend(kind)
        catalog = Catalog(backend=backend)
        source = self._source()
        table = source.table("term")
        version_before = table.version
        catalog.add_source(source)
        assert table.storage_backend is backend
        assert table.storage_key == "go.term"
        assert table.version > version_before
        assert [row["acc"] for row in table.scan()] == ["GO:1", "GO:2"]
        # Post-attach mutations route through the catalog backend.
        table.append(("GO:3", "gamma"))
        assert backend.row_count("go.term") == 3

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_remove_source_detaches_and_drops(self, kind):
        backend = make_backend(kind)
        catalog = Catalog(backend=backend)
        source = catalog.add_source(self._source())
        removed = catalog.remove_source("go")
        assert removed is source
        assert not backend.has_relation("go.term")
        table = removed.table("term")
        assert table.storage_backend is not backend
        assert [row["acc"] for row in table.scan()] == ["GO:1", "GO:2"]
        # The key is free again: re-registration works.
        catalog.add_source(removed)
        assert backend.has_relation("go.term")

    def test_versions_carry_forward_across_attach(self):
        backend = SqliteBackend(":memory:")
        source = self._source()
        table = source.table("term")
        seen = {table.version}
        Catalog(backend=backend).add_source(source)
        assert table.version not in seen
        seen.add(table.version)
        table.extend([("GO:9", "omega")])
        assert table.version not in seen


# ----------------------------------------------------------------------
# Engine pushdown parity
# ----------------------------------------------------------------------
def _make_query(with_selection=True):
    query = ConjunctiveQuery(provenance="tree-1", cost=1.5)
    query.add_atom("go.term", "t")
    query.add_atom("interpro.interpro2go", "i2g")
    query.add_join("t", "acc", "i2g", "go_id")
    if with_selection:
        query.add_selection("t", "name", "plasma membrane", mode="keyword")
    query.add_output("t", "name", "term")
    query.add_output("i2g", "entry_ac")
    return query


def _mini_sources():
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


class TestPushdownParity:
    def _answers(self, kind, query, limit=None):
        catalog = Catalog(
            [clone_source(s) for s in _mini_sources()], backend=make_backend(kind)
        )
        context = ExecutionContext(catalog)
        answers = PlanExecutor(catalog, context).execute(query, limit=limit)
        return answers, context

    @pytest.mark.parametrize("with_selection", [True, False])
    def test_whole_query_pushdown_matches_memory(self, with_selection):
        query = _make_query(with_selection)
        memory_answers, _ = self._answers("memory", query)
        sqlite_answers, context = self._answers("sqlite", query)
        assert context.statistics.pushdown_queries == 1
        assert answer_fingerprint(sqlite_answers) == answer_fingerprint(memory_answers)
        assert memory_answers  # the comparison must not be vacuous

    def test_no_output_query_matches_memory(self):
        query = ConjunctiveQuery(provenance="tree-2", cost=0.25)
        query.add_atom("go.term", "t")
        query.add_selection("t", "name", "membrane", mode="contains")
        memory_answers, _ = self._answers("memory", query)
        sqlite_answers, _ = self._answers("sqlite", query)
        assert answer_fingerprint(sqlite_answers) == answer_fingerprint(memory_answers)
        assert len(memory_answers) == 2

    def test_equals_canonicalization_in_pushdown(self):
        # " GO:0003 " canonicalizes to "GO:0003"; the pushdown must match it.
        query = ConjunctiveQuery(cost=0.5)
        query.add_atom("go.term", "t")
        query.add_selection("t", "acc", "GO:0003", mode="equals")
        query.add_output("t", "name")
        memory_answers, _ = self._answers("memory", query)
        sqlite_answers, _ = self._answers("sqlite", query)
        assert answer_fingerprint(sqlite_answers) == answer_fingerprint(memory_answers)
        assert len(memory_answers) == 1

    def test_limit_falls_back_to_python_engine(self):
        query = _make_query()
        sqlite_answers, context = self._answers("sqlite", query, limit=2)
        memory_answers, _ = self._answers("memory", query, limit=2)
        assert context.statistics.pushdown_queries == 0
        assert answer_fingerprint(sqlite_answers) == answer_fingerprint(memory_answers)

    @pytest.mark.parametrize("with_outputs", [True, False])
    def test_union_branch_equals_single_query_pushdown(self, with_outputs):
        # One compiler, one decoder: a query fetched as a branch of the
        # windowed union is byte-identical to the same query run alone —
        # and the outputless all-attributes projection survives both shapes.
        query = _make_query()
        if not with_outputs:
            query.outputs.clear()
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        alone = SqlPushdown(backend).execute(catalog, query)
        branch = WindowedUnionPushdown(backend).fetch_raw(catalog, [query])[0]
        assert answer_fingerprint(branch) == answer_fingerprint(alone)
        memory_answers, _ = self._answers("memory", query)
        assert answer_fingerprint(alone) == answer_fingerprint(memory_answers)
        assert len(alone) == 3
        assert len(alone[0].values) == (2 if with_outputs else 4)
        backend.close()

    def test_scan_pushdown_matches_python_filter(self):
        sources = [clone_source(s) for s in _mini_sources()]
        catalog_mem = Catalog([clone_source(s) for s in sources])
        catalog_sql = Catalog(sources, backend=SqliteBackend(":memory:"))
        predicates = compile_predicates(
            [SelectionPredicate("t", "name", "plasma membrane", mode="keyword")]
        )
        mem_rows = ExecutionContext(catalog_mem).scan("go.term", predicates)
        sql_context = ExecutionContext(catalog_sql)
        sql_rows = sql_context.scan("go.term", predicates)
        assert sql_context.statistics.pushdown_scans == 1
        assert [(r.row_id, tuple(r.values)) for r in sql_rows] == [
            (r.row_id, tuple(r.values)) for r in mem_rows
        ]


# ----------------------------------------------------------------------
# Golden SQL: the windowed batch statement, text and parameter order
# ----------------------------------------------------------------------
GOLDEN_MINI_SQL = """\
SELECT 0 AS "_branch", ROW_NUMBER() OVER (ORDER BY "t"."_row_id", "i2g"."_row_id") AS "_seq", "t"."_row_id" AS "_rid_0", "t"."_tags" AS "_tag_0", "i2g"."_row_id" AS "_rid_1", "i2g"."_tags" AS "_tag_1", "t"."c_name" AS "_val_0", "i2g"."c_entry_ac" AS "_val_1"
FROM "go.term" AS "t", "interpro.interpro2go" AS "i2g"
WHERE repro_canon("t"."c_acc") = repro_canon("i2g"."c_go_id") AND repro_match(?, ?, "t"."c_name") = 1
UNION ALL
SELECT 1 AS "_branch", ROW_NUMBER() OVER (ORDER BY "t"."_row_id") AS "_seq", "t"."_row_id" AS "_rid_0", "t"."_tags" AS "_tag_0", NULL AS "_rid_1", NULL AS "_tag_1", "t"."c_name" AS "_val_0", NULL AS "_val_1"
FROM "go.term" AS "t"
WHERE repro_canon("t"."c_acc") = ?
ORDER BY "_branch", "_seq\""""

_GOLDEN_GBCO_BRANCH = """\
SELECT {index} AS "_branch", ROW_NUMBER() OVER (ORDER BY "publication"."_row_id") AS "_seq", "publication"."_row_id" AS "_rid_0", "publication"."_tags" AS "_tag_0", "publication"."c_first_author" AS "_val_0"
FROM "publication.publication" AS "publication\""""
_GOLDEN_GBCO_WHERE = '\nWHERE repro_canon("publication"."c_first_author") = ?'
GOLDEN_GBCO_SQL = (
    "\nUNION ALL\n".join(
        _GOLDEN_GBCO_BRANCH.format(index=index) + (_GOLDEN_GBCO_WHERE if index else "")
        for index in range(5)
    )
    + '\nORDER BY "_branch", "_seq"'
)


class TestGoldenWindowedSql:
    """``compile_raw`` renders exactly what it rendered before the SQL
    compilers were merged (texts captured from the parent commit)."""

    def test_hand_built_batch(self):
        # A two-atom join beside a one-atom query: pins join and selection
        # rendering, NULL padding of the narrower branch, and that needles
        # enter the parameter list in statement order.
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        single = ConjunctiveQuery(provenance="tree-2", cost=0.5)
        single.add_atom("go.term", "t")
        single.add_selection("t", "acc", " GO:0003 ", mode="equals")
        single.add_output("t", "name")
        sql, params, _, _ = WindowedUnionPushdown(backend).compile_raw(
            catalog, [_make_query(), single]
        )
        assert sql == GOLDEN_MINI_SQL
        assert params == ["keyword", "plasma membrane", "GO:0003"]
        backend.close()

    def test_gbco_view(self, gbco_dataset):
        # ("author", "publication") is one of the GBCO query-log views whose
        # generated queries do not depend on the process's hash seed.
        reset_edge_ids()
        service = QService(
            sources=[clone_source(source) for source in gbco_dataset.catalog],
            config=ServiceConfig(top_k=5, top_y=1),
            backend=SqliteBackend(":memory:"),
        )
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("author", "publication")))
        queries = [g.query for g in service.view(info.view_id).state.queries]
        backend = service.catalog.backend
        sql, params, _, _ = WindowedUnionPushdown(backend).compile_raw(
            service.catalog, queries
        )
        assert sql == GOLDEN_GBCO_SQL
        assert params == [
            "first_author_2",
            "first_author_2",
            "first_author_5",
            "first_author_5",
        ]
        service.close()


# ----------------------------------------------------------------------
# Cross-backend parity on the fig6 / fig8 fixture replays
# ----------------------------------------------------------------------
def _gbco_replay(kind, dataset, trial):
    """One fig6-style replay: view answers, then a registration, per backend."""
    reset_edge_ids()
    excluded = {relation.split(".")[0] for relation in trial.new_relations}
    sources = [
        clone_source(source)
        for source in dataset.catalog
        if source.name not in excluded
    ]
    service = QService(
        sources=sources,
        matchers=[ValueOverlapMatcher(min_confidence=0.6, min_shared_values=5)],
        config=ServiceConfig(top_k=5, top_y=1),
        backend=make_backend(kind),
    )
    service.bootstrap_alignments()
    info = service.create_view(QueryRequest(keywords=tuple(trial.keywords)))
    before = answer_fingerprint(service.view(info.view_id).answers())

    # The view-based strategy needs a view with answers (its α prunes the
    # neighborhood); trials whose keyword view is empty after excluding the
    # new sources fall back to exhaustive — identically on both backends.
    strategy = "view_based" if before else "exhaustive"
    registrations = []
    for relation in trial.new_relations:
        source_name = relation.split(".")[0]
        response = service.register_source(
            RegisterSourceRequest(
                source=clone_source(dataset.catalog.source(source_name)),
                strategy=strategy,
                matcher=MetadataMatcher(),
            )
        )
        registrations.append(
            (
                response.edges_added,
                response.attribute_comparisons,
                tuple(response.candidate_relations),
                correspondence_fingerprint(response.alignment.correspondences),
            )
        )
    after = answer_fingerprint(service.view(info.view_id).answers())
    stats = service.stats()
    assert stats.backend == ("sqlite" if kind == "sqlite" else "memory")
    return before, registrations, after


@pytest.mark.parametrize("trial_index", [0, 1])
def test_fig6_replay_parity_across_backends(gbco_dataset, trial_index):
    trial = list(gbco_dataset.query_log)[trial_index]
    memory_run = _gbco_replay("memory", gbco_dataset, trial)
    sqlite_run = _gbco_replay("sqlite", gbco_dataset, trial)
    assert sqlite_run == memory_run
    assert memory_run[1], "replay registered nothing — parity would be vacuous"
    if trial_index == 0:
        assert memory_run[0], "replay produced no answers — parity would be vacuous"


def _fig8_replay(kind, size=40):
    """A fig8-style replay: grown synthetic catalog, ranked view answers."""
    from repro.alignment.base import install_associations
    from repro.matching.base import top_y_per_attribute

    reset_edge_ids()
    gbco = build_gbco(rows_per_relation=10)
    trial = list(gbco.query_log)[0]
    excluded = {relation.split(".")[0] for relation in trial.new_relations}
    catalog = Catalog(backend=make_backend(kind))
    for source in gbco.catalog:
        if source.name not in excluded:
            catalog.add_source(clone_source(source))
    graph = SearchGraph()
    graph.add_catalog(catalog)
    matcher = ValueOverlapMatcher(min_confidence=0.6, min_shared_values=5)
    tables = catalog.all_tables()
    correspondences = []
    for i, table_a in enumerate(tables):
        for table_b in tables[i + 1 :]:
            correspondences.extend(matcher.match_relations(table_a, table_b))
    install_associations(graph, top_y_per_attribute(correspondences, 1))
    grow_catalog_and_graph(catalog, graph, target_source_count=size, seed=size)
    view = RankedView(list(trial.keywords), catalog, graph, k=5)
    state = view.refresh()
    return answer_fingerprint(state.answers), tuple(g.signature for g in state.queries)


def test_fig8_replay_parity_across_backends():
    memory_run = _fig8_replay("memory")
    sqlite_run = _fig8_replay("sqlite")
    assert sqlite_run == memory_run
    assert memory_run[0], "replay produced no answers — parity would be vacuous"


# ----------------------------------------------------------------------
# SQLite persistence round trip
# ----------------------------------------------------------------------
class TestSqlitePersistence:
    def test_close_reopen_query_again(self, tmp_path):
        db_path = tmp_path / "session.db"
        keywords = ("plasma", "IPR001")

        reset_edge_ids()
        first = QService(
            sources=[clone_source(s) for s in _mini_sources()],
            backend=f"sqlite:{db_path}",
        )
        first.bootstrap_alignments()
        info = first.create_view(QueryRequest(keywords=keywords))
        original = answer_fingerprint(first.view(info.view_id).answers())
        first.close()

        # Reference run on plain memory: the reopened catalog must agree.
        reset_edge_ids()
        reference_service = QService(sources=[clone_source(s) for s in _mini_sources()])
        reference_service.bootstrap_alignments()
        ref_info = reference_service.create_view(QueryRequest(keywords=keywords))
        reference = answer_fingerprint(
            reference_service.view(ref_info.view_id).answers()
        )

        reset_edge_ids()
        reopened = QService(backend=f"sqlite:{db_path}")
        assert set(reopened.catalog.source_names()) == {"go", "interpro"}
        assert reopened.catalog.relation("go.term").version == 0
        assert len(reopened.catalog.relation("go.term")) == 4
        reopened.bootstrap_alignments()
        info2 = reopened.create_view(QueryRequest(keywords=keywords))
        replayed = answer_fingerprint(reopened.view(info2.view_id).answers())
        assert replayed == original == reference
        assert original, "round trip produced no answers — parity would be vacuous"
        reopened.close()

    def test_registration_persists(self, tmp_path):
        db_path = tmp_path / "session.db"
        service = QService(
            sources=[clone_source(_mini_sources()[0])], backend=f"sqlite:{db_path}"
        )
        service.create_view(QueryRequest(keywords=("plasma",)))
        service.register_source(
            RegisterSourceRequest(
                source=clone_source(_mini_sources()[1]),
                strategy="exhaustive",
                matcher=MetadataMatcher(),
            )
        )
        row_count = len(service.catalog.relation("interpro.interpro2go"))
        service.close()

        reopened = Catalog(backend=SqliteBackend(db_path))
        assert set(reopened.source_names()) == {"go", "interpro"}
        assert len(reopened.relation("interpro.interpro2go")) == row_count
        fks = reopened.source("interpro").schema.foreign_keys
        assert fks == _mini_sources()[1].schema.foreign_keys
        reopened.close()

    def test_post_admission_add_relation_persists(self, tmp_path):
        from repro.datastore.schema import RelationSchema

        db_path = tmp_path / "session.db"
        catalog = Catalog(
            [clone_source(_mini_sources()[0])], backend=SqliteBackend(db_path)
        )
        catalog.source("go").add_relation(
            RelationSchema("synonym", ["acc", "alias"]),
            rows=[("GO:0001", "membrane (plasma)")],
        )
        catalog.close()
        reopened = Catalog(backend=SqliteBackend(db_path))
        assert reopened.source("go").schema.relation_names() == ("term", "synonym")
        assert [tuple(r.values) for r in reopened.relation("go.synonym").scan()] == [
            ("GO:0001", "membrane (plasma)")
        ]
        reopened.close()

    def test_failed_metadata_persistence_rolls_back_attach(self):
        backend = SqliteBackend(":memory:")

        def exploding_save(name, payload):
            raise RuntimeError("disk full")

        backend.save_source_schema = exploding_save
        catalog = Catalog(backend=backend)
        source = clone_source(_mini_sources()[0])
        with pytest.raises(RuntimeError):
            catalog.add_source(source)
        # Full rollback: no rows stranded in the backend, source unregistered
        # and still usable, and a retry is not blocked by a stale relation.
        assert not backend.has_relation("go.term")
        assert "go" not in catalog.source_names()
        assert len(source.table("term")) == 4
        backend.close()

    def test_removed_source_not_persisted(self, tmp_path):
        db_path = tmp_path / "session.db"
        catalog = Catalog(
            [clone_source(s) for s in _mini_sources()],
            backend=SqliteBackend(db_path),
        )
        catalog.remove_source("interpro")
        catalog.close()
        reopened = Catalog(backend=SqliteBackend(db_path))
        assert set(reopened.source_names()) == {"go"}
        reopened.close()


# ----------------------------------------------------------------------
# Backend registry / env plumbing
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_create_backend_names(self, tmp_path):
        assert isinstance(create_backend("memory"), MemoryBackend)
        assert isinstance(create_backend("sqlite"), SqliteBackend)
        spec = f"sqlite:{tmp_path / 'x.db'}"
        backend = create_backend(spec)
        assert backend.path == str(tmp_path / "x.db")
        backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError):
            create_backend("parquet")

    def test_resolve_backend_passthrough(self):
        backend = MemoryBackend()
        assert resolve_backend(backend) is backend
        assert resolve_backend(None) is None

    def test_backend_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_from_env() is None
        monkeypatch.setenv("REPRO_BACKEND", "memory")
        assert backend_from_env() is None
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        backend = backend_from_env()
        assert isinstance(backend, SqliteBackend)
        backend.close()


# ----------------------------------------------------------------------
# Hardened sqlgen: parameterized rendering
# ----------------------------------------------------------------------
class TestParameterizedSqlgen:
    def test_placeholders_replace_literals(self):
        query = _make_query()
        query.add_selection("t", "acc", "GO:0001", mode="equals")
        literal = query_to_sql(query)
        parameterized = query_to_parameterized_sql(query)
        assert parameterized.sql.count("?") == len(parameterized.params)
        assert parameterized.params == (
            "%plasma%",
            "%membrane%",
            "GO:0001",
        )
        assert "GO:0001" not in parameterized.sql
        assert "'GO:0001'" in literal
        # Statement shape is identical: substituting the params back in
        # (quoted) yields the literal rendering.
        rebuilt = parameterized.sql
        for param in parameterized.params:
            rebuilt = rebuilt.replace("?", "'" + str(param) + "'", 1)
        assert rebuilt == literal

    def test_union_parameterized(self):
        q1 = _make_query()
        q2 = _make_query(with_selection=False)
        q2.cost = 0.5
        literal = union_to_sql([q1, q2])
        parameterized = union_to_parameterized_sql([q1, q2])
        assert parameterized.sql.count("?") == len(parameterized.params) == 2
        assert "UNION ALL" in parameterized.sql
        assert "'%plasma%'" in literal

    def test_exact_dialect_requires_params(self):
        predicate = SelectionPredicate("t", "name", "x", mode="keyword")
        with pytest.raises(QueryError):
            selection_condition(predicate, '"t"."name"', None, dialect="exact")
        params = []
        condition = selection_condition(predicate, '"t"."name"', params, dialect="exact")
        assert condition == 'repro_match(?, ?, "t"."name") = 1'
        assert params == ["keyword", "x"]

    def test_exact_dialect_equals_is_index_servable(self):
        # equals must render as repro_canon(col) = ? — the shape SQLite can
        # serve from the backend's repro_canon(col) expression indexes —
        # with the needle pre-canonicalized, not as an opaque function call.
        predicate = SelectionPredicate("t", "acc", " GO:0003 ", mode="equals")
        params = []
        condition = selection_condition(predicate, '"t"."acc"', params, dialect="exact")
        assert condition == 'repro_canon("t"."acc") = ?'
        assert params == ["GO:0003"]

    def test_equals_pushdown_uses_expression_index(self):
        catalog = Catalog(_mini_sources(), backend=SqliteBackend(":memory:"))
        backend = catalog.backend
        predicates = compile_predicates(
            [SelectionPredicate("t", "acc", "GO:0001", mode="equals")]
        )
        ExecutionContext(catalog).scan("go.term", predicates)
        plan = backend.execute_sql(
            'EXPLAIN QUERY PLAN SELECT * FROM "go.term" '
            'WHERE repro_canon("c_acc") = ?',
            ["GO:0001"],
        )
        assert any("USING INDEX" in str(row) for row in plan), plan
        backend.close()

    def test_unknown_dialect_rejected(self):
        predicate = SelectionPredicate("t", "name", "x")
        with pytest.raises(QueryError):
            selection_condition(predicate, "c", [], dialect="oracle")
