"""Storage-backend tests: protocol contract, SQL pushdown, parity, persistence.

The cross-backend parity suite is the acceptance gate of the pluggable
storage layer: the memory and SQLite backends must produce byte-identical
ranked answers, provenance and registration correspondences on the
fig6/fig8 fixture replays, and a SQLite catalog must survive a close /
reopen round trip.  Also here: the per-query SQL/Python target choice and
its reasons, ``EXPLAIN QUERY PLAN`` assertions that pushed-down joins are
served by indexes, the compiled statements of fixture queries against a
golden file written before the SQLite backend absorbed its DB-API base
class, posting laziness across a save / open (a warm
:meth:`~repro.api.service.QService.open` rebuilds no posting until one is
read, and then once), and the SQLite row model's round trip on its own.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.core import RankedView
from repro.datasets import build_gbco, build_interpro_go, grow_catalog_and_graph
from repro.datasets.synthetic import make_community_source
from repro.datastore import Catalog, ConjunctiveQuery, DataSource
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.datastore.query import SelectionPredicate
from repro.datastore.schema import RelationSchema
from repro.datastore.table import Table
from repro.datastore.types import canonicalize
from repro.engine.context import PYTHON, SQL, ExecutionContext
from repro.engine.executor import PlanExecutor, ranked_union
from repro.engine.predicates import compile_predicates
from repro.exceptions import StorageError
from repro.faults.budget import Budget
from repro.graph import SearchGraph
from repro.matching import MetadataMatcher, ValueOverlapMatcher
from repro.profiling import profile_table
from repro.storage import (
    MemoryBackend,
    SqliteBackend,
    backend_from_env,
    create_backend,
    resolve_backend,
)
from repro.storage.pushdown import CompiledQuery, SqlPushdown
from repro.storage.sqlite import exact_condition

from faults_harness import FaultPlan, FaultyBackend
from reference_executor import ReferenceExecutor

BACKENDS = ("memory", "sqlite")

#: Cell values whose canonical forms differ from their stored ones: booleans,
#: integral and other floats (NaN too), padded or blank text, ``None``.
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(min_value=-3, max_value=3).map(lambda x: round(x, 1)),
    st.just(float("nan")),
    st.text(alphabet=" 1ab", max_size=3),
)


def make_backend(kind, tmp_path=None):
    if kind == "memory":
        return MemoryBackend()
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


def executed_answers(executor, query, **options):
    """One query's answers as a reader sees them: the union's builder over ``execute``'s rows."""
    return list(ranked_union([query], lambda q: executor.execute(q, **options), executor.catalog))


def union(catalog, queries, **options):
    """The ranked union of ``queries``, each executed on ``catalog``."""
    return list(ranked_union(queries, PlanExecutor(catalog).execute, catalog, **options))


def interpro_view(backend, keywords=("kinase", "title"), k=5, answer_limit=200):
    """A multi-query ranked view over the InterPro source, plus its service."""
    dataset = build_interpro_go(include_foreign_keys=True)
    service = QService(
        sources=[dataset.interpro],
        config=ServiceConfig(top_k=k, top_y=2, answer_limit=answer_limit),
        backend=backend,
    )
    service.bootstrap_alignments(top_y=2)
    info = service.create_view(QueryRequest(keywords=keywords, k=k))
    return service, service.view(info.view_id), info


def fresh_context(service) -> ExecutionContext:
    """Rebind ``service`` and every view of it to a new, empty ExecutionContext.

    The next read of any view then executes every distinct query it reaches,
    as in a session that never read.  The new context keeps the old one's
    counters and Steiner cache, so counts taken before and after compare.
    """
    old = service.engine_context
    context = ExecutionContext(service.catalog)
    context.statistics, context.steiner_cache = old.statistics, old.steiner_cache
    service.engine_context = context
    for record in service.views.records():
        record.view.engine_context = context
        record.view.executor = PlanExecutor(service.catalog, context)
        record.twins.clear()
    return context


def distinct_contents(view) -> int:
    """How many distinct queries the view's trees generate: what a cold read executes."""
    return len({generated.key for generated in view.state.queries})


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

    @pytest.mark.parametrize("kind", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @example(rows=[(" 42 ", None), (42, ""), (42.0, "kept"), (None, "kept")])
    @given(rows=st.lists(st.tuples(_CELLS, _CELLS), max_size=8))
    def test_distinct_values_canonicalize(self, kind, rows):
        # A backend keeps no value summary: a column's distinct values are
        # its profile's, which must be the canonical forms of the non-null
        # cells stored, whatever the backend made of them.
        backend = make_backend(kind)
        try:
            table = Table(self._schema(), rows=rows, backend=backend)
            _, profiles = profile_table(table)
            for idx, attribute in enumerate(("a", "b")):
                expected = {canonicalize(row[idx]) for row in rows} - {None}
                assert profiles[attribute].distinct_values == expected
        finally:
            backend.close()

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
        query.add_selection("t", "name", "plasma membrane")
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
    def _answers(self, kind, query):
        catalog = Catalog(
            [clone_source(s) for s in _mini_sources()], backend=make_backend(kind)
        )
        context = ExecutionContext(catalog)
        answers = executed_answers(PlanExecutor(catalog, context), query)
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
        query.add_selection("t", "name", "plasma membrane")
        memory_answers, _ = self._answers("memory", query)
        sqlite_answers, _ = self._answers("sqlite", query)
        assert answer_fingerprint(sqlite_answers) == answer_fingerprint(memory_answers)
        assert len(memory_answers) == 1

    def test_equals_canonicalization_in_pushdown(self):
        # " GO:0003 " canonicalizes to "GO:0003"; the pushdown must match it.
        query = ConjunctiveQuery(cost=0.5)
        query.add_atom("go.term", "t")
        query.add_selection("t", "acc", "GO:0003")
        query.add_output("t", "name")
        memory_answers, _ = self._answers("memory", query)
        sqlite_answers, _ = self._answers("sqlite", query)
        assert answer_fingerprint(sqlite_answers) == answer_fingerprint(memory_answers)
        assert len(memory_answers) == 1

    @pytest.mark.parametrize("with_outputs", [True, False])
    def test_join_pushdown_projection_matches_memory(self, with_outputs):
        # The outputless all-attributes projection of a join decodes like
        # the output-column one, into the rows the Python target returns.
        query = _make_query()
        if not with_outputs:
            query.outputs.clear()
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        alone = SqlPushdown(backend).execute(catalog, query)
        memory_catalog = Catalog([clone_source(s) for s in _mini_sources()])
        assert alone == PlanExecutor(memory_catalog).execute(query)
        assert len(alone) == 2
        assert len(alone[0][0]) == (2 if with_outputs else 4)
        backend.close()

    def test_rows_do_not_know_the_tree_that_asked(self):
        # One query content executed for two trees of different cost and id
        # returns equal rows on either target; the answer builder stamps each
        # answer with its own query's id and cost.
        first, second = _make_query(), _make_query()
        second.provenance, second.cost = "tree-2", 0.75
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        memory = PlanExecutor(Catalog([clone_source(s) for s in _mini_sources()]))
        pushdown = SqlPushdown(backend)
        rows = memory.execute(first)
        assert rows and memory.execute(second) == rows
        assert pushdown.execute(catalog, first) == rows == pushdown.execute(catalog, second)
        answers = list(ranked_union([first, second], lambda query: rows, memory.catalog))
        stamps = [(a.cost, a.provenance.query_id, a.provenance.query_cost) for a in answers]
        assert stamps == [(0.75, "tree-2", 0.75)] * len(rows) + [(1.5, "tree-1", 1.5)] * len(rows)
        assert [a.provenance.base_tuples for a in answers] == [base for _, base in rows] * 2
        backend.close()


# ----------------------------------------------------------------------
# One equality: every evaluator of a selection accepts the same rows
# ----------------------------------------------------------------------
#: Cells and needles on the edges of canonicalization: case, surrounding
#: whitespace, numeric spellings, booleans, nulls and needles that miss.
_EQUALITY_VALUES = st.sampled_from(
    ["GO:1", " GO:1 ", "go:1", 1, 1.0, "1", "1.0", " 1 ", 2.5, True, False, "true", "True", None, "", "absent"]
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_EQUALITY_VALUES, _EQUALITY_VALUES), max_size=6),
    needle=_EQUALITY_VALUES,
    second=st.none() | st.tuples(_EQUALITY_VALUES),
)
def test_equality_selection_accepts_the_same_rows_everywhere(rows, needle, second):
    # The compiled predicate over a scan, the reference executor, the Python
    # target (on both backends) and the SQL target accept the same rows, for
    # a selection on ``a`` alone or conjoined with one on ``b``.
    def catalog(backend=None):
        return Catalog([DataSource.build("s", {"r": ["a", "b"]}, data={"r": rows})], backend=backend)

    query = ConjunctiveQuery(provenance="q")
    query.add_atom("s.r", "r")
    query.add_selection("r", "a", needle)
    if second is not None:
        query.add_selection("r", "b", second[0])
    memory, sqlite = catalog(), catalog(SqliteBackend(":memory:"))
    predicates = compile_predicates(query.selections)
    accepted = [
        row.row_id
        for row in memory.relation("s.r").scan()
        if all(p.matches(row[p.attribute]) for p in predicates)
    ]
    reference = [
        row_id
        for answer in ReferenceExecutor(memory).execute(query)
        for _, row_id in answer.provenance.base_tuples
    ]
    python = PlanExecutor(memory).execute(query)
    assert [row_id for _, base in python for _, row_id in base] == accepted == reference
    assert SqlPushdown(sqlite.backend).execute(sqlite, query) == python
    assert PlanExecutor(sqlite).execute(query, budget=Budget(3600.0)) == python
    sqlite.close()


def test_two_selections_on_one_attribute_share_a_scan_with_a_null_needle():
    # A null needle matches nothing; beside a second selection on the same
    # attribute the scan cache must still key the conjunction, in either
    # order (a sorted key would order None against a string).
    context = ExecutionContext(Catalog([clone_source(s) for s in _mini_sources()]))
    pair = [SelectionPredicate("t", "acc", "GO:0001"), SelectionPredicate("t", "acc", None)]
    assert context.scan("go.term", compile_predicates(pair)) == []
    assert context.scan("go.term", compile_predicates(pair[::-1])) == []
    assert context.statistics.scan_cache_hits == 1


# ----------------------------------------------------------------------
# The per-query target choice and its reasons
# ----------------------------------------------------------------------
class TestTargetChoice:
    def test_budgeted_read_runs_on_python_with_identical_answers(self):
        # A deadline budget must not change a single answer byte — it only
        # moves each query onto the Python plan loop, which checks the
        # deadline per step.
        service_on, _, info_on = interpro_view(SqliteBackend(":memory:"))
        on = answer_fingerprint(
            list(service_on.stream_answers(QueryRequest(view=info_on.view_id)))
        )
        service_on.close()
        service_off, view_off, _ = interpro_view(SqliteBackend(":memory:"))
        stats = fresh_context(service_off).statistics
        pushed_before = stats.pushdown_queries
        budget = Budget(deadline_s=60.0)
        off = answer_fingerprint(list(view_off.stream_answers(budget=budget)))
        assert stats.pushdown_queries == pushed_before
        assert not budget.truncated
        target, reason = service_off.engine_context.choose_target(
            view_off.state.queries[0].query, budget=budget
        )
        assert target == PYTHON and reason.startswith("deadline-budgeted read")
        service_off.close()
        assert on == off and on

    def test_foreign_backend_relation_falls_back(self):
        # A query touching a relation that lives outside the SQLite backend
        # cannot push down; the Python engine serves it, identically.
        service, view, _ = interpro_view(SqliteBackend(":memory:"))
        context = service.engine_context
        queries = [g.query for g in view.state.queries]
        assert all(context.choose_target(query) == (SQL, None) for query in queries)
        expected = answer_fingerprint(view.answers())
        relation = queries[0].atoms[0].relation
        service.catalog.relation(relation).detach()
        try:
            assert context.choose_target(queries[0]) == (
                PYTHON,
                f"relation(s) not stored on the SQL backend: {relation}",
            )
            elsewhere = {
                g.key for g in view.state.queries if relation not in g.query.relations()
            }
            pushed_before = context.statistics.pushdown_queries
            fresh_context(service)
            assert answer_fingerprint(view.answers()) == expected
            assert context.statistics.pushdown_queries == pushed_before + len(elsewhere)
        finally:
            service.close()

    def test_every_other_reason_is_reachable(self):
        # The remaining condition of the one capability check, driven by
        # something observable: a backend without pushdown.  A query without
        # output columns is no obstacle.
        query = _make_query()
        plain = Catalog(
            [clone_source(s) for s in _mini_sources()], backend=MemoryBackend()
        )
        assert ExecutionContext(plain).choose_target(query) == (
            PYTHON,
            "backend has no SQL pushdown (Python join engine)",
        )
        capable = Catalog(
            [clone_source(s) for s in _mini_sources()],
            backend=SqliteBackend(":memory:"),
        )
        context = ExecutionContext(capable)
        assert context.choose_target(query) == (SQL, None)
        outputless = ConjunctiveQuery(provenance="tree-2", cost=0.25)
        outputless.add_atom("go.term", "t")
        assert context.choose_target(outputless) == (SQL, None)
        capable.close()


# ----------------------------------------------------------------------
# Golden SQL: the single-query statement, text and parameter order
# ----------------------------------------------------------------------
GOLDEN_JOIN_SQL = """\
SELECT "t"."_row_id" AS "_rid_0", "t"."_tags" AS "_tag_0", "i2g"."_row_id" AS "_rid_1", "i2g"."_tags" AS "_tag_1", "t"."c_name" AS "_val_0", "i2g"."c_entry_ac" AS "_val_1"
FROM "go.term" AS "t", "interpro.interpro2go" AS "i2g"
WHERE repro_canon("t"."c_acc") = repro_canon("i2g"."c_go_id") AND repro_canon("t"."c_name") = ?
ORDER BY "t"."_row_id", "i2g"."_row_id\""""

GOLDEN_SELECTION_SQL = """\
SELECT "t"."_row_id" AS "_rid_0", "t"."_tags" AS "_tag_0", "t"."c_name" AS "_val_0"
FROM "go.term" AS "t"
WHERE repro_canon("t"."c_acc") = ?
ORDER BY "t"."_row_id\""""

_GOLDEN_GBCO_SELECT = """\
SELECT "publication"."_row_id" AS "_rid_0", "publication"."_tags" AS "_tag_0", "publication"."c_first_author" AS "_val_0"
FROM "publication.publication" AS "publication\""""
_GOLDEN_GBCO_WHERE = '\nWHERE repro_canon("publication"."c_first_author") = ?'
_GOLDEN_GBCO_ORDER = '\nORDER BY "publication"."_row_id"'


class TestGoldenPushdownSql:
    """:class:`CompiledQuery` renders each query as the windowed batch
    rendered its branch (texts captured before that shape was deleted),
    minus the ``"_branch"``/``"_seq"`` head and the ``NULL`` padding, plus
    the row-id ``ORDER BY``."""

    def test_hand_built_queries(self):
        # A two-atom join with a selection and a one-atom selection: pins
        # join and selection rendering, and that needles enter the parameter
        # list in statement order, pre-canonicalized.
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        single = ConjunctiveQuery(provenance="tree-2", cost=0.5)
        single.add_atom("go.term", "t")
        single.add_selection("t", "acc", " GO:0003 ")
        single.add_output("t", "name")
        join = CompiledQuery(backend, catalog, _make_query())
        assert join.sql == GOLDEN_JOIN_SQL
        assert join.params == ["plasma membrane"]
        selection = CompiledQuery(backend, catalog, single)
        assert selection.sql == GOLDEN_SELECTION_SQL
        assert selection.params == ["GO:0003"]
        backend.close()

    def test_gbco_view(self, gbco_dataset):
        service = QService(
            sources=[clone_source(source) for source in gbco_dataset.catalog],
            config=ServiceConfig(top_k=5, top_y=1),
            backend=SqliteBackend(":memory:"),
        )
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("author", "publication")))
        backend = service.catalog.backend
        compiled = [
            CompiledQuery(backend, service.catalog, generated.query)
            for generated in service.view(info.view_id).state.queries
        ]
        assert [c.sql for c in compiled] == [
            _GOLDEN_GBCO_SELECT + (_GOLDEN_GBCO_WHERE if index else "") + _GOLDEN_GBCO_ORDER
            for index in range(5)
        ]
        assert [c.params for c in compiled] == [
            [],
            ["first_author_2"],
            ["first_author_2"],
            ["first_author_5"],
            ["first_author_5"],
        ]
        service.close()

    @pytest.mark.parametrize("wrapped", [False, True], ids=["sqlite", "faulty-sqlite"])
    def test_fixture_queries_match_the_golden(self, wrapped):
        # tests/data/compiled_sql.expected.json holds each fixture query and
        # the statement and parameters commit 4ae10ca compiled it to
        # (tests/data/make_compiled_sql.py run against that commit's src/).
        # A fault-injecting wrapper proxies the backend's SQL surface and
        # must compile the same bytes.
        golden = json.loads(
            (Path(__file__).parent / "data" / "compiled_sql.expected.json").read_text()
        )
        backend = SqliteBackend(":memory:")
        if wrapped:
            backend = FaultyBackend(backend, FaultPlan(rules=[]))
        catalog = Catalog(
            [DataSource.build(name, relations) for name, relations in golden["sources"].items()],
            backend=backend,
        )
        for spec in golden["queries"]:
            query = ConjunctiveQuery(provenance=f"fixture-{spec['name']}", cost=1.5)
            for relation, alias in spec["atoms"]:
                query.add_atom(relation, alias)
            for join in spec["joins"]:
                query.add_join(*join)
            for alias, attribute, value in spec["selections"]:
                query.add_selection(alias, attribute, value)
            for alias, attribute, label in spec["outputs"]:
                query.add_output(alias, attribute, label)
            compiled = CompiledQuery(backend, catalog, query)
            assert (compiled.sql, compiled.params) == (spec["sql"], spec["params"]), spec["name"]
        catalog.close()


# ----------------------------------------------------------------------
# Cross-backend parity on the fig6 / fig8 fixture replays
# ----------------------------------------------------------------------
def _gbco_replay(kind, dataset, trial):
    """One fig6-style replay: view answers, then a registration, per backend."""
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

        first = QService(
            sources=[clone_source(s) for s in _mini_sources()],
            backend=f"sqlite:{db_path}",
        )
        first.bootstrap_alignments()
        info = first.create_view(QueryRequest(keywords=keywords))
        original = answer_fingerprint(first.view(info.view_id).answers())
        first.close()

        # Reference run on plain memory: the reopened catalog must agree.
        reference_service = QService(sources=[clone_source(s) for s in _mini_sources()])
        reference_service.bootstrap_alignments()
        ref_info = reference_service.create_view(QueryRequest(keywords=keywords))
        reference = answer_fingerprint(
            reference_service.view(ref_info.view_id).answers()
        )

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

    def test_registry_spellings(self):
        for spelling in ("postgres", "postgres:dbname=repro", "bogus"):
            with pytest.raises(StorageError, match="valid backends: memory, sqlite$"):
                create_backend(spelling)

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
# The exact selection form: parameterized, index-servable
# ----------------------------------------------------------------------
class TestParameterizedSqlgen:
    def test_exact_dialect_equals_is_index_servable(self):
        # equals must render as repro_canon(col) = ? — the shape SQLite can
        # serve from the backend's repro_canon(col) expression indexes —
        # with the needle pre-canonicalized, not as an opaque function call.
        params = []
        condition = exact_condition(" GO:0003 ", '"t"."acc"', params)
        assert condition == 'repro_canon("t"."acc") = ?'
        assert params == ["GO:0003"]

    def test_equals_pushdown_uses_expression_index(self):
        catalog = Catalog(_mini_sources(), backend=SqliteBackend(":memory:"))
        backend = catalog.backend
        query = ConjunctiveQuery(cost=0.5)
        query.add_atom("go.term", "t")
        query.add_selection("t", "acc", "GO:0001")
        assert len(SqlPushdown(backend).execute(catalog, query)) == 1
        plan = backend.execute_sql(
            'EXPLAIN QUERY PLAN SELECT * FROM "go.term" '
            'WHERE repro_canon("c_acc") = ?',
            ["GO:0001"],
        )
        assert any("USING INDEX" in str(row) for row in plan), plan
        backend.close()


# ----------------------------------------------------------------------
# Pushed-down joins run on indexes
# ----------------------------------------------------------------------
class TestExplainQueryPlan:
    def _explain(self, backend, sql, params):
        return "\n".join(
            str(row[-1]) for row in backend.execute_sql("EXPLAIN QUERY PLAN " + sql, params)
        )

    def test_pushed_down_join_uses_canon_expression_indexes(self):
        backend = SqliteBackend(":memory:")
        catalog = Catalog([clone_source(s) for s in _mini_sources()], backend=backend)
        # Compiling creates the on-demand repro_canon(...) indexes on the
        # join columns.
        compiled = CompiledQuery(backend, catalog, _make_query())
        plan = self._explain(backend, compiled.sql, compiled.params)
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
        compiled = CompiledQuery(backend, catalog, query)
        plan = self._explain(backend, compiled.sql, compiled.params)
        assert "USING INDEX ix_" in plan and "(<expr>=?)" in plan, plan
        backend.close()


# ----------------------------------------------------------------------
# Postings have one home: the in-memory shards, rebuilt once after an open
# ----------------------------------------------------------------------
#: The two durable-session flavours: a memory catalog saved to a JSON
#: sidecar, and a SQLite catalog whose database hosts the session tables.
SESSION_KINDS = ("memory", "sqlite")


class TestPostingStore:
    """Where postings are stored: in memory only, on either backend.

    A live index installs them eagerly; a reopened session restores the
    profiles and rebuilds every posting once, on the first posting read.
    Nothing about them is written to the catalog database.
    """

    @staticmethod
    def _saved_session(kind, home):
        """Build, save and close one InterPro session; returns where it reopens from."""
        if kind == "memory":
            save_path = home / "session.json"
            service, view, info = interpro_view(MemoryBackend())
            where = {"path": save_path, "backend": MemoryBackend()}
        else:
            save_path = None  # the session tables live in the catalog database
            where = {"path": home / "catalog.db"}
            service, view, info = interpro_view(SqliteBackend(where["path"]))
        cold = answer_fingerprint(view.answers())
        assert service.stats().posting_builds == 0, "a live index installs eagerly"
        service.save(save_path)
        service.close()
        return where, info, cold

    @staticmethod
    def _overlapping_request(service):
        """A new source sharing interpro's entry accessions, value-filtered.

        The overlap makes the value-filtered alignment read the candidate
        postings of the new attributes.
        """
        donor = service.catalog.relation("interpro.entry")
        accs = [row.values[0] for row in donor.scan()][:8]
        source = DataSource.build(
            "extra",
            {"entry_notes": ["entry_ac", "note"]},
            data={"entry_notes": [(acc, f"note-{i}") for i, acc in enumerate(accs)]},
        )
        return RegisterSourceRequest(
            source=source,
            strategy="exhaustive",
            matcher=ValueOverlapMatcher(min_confidence=0.5, min_shared_values=2),
            value_filter=True,
        )

    @staticmethod
    def _registration_outcome(service, response):
        """What a registration decided, plus the postings it decided it from."""
        alignment = response.alignment
        touched = {("extra.entry_notes", "entry_ac"), ("extra.entry_notes", "note")}
        touched.update(
            (c.target.relation, c.target.attribute) for c in alignment.correspondences
        )
        return (
            correspondence_fingerprint(alignment.correspondences),
            [edge.edge_id for edge in alignment.edges_added],
            {
                attr: sorted(service.profile_index.value_candidates(*attr).items())
                for attr in sorted(touched)
            },
        )

    def test_warm_open_skips_the_posting_rebuild(self, tmp_path):
        for kind in SESSION_KINDS:
            home = tmp_path / kind
            home.mkdir()
            where, info, cold = self._saved_session(kind, home)
            reopened = QService.open(**where)
            assert reopened.stats().backend == kind
            # Opening restores profiles only...
            assert reopened.stats().posting_builds == 0, kind
            warm = answer_fingerprint(reopened.view(info.view_id).answers())
            assert warm == cold and warm, kind
            streamed = answer_fingerprint(
                reopened.stream_answers(QueryRequest(view=info.view_id))
            )
            assert streamed == cold, kind
            # ...and a full read of a saved view needs no posting at all.
            assert reopened.stats().posting_builds == 0, kind
            reopened.close()

    def test_registration_after_warm_open_stays_correct(self, tmp_path):
        # The first posting read after an open rebuilds every posting from
        # the restored profiles, exactly once; what registration then
        # decides equals a twin session that never closed, on both backends.
        outcomes = {}
        for kind in SESSION_KINDS:
            home = tmp_path / kind
            home.mkdir()
            where, _, _ = self._saved_session(kind, home)
            reopened = QService.open(**where)
            twin, _, _ = interpro_view(make_backend(kind))
            by_session = {}
            for label, service in (("reopened", reopened), ("twin", twin)):
                assert service.stats().posting_builds == 0, (kind, label)
                response = service.register_source(self._overlapping_request(service))
                assert response.attribute_comparisons > 0, (kind, label)
                assert response.alignment.correspondences, (kind, label)
                by_session[label] = self._registration_outcome(service, response)
            assert reopened.stats().posting_builds == 1, kind
            assert twin.stats().posting_builds == 0, kind
            assert by_session["reopened"] == by_session["twin"], kind
            # A second registration finds the postings installed.
            again = make_community_source("late", community=0, seed=5)
            reopened.register_source(
                RegisterSourceRequest(
                    source=again, strategy="profile_blocked", value_filter=True
                )
            )
            assert reopened.stats().posting_builds == 1, kind
            outcomes[kind] = by_session["reopened"]
            reopened.close()
            twin.close()
        assert outcomes["memory"] == outcomes["sqlite"]

    def test_a_registration_writes_what_it_ingests(self):
        # Rows changed in the database by one registration — counted by
        # SQLite itself — do not depend on how large the catalog already is.
        def rows_written(catalog_sources):
            backend = SqliteBackend(":memory:")
            service = QService(
                sources=[
                    make_community_source(f"src{i:03d}", community=i % 4, seed=i)
                    for i in range(catalog_sources)
                ],
                backend=backend,
            )
            before = backend.execute_sql("SELECT total_changes()")[0][0]
            response = service.register_source(
                RegisterSourceRequest(
                    source=make_community_source("newcomer", community=1, seed=999),
                    strategy="profile_blocked",
                    value_filter=True,
                )
            )
            assert response.edges_added > 0
            written = backend.execute_sql("SELECT total_changes()")[0][0] - before
            service.close()
            return written

        small, large = rows_written(20), rows_written(200)
        assert small == large
        # 20 ingested rows, its relation key, its source schema.
        assert small == 22

    def test_database_with_leftover_posting_tables_opens(self, tmp_path):
        # A database written before the posting tables were dropped still
        # carries them; they were never catalog relations, so they are
        # invisible and left alone.
        db = tmp_path / "catalog.db"
        service, view, info = interpro_view(SqliteBackend(db))
        cold = answer_fingerprint(view.answers())
        relations = [t.schema.qualified_name for t in service.catalog.all_tables()]
        service.save()
        service.close()

        leftovers = (
            "_repro_postings_meta",
            "_repro_postings_values",
            "_repro_postings_tokens",
            "_repro_postings_tfidf",
        )
        connection = sqlite3.connect(db)
        with connection:
            connection.execute(
                "CREATE TABLE _repro_postings_meta "
                "(key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE _repro_postings_values "
                "(value TEXT NOT NULL, relation TEXT NOT NULL, attribute TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE _repro_postings_tokens "
                "(token TEXT NOT NULL, relation TEXT NOT NULL, attribute TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE _repro_postings_tfidf "
                "(relation TEXT NOT NULL, attribute TEXT NOT NULL, token TEXT NOT NULL, "
                "weight REAL NOT NULL, PRIMARY KEY (relation, attribute, token))"
            )
            connection.execute(
                "CREATE INDEX ix_repro_postings_values_value "
                "ON _repro_postings_values (value)"
            )
            connection.execute(
                "INSERT INTO _repro_postings_meta VALUES ('epoch', 3), ('attribute_count', 9)"
            )
            connection.execute(
                "INSERT INTO _repro_postings_values VALUES ('IPR000001', 'interpro.entry', 'entry_ac')"
            )
        connection.close()

        reopened = QService.open(db)
        assert [
            t.schema.qualified_name for t in reopened.catalog.all_tables()
        ] == relations
        assert not set(leftovers) & set(reopened.catalog.backend.relation_keys())
        warm = answer_fingerprint(reopened.view(info.view_id).answers())
        assert warm == cold and warm
        response = reopened.register_source(self._overlapping_request(reopened))
        assert response.alignment.correspondences
        assert reopened.catalog.has_source("extra")
        reopened.save()
        reopened.close()
        # The leftovers are exactly as they were found.
        connection = sqlite3.connect(db)
        tables = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert set(leftovers) <= tables
        assert connection.execute(
            "SELECT COUNT(*) FROM _repro_postings_values"
        ).fetchone() == (1,)
        connection.close()


# ----------------------------------------------------------------------
# The SQLite row model on its own
# ----------------------------------------------------------------------
class TestSqliteRowModel:
    """What the ``_tags`` codec, ingest and catalog metadata promise,
    driven on the backend directly rather than through a catalog."""

    def test_contract_smoke(self):
        backend = SqliteBackend(":memory:")
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
        with pytest.raises(StorageError):
            backend.insert_rows("s.r", [("wrong-arity",)])
        assert backend.row_count("s.r") == 4, "failed batch must roll back"
        backend.drop_relation("s.r")
        assert not backend.has_relation("s.r")
        backend.close()
        assert backend.closed

    def test_source_schema_persistence(self):
        backend = SqliteBackend(":memory:")
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


# ----------------------------------------------------------------------
# The pushdown counters surface in SystemStats
# ----------------------------------------------------------------------
class TestStatsCounters:
    @pytest.mark.memory_engine_internals
    def test_counters_stay_zero_on_memory(self):
        service, _, info = interpro_view(None)
        list(service.stream_answers(QueryRequest(view=info.view_id)))
        stats = service.stats()
        assert stats.pushdown_queries == 0
        assert stats.pushdown_scans == 0
        assert stats.posting_builds == 0
        service.close()
