"""Edge cases of the ranked disjoint union, its pagination and the incremental view refresh."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FeedbackRequest, QService, QueryRequest, RegisterSourceRequest
from repro.core import RankedView
from repro.datastore import Catalog, DataSource
from repro.datastore.query import ConjunctiveQuery
from repro.engine.context import ExecutionContext
from repro.engine.executor import PlanExecutor, ranked_union
from repro.exceptions import QueryError
from repro.faults.budget import Budget
from repro.graph import QueryGraphBuilder, SearchGraph
from repro.graph.features import edge_feature
from repro.learning import AnnotationKind

from reference_executor import ReferenceExecutor
from test_storage_backends import (
    _mini_sources,
    answer_fingerprint,
    clone_source,
    distinct_contents,
    fresh_context,
    interpro_view,
    make_backend,
    union,
)

#: The ranked union, its pages and its cache are the same code on every
#: backend; only what executes a cache-missing query differs.
VIEW_BACKENDS = ("memory", "sqlite")


def term_query(cost: float, provenance: str) -> ConjunctiveQuery:
    query = ConjunctiveQuery(cost=cost, provenance=provenance)
    query.add_atom("go.term", "t")
    query.add_output("t", "acc", "acc")
    query.add_output("t", "name", "name")
    return query


class TestUnionColumnAlignment:
    def test_conflicting_labels_within_one_query_stay_distinct(self, mini_catalog):
        # Two outputs of ONE query whose labels are compatible with each
        # other must not collapse onto the same unified column.
        query = ConjunctiveQuery(cost=1.0, provenance="q")
        query.add_atom("interpro.entry", "e")
        query.add_output("e", "name", "name")
        query.add_output("e", "entry_ac", "e.name")  # compatible with "name"
        answers = union(mini_catalog, [query])
        columns = set(answers[0].values.keys())
        assert columns == {"name", "e.name"}
        for answer in answers:
            assert answer["name"] != answer["e.name"]

    def test_compatible_labels_across_queries_share_a_column(self, mini_catalog):
        cheap = ConjunctiveQuery(cost=1.0, provenance="a")
        cheap.add_atom("go.term", "t")
        cheap.add_output("t", "name", "name")
        expensive = ConjunctiveQuery(cost=2.0, provenance="b")
        expensive.add_atom("interpro.entry", "e")
        expensive.add_output("e", "name", "e.name")  # trailing name matches
        answers = union(mini_catalog, [expensive, cheap])
        columns = set(answers[0].values.keys())
        assert columns == {"name"}
        assert all(a.values["name"] is not None for a in answers)

    def test_empty_sub_results_still_contribute_columns(self, mini_catalog):
        # A query with no matching rows must not derail the unified schema.
        empty = ConjunctiveQuery(cost=0.5, provenance="empty")
        empty.add_atom("go.term", "t")
        empty.add_selection("t", "acc", "GO:9999")
        empty.add_output("t", "acc", "missing_acc")
        full = term_query(1.0, "full")
        answers = union(mini_catalog, [empty, full])
        assert len(answers) == 3  # only the full query produced tuples
        # The empty query's column is part of the unified schema, padded.
        assert all("missing_acc" in a.values for a in answers)
        assert all(a["missing_acc"] is None for a in answers)

    def test_all_sub_results_empty(self, mini_catalog):
        empty = ConjunctiveQuery(cost=0.5, provenance="empty")
        empty.add_atom("go.term", "t")
        empty.add_selection("t", "acc", "GO:9999")
        assert union(mini_catalog, [empty]) == []

    def test_no_queries(self, mini_catalog):
        assert union(mini_catalog, []) == []

    def test_limit_keeps_cheapest_answers(self, mini_catalog):
        cheap = term_query(1.0, "cheap")
        expensive = term_query(9.0, "expensive")
        answers = union(mini_catalog, [expensive, cheap], limit=3)
        assert len(answers) == 3
        assert all(a.cost == 1.0 for a in answers)
        assert all(a.provenance.query_id == "cheap" for a in answers)

    def test_limit_zero(self, mini_catalog):
        assert union(mini_catalog, [term_query(1.0, "q")], limit=0) == []

    def test_disjoint_union_pads_with_none(self, mini_catalog):
        terms = term_query(1.0, "terms")
        pubs = ConjunctiveQuery(cost=2.0, provenance="pubs")
        pubs.add_atom("interpro.pub", "p")
        pubs.add_output("p", "title", "title")
        answers = union(mini_catalog, [terms, pubs])
        columns = {"acc", "name", "title"}
        for answer in answers:
            assert set(answer.values.keys()) == columns
            if answer.provenance.query_id == "terms":
                assert answer["title"] is None
            else:
                assert answer["acc"] is None and answer["name"] is None


def _mini_system():
    go = DataSource.build(
        "go",
        {"term": ["acc", "name"]},
        data={
            "term": [
                {"acc": "GO:0001", "name": "plasma membrane"},
                {"acc": "GO:0002", "name": "nucleus"},
            ]
        },
    )
    interpro = DataSource.build(
        "interpro",
        {"interpro2go": ["go_id", "entry_ac"]},
        data={
            "interpro2go": [
                {"go_id": "GO:0001", "entry_ac": "IPR001"},
                {"go_id": "GO:0002", "entry_ac": "IPR002"},
            ]
        },
    )
    return QService(sources=[go, interpro])


def _create_view(system: QService, keywords) -> RankedView:
    return system.view(system.create_view(keywords).view_id)


class TestIncrementalRefresh:
    def _system_and_view(self):
        system = _mini_system()
        system.graph.add_association("go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9})
        return system, _create_view(system, ["membrane", "IPR001"])

    def _view(self) -> RankedView:
        return self._system_and_view()[1]

    def test_refresh_reuses_unchanged_trees(self):
        view = self._view()
        first = view.last_refresh
        assert first.queries_executed >= 1
        state_before = view.state.answers
        second_state = view.refresh()
        second = view.last_refresh
        # Nothing changed: the solver is skipped and every query is reused.
        assert second.solver_runs == 0
        assert second.queries_executed == 0
        assert second.queries_reused == len(second_state.queries)
        assert [a.values for a in second_state.answers] == [a.values for a in state_before]

    def test_weight_change_resolves_but_reuses_answers(self):
        view = self._view()
        graph = view.query_graph.graph
        # Nudge a learnable edge cost: trees must be re-solved, but the
        # joined tuples are unchanged so cached answers are replayed.
        from repro.graph.features import edge_feature

        edge = next(iter(graph.association_edges()))
        graph.weights.set(edge_feature(edge.edge_id), 0.25)
        state = view.refresh()
        stats = view.last_refresh
        assert stats.solver_runs == 1
        assert stats.queries_executed == 0
        assert stats.queries_reused == len(state.queries)
        # Costs were re-stamped onto the reused answers.
        for answer in state.answers:
            assert answer.provenance.query_cost == answer.cost

    def test_table_mutation_forces_re_execution(self):
        view = self._view()
        view.catalog.relation("go.term").append({"acc": "GO:0003", "name": "membrane transport"})
        view.refresh()
        stats = view.last_refresh
        assert stats.queries_executed >= 1

    def test_rebuild_resolves_fresh_context_executes(self):
        system, view = self._system_and_view()
        # A re-expansion re-solves, and its queries replay: same contents,
        # same tables.
        view.rebuild_query_graph()
        state = view.refresh()
        stats = view.last_refresh
        assert stats.solver_runs == 1
        assert stats.queries_executed == 0
        assert stats.queries_reused == len(state.queries) > 0
        # Only a context that never executed them executes them again.
        fresh_context(system)
        view.refresh()
        assert view.last_refresh.solver_runs == 0
        assert view.last_refresh.queries_executed == distinct_contents(view)

    def test_feedback_that_moves_a_weight_re_solves_the_pulled_view(self):
        system, view = self._system_and_view()
        # The association priced below the positivity margin: the learner's
        # QP lifts it, so the step moves a weight.
        edge = next(iter(view.query_graph.graph.association_edges()))
        system.graph.weights.set(edge_feature(edge.edge_id), -3.0)
        view.refresh()
        version = system.graph.weights.version
        response = system.feedback(FeedbackRequest(view=view, answer=view.state.answers[0]))
        system.view_info(view)
        # The learner ran and the pulled view re-solved under the new costs.
        assert system.feedback_log.events
        assert response.weight_change > 0 and system.graph.weights.version > version
        assert view.last_refresh.solver_runs == 1

    def test_feedback_that_moves_no_weight_leaves_the_view_solved(self):
        system, view = self._system_and_view()
        assert view.state.answers, "view should produce answers"
        version, key = system.graph.weights.version, view._solve_key()
        # The one tree already beats every candidate: its QP moves nothing.
        response = system.feedback(FeedbackRequest(view=view, answer=view.state.answers[0]))
        system.view_info(view)
        assert system.feedback_log.events and response.weight_change == 0.0
        assert (system.graph.weights.version, view._solve_key()) == (version, key)
        assert view.last_refresh.solver_runs == 0

    def test_registration_executes_only_new_contents(self):
        system, view = self._system_and_view()
        before = {g.key for g in view.state.queries}
        new_source = DataSource.build(
            "extra",
            {"facts": ["go_acc", "note"]},
            data={"facts": [{"go_acc": "GO:0001", "note": "liver"}]},
        )
        system.register_source(RegisterSourceRequest(source=new_source, strategy="exhaustive"))
        replayed = answer_fingerprint(view.refresh().answers)
        # The rebuilt view re-solved; only queries no read ever executed ran.
        assert view.last_refresh.solver_runs == 1
        after = {g.key for g in view.state.queries}
        assert view.last_refresh.queries_executed == len(after - before)
        fresh_context(system)
        assert answer_fingerprint(view.refresh().answers) == replayed

    def test_replaced_source_with_coinciding_version_not_served_stale(self):
        # remove_source + add_source under the same name creates new Table
        # objects whose version counters can coincide with the old ones';
        # identity (not just version) must gate answer-cache reuse.
        view = self._view()
        old = [a.values for a in view.state.answers]
        assert old, "view should have answers"
        catalog = view.catalog
        replacement = DataSource.build(
            "go",
            {"term": ["acc", "name"]},
            data={
                "term": [
                    {"acc": "GO:0001", "name": "plasma membrane EDITED"},
                    {"acc": "GO:0002", "name": "nucleus EDITED"},
                ]
            },
        )
        catalog.remove_source("go")
        catalog.add_source(replacement)
        state = view.refresh()
        # The cache must miss (tables were replaced) and the re-executed
        # queries must not resurface the old table's tuples: the view's
        # selection predicate ("plasma membrane", from the old value node)
        # no longer matches anything in the replacement data.
        assert view.last_refresh.queries_reused == 0
        assert view.last_refresh.queries_executed >= 1
        names = {a.values.get("name") for a in state.answers}
        assert "plasma membrane" not in names

    def test_refresh_answers_match_seed_union_semantics(self):
        # The incremental path (cache + ranked_union) must equal a from-
        # scratch union of the same queries through the reference executor:
        # cold, and when every query's rows replay under the costs a
        # re-solve gave its tree.
        view = self._view()
        view.refresh()
        for replayed in (False, True):
            if replayed:
                graph = view.query_graph.graph
                for edge in graph.association_edges():
                    graph.weights.set(edge_feature(edge.edge_id), 0.25)
                view.refresh()
                assert view.last_refresh.solver_runs == 1
                assert view.last_refresh.queries_executed == 0
            reference = ReferenceExecutor(view.catalog)
            expected = reference.execute_union(
                [g.query for g in view.state.queries], limit=view.answer_limit
            )
            got = view.state.answers
            assert [(a.values, a.cost) for a in got] == [(a.values, a.cost) for a in expected]
            assert answer_fingerprint(got) == answer_fingerprint(expected)


# ----------------------------------------------------------------------
# Stable tie order of the merge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", VIEW_BACKENDS)
def test_python_merge_keeps_query_then_emission_order(kind):
    # The k-way merge must reproduce the stable sort: ascending cost, equal
    # costs in query order, then emission order.
    first = ConjunctiveQuery(provenance="tree-a", cost=1.0)
    first.add_atom("go.term", "t")
    first.add_output("t", "name", "label")
    second = ConjunctiveQuery(provenance="tree-b", cost=1.0)
    second.add_atom("interpro.interpro2go", "i")
    second.add_output("i", "entry_ac", "label")
    third = ConjunctiveQuery(provenance="tree-c", cost=0.5)
    third.add_atom("go.term", "u")
    third.add_output("u", "acc", "label")
    catalog = Catalog(
        [clone_source(s) for s in _mini_sources()], backend=make_backend(kind)
    )
    executor = PlanExecutor(catalog)
    merged = list(ranked_union((first, second, third), executor.execute, catalog))
    costs = [a.cost for a in merged]
    assert costs == sorted(costs)
    # All cost-1.0 answers: every tree-a answer precedes every tree-b
    # answer (query order), each block in its own emission order.
    tied = [a.provenance.query_id for a in merged if a.cost == 1.0]
    assert tied == sorted(tied, key=lambda q: q != "tree-a")
    assert "tree-a" in tied and "tree-b" in tied
    catalog.close()


# ----------------------------------------------------------------------
# Pagination edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", VIEW_BACKENDS)
class TestPaginationEdges:
    def test_offset_past_last_answer_is_empty(self, kind):
        service, view, _ = interpro_view(make_backend(kind))
        total = len(view.answers())
        assert view.answers_page(limit=5, offset=total) == []
        assert view.answers_page(limit=5, offset=total + 100) == []
        service.close()

    def test_limit_zero_and_negative_offset_rejected(self, kind):
        service, view, _ = interpro_view(make_backend(kind))
        with pytest.raises(QueryError):
            view.answers_page(limit=0)
        with pytest.raises(QueryError):
            view.answers_page(limit=-3)
        with pytest.raises(QueryError):
            view.answers_page(limit=1, offset=-1)
        service.close()

    def test_offset_never_reaches_past_answer_limit_cap(self, kind):
        # The view's answer_limit caps the union; a window starting at the
        # cap must be empty even if more joined tuples exist beneath it.
        service, view, _ = interpro_view(make_backend(kind), answer_limit=3)
        assert len(view.answers()) == 3
        assert view.answers_page(limit=5, offset=3) == []
        assert len(view.answers_page(limit=5, offset=2)) == 1
        service.close()

    def test_single_answer_pages_tile_the_tie_region(self, kind):
        # Cost ties must paginate deterministically: limit=1 pages, read in
        # any order, tile the full list exactly (row-id tie-break).
        service, view, _ = interpro_view(make_backend(kind))
        full = view.answers()
        assert len({a.cost for a in full}) < len(full), "no ties — vacuous"
        for offset in reversed(range(len(full))):
            page = view.answers_page(limit=1, offset=offset)
            assert answer_fingerprint(page) == answer_fingerprint(
                [full[offset]]
            ), f"tie region unstable at offset {offset}"
        service.close()

    def test_mid_stream_publish_is_picked_up_by_the_next_read(self, kind):
        # A table mutation landing after the first pulled answer neither
        # breaks the started stream nor goes stale: the version bump misses
        # the answer cache, so the next read re-executes.
        service, view, info = interpro_view(make_backend(kind))
        expected = answer_fingerprint(view.answers())
        fresh_context(service)
        stream = service.stream_answers(QueryRequest(view=info.view_id))
        got = [next(stream)]
        relation = view.state.queries[0].query.atoms[0].relation
        table = service.catalog.relation(relation)
        arity = len(table.schema.attribute_names)
        # Joins and matches nothing, so the answers themselves do not move.
        table.append(tuple(f"published-{i}" for i in range(arity)))
        got.extend(stream)
        assert answer_fingerprint(got) == expected
        executed = view.last_refresh.queries_executed
        assert answer_fingerprint(view.refresh().answers) == expected
        # The query pulled before the mutation was cached at the old version,
        # so its content executes again: later in that stream (another tree
        # generating it) or in the next read.
        assert executed + view.last_refresh.queries_executed > distinct_contents(view)
        service.close()


# ----------------------------------------------------------------------
# A view read once is paged and re-read without executing anything
# ----------------------------------------------------------------------
class TestCachedUnionServesPagesAndRereads:
    def _counting(self, service, monkeypatch):
        """Count every ``execute_sql`` read the session issues from now on."""
        backend = service.catalog.backend
        calls = []
        original = backend.execute_sql

        def counted(sql, parameters=()):
            calls.append(sql)
            return original(sql, parameters)

        monkeypatch.setattr(backend, "execute_sql", counted)
        return calls

    def test_paging_and_rereading_issue_no_sql(self, monkeypatch):
        service, view, info = interpro_view(make_backend("sqlite"))
        request = QueryRequest(view=info.view_id)
        full = list(service.stream_answers(request))
        assert len(full) >= 4
        pushed = service.stats().pushdown_queries
        # Two of the view's trees generate the same query: it ran once.
        assert pushed == distinct_contents(view) < len(view.state.queries)
        calls = self._counting(service, monkeypatch)
        for offset in range(0, len(full) + 2, 2):
            page = service.answers_page(
                QueryRequest(view=info.view_id, page_size=2, offset=offset)
            )
            assert answer_fingerprint(page) == answer_fingerprint(
                full[offset : offset + 2]
            ), f"page at offset {offset} is not a slice of the union"
        assert answer_fingerprint(service.stream_answers(request)) == answer_fingerprint(full)
        assert answer_fingerprint(view.answers()) == answer_fingerprint(full)
        assert calls == []
        assert service.stats().pushdown_queries == pushed
        assert view.last_refresh.queries_executed == 0
        service.close()

    def test_feedback_executes_only_new_signatures(self):
        service, view, info = interpro_view(make_backend("sqlite"))
        request = QueryRequest(view=info.view_id)
        answers = list(service.stream_answers(request))
        before = {g.signature for g in view.state.queries}
        pushed = service.stats().pushdown_queries
        # Demote the best query's tree below the k-th: the solve after the
        # MIRA step swaps trees in and out of the top k.
        best = answers[0]
        worse = next(
            a for a in reversed(answers)
            if a.provenance.query_id != best.provenance.query_id
        )
        service.feedback(
            FeedbackRequest(
                view=info.view_id,
                answer=worse,
                kind=AnnotationKind.PREFERRED_OVER,
                other=best,
            )
        )
        list(service.stream_answers(request))
        after = {g.signature for g in view.state.queries}
        new = after - before
        assert 0 < len(new) < len(after), "no tree swapped or none kept — vacuous"
        assert service.stats().pushdown_queries == pushed + len(new)
        assert view.last_refresh.queries_executed == len(new)
        assert view.last_refresh.queries_reused == len(after) - len(new)
        service.close()


# ----------------------------------------------------------------------
# Cache differential: rows replayed under another tree equal a cold execution
# ----------------------------------------------------------------------
#: Cell values the two targets must decode alike: canonically equal strings,
#: a null, booleans (a tag on SQLite) and numbers.
_CELLS = st.sampled_from(["GO:1", " GO:1 ", "GO:2", "plasma membrane", "membrane", None, True, False, 7, 2.5])
_ROWS = st.lists(st.tuples(_CELLS, _CELLS), max_size=5)
_COLUMNS = (("t", "acc"), ("t", "name"), ("i", "go_id"), ("i", "entry_ac"))


@st.composite
def _query_contents(draw):
    """One query's content over go.term ``t`` (and interpro.interpro2go ``i``),
    as a builder taking the cost and id of the tree that generated it."""
    linked = draw(st.booleans())
    joined = linked and draw(st.booleans())
    selection = draw(st.none() | st.sampled_from(["membrane", "GO:1", " plasma membrane ", 7]))
    columns = [c for c in _COLUMNS if linked or c[0] == "t"]
    # Repeated labels keep their first position and their last value.
    outputs = draw(
        st.lists(st.tuples(st.sampled_from(columns), st.sampled_from([None, "x"])), max_size=4)
    )

    def build(cost: float, provenance: str) -> ConjunctiveQuery:
        query = ConjunctiveQuery(cost=cost, provenance=provenance)
        query.add_atom("go.term", "t")
        if linked:
            query.add_atom("interpro.interpro2go", "i")
        if joined:
            query.add_join("t", "acc", "i", "go_id")
        if selection is not None:
            query.add_selection("t", "name", selection)
        for (alias, attribute), label in outputs:
            query.add_output(alias, attribute, label)
        return query

    return build


def _full_fingerprint(answers):
    """``answer_fingerprint`` plus the whole provenance object."""
    answers = list(answers)
    return answer_fingerprint(answers), [a.provenance for a in answers]


@pytest.mark.parametrize("kind", VIEW_BACKENDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    terms=_ROWS,
    links=_ROWS,
    build=_query_contents(),
    trees=st.lists(
        st.tuples(st.sampled_from([0.5, 1.0, 2.5]), st.sampled_from(["tree-a", "tree-b", ""])),
        min_size=2,
        max_size=2,
    ),
)
def test_replayed_rows_equal_a_cold_execution(kind, terms, links, build, trees):
    # A query's rows, executed for one tree and replayed from the context
    # for another tree's cost and id, build the answers a cold execution
    # for that other tree builds: values, column order, cost, provenance and
    # answer order, inside a union with a second query.
    sources = [
        DataSource.build("go", {"term": ["acc", "name"]}, data={"term": terms}),
        DataSource.build("interpro", {"interpro2go": ["go_id", "entry_ac"]}, data={"interpro2go": links}),
    ]
    catalog = Catalog(sources, backend=make_backend(kind))
    executed, reader = build(*trees[0]), build(*trees[1])
    other = term_query(1.0, "other")
    context = ExecutionContext(catalog)
    rows = PlanExecutor(catalog, context).execute(executed)
    context.remember_answers("content", context.table_reads(executed), rows)
    replayed = context.recall_answers("content", context.table_reads(reader))
    assert replayed is not None
    cold = PlanExecutor(catalog, ExecutionContext(catalog))
    other_rows = cold.execute(other)
    got = ranked_union([reader, other], lambda q: replayed if q is reader else other_rows, catalog)
    expected = ranked_union([reader, other], cold.execute, catalog)
    assert _full_fingerprint(got) == _full_fingerprint(expected)
    assert answer_fingerprint(ranked_union([reader], cold.execute, catalog)) == answer_fingerprint(
        ReferenceExecutor(catalog).execute(reader)
    )
    if kind == "sqlite":
        # The SQL target and the Python target (a budgeted read) return
        # equal rows for the same query.
        pushed = cold.context.statistics.pushdown_queries
        assert cold.execute(reader) == cold.execute(reader, budget=Budget(3600.0))
        assert cold.context.statistics.pushdown_queries == pushed + 1
    catalog.close()
