"""Edge cases of the ranked disjoint union and the incremental view refresh."""

from __future__ import annotations

import pytest

from repro.core import QSystem, QSystemConfig, RankedView
from repro.datastore import Catalog, DataSource
from repro.datastore.query import ConjunctiveQuery
from repro.engine.executor import PlanExecutor
from repro.graph import QueryGraphBuilder, SearchGraph

from reference_executor import ReferenceExecutor


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
        answers = PlanExecutor(mini_catalog).execute_union([query])
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
        answers = PlanExecutor(mini_catalog).execute_union([expensive, cheap])
        columns = set(answers[0].values.keys())
        assert columns == {"name"}
        assert all(a.values["name"] is not None for a in answers)

    def test_empty_sub_results_still_contribute_columns(self, mini_catalog):
        # A query with no matching rows must not derail the unified schema.
        empty = ConjunctiveQuery(cost=0.5, provenance="empty")
        empty.add_atom("go.term", "t")
        empty.add_selection("t", "acc", "GO:9999", mode="equals")
        empty.add_output("t", "acc", "missing_acc")
        full = term_query(1.0, "full")
        answers = PlanExecutor(mini_catalog).execute_union([empty, full])
        assert len(answers) == 3  # only the full query produced tuples
        # The empty query's column is part of the unified schema, padded.
        assert all("missing_acc" in a.values for a in answers)
        assert all(a["missing_acc"] is None for a in answers)

    def test_all_sub_results_empty(self, mini_catalog):
        empty = ConjunctiveQuery(cost=0.5, provenance="empty")
        empty.add_atom("go.term", "t")
        empty.add_selection("t", "acc", "GO:9999", mode="equals")
        assert PlanExecutor(mini_catalog).execute_union([empty]) == []

    def test_no_queries(self, mini_catalog):
        assert PlanExecutor(mini_catalog).execute_union([]) == []

    def test_limit_keeps_cheapest_answers(self, mini_catalog):
        cheap = term_query(1.0, "cheap")
        expensive = term_query(9.0, "expensive")
        answers = PlanExecutor(mini_catalog).execute_union([expensive, cheap], limit=3)
        assert len(answers) == 3
        assert all(a.cost == 1.0 for a in answers)
        assert all(a.provenance.query_id == "cheap" for a in answers)

    def test_limit_zero(self, mini_catalog):
        assert PlanExecutor(mini_catalog).execute_union([term_query(1.0, "q")], limit=0) == []

    def test_disjoint_union_pads_with_none(self, mini_catalog):
        terms = term_query(1.0, "terms")
        pubs = ConjunctiveQuery(cost=2.0, provenance="pubs")
        pubs.add_atom("interpro.pub", "p")
        pubs.add_output("p", "title", "title")
        answers = PlanExecutor(mini_catalog).execute_union([terms, pubs])
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
    return QSystem(sources=[go, interpro])


class TestIncrementalRefresh:
    def _view(self) -> RankedView:
        system = _mini_system()
        system.graph.add_association("go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9})
        view = system.create_view(["membrane", "IPR001"])
        return view

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

    def test_invalidate_cache_forces_solver_and_execution(self):
        view = self._view()
        view.invalidate_cache()
        state = view.refresh()
        stats = view.last_refresh
        assert stats.solver_runs == 1
        assert stats.queries_executed == len(state.queries)

    def test_learning_hook_notifies_views(self):
        system = _mini_system()
        system.graph.add_association("go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9})
        view = system.create_view(["membrane", "IPR001"])
        assert view.state.answers, "view should produce answers"
        answer = view.state.answers[0]
        system.give_feedback(view, answer)
        # The learner ran and the views were refreshed through the hook path.
        assert system.feedback_log.events
        assert view.last_refresh.solver_runs == 1

    def test_registration_invalidates_view_caches(self):
        system = _mini_system()
        system.graph.add_association("go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9})
        view = system.create_view(["membrane", "IPR001"])
        generation = system.engine_context.generation
        new_source = DataSource.build(
            "extra",
            {"facts": ["go_acc", "note"]},
            data={"facts": [{"go_acc": "GO:0001", "note": "liver"}]},
        )
        system.register_source(new_source, strategy="exhaustive")
        assert system.engine_context.generation > generation
        # The refresh after registration re-executed (caches were dropped).
        assert view.last_refresh.queries_executed == len(view.state.queries)

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
        # scratch union of the same queries through the reference executor.
        view = self._view()
        view.refresh()
        reference = ReferenceExecutor(view.catalog)
        expected = reference.execute_union(
            [g.query for g in view.state.queries], limit=view.answer_limit
        )
        got = view.state.answers
        assert [(a.values, a.cost) for a in got] == [(a.values, a.cost) for a in expected]
