"""Unit tests for the conjunctive query model, the executor and SQL rendering."""

from __future__ import annotations

import pytest

from repro.datastore.query import ConjunctiveQuery, SelectionPredicate
from repro.datastore.sqlgen import query_to_sql
from repro.engine.executor import PlanExecutor
from repro.exceptions import QueryError

from test_storage_backends import executed_answers, union


def make_join_query(cost: float = 1.0) -> ConjunctiveQuery:
    query = ConjunctiveQuery(cost=cost, provenance="q1")
    query.add_atom("go.term", "t")
    query.add_atom("interpro.interpro2go", "i2g")
    query.add_join("t", "acc", "i2g", "go_id")
    query.add_output("t", "name", "term_name")
    query.add_output("i2g", "entry_ac", "entry_ac")
    return query


class TestConjunctiveQuery:
    def test_duplicate_alias_rejected(self):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "t")
        with pytest.raises(QueryError):
            query.add_atom("interpro.entry", "t")

    def test_unbound_alias_rejected(self):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "t")
        with pytest.raises(QueryError):
            query.add_join("t", "acc", "missing", "go_id")
        with pytest.raises(QueryError):
            query.add_selection("missing", "acc", "GO:0001")
        with pytest.raises(QueryError):
            query.add_output("missing", "acc")

    def test_validate_empty_query(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery().validate()

    def test_invalid_selection_mode(self):
        # A selection is an equality: there is no mode to choose.
        with pytest.raises(TypeError):
            SelectionPredicate("t", "acc", "x", mode="regex")
        with pytest.raises(TypeError):
            ConjunctiveQuery().add_selection("t", "acc", "x", mode="equals")

    def test_introspection(self):
        query = make_join_query()
        assert query.relations() == ("go.term", "interpro.interpro2go")
        assert query.alias_map()["t"] == "go.term"
        assert query.output_labels() == ("term_name", "entry_ac")
        query.add_output("t", "acc")
        query.add_output("t", "name", label="name")
        assert query.output_labels()[2:] == ("t.acc", "name")


class TestQueryExecutor:
    def test_simple_join(self, mini_catalog):
        executor = PlanExecutor(mini_catalog)
        answers = executed_answers(executor, make_join_query())
        assert len(answers) == 2
        values = {(a["term_name"], a["entry_ac"]) for a in answers}
        assert ("plasma membrane", "IPR001") in values
        assert ("nucleus", "IPR002") in values

    def test_selection_keyword_mode(self, mini_catalog):
        # The selection a keyword match makes is an equality on the whole
        # canonical value: a token of it selects nothing.
        query = make_join_query()
        query.add_selection("t", "name", "membrane")
        assert executed_answers(PlanExecutor(mini_catalog), query) == []
        query = make_join_query()
        query.add_selection("t", "name", " plasma membrane ")
        answers = executed_answers(PlanExecutor(mini_catalog), query)
        assert len(answers) == 1
        assert answers[0]["term_name"] == "plasma membrane"

    def test_selection_equals_mode(self, mini_catalog):
        query = make_join_query()
        query.add_selection("t", "acc", "GO:0002")
        answers = executed_answers(PlanExecutor(mini_catalog), query)
        assert len(answers) == 1
        assert answers[0]["entry_ac"] == "IPR002"

    def test_three_way_join(self, mini_catalog):
        query = ConjunctiveQuery(cost=2.0, provenance="q3")
        query.add_atom("interpro.entry", "e")
        query.add_atom("interpro.entry2pub", "e2p")
        query.add_atom("interpro.pub", "p")
        query.add_join("e", "entry_ac", "e2p", "entry_ac")
        query.add_join("e2p", "pub_id", "p", "pub_id")
        query.add_output("e", "name", "entry_name")
        query.add_output("p", "title", "title")
        answers = executed_answers(PlanExecutor(mini_catalog), query)
        assert {(a["entry_name"], a["title"]) for a in answers} == {
            ("Kinase domain", "Kinase domain structure"),
            ("Zinc finger", "Zinc finger review"),
        }

    def test_empty_join_produces_no_answers(self, mini_catalog):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "t")
        query.add_atom("interpro.pub", "p")
        query.add_join("t", "name", "p", "title")  # no shared values
        assert PlanExecutor(mini_catalog).execute(query) == []

    def test_no_outputs_returns_all_columns(self, mini_catalog):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "t")
        answers = executed_answers(PlanExecutor(mini_catalog), query)
        assert len(answers) == 3
        assert "t.acc" in answers[0].values

    def test_provenance_attached(self, mini_catalog):
        answers = executed_answers(PlanExecutor(mini_catalog), make_join_query(cost=3.5))
        provenance = answers[0].provenance
        assert provenance is not None
        assert provenance.query_id == "q1"
        assert provenance.query_cost == 3.5
        assert any(rel == "go.term" for rel, _ in provenance.base_tuples)
        assert answers[0].cost == 3.5

    def test_answer_key_stable(self, mini_catalog):
        answers_a = executed_answers(PlanExecutor(mini_catalog), make_join_query())
        answers_b = executed_answers(PlanExecutor(mini_catalog), make_join_query())
        assert {a.key() for a in answers_a} == {b.key() for b in answers_b}


class TestDisjointUnion:
    def test_union_aligns_compatible_columns(self, mini_catalog):
        cheap = make_join_query(cost=1.0)
        expensive = ConjunctiveQuery(cost=2.0, provenance="q2")
        expensive.add_atom("interpro.entry", "e")
        expensive.add_output("e", "name", "entry_name")
        expensive.add_output("e", "entry_ac", "entry_ac")
        answers = union(mini_catalog, [expensive, cheap])
        # All answers share one unified schema and are sorted by cost.
        assert [a.cost for a in answers] == sorted(a.cost for a in answers)
        columns = set(answers[0].values.keys())
        for answer in answers:
            assert set(answer.values.keys()) == columns
        # entry_ac from both queries lands in the same column.
        assert "entry_ac" in columns

    def test_union_limit(self, mini_catalog):
        answers = union(mini_catalog, [make_join_query()], limit=1)
        assert len(answers) == 1

    def test_union_custom_compatibility(self, mini_catalog):
        q1 = make_join_query(cost=1.0)
        q2 = ConjunctiveQuery(cost=2.0, provenance="q2")
        q2.add_atom("interpro.entry", "e")
        q2.add_output("e", "name", "entry_label")
        answers = union(
            mini_catalog, [q1, q2], compatible=lambda a, b: {a, b} == {"entry_label", "term_name"}
        )
        columns = set(answers[0].values.keys())
        assert "entry_label" not in columns  # renamed onto term_name


class TestSqlGeneration:
    def test_single_query_sql(self):
        sql = query_to_sql(make_join_query(cost=1.25))
        assert 'FROM "go.term" AS "t"' in sql
        assert '"t"."acc" = "i2g"."go_id"' in sql
        assert "1.250000" in sql

    def test_selection_rendering(self):
        query = make_join_query()
        query.add_selection("t", "name", "O'Brien's membrane")
        query.add_selection("t", "acc", "GO:0001")
        sql = query_to_sql(query, include_cost=False)
        assert "= 'O''Brien''s membrane'" in sql
        assert "= 'GO:0001'" in sql
        assert "LIKE" not in sql
