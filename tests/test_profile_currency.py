"""A profile is current because its write made it so.

``Table.append`` / ``Table.extend`` mark the table stale in every profile
index holding its profile, and each reader entry — alignment, expansion, a
matcher's index, save — re-profiles what is stale before it reads.  These
tests check that contract end to end: a registration sees rows appended
since the catalog was profiled, and a random interleaving of appends,
registrations, removals, expansions and save / open leaves the session's
index equal to one built fresh from the catalog at that point.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.datastore.database import DataSource
from repro.graph.query_graph import QueryGraphBuilder
from repro.matching import ValueOverlapMatcher
from repro.profiling import CatalogProfileIndex

BACKENDS = ("memory", "sqlite")


def _gene_source() -> DataSource:
    return DataSource.build(
        "s1",
        {"gene": ["gid", "organ"]},
        data={"gene": [{"gid": "g1", "organ": "liver"}, {"gid": "g2", "organ": "heart"}]},
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "strategy, value_filter, comparisons",
    [
        ("exhaustive", True, 1),
        ("profile_blocked", False, 2),
        ("profile_blocked", True, 1),
        ("preferential", True, 1),
    ],
)
def test_a_registration_joins_on_rows_appended_since_profiling(backend, strategy, value_filter, comparisons):
    service = QService(sources=[_gene_source()], backend=backend)
    try:
        service.bootstrap_alignments()
        table = service.catalog.relation("s1.gene")
        table.append({"gid": "g3", "organ": "pancreas"})
        table.append({"gid": "g4", "organ": "kidney"})
        tissue = DataSource.build(
            "s2", {"tissue": ["tname"]}, data={"tissue": [{"tname": "pancreas"}, {"tname": "kidney"}]}
        )
        response = service.register_source(
            RegisterSourceRequest(
                source=tissue, strategy=strategy, value_filter=value_filter, matcher="value_overlap"
            )
        )
        assert [
            (c.source.qualified, c.target.qualified, c.confidence) for c in response.alignment.correspondences
        ] == [("s2.tissue.tname", "s1.gene.organ", 1.0)]
        assert response.edges_added == 1
        assert response.attribute_comparisons == comparisons
    finally:
        service.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_reopened_session_profiles_nothing_until_a_write(backend, tmp_path):
    location = tmp_path / "session.db"
    service = QService(
        sources=[_gene_source()], backend=f"sqlite:{location}" if backend == "sqlite" else backend
    )
    service.save(None if backend == "sqlite" else tmp_path / "session.json")
    service.close()
    reopened = QService.open(location if backend == "sqlite" else tmp_path / "session.json")
    try:
        index = reopened.profile_index
        restored = index.relation_profile("s1.gene")
        QueryGraphBuilder(reopened.catalog, index).expand(reopened.graph, ("liver",))
        assert index.relation_profile("s1.gene") is restored
        reopened.catalog.relation("s1.gene").append({"gid": "g3", "organ": "pancreas"})
        QueryGraphBuilder(reopened.catalog, index).expand(reopened.graph, ("liver",))
        assert "pancreas" in index.profile("s1.gene", "organ").distinct_values
    finally:
        reopened.close()


def test_a_removed_or_replaced_relation_drops_its_stale_entry():
    index = CatalogProfileIndex()
    first = _gene_source()
    index.index_source(first)
    first.table("gene").append({"gid": "g3", "organ": "pancreas"})
    index.remove_source("s1")
    index.reprofile_stale()
    assert not index.has_relation("s1.gene")
    second = _gene_source()
    index.index_source(second)
    first.table("gene").append({"gid": "g4", "organ": "kidney"})
    epoch = index.epoch
    index.reprofile_stale()
    assert index.epoch == epoch
    assert "kidney" not in index.profile("s1.gene", "organ").distinct_values


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_view_expanded_before_a_row_write_reads_the_new_rows(backend):
    """A row write moves no graph structure, but it can add a value a keyword
    matches: the view's expansion is not current until it re-expands, and it
    then reads what a session opened on the written rows reads."""
    lab = DataSource.build(
        "lab",
        {"gene": ["gid", "organ"], "expr": ["gid", "level"]},
        data={"gene": [["g1", "liver"], ["g2", "heart"]], "expr": [["g1", "low"], ["g2", "medium"]]},
        foreign_keys=[("gene", "gid", "expr", "gid")],
    )
    service = QService(sources=[lab], backend=backend)
    try:
        service.bootstrap_alignments()
        info = service.create_view(QueryRequest(keywords=("kidney", "high")))
        assert list(service.stream_answers(QueryRequest(view=info.view_id))) == []
        view = service.view(info.view_id)
        expansion = view.query_graph
        list(service.stream_answers(QueryRequest(view=info.view_id)))
        assert view.query_graph is expansion and view.expansion_is_current  # nothing written
        service.catalog.relation("lab.gene").append(["g3", "kidney"])
        service.catalog.relation("lab.expr").append(["g3", "high"])
        assert not view.expansion_is_current and view.current_ranking() is None
        after = [answer.values for answer in service.stream_answers(QueryRequest(view=info.view_id))]
        assert view.query_graph is not expansion and view.expansion_is_current
        fresh = QService(sources=list(service.catalog), backend=backend)
        try:
            fresh.bootstrap_alignments()
            fresh_info = fresh.create_view(QueryRequest(keywords=("kidney", "high")))
            expected = [answer.values for answer in fresh.stream_answers(QueryRequest(view=fresh_info.view_id))]
        finally:
            fresh.close()
        assert len(after) == 2 and after == expected
    finally:
        service.close()


# ----------------------------------------------------------------------
# The differential: the session's index against a fresh build
# ----------------------------------------------------------------------
VALUES = ("liver", "heart", "pancreas", "kidney", "g1", "g2", "high", "low")
STRATEGIES = ("exhaustive", "preferential", "profile_blocked", "view_based")


def _lab_source() -> DataSource:
    return DataSource.build(
        "lab",
        {"gene": ["gid", "organ"], "expr": ["gid", "level"]},
        data={"gene": [["g1", "liver"], ["g2", "heart"]], "expr": [["g1", "high"], ["g2", "low"]]},
        foreign_keys=[("expr", "gid", "gene", "gid")],
    )


def _assert_matches_a_fresh_index(service: QService) -> None:
    index = service.profile_index
    fresh = CatalogProfileIndex.from_catalog(
        service.catalog,
        shard_count=index.shard_count,
        sketch=index.sketch_config,
        rare_token_df=index.rare_token_df,
    )
    relations = fresh.profiled_relations()
    assert sorted(index.profiled_relations()) == sorted(relations)
    for relation in relations:
        assert index.relation_profile(relation) == fresh.relation_profile(relation)
        assert index.profiles_of(relation) == fresh.profiles_of(relation)
        assert index.candidate_pairs(relation) == fresh.candidate_pairs(relation)
        for profile in fresh.profiles_of(relation):
            assert index.tiered_candidates(relation, profile.attribute) == fresh.tiered_candidates(
                relation, profile.attribute
            )
        for other in relations:
            assert index.comparable_pair_count(relation, other) == fresh.comparable_pair_count(relation, other)


_rows = st.lists(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)), min_size=1, max_size=3)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 20), _rows),
        st.tuples(
            st.just("register"),
            st.sampled_from(STRATEGIES),
            st.booleans(),
            st.sampled_from((None, "value_overlap")),
            _rows,
        ),
        st.tuples(st.just("remove"), st.integers(0, 20)),
        st.tuples(st.just("expand"), st.sampled_from(VALUES), st.sampled_from(VALUES)),
        st.tuples(st.just("save_open")),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=_steps, sketch=st.booleans())
def test_interleaved_writes_and_reads_keep_the_index_current(backend, steps, sketch):
    with tempfile.TemporaryDirectory() as scratch:
        location = Path(scratch) / ("session.db" if backend == "sqlite" else "session.json")
        service = QService(
            sources=[_lab_source()],
            matchers=[ValueOverlapMatcher()],
            config=ServiceConfig(sketch_num_perm=8 if sketch else 0),
            backend=f"sqlite:{location}" if backend == "sqlite" else backend,
        )
        service.create_view(QueryRequest(keywords=("liver", "high")))
        registered = []
        try:
            for number, step in enumerate(steps):
                kind = step[0]
                if kind == "append":
                    tables = service.catalog.all_tables()
                    table = tables[step[1] % len(tables)]
                    arity = len(table.schema.attribute_names)
                    table.extend([row[:arity] for row in step[2]])
                elif kind == "register":
                    _, strategy, value_filter, matcher, rows = step
                    source = DataSource.build(f"n{number}", {"t": ["a", "b"]}, data={"t": [list(row) for row in rows]})
                    service.register_source(
                        RegisterSourceRequest(
                            source=source, strategy=strategy, value_filter=value_filter, matcher=matcher
                        )
                    )
                    registered.append(source.name)
                elif kind == "remove":
                    if registered:
                        service.remove_source(registered.pop(step[1] % len(registered)))
                elif kind == "expand":
                    QueryGraphBuilder(service.catalog, service.profile_index).expand(service.graph, step[1:])
                else:
                    service.save(None if backend == "sqlite" else location)
                    service.close()
                    service = QService.open(location, matchers=[ValueOverlapMatcher()])
                if kind not in ("append", "remove"):
                    # A reader step: it made the index current before reading.
                    _assert_matches_a_fresh_index(service)
            # Appends and removals read no profile; a drain makes the index current.
            service.profile_index.reprofile_stale()
            _assert_matches_a_fresh_index(service)
        finally:
            service.close()
