"""Parity: posting-list (blocked) candidate generation vs the seed all-pairs loop.

The profile-indexed matcher layer must be a pure optimization: on any input,
the blocked paths return the *same* correspondences — same pairs, same
confidences, same order — as the seed's all-pairs loops, and the filter's
pair counts are identical.  The seed loops live here as references
(:func:`seed_value_overlap`, :func:`seed_metadata`), reading each column's
values off the catalog's cells (:func:`reference_values.attribute_values`)
and sibling tokens off the schemas, never off a profile index.  Checked on
the fig7 fixtures (the GBCO catalog that the Figure 6/7 registration replay
introduces sources into) and on random tables via hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_values import attribute_values

from repro.api import QService, RegisterSourceRequest
from repro.datasets import build_gbco
from repro.datastore.database import Catalog, DataSource
from repro.exceptions import UnknownMatcherError
from repro.matching import (
    MatcherEnsemble,
    MetadataMatcher,
    ValueOverlapFilter,
    ValueOverlapMatcher,
    available_matchers,
    resolve_matcher,
)
from repro.matching.metadata_matcher import _name_similarity_cached
from repro.profiling import CatalogProfileIndex
from repro.similarity.jaccard import max_containment
from repro.similarity.tokenize import token_set


def _correspondence_tuples(correspondences):
    return [
        (c.source.qualified, c.target.qualified, c.confidence, c.matcher)
        for c in correspondences
    ]


def seed_value_overlap(table_a, table_b, values, min_confidence=0.1, min_shared=1):
    """The seed's all-pairs value-overlap loop, over reference value sets."""
    relation_a, relation_b = table_a.schema.qualified_name, table_b.schema.qualified_name
    found = []
    for ref_a in table_a.schema.attribute_refs:
        values_a = values.get((relation_a, ref_a.attribute), set())
        if not values_a:
            continue
        for ref_b in table_b.schema.attribute_refs:
            values_b = values.get((relation_b, ref_b.attribute), set())
            if not values_b or len(values_a & values_b) < min_shared:
                continue
            confidence = max_containment(values_a, values_b)
            if confidence >= min_confidence:
                found.append((ref_a.qualified, ref_b.qualified, round(confidence, 6), "value_overlap"))
    return found


def seed_metadata(matcher, table_a, table_b):
    """The seed's metadata loop: sibling-name tokens recomputed from the schemas."""

    def siblings(table):
        tokens = set()
        for attribute in table.schema.attribute_names:
            tokens |= token_set(attribute)
        return tokens

    tokens_a, tokens_b = siblings(table_a), siblings(table_b)
    structural = len(tokens_a & tokens_b) / len(tokens_a | tokens_b) if tokens_a and tokens_b else 0.0
    bonus = matcher.config.structural_bonus * structural
    found = []
    for ref_a in table_a.schema.attribute_refs:
        for ref_b in table_b.schema.attribute_refs:
            score = min(1.0, matcher.name_similarity(ref_a.attribute, ref_b.attribute) + bonus)
            if score >= matcher.config.min_confidence:
                found.append((ref_a.qualified, ref_b.qualified, round(score, 6), "metadata"))
    return found


# ----------------------------------------------------------------------
# fig7 fixtures (GBCO)
# ----------------------------------------------------------------------
class TestGbcoParity:
    @pytest.fixture(scope="class")
    def gbco_tables(self, gbco_dataset):
        return gbco_dataset.catalog.all_tables()

    @pytest.fixture(scope="class")
    def gbco_index(self, gbco_dataset):
        return CatalogProfileIndex.from_catalog(gbco_dataset.catalog)

    @pytest.fixture(scope="class")
    def gbco_values(self, gbco_dataset):
        return attribute_values(gbco_dataset.catalog)

    def test_value_overlap_matcher_blocked_equals_seed_loop(self, gbco_tables, gbco_index, gbco_values):
        blocked = ValueOverlapMatcher(profile_index=gbco_index)
        for i, table_a in enumerate(gbco_tables):
            for table_b in gbco_tables[i + 1 :]:
                left = blocked.match_relations(table_a, table_b)
                assert _correspondence_tuples(left) == seed_value_overlap(table_a, table_b, gbco_values)

    def test_value_overlap_matcher_thresholds_preserved(self, gbco_tables, gbco_index, gbco_values):
        blocked = ValueOverlapMatcher(
            min_confidence=0.5, min_shared_values=3, profile_index=gbco_index
        )
        for i, table_a in enumerate(gbco_tables):
            for table_b in gbco_tables[i + 1 :]:
                assert _correspondence_tuples(
                    blocked.match_relations(table_a, table_b)
                ) == seed_value_overlap(table_a, table_b, gbco_values, min_confidence=0.5, min_shared=3)

    def test_metadata_matcher_indexed_equals_plain(self, gbco_tables, gbco_index):
        indexed = MetadataMatcher(profile_index=gbco_index)
        for i, table_a in enumerate(gbco_tables):
            for table_b in gbco_tables[i + 1 :]:
                assert _correspondence_tuples(
                    indexed.match_relations(table_a, table_b)
                ) == seed_metadata(indexed, table_a, table_b)

    def test_metadata_memo_replay_is_identical(self, gbco_tables, gbco_index):
        # Nothing is remembered between calls: a second pass over the same
        # pair scores it again and returns equal correspondences.
        indexed = MetadataMatcher(profile_index=gbco_index)
        table_a, table_b = gbco_tables[0], gbco_tables[1]
        first = indexed.match_relations(table_a, table_b)
        second = indexed.match_relations(table_a, table_b)
        assert first and first is not second
        assert _correspondence_tuples(first) == _correspondence_tuples(second)
        assert indexed.counter.relation_pairs == 2

    def test_filter_counts_match_brute_force_filter(self, gbco_dataset, gbco_tables, gbco_index):
        profile_filter = ValueOverlapFilter.from_index(gbco_index)
        values = attribute_values(gbco_dataset.catalog)

        def shared(relation_a, attr_a, relation_b, attr_b):
            return values.get((relation_a, attr_a), set()) & values.get((relation_b, attr_b), set())

        for i, table_a in enumerate(gbco_tables):
            for table_b in gbco_tables[i + 1 :]:
                relation_a, relation_b = table_a.schema.qualified_name, table_b.schema.qualified_name
                expected = sum(
                    bool(shared(relation_a, attr_a, relation_b, attr_b))
                    for attr_a in table_a.schema.attribute_names
                    for attr_b in table_b.schema.attribute_names
                )
                assert profile_filter.comparable_pairs(table_a, table_b) == expected

    def test_comparison_counters_are_identical(self, gbco_tables, gbco_index):
        # Blocking prunes the work, not the count: every attribute pair of a
        # scored relation pair is counted, as the seed loop compared it.
        attached = ValueOverlapMatcher(profile_index=gbco_index)
        bare = ValueOverlapMatcher()
        expected = 0
        for i, table_a in enumerate(gbco_tables[:6]):
            for table_b in gbco_tables[i + 1 : 6]:
                expected += len(table_a.schema.attribute_names) * len(table_b.schema.attribute_names)
                for matcher in (attached, bare):
                    matcher.match_relations(table_a, table_b)
        for matcher in (attached, bare):
            assert matcher.counter.attribute_comparisons == expected
            assert matcher.counter.relation_pairs == 15


class TestMatcherRegistry:
    def test_content_tfidf_is_no_longer_dispatchable(self):
        assert available_matchers() == ("mad", "metadata", "value_overlap")
        with pytest.raises(UnknownMatcherError) as raised:
            resolve_matcher("content_tfidf")
        assert raised.value.valid == ("mad", "metadata", "value_overlap")


class TestEnsembleParity:
    def test_ensemble_with_index_matches_plain(self, mini_catalog):
        index = CatalogProfileIndex.from_catalog(mini_catalog)
        tables = mini_catalog.all_tables()
        with_index = MatcherEnsemble(
            [MetadataMatcher(profile_index=index), ValueOverlapMatcher(profile_index=index)],
            top_y=2,
        ).match_tables(tables)
        plain = MatcherEnsemble(
            [MetadataMatcher(), ValueOverlapMatcher()], top_y=2
        ).match_tables(tables)
        assert [
            (a.key(), sorted(a.confidences.items())) for a in with_index
        ] == [(a.key(), sorted(a.confidences.items())) for a in plain]


class TestMatchersSharedAcrossSessions:
    """One matcher instance, two sessions: each registration reads its own
    session's index — the aligner hands it over, replacing the other's."""

    HELD_OUT = {15: ("variant", "ortholog"), 30: ("probe", "phenotype")}

    @classmethod
    def _session(cls, rows, matchers):
        sources = {s.name: s for s in build_gbco(rows_per_relation=rows).catalog.sources()}
        incoming = [sources.pop(name) for name in cls.HELD_OUT[rows]]
        return QService(sources=sources.values(), matchers=matchers), incoming

    @staticmethod
    def _register(service, source, matcher):
        response = service.register_source(
            RegisterSourceRequest(source=source, strategy="exhaustive", matcher=matcher)
        )
        return _correspondence_tuples(response.alignment.correspondences)

    def test_each_session_reads_its_own_index(self):
        expected = {}
        for rows in (15, 30):
            metadata, overlap = MetadataMatcher(), ValueOverlapMatcher()
            fresh, incoming = self._session(rows, [metadata, overlap])
            expected[rows] = [
                self._register(fresh, incoming[0], None),  # the session's first matcher
                self._register(fresh, incoming[1], overlap),
            ]
            assert any(expected[rows])

        metadata, overlap = MetadataMatcher(), ValueOverlapMatcher()
        first, first_incoming = self._session(15, [metadata, overlap])
        second, second_incoming = self._session(30, [metadata, overlap])
        got = {15: [], 30: []}
        for position, matcher in enumerate((None, overlap)):
            used = matcher or metadata
            got[15].append(self._register(first, first_incoming[position], matcher))
            assert used.profile_index is first.profile_index
            got[30].append(self._register(second, second_incoming[position], matcher))
            assert used.profile_index is second.profile_index
        assert got == expected


# ----------------------------------------------------------------------
# Property-style tests on random tables
# ----------------------------------------------------------------------
_VALUES = st.sampled_from(["a", "b", "c", "d", "e", "f", None])
_ATTRS = ["k1", "k2", "shared_id", "name"]


def _random_source(draw, name: str, arity: int, rows: int):
    attrs = _ATTRS[:arity]
    data = [
        {attr: draw(_VALUES) for attr in attrs}
        for _ in range(rows)
    ]
    return DataSource.build(name, {"rel": attrs}, data={"rel": data})


@st.composite
def _table_pair(draw):
    source_a = _random_source(draw, "alpha", draw(st.integers(1, 4)), draw(st.integers(0, 8)))
    source_b = _random_source(draw, "beta", draw(st.integers(1, 4)), draw(st.integers(0, 8)))
    return source_a, source_b


class TestRandomTableParity:
    @settings(max_examples=60, deadline=None)
    @given(data=_table_pair(), min_shared=st.integers(1, 3))
    def test_blocked_value_matcher_equals_exhaustive(self, data, min_shared):
        source_a, source_b = data
        catalog = Catalog([source_a, source_b])
        index = CatalogProfileIndex.from_catalog(catalog)
        table_a, table_b = source_a.table("rel"), source_b.table("rel")
        blocked = ValueOverlapMatcher(min_shared_values=min_shared, profile_index=index)
        assert _correspondence_tuples(
            blocked.match_relations(table_a, table_b)
        ) == seed_value_overlap(table_a, table_b, attribute_values(catalog), min_shared=min_shared)

    @settings(max_examples=60, deadline=None)
    @given(data=_table_pair(), min_shared=st.integers(1, 3))
    def test_filter_count_equals_nested_loop(self, data, min_shared):
        source_a, source_b = data
        catalog = Catalog([source_a, source_b])
        index = CatalogProfileIndex.from_catalog(catalog)
        table_a, table_b = source_a.table("rel"), source_b.table("rel")
        fast = ValueOverlapFilter.from_index(index)
        fast.min_shared_values = min_shared
        values = attribute_values(catalog)
        expected = 0
        for attr_a in table_a.schema.attribute_names:
            for attr_b in table_b.schema.attribute_names:
                shared = values.get(("alpha.rel", attr_a), set()) & values.get(("beta.rel", attr_b), set())
                if len(shared) >= min_shared:
                    expected += 1
        assert fast.comparable_pairs(table_a, table_b) == expected

    @settings(max_examples=120, deadline=None)
    @given(
        label_a=st.text(
            alphabet=st.sampled_from("abc_ABC012"), min_size=0, max_size=12
        ),
        label_b=st.text(
            alphabet=st.sampled_from("abc_ABC012"), min_size=0, max_size=12
        ),
    )
    def test_name_similarity_is_symmetric(self, label_a, label_b):
        # The metadata matcher canonicalizes the cached pair order; this is
        # sound only while every component measure is symmetric.
        forward = _name_similarity_cached.__wrapped__(
            label_a, label_b, 0.40, 0.25, 0.20, 0.15
        )
        backward = _name_similarity_cached.__wrapped__(
            label_b, label_a, 0.40, 0.25, 0.20, 0.15
        )
        assert forward == backward

    @settings(max_examples=40, deadline=None)
    @given(data=_table_pair())
    def test_stale_profile_is_reprofiled_before_matching(self, data):
        # Mutating a table after indexing must not produce stale blocked
        # results: the matcher re-profiles the table before it reads.
        source_a, source_b = data
        catalog = Catalog([source_a, source_b])
        index = CatalogProfileIndex.from_catalog(catalog)
        table_a, table_b = source_a.table("rel"), source_b.table("rel")
        table_a.append({attr: "zz" for attr in table_a.schema.attribute_names})
        blocked = ValueOverlapMatcher(profile_index=index)
        assert _correspondence_tuples(
            blocked.match_relations(table_a, table_b)
        ) == seed_value_overlap(table_a, table_b, attribute_values(catalog))
        fresh = CatalogProfileIndex.from_catalog(catalog)
        for profile in fresh.profiles_of("alpha.rel") + fresh.profiles_of("beta.rel"):
            assert index.profile(profile.relation, profile.attribute) == profile

    @settings(max_examples=20, deadline=None)
    @given(data=_table_pair())
    def test_bare_matcher_profiles_what_it_is_handed(self, data):
        source_a, source_b = data
        table_a, table_b = source_a.table("rel"), source_b.table("rel")
        bare = ValueOverlapMatcher()
        assert _correspondence_tuples(bare.match_relations(table_a, table_b)) == seed_value_overlap(
            table_a, table_b, attribute_values(Catalog([source_a, source_b]))
        )
        assert bare.profile_index.profiled_relations() == ("alpha.rel", "beta.rel")
