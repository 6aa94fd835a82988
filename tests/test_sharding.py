"""Registration-scaling invariants: sharding, sketches, pair scoring.

The scaling layers must be *invisible* to results: a sharded posting index
(any shard count) and the MinHash/LSH sketch tier have to reproduce the flat
outputs exactly.  These tests pin that contract — mostly as hypothesis
properties over randomly generated catalogs — plus the persistence of the
scaling configuration itself.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.alignment import ProfileBlockedAligner, score_pairs
from repro.api import QService
from repro.api.types import RegisterSourceRequest, ServiceConfig
from repro.datasets.synthetic import make_community_source
from repro.datastore.database import Catalog, DataSource
from repro.matching import ValueOverlapMatcher
from repro.profiling import CatalogProfileIndex, ShardRouter, SketchConfig, minhash_signature, stable_shard

# A small shared vocabulary so random catalogs actually overlap.
_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")

_rows = st.lists(
    st.fixed_dictionaries(
        {"a": st.sampled_from(_WORDS), "b": st.sampled_from(_WORDS)}
    ),
    min_size=1,
    max_size=6,
)
_catalog_data = st.lists(_rows, min_size=2, max_size=5)


def _build_tables(datasets):
    tables = []
    for i, rows in enumerate(datasets):
        source = DataSource.build(
            f"s{i}", {f"r{i}": ["a", "b"]}, data={f"r{i}": list(rows)}
        )
        tables.extend(source.tables())
    return tables


def _tuple_band_keys(signature, config):
    """The ``(band, digest)`` bucket keys the int keys replaced (no keys for an empty set)."""
    if set(signature) == {(1 << 61) - 1}:
        return []
    rows = config.rows_per_band
    return [
        (band, zlib.crc32(b"|".join(str(v).encode("ascii") for v in signature[band * rows : (band + 1) * rows])))
        for band in range(config.bands)
    ]


def _community_catalog(size: int = 6, communities: int = 2):
    return [
        make_community_source(f"c{i:02d}", community=i % communities, seed=i)
        for i in range(size)
    ]


class TestShardRouting:
    def test_stable_shard_is_deterministic_and_in_range(self):
        for count in (1, 2, 7):
            for key in ("x", "rel.attr", "a|b|3"):
                shard = stable_shard(key, count)
                assert shard == stable_shard(key, count)
                assert 0 <= shard < count

    @given(datasets=_catalog_data, shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_sharded_index_identical_to_flat(self, datasets, shards):
        tables = _build_tables(datasets)
        flat = CatalogProfileIndex.from_tables(tables)
        sharded = CatalogProfileIndex.from_tables(tables, shard_count=shards)
        assert sharded.shard_count == shards
        for table in tables:
            relation = table.schema.qualified_name
            assert sharded.candidate_pairs(relation) == flat.candidate_pairs(relation)
            for attribute in table.schema.attribute_names:
                for token in flat.profile(relation, attribute).value_tokens:
                    assert sorted(sharded.token_postings(token)) == sorted(
                        flat.token_postings(token)
                    )
        attrs = [
            (t.schema.qualified_name, a)
            for t in tables
            for a in t.schema.attribute_names
        ]
        for rel_a, attr_a in attrs:
            for rel_b, attr_b in attrs:
                assert sharded.overlap(rel_a, attr_a, rel_b, attr_b) == flat.overlap(
                    rel_a, attr_a, rel_b, attr_b
                )

    @given(datasets=_catalog_data, shards=st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_sketch_tier_candidates_match_exact_tier(self, datasets, shards):
        # On catalogs this small every token is rare, so the rare-token tier
        # alone already covers all value-sharing pairs: the sketch pipeline
        # must re-verify down to exactly the lossless posting-list answer.
        tables = _build_tables(datasets)
        sketched = CatalogProfileIndex.from_tables(
            tables, shard_count=shards, sketch=SketchConfig(num_perm=16, bands=8)
        )
        flat = CatalogProfileIndex.from_tables(tables)
        for table in tables:
            relation = table.schema.qualified_name
            assert sketched.candidate_pairs(relation) == flat.candidate_pairs(relation)

    @given(datasets=_catalog_data, shards=st.sampled_from([1, 4]))
    @settings(max_examples=30, deadline=None)
    def test_int_bucket_keys_name_the_tuple_buckets(self, datasets, shards):
        # A sketch is its band keys: ``band << 32 | digest`` has to collide
        # exactly where the ``(band, digest)`` pair it replaced did.
        config = SketchConfig(num_perm=8, bands=4)
        sources = [
            DataSource.build(f"s{i}", {f"r{i}": ["a", "b"]}, data={f"r{i}": list(rows)})
            for i, rows in enumerate(datasets)
        ]
        index = CatalogProfileIndex.from_catalog(Catalog(sources), shard_count=shards, sketch=config)
        assert not hasattr(index, "_signatures")
        attrs = [
            (table.schema.qualified_name, attribute)
            for source in sources for table in source for attribute in ("a", "b")
        ]
        buckets, keys_of = {}, {}
        for attr in attrs:
            keys = keys_of[attr] = _tuple_band_keys(
                minhash_signature(index.profile(*attr).value_tokens, config), config
            )
            for key in keys:
                buckets.setdefault(key, set()).add(attr)
            assert index._band_keys[attr] == tuple(band << 32 | digest for band, digest in keys)
        for attr in attrs:
            reference = set().union(*(buckets[key] for key in keys_of[attr])) - {attr}
            assert index.sketch_candidates(*attr) == reference

    @given(
        shards=st.integers(min_value=1, max_value=6),
        num_perm=st.sampled_from([0, 8, 16]),
    )
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_preserves_scaling_config(self, shards, num_perm):
        tables = []
        for source in _community_catalog(size=4):
            tables.extend(source.tables())
        sketch = SketchConfig(num_perm=num_perm, bands=num_perm // 2) if num_perm else None
        index = CatalogProfileIndex.from_tables(
            tables, shard_count=shards, sketch=sketch
        )
        payload = index.export_state()
        restored = CatalogProfileIndex.from_state(json.loads(json.dumps(payload)))
        assert restored.export_state() == payload
        assert restored.shard_count == shards
        assert restored.sketch_enabled == (sketch is not None)
        assert restored.shard_sizes() == index.shard_sizes()
        for table in tables:
            relation = table.schema.qualified_name
            assert restored.candidate_pairs(relation) == index.candidate_pairs(relation)


# Few keys and attributes, so duplicate adds, 1 -> 2 -> 1 -> 0 runs and discards
# of ids a key never held all come up.
_ATTRS = st.sampled_from([("s.r", "a"), ("s.r", "b"), ("t.r", "a")])
_POOL = {
    "value": ["v0", "v1", "v2", "v3"],
    "token": ["t0", "t1", "t2"],
    "bucket": [band << 32 | digest for band in range(2) for digest in range(3)],
}
_KEYS = {kind: st.sampled_from(pool) for kind, pool in _POOL.items()}
_KINDS = st.sampled_from(sorted(_POOL))


class PostingMachine(RuleBasedStateMachine):
    """A :class:`ShardRouter` against ``kind -> key -> set`` of plain Python."""

    shard_count = 1
    ADD = {"value": "add_value", "token": "add_token", "bucket": "add_bucket"}
    DISCARD = {"value": "discard_value", "token": "discard_token", "bucket": "discard_bucket"}
    LOOKUP = {"value": "value_postings", "token": "token_postings", "bucket": "bucket"}
    STORED = {"value": "value_postings", "token": "token_postings", "bucket": "sketch_buckets"}

    def __init__(self):
        super().__init__()
        self.router = ShardRouter(self.shard_count)
        self.model = {kind: {} for kind in _KEYS}

    @rule(kind=_KINDS, data=st.data(), attr=_ATTRS)
    def add(self, kind, data, attr):
        key = data.draw(_KEYS[kind])
        getattr(self.router, self.ADD[kind])(key, attr)
        self.model[kind].setdefault(key, set()).add(attr)

    @rule(kind=_KINDS, data=st.data(), attr=_ATTRS)
    def discard(self, kind, data, attr):
        key = data.draw(_KEYS[kind])
        getattr(self.router, self.DISCARD[kind])(key, attr)
        held = self.model[kind].get(key, set())
        held.discard(attr)
        if not held:
            self.model[kind].pop(key, None)

    def shard_of(self, kind, key):
        if kind == "bucket":
            return self.router._bucket_shard(key)
        return stable_shard(key, self.shard_count)

    @invariant()
    def lookups_equal_the_model(self):
        for kind, model in self.model.items():
            for key in _POOL[kind]:
                found = getattr(self.router, self.LOOKUP[kind])(key)
                assert (None if found is None else set(found)) == model.get(key)
                assert found is None or len(found) == len(model[key])

    @invariant()
    def counts_equal_the_model(self):
        assert self.router.distinct_value_count == len(self.model["value"])
        sizes = [0] * self.shard_count
        for kind, model in self.model.items():
            for key in model:
                sizes[self.shard_of(kind, key)] += 1
        assert self.router.shard_sizes() == tuple(sizes)

    @invariant()
    def a_set_holds_at_least_two(self):
        for shard in self.router.shards:
            for kind in _KEYS:
                for held in getattr(shard, self.STORED[kind]).values():
                    assert type(held) is not set or len(held) >= 2

    def teardown(self):
        """What a restore does: a router rebuilt from the surviving entries is the same."""
        rebuilt = ShardRouter(self.shard_count)
        for kind, model in self.model.items():
            for key, attrs in model.items():
                for attr in sorted(attrs):
                    getattr(rebuilt, self.ADD[kind])(key, attr)
        assert rebuilt.shard_sizes() == self.router.shard_sizes()
        for kind, model in self.model.items():
            for key in model:
                lookup = self.LOOKUP[kind]
                assert set(getattr(rebuilt, lookup)(key)) == set(getattr(self.router, lookup)(key))


class PostingMachineFourShards(PostingMachine):
    shard_count = 4


TestPostingMachine = PostingMachine.TestCase
TestPostingMachineFourShards = PostingMachineFourShards.TestCase
for _case in (TestPostingMachine, TestPostingMachineFourShards):
    _case.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


class TestPairScoring:
    def test_score_pairs_is_match_relations_in_pair_order(self):
        catalog = Catalog(_community_catalog(size=6, communities=2))
        tables = catalog.all_tables()
        pairs = [
            (tables[i], tables[j])
            for i in range(len(tables))
            for j in range(i + 1, len(tables))
        ]
        reference = ValueOverlapMatcher()
        expected = []
        for table_a, table_b in pairs:
            expected.extend(reference.match_relations(table_a, table_b))
        assert expected  # the community workload must actually align

        matcher = ValueOverlapMatcher()
        assert score_pairs(matcher, pairs) == expected
        assert matcher.counter.relation_pairs == len(pairs)
        assert matcher.counter.attribute_comparisons == sum(
            len(a.schema.attribute_names) * len(b.schema.attribute_names) for a, b in pairs
        )
        assert score_pairs(matcher, []) == []


class TestServiceIntegration:
    def _register(self, config: ServiceConfig, strategy: str = "profile_blocked"):
        service = QService(_community_catalog(size=6, communities=2), config=config)
        incoming = make_community_source("incoming", community=0, seed=99)
        response = service.register_source(
            RegisterSourceRequest(source=incoming, strategy=strategy, value_filter=True)
        )
        log = [
            (c.source.qualified, c.target.qualified, c.confidence, c.matcher)
            for c in response.alignment.correspondences
        ] + [e.edge_id for e in response.alignment.edges_added]
        return service, log

    def test_scaling_knobs_do_not_change_registrations(self):
        baseline = None
        for config in (
            ServiceConfig(),
            ServiceConfig(profile_shards=4),
            ServiceConfig(sketch_num_perm=16),
            ServiceConfig(profile_shards=4, sketch_num_perm=16),
        ):
            _, log = self._register(config)
            if baseline is None:
                baseline = log
                assert log  # the community workload must actually align
            else:
                assert log == baseline

    def test_profile_blocked_matches_exhaustive(self):
        _, blocked = self._register(ServiceConfig(), strategy="profile_blocked")
        _, exhaustive = self._register(ServiceConfig(), strategy="exhaustive")
        assert blocked == exhaustive

    def test_profile_blocked_requires_profile_index(self):
        from repro.exceptions import AlignmentError

        with pytest.raises(AlignmentError):
            ProfileBlockedAligner(ValueOverlapMatcher(), profile_index=None)

    def test_stats_surface_scaling_counters(self):
        service, _ = self._register(ServiceConfig(profile_shards=4, sketch_num_perm=16))
        stats = service.stats()
        assert stats.profile_shards == 4
        assert stats.sketch_candidates > 0
        assert stats.exact_candidates > 0
        assert stats.exact_candidates <= stats.sketch_candidates
        assert stats.pairs_scored > 0
