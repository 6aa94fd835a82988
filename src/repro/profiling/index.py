"""The persistent, incrementally maintained catalog profile index.

:class:`CatalogProfileIndex` is the registration-side counterpart of the
query engine's :class:`~repro.engine.context.ExecutionContext`: a shared,
long-lived structure that every matcher and aligner strategy reads instead
of re-deriving per-table state inside nested loops.  It holds

* one :class:`~repro.profiling.profiles.AttributeProfile` per attribute
  (distinct values, value tokens, normalized names, cardinality stats),
* a **distinct-value posting list** (value → attributes containing it) used
  for posting-list-intersection candidate generation (blocking),
* a **token posting list** (token → attributes whose values contain it),
  read by the rare-token tier of :meth:`tiered_candidates`,
* optional **MinHash/LSH sketch buckets** over the per-attribute value-token
  sets — the approximate tier of :meth:`tiered_candidates`.

It holds evidence, never answers: what a matcher made of a relation pair is
not remembered here, so a registration's correspondences are a function of
the two relations and the catalog's profiles alone.

All posting-list state lives in hash-partitioned shards behind a
:class:`~repro.profiling.shards.ShardRouter` (``shard_count=1`` by
default); the router preserves the flat-dictionary semantics exactly, so
every existing caller — matchers, persistence, aligner strategies — is
unaffected by the shard count.  Postings have this one home: they are
installed eagerly on a live index, never persisted (only the profiles are),
and rebuilt once from the restored profiles on the first posting read
after a session is reopened.

The index is updated once per registered (or removed) source; the ``epoch``
counter lets the per-attribute candidate maps validate themselves cheaply.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..datastore.database import Catalog, DataSource
from ..datastore.table import Table
from .profiles import AttrId, AttributeProfile, RelationProfile, profile_table
from .shards import BandKey, ShardRouter
from .sketches import SketchConfig, attribute_sketch

#: Default document-frequency ceiling under which a value token counts as
#: *rare* for the exact rare-token tier of :meth:`tiered_candidates`.
_RARE_TOKEN_DF = 16


class CatalogProfileIndex:
    """Shared per-attribute profiles + posting lists over a catalog.

    The index is *incrementally* maintained: :meth:`index_source` profiles a
    new source in one pass over its rows, :meth:`remove_source` retracts a
    source's contribution exactly (used by the registration failure-rollback
    path), and neither ever rebuilds the rest of the catalog's state.

    Parameters
    ----------
    shard_count:
        Number of hash shards the posting lists are split across (see
        :mod:`repro.profiling.shards`).  Identical results for any value;
        ``1`` keeps the seed layout.
    sketch:
        Optional :class:`~repro.profiling.sketches.SketchConfig`.  When
        given, every attribute additionally keeps the LSH band keys of a
        MinHash signature over its value tokens (not the signature itself)
        and the buckets they name, enabling the
        sub-linear :meth:`sketch_candidates` / :meth:`tiered_candidates`
        tier.  ``None`` (the default) keeps candidate generation purely
        exact.
    rare_token_df:
        Document-frequency ceiling for the rare-token tier of
        :meth:`tiered_candidates`.
    """

    def __init__(
        self,
        shard_count: int = 1,
        sketch: Optional[SketchConfig] = None,
        rare_token_df: int = _RARE_TOKEN_DF,
    ) -> None:
        #: Bumped on every structural change (source/table added or removed);
        #: dependent caches key on it.
        self.epoch = 0
        self.sketch_config = sketch
        self.rare_token_df = rare_token_df
        self._attribute_profiles: Dict[AttrId, AttributeProfile] = {}
        self._relation_profiles: Dict[str, RelationProfile] = {}
        #: relation -> the table object profiled; that table reports its writes here.
        self._tables: Dict[str, Table] = {}
        #: Tables written since they were profiled, as an ordered set (see :meth:`reprofile_stale`).
        self._stale: Dict[Table, None] = {}
        #: Row writes reported so far: an expansion taken at another count may miss rows.
        self.writes = 0
        #: source name -> qualified relation names it contributed.
        self._source_relations: Dict[str, List[str]] = {}
        #: All posting lists (values, tokens, sketch buckets), hash-sharded.
        self._shards = ShardRouter(shard_count)
        #: per-attribute LSH band keys (present only when ``sketch`` is configured).
        self._band_keys: Dict[AttrId, Tuple[BandKey, ...]] = {}
        #: per-attribute candidate maps memo: attr -> (epoch, candidates).
        self._candidate_cache: Dict[AttrId, Tuple[int, Dict[AttrId, int]]] = {}
        #: grouped comparison counts of :meth:`comparable_pair_counts`, one epoch's.
        self._pair_counts: Dict[Tuple[str, int], Dict[str, int]] = {}
        self._pair_counts_epoch = 0
        #: per-attribute tiered candidate memo (sketch + exact verify).
        self._tiered_cache: Dict[AttrId, Tuple[int, Dict[AttrId, int]]] = {}
        #: Tier observability: attribute pairs proposed by the sketch tier
        #: and pairs surviving exact re-verification, cumulative.
        self.sketch_candidates_generated = 0
        self.exact_candidates_kept = 0
        #: Posting laziness.  A freshly built index installs postings
        #: eagerly (``_postings_ready`` stays ``True``); a state restore
        #: (:meth:`absorb_state`) installs profiles only and defers the
        #: posting materialization, so a warm open pays for it only when —
        #: and if — a posting read actually happens.  ``posting_builds``
        #: counts full from-profile rebuilds (0 across a warm open that
        #: only reads saved views — the bench asserts exactly this).
        self.posting_builds = 0
        self._postings_ready = True
        self._postings_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(cls, catalog: Catalog, **kwargs) -> "CatalogProfileIndex":
        """Profile every source of ``catalog`` (kwargs as for the constructor)."""
        index = cls(**kwargs)
        for source in catalog:
            index.index_source(source)
        return index

    @classmethod
    def from_tables(cls, tables: Iterable[Table], **kwargs) -> "CatalogProfileIndex":
        """Profile a bare iterable of tables (no source bookkeeping)."""
        index = cls(**kwargs)
        for table in tables:
            index.index_table(table)
        return index

    def index_source(self, source: DataSource) -> None:
        """Profile every table of ``source`` (one pass per table)."""
        relations = self._source_relations.setdefault(source.name, [])
        for table in source:
            self.index_table(table)
            qualified = table.schema.qualified_name
            if qualified not in relations:
                relations.append(qualified)

    def index_table(self, table: Table) -> None:
        """Profile ``table``, replacing any existing profile of the relation."""
        relation = table.schema.qualified_name
        if relation in self._relation_profiles:
            self.remove_table(relation)
        relation_profile, attribute_profiles = profile_table(table)
        self._relation_profiles[relation] = relation_profile
        self._tables[relation] = table
        table.add_profile_index(self)
        for profile in attribute_profiles.values():
            self._install_attribute(profile)
        self.epoch += 1

    def _install_attribute(self, profile: AttributeProfile) -> None:
        """Install one attribute profile (postings too, unless deferred)."""
        self._attribute_profiles[profile.attr_id] = profile
        if self._postings_ready:
            self._install_postings(profile)

    def _install_postings(self, profile: AttributeProfile) -> None:
        """Install one profile's posting entries, and sketches if enabled."""
        attr_id = profile.attr_id
        shards = self._shards
        for value in profile.distinct_values:
            shards.add_value(value, attr_id)
        for token in profile.value_tokens:
            shards.add_token(token, attr_id)
        if self.sketch_config is not None:
            keys = self._band_keys[attr_id] = attribute_sketch(profile.value_tokens, self.sketch_config)
            for key in keys:
                shards.add_bucket(key, attr_id)

    # ------------------------------------------------------------------
    # Posting laziness
    # ------------------------------------------------------------------
    def _ensure_postings(self) -> None:
        """Materialize the in-memory posting lists from the profiles.

        No-op while postings are current.  After a deferring restore this
        is the one place the full rebuild happens — double-checked under a
        lock so concurrent readers build at most once — and
        ``posting_builds`` counts it.
        """
        if self._postings_ready:
            return
        with self._postings_lock:
            if self._postings_ready:
                return
            self._shards = ShardRouter(self._shards.shard_count)
            self._band_keys = {}
            for profile in self._attribute_profiles.values():
                self._install_postings(profile)
            self.posting_builds += 1
            self._postings_ready = True

    # ------------------------------------------------------------------
    # Currency: a table's writes mark it stale, readers re-profile it
    # ------------------------------------------------------------------
    def bind_tables(self, catalog: Catalog) -> None:
        """Hold ``catalog``'s table of each relation profiled here, so its writes
        mark it stale: a restored index holds profiles only, and its session
        binds them once the journal has replayed."""
        for table in catalog.all_tables():
            relation = table.schema.qualified_name
            if relation in self._relation_profiles:
                self._tables[relation] = table
                table.add_profile_index(self)

    def mark_stale(self, table: Table) -> None:
        """Record that ``table`` was written (:meth:`Table.append` / :meth:`Table.extend` call this)."""
        self._stale[table] = None
        self.writes += 1

    def reprofile_stale(self) -> None:
        """Re-profile every table written since it was profiled here.

        Every reader entry calls this first (alignment, expansion, a
        matcher's index, save), so what they read is current.  A table
        whose relation this index no longer holds, or holds for another
        table object, is dropped unprofiled.
        """
        stale = self._stale
        while stale:
            table = stale.popitem()[0]
            if self._tables.get(table.schema.qualified_name) is table:
                self.index_table(table)

    def hold(self, tables: Iterable[Table]) -> None:
        """Profile each of ``tables`` this index does not hold, as that table object."""
        for table in tables:
            if self._tables.get(table.schema.qualified_name) is not table:
                self.index_table(table)

    def remove_source(self, name: str) -> None:
        """Retract every relation ``name`` contributed (no full rebuild)."""
        for relation in self._source_relations.pop(name, []):
            self.remove_table(relation)

    def remove_table(self, relation: str) -> None:
        """Retract one relation's profiles and posting-list entries."""
        profile = self._relation_profiles.pop(relation, None)
        if profile is None:
            return
        self._stale.pop(self._tables.pop(relation, None), None)
        shards = self._shards
        for attribute in profile.attribute_names:
            attr_id = (relation, attribute)
            attr_profile = self._attribute_profiles.pop(attr_id, None)
            if attr_profile is None:
                continue
            if self._postings_ready:
                # Deferred postings hold nothing to retract; the eventual
                # rebuild works off the (now reduced) profile set.
                for value in attr_profile.distinct_values:
                    shards.discard_value(value, attr_id)
                for token in attr_profile.value_tokens:
                    shards.discard_token(token, attr_id)
            for key in self._band_keys.pop(attr_id, ()):
                shards.discard_bucket(key, attr_id)
            self._candidate_cache.pop(attr_id, None)
            self._tiered_cache.pop(attr_id, None)
        self.epoch += 1

    # ------------------------------------------------------------------
    # Profile lookup
    # ------------------------------------------------------------------
    def has_relation(self, relation: str) -> bool:
        """Whether the relation has been profiled."""
        return relation in self._relation_profiles

    def relation_profile(self, relation: str) -> Optional[RelationProfile]:
        """The relation's profile, or ``None`` if not indexed."""
        return self._relation_profiles.get(relation)

    def profiled_relations(self) -> Tuple[str, ...]:
        """Qualified names of all profiled relations, in indexing order."""
        return tuple(self._relation_profiles)

    def profile(self, relation: str, attribute: str) -> Optional[AttributeProfile]:
        """The attribute's profile, or ``None`` if not indexed."""
        return self._attribute_profiles.get((relation, attribute))

    def profiles_of(self, relation: str) -> Tuple[AttributeProfile, ...]:
        """All attribute profiles of ``relation`` in schema order."""
        rel = self._relation_profiles.get(relation)
        if rel is None:
            return ()
        return tuple(
            self._attribute_profiles[(relation, name)] for name in rel.attribute_names
        )

    @property
    def relation_count(self) -> int:
        """Number of profiled relations."""
        return len(self._relation_profiles)

    @property
    def attribute_count(self) -> int:
        """Number of profiled attributes."""
        return len(self._attribute_profiles)

    @property
    def distinct_value_count(self) -> int:
        """Number of distinct canonical values across all posting lists."""
        self._ensure_postings()
        return self._shards.distinct_value_count

    @property
    def shard_count(self) -> int:
        """Number of posting-list shards."""
        return self._shards.shard_count

    def shard_sizes(self) -> Tuple[int, ...]:
        """Posting keys per shard (balance diagnostic; materializes postings)."""
        self._ensure_postings()
        return self._shards.shard_sizes()

    @property
    def sketch_enabled(self) -> bool:
        """Whether the MinHash/LSH tier is maintained."""
        return self.sketch_config is not None

    # ------------------------------------------------------------------
    # Value overlap (read off the stored distinct sets)
    # ------------------------------------------------------------------
    def overlap(
        self, relation_a: str, attribute_a: str, relation_b: str, attribute_b: str
    ) -> int:
        """Number of shared distinct values between two indexed attributes."""
        profile_a = self._attribute_profiles.get((relation_a, attribute_a))
        profile_b = self._attribute_profiles.get((relation_b, attribute_b))
        if profile_a is None or profile_b is None:
            return 0
        values_a, values_b = profile_a.distinct_values, profile_b.distinct_values
        if len(values_b) < len(values_a):
            values_a, values_b = values_b, values_a
        return len(values_a & values_b)

    # ------------------------------------------------------------------
    # Posting-list candidate generation (the exact/lossless tier)
    # ------------------------------------------------------------------
    def value_candidates(self, relation: str, attribute: str) -> Dict[AttrId, int]:
        """Attributes sharing at least one value, with shared-value counts.

        Computed by walking the posting list of each of the attribute's
        distinct values — cost proportional to the number of actual
        co-occurrences instead of the number of attribute pairs.  Memoized
        per attribute and validated against the index epoch.
        """
        attr_id = (relation, attribute)
        cached = self._candidate_cache.get(attr_id)
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        profile = self._attribute_profiles.get(attr_id)
        candidates: Dict[AttrId, int] = {}
        if profile is not None:
            self._ensure_postings()
            shards = self._shards
            for value in profile.distinct_values:
                postings = shards.value_postings(value)
                if postings is None:
                    continue
                for other in postings:
                    if other != attr_id:
                        candidates[other] = candidates.get(other, 0) + 1
        self._candidate_cache[attr_id] = (self.epoch, candidates)
        return candidates

    # ------------------------------------------------------------------
    # Sketch candidate generation (the approximate tier)
    # ------------------------------------------------------------------
    def sketch_candidates(self, relation: str, attribute: str) -> Set[AttrId]:
        """Attributes whose MinHash signature collides in ≥ 1 LSH band.

        Raw sketch-tier output: a superset of the high-Jaccard neighbors,
        *not* verified against the true value sets.  Callers should go
        through :meth:`tiered_candidates`, which re-verifies every survivor.
        """
        if self.sketch_config is None:
            return set()
        self._ensure_postings()  # band keys live beside the shard buckets
        attr_id = (relation, attribute)
        keys = self._band_keys.get(attr_id)
        if not keys:
            return set()
        shards = self._shards
        candidates: Set[AttrId] = set()
        for key in keys:
            bucket = shards.bucket(key)
            if bucket:
                candidates.update(bucket)
        candidates.discard(attr_id)
        return candidates

    def tiered_candidates(self, relation: str, attribute: str) -> Dict[AttrId, int]:
        """Candidate attributes via the tiered pipeline, with exact shared counts.

        Tier 0 (approximate): LSH band-bucket collisions over the MinHash
        signatures, unioned with the posting lists of the attribute's
        **rare** value tokens (document frequency ≤ ``rare_token_df``) —
        cheap exact evidence that catches low-Jaccard joinable pairs (two
        attributes sharing a handful of identifier-like values) that
        MinHash alone would miss.

        Tier 1 (exact): every tier-0 survivor is re-verified against the
        true distinct-value sets; only pairs sharing a value survive, with
        their exact shared counts — so a surviving candidate carries the
        same count ``value_candidates`` would report, and no false positive
        ever reaches a matcher.

        Falls back to the lossless posting-list walk when no sketch tier is
        configured.  Memoized per attribute against the index epoch.
        """
        if self.sketch_config is None:
            return self.value_candidates(relation, attribute)
        attr_id = (relation, attribute)
        cached = self._tiered_cache.get(attr_id)
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        profile = self._attribute_profiles.get(attr_id)
        kept: Dict[AttrId, int] = {}
        if profile is not None and profile.distinct_values:
            self._ensure_postings()  # rare-token postings need the shards
            survivors = self.sketch_candidates(relation, attribute)
            shards = self._shards
            rare_cap = self.rare_token_df
            for token in profile.value_tokens:
                postings = shards.token_postings(token)
                if postings is not None and len(postings) <= rare_cap:
                    survivors.update(postings)
            survivors.discard(attr_id)
            self.sketch_candidates_generated += len(survivors)
            values = profile.distinct_values
            for other in sorted(survivors):
                other_profile = self._attribute_profiles.get(other)
                if other_profile is None:
                    continue
                other_values = other_profile.distinct_values
                if len(other_values) < len(values):
                    shared = len(other_values & values)
                else:
                    shared = len(values & other_values)
                if shared:
                    kept[other] = shared
            self.exact_candidates_kept += len(kept)
        self._tiered_cache[attr_id] = (self.epoch, kept)
        return kept

    def candidate_pairs(self, relation: str, min_shared_values: int = 1) -> List[Tuple[AttrId, AttrId, int]]:
        """Attribute pairs of ``relation`` that could join, with exact shared counts.

        Returns ``(attr_of_relation, candidate_attr, shared_count)`` triples
        with ``shared_count >= min_shared_values``.  Deterministic order:
        schema order on the left side, ``(relation, attribute)`` order on
        the right.

        The candidate source follows from what the index holds: one that
        keeps sketches answers through :meth:`tiered_candidates`, one that
        does not through the posting-list walk of :meth:`value_candidates`.
        """
        rel_profile = self._relation_profiles.get(relation)
        if rel_profile is None:
            return []
        candidates_of = self.tiered_candidates if self.sketch_enabled else self.value_candidates
        pairs: List[Tuple[AttrId, AttrId, int]] = []
        for name in rel_profile.attribute_names:
            attr_id = (relation, name)
            for other, shared in sorted(candidates_of(relation, name).items()):
                if shared >= min_shared_values:
                    pairs.append((attr_id, other, shared))
        return pairs

    def comparable_pair_counts(self, relation: str, min_shared_values: int = 1) -> Dict[str, int]:
        """Per other relation, how many attribute pairs with ``relation`` share enough values.

        One walk over ``relation``'s candidate maps prices every relation it
        could be compared with, so an aligner asking about each candidate in
        turn pays for the walk once.  Kept for the current epoch only.
        """
        if self._pair_counts_epoch != self.epoch:
            self._pair_counts = {}
            self._pair_counts_epoch = self.epoch
        counts = self._pair_counts.get((relation, min_shared_values))
        if counts is None:
            counts = self._pair_counts[(relation, min_shared_values)] = {}
            profile = self._relation_profiles.get(relation)
            for name in profile.attribute_names if profile is not None else ():
                for other, shared in self.value_candidates(relation, name).items():
                    if shared >= min_shared_values:
                        counts[other[0]] = counts.get(other[0], 0) + 1
        return counts

    def comparable_pair_count(
        self, relation_a: str, relation_b: str, min_shared_values: int = 1
    ) -> int:
        """Number of attribute pairs of the two relations sharing enough values.

        The Figure 7 "value overlap filter" count, read off
        :meth:`comparable_pair_counts` of ``relation_a`` instead of the
        seed's nested loop over every attribute pair.
        """
        return self.comparable_pair_counts(relation_a, min_shared_values).get(relation_b, 0)

    # ------------------------------------------------------------------
    # Token postings
    # ------------------------------------------------------------------
    def token_postings(self, token: str) -> Tuple[AttrId, ...]:
        """The attributes whose values contain ``token`` (a posting list)."""
        self._ensure_postings()
        postings = self._shards.token_postings(token.lower())
        return tuple(postings) if postings is not None else ()

    # ------------------------------------------------------------------
    # Session persistence (see :mod:`repro.persist`)
    # ------------------------------------------------------------------
    def export_state(self, relations: Optional[Iterable[str]] = None) -> Dict[str, object]:
        """JSON-compatible state of the index (optionally one relation subset).

        Set-valued profile fields are emitted sorted so the payload is
        canonical: exporting, restoring and exporting again yields an
        identical document (the round-trip fixed point the persistence
        property tests assert).  Posting lists, sketches and candidate maps
        are *not* serialized — they are derived state, rebuilt from the
        profiles on :meth:`absorb_state`.  The structural configuration
        (shard count, sketch shape) *is* serialized so a restored index
        routes and sketches exactly like the one that saved.
        """
        selected = set(relations) if relations is not None else None

        def keep(relation: str) -> bool:
            return selected is None or relation in selected

        return {
            "epoch": self.epoch,
            "shard_count": self._shards.shard_count,
            "sketch": (
                self.sketch_config.payload() if self.sketch_config is not None else None
            ),
            "rare_token_df": self.rare_token_df,
            "relations": [
                {
                    "relation": profile.relation,
                    "attribute_names": list(profile.attribute_names),
                    "name_token_union": sorted(profile.name_token_union),
                    "row_count": profile.row_count,
                }
                for profile in self._relation_profiles.values()
                if keep(profile.relation)
            ],
            "attributes": [
                {
                    "relation": profile.relation,
                    "attribute": profile.attribute,
                    "normalized_name": profile.normalized_name,
                    "name_tokens": sorted(profile.name_tokens),
                    "distinct_values": sorted(profile.distinct_values),
                    "value_tokens": sorted(profile.value_tokens),
                    "row_count": profile.row_count,
                    "non_null_count": profile.non_null_count,
                }
                for profile in self._attribute_profiles.values()
                if keep(profile.relation)
            ],
            "source_relations": [
                [name, list(rels)]
                for name, rels in self._source_relations.items()
                if selected is None or any(rel in selected for rel in rels)
            ],
        }

    def absorb_state(self, payload: Dict[str, object]) -> None:
        """Fold a previously exported state into this index.

        Profiles are installed verbatim (no table scan — the warm-start
        fast path); posting lists and sketches are **deferred**, rebuilt
        from the profiles only when an in-memory posting read first needs
        them (:meth:`_ensure_postings`).  The epoch is taken from the
        payload so dependent caches re-validate exactly as they would
        against the original index.  Structural configuration keys
        (``shard_count``, ``sketch``) are ignored here — they are fixed at
        construction; :meth:`from_state` applies them when rebuilding from
        scratch.
        """
        self._postings_ready = False
        for spec in payload["relations"]:
            relation = spec["relation"]
            names = tuple(spec["attribute_names"])
            self._relation_profiles[relation] = RelationProfile(
                relation=relation,
                attribute_names=names,
                name_token_union=frozenset(spec["name_token_union"]),
                row_count=spec["row_count"],
            )
        for spec in payload["attributes"]:
            profile = AttributeProfile(
                relation=spec["relation"],
                attribute=spec["attribute"],
                normalized_name=spec["normalized_name"],
                name_tokens=frozenset(spec["name_tokens"]),
                distinct_values=frozenset(spec["distinct_values"]),
                value_tokens=frozenset(spec["value_tokens"]),
                row_count=spec["row_count"],
                non_null_count=spec["non_null_count"],
            )
            self._install_attribute(profile)
        for name, rels in payload["source_relations"]:
            relations = self._source_relations.setdefault(name, [])
            for relation in rels:
                if relation not in relations:
                    relations.append(relation)
        self.epoch = payload["epoch"]

    @classmethod
    def from_state(cls, payload: Dict[str, object]) -> "CatalogProfileIndex":
        """Rebuild an index from :meth:`export_state` output (no data scan).

        The persisted structural configuration — shard count, sketch shape,
        rare-token ceiling — is applied first, so the restored index routes
        postings and generates candidates exactly like the saved one.
        """
        sketch_payload = payload["sketch"]
        index = cls(
            shard_count=payload["shard_count"],
            sketch=(
                SketchConfig.from_payload(sketch_payload)
                if sketch_payload is not None
                else None
            ),
            rare_token_df=payload["rare_token_df"],
        )
        index.absorb_state(payload)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CatalogProfileIndex(relations={self.relation_count}, "
            f"attributes={self.attribute_count}, values={self.distinct_value_count}, "
            f"shards={self.shard_count}, sketch={self.sketch_enabled})"
        )
