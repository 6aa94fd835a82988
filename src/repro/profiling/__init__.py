"""Profile-indexed source registration (the registration-side fast path).

Architecture
============

The paper's headline contribution (Section 3) is *automatically
incorporating new sources*: when a source is registered, a base matcher
aligns its attributes against the catalog and the aligner strategies decide
which relation pairs are worth the comparison.  The seed implementation ran
this as nested all-pairs loops, re-deriving value sets, token bags and name
normalizations from scratch on every call — the cost measured by the
Figure 6 (runtime) and Figure 7 (attribute comparisons) experiments.

This package makes registration *index-centric* instead:

``profiles``
    :func:`~repro.profiling.profiles.profile_table` computes, in one pass
    per table, an :class:`~repro.profiling.profiles.AttributeProfile` per
    attribute (canonical distinct values, value tokens, tokenized and
    normalized attribute names, cardinality statistics) and a
    :class:`~repro.profiling.profiles.RelationProfile` per relation
    (sibling-name token union).

``index``
    :class:`~repro.profiling.index.CatalogProfileIndex` stores those
    profiles persistently and maintains two inverted posting lists —
    distinct value → attributes, value token → attributes.  It holds
    evidence and remembers no matcher's answers.  The index is updated
    **once per registered source** (``index_source``), supports exact
    retraction (``remove_source``, used by the registration rollback path),
    and exposes posting-list **candidate generation**
    (:meth:`~repro.profiling.index.CatalogProfileIndex.value_candidates`,
    :meth:`~repro.profiling.index.CatalogProfileIndex.candidate_pairs`):
    the attribute pairs that share at least one value, found by
    intersecting posting lists — cost proportional to actual
    co-occurrences, not to the number of attribute pairs.  This is the
    *blocking* step that replaces the matcher layer's nested loops.

The profiles are the only summary of a table's values: storage keeps none,
and every matcher reads them through
:meth:`~repro.matching.base.BaseMatcher.index_for`.

Consumers: :class:`~repro.matching.value_overlap.ValueOverlapFilter` and
:class:`~repro.matching.value_overlap.ValueOverlapMatcher` (blocking),
:class:`~repro.matching.metadata_matcher.MetadataMatcher` (structural
profiles), :class:`~repro.matching.mad.MadMatcher` (the column–value graph), :class:`~repro.alignment.base.BaseAligner` (hands its index to
the matcher it runs), :class:`~repro.alignment.registration.SourceRegistrar`
(incremental maintenance + rollback) and
:meth:`repro.api.service.QService.register_sources` (batch ingest: profile
N sources in one pass, then align).
"""

from .index import CatalogProfileIndex
from .profiles import (
    AttrId,
    AttributeProfile,
    RelationProfile,
    profile_table,
)
from .shards import BandKey, PostingShard, ShardRouter, stable_shard
from .sketches import (
    SketchConfig,
    attribute_sketch,
    band_keys,
    minhash_signature,
    token_hash,
)

__all__ = [
    "AttrId",
    "AttributeProfile",
    "BandKey",
    "CatalogProfileIndex",
    "PostingShard",
    "RelationProfile",
    "ShardRouter",
    "SketchConfig",
    "attribute_sketch",
    "band_keys",
    "minhash_signature",
    "profile_table",
    "stable_shard",
    "token_hash",
]
