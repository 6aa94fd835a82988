"""Hash-sharded posting storage for the catalog profile index.

At web-catalog scale a single flat ``value -> attributes`` dictionary
becomes the profile index's contention and memory hot spot: every
registration touches it for every distinct value of every new attribute,
and persistence exports walk it end to end.  This module splits the
posting-list state of :class:`~repro.profiling.index.CatalogProfileIndex`
into ``N`` independent :class:`PostingShard` buckets behind a thin
:class:`ShardRouter`:

* routing is by a **stable** hash (``zlib.crc32``) of the posting key —
  the distinct value, the value token, or the LSH band bucket — so shard
  assignment is identical across processes, sessions and restores
  (Python's builtin ``hash`` is salted per process and therefore unusable
  here);
* every router operation is a one-shard operation, so shards can be
  maintained, sized and (in future PRs) locked or distributed
  independently;
* the router exposes exactly the lookups the index used to perform on its
  flat dictionaries, which keeps :class:`CatalogProfileIndex`'s public
  API — ``candidate_pairs`` / ``overlap`` / ``token_postings`` — and all
  of its callers (matchers, aligner strategies, persistence) untouched.

``shard_count=1`` degenerates to the old single-dictionary layout with no
routing overhead beyond one modulo, and is the default everywhere.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .profiles import AttrId

#: An LSH band bucket identity: ``(band index, band hash)``.
BandKey = Tuple[int, int]


def stable_shard(key: str, shard_count: int) -> int:
    """Deterministic shard of a string key (identical across processes)."""
    if shard_count <= 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % shard_count


class PostingShard:
    """One shard's slice of the posting-list state.

    Three independent maps, all ``key -> set of attribute ids``:

    * ``value_postings`` — distinct canonical value → attributes containing
      it (the lossless blocking index);
    * ``token_postings`` — value token → attributes whose values contain it
      (document frequencies / tf-idf);
    * ``sketch_buckets`` — LSH band bucket → attributes whose MinHash
      signature lands in it (the approximate blocking tier).
    """

    __slots__ = ("value_postings", "token_postings", "sketch_buckets")

    def __init__(self) -> None:
        self.value_postings: Dict[str, Set[AttrId]] = {}
        self.token_postings: Dict[str, Set[AttrId]] = {}
        self.sketch_buckets: Dict[BandKey, Set[AttrId]] = {}

    def entry_count(self) -> int:
        """Total posting keys held by this shard (all three maps)."""
        return (
            len(self.value_postings) + len(self.token_postings) + len(self.sketch_buckets)
        )


class ShardRouter:
    """Routes posting-list operations to one of ``shard_count`` shards.

    The router is intentionally dumb: it owns the shard array, picks the
    shard for a key, and performs the add/discard/lookup on it.  All
    aggregate semantics (candidate generation, overlap counting, tf-idf)
    stay in :class:`~repro.profiling.index.CatalogProfileIndex`.
    """

    __slots__ = ("shard_count", "shards")

    def __init__(self, shard_count: int = 1) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count
        self.shards: List[PostingShard] = [PostingShard() for _ in range(shard_count)]

    # ------------------------------------------------------------------
    # Distinct-value postings
    # ------------------------------------------------------------------
    def add_value(self, value: str, attr_id: AttrId) -> None:
        shard = self.shards[stable_shard(value, self.shard_count)]
        shard.value_postings.setdefault(value, set()).add(attr_id)

    def discard_value(self, value: str, attr_id: AttrId) -> None:
        shard = self.shards[stable_shard(value, self.shard_count)]
        postings = shard.value_postings.get(value)
        if postings is not None:
            postings.discard(attr_id)
            if not postings:
                del shard.value_postings[value]

    def value_postings(self, value: str) -> Optional[Set[AttrId]]:
        shard = self.shards[stable_shard(value, self.shard_count)]
        return shard.value_postings.get(value)

    @property
    def distinct_value_count(self) -> int:
        return sum(len(shard.value_postings) for shard in self.shards)

    # ------------------------------------------------------------------
    # Token postings
    # ------------------------------------------------------------------
    def add_token(self, token: str, attr_id: AttrId) -> None:
        shard = self.shards[stable_shard(token, self.shard_count)]
        shard.token_postings.setdefault(token, set()).add(attr_id)

    def discard_token(self, token: str, attr_id: AttrId) -> None:
        shard = self.shards[stable_shard(token, self.shard_count)]
        postings = shard.token_postings.get(token)
        if postings is not None:
            postings.discard(attr_id)
            if not postings:
                del shard.token_postings[token]

    def token_postings(self, token: str) -> Optional[Set[AttrId]]:
        shard = self.shards[stable_shard(token, self.shard_count)]
        return shard.token_postings.get(token)

    # ------------------------------------------------------------------
    # LSH band buckets (the approximate blocking tier)
    # ------------------------------------------------------------------
    def add_bucket(self, key: BandKey, attr_id: AttrId) -> None:
        shard = self.shards[self._bucket_shard(key)]
        shard.sketch_buckets.setdefault(key, set()).add(attr_id)

    def discard_bucket(self, key: BandKey, attr_id: AttrId) -> None:
        shard = self.shards[self._bucket_shard(key)]
        bucket = shard.sketch_buckets.get(key)
        if bucket is not None:
            bucket.discard(attr_id)
            if not bucket:
                del shard.sketch_buckets[key]

    def bucket(self, key: BandKey) -> Optional[Set[AttrId]]:
        shard = self.shards[self._bucket_shard(key)]
        return shard.sketch_buckets.get(key)

    def _bucket_shard(self, key: BandKey) -> int:
        if self.shard_count <= 1:
            return 0
        band, digest = key
        return (band * 1000003 + digest) % self.shard_count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_sizes(self) -> Tuple[int, ...]:
        """Posting keys per shard (balance diagnostic for benches/stats)."""
        return tuple(shard.entry_count() for shard in self.shards)
