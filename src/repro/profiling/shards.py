"""Hash-sharded posting storage for the catalog profile index.

At web-catalog scale a single flat ``value -> attributes`` dictionary
becomes the profile index's contention and memory hot spot: every
registration touches it for every distinct value of every new attribute,
and persistence exports walk it end to end.  This module splits the
posting-list state of :class:`~repro.profiling.index.CatalogProfileIndex`
into ``N`` independent :class:`PostingShard` buckets behind a thin
:class:`ShardRouter`:

* routing is by a **stable** hash (``zlib.crc32``) of the posting key —
  the distinct value or the value token; an LSH band bucket's int key
  already carries a crc32 and routes by ``key % shard_count`` — so shard
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

Most posting keys are seen in one attribute (an identifier-like value, a
rare token, a band bucket nothing collides in), so a posting is **the
attribute id itself while there is one and a set from the second** — the id
again when a discard leaves one.  Only the router's methods see the
difference: a lookup answers with a one-element tuple or the set.
"""

from __future__ import annotations

import zlib
from typing import Collection, Dict, Hashable, List, Optional, Set, Tuple, Union

from .profiles import AttrId

#: An LSH band bucket identity: ``band index << 32 | crc32 of the band's rows``
#: (see :func:`~repro.profiling.sketches.band_keys`).
BandKey = int

#: What a posting map holds under a key: the one attribute, or a set of them.
Posting = Union[AttrId, Set[AttrId]]


def stable_shard(key: str, shard_count: int) -> int:
    """Deterministic shard of a string key (identical across processes)."""
    if shard_count <= 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % shard_count


class PostingShard:
    """One shard's slice of the posting-list state.

    Three independent maps, all ``key -> attribute id, or a set of them``
    (:data:`Posting`; read and written through :class:`ShardRouter` only):

    * ``value_postings`` — distinct canonical value → attributes containing
      it (the lossless blocking index);
    * ``token_postings`` — value token → attributes whose values contain it
      (document frequencies / tf-idf);
    * ``sketch_buckets`` — LSH band bucket → attributes whose MinHash
      signature lands in it (the approximate blocking tier).
    """

    __slots__ = ("value_postings", "token_postings", "sketch_buckets")

    def __init__(self) -> None:
        self.value_postings: Dict[str, Posting] = {}
        self.token_postings: Dict[str, Posting] = {}
        self.sketch_buckets: Dict[BandKey, Posting] = {}

    def entry_count(self) -> int:
        """Total posting keys held by this shard (all three maps)."""
        return (
            len(self.value_postings) + len(self.token_postings) + len(self.sketch_buckets)
        )


def _add(postings: Dict[Hashable, Posting], key: Hashable, attr_id: AttrId) -> None:
    held = postings.get(key)
    if held is None:
        postings[key] = attr_id
    elif type(held) is set:
        held.add(attr_id)
    elif held != attr_id:
        postings[key] = {held, attr_id}


def _discard(postings: Dict[Hashable, Posting], key: Hashable, attr_id: AttrId) -> None:
    held = postings.get(key)
    if type(held) is set:
        held.discard(attr_id)
        if len(held) == 1:
            (postings[key],) = held
    elif held == attr_id:
        del postings[key]


def _lookup(postings: Dict[Hashable, Posting], key: Hashable) -> Optional[Collection[AttrId]]:
    held = postings.get(key)
    return held if held is None or type(held) is set else (held,)


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
        _add(self.shards[stable_shard(value, self.shard_count)].value_postings, value, attr_id)

    def discard_value(self, value: str, attr_id: AttrId) -> None:
        _discard(self.shards[stable_shard(value, self.shard_count)].value_postings, value, attr_id)

    def value_postings(self, value: str) -> Optional[Collection[AttrId]]:
        return _lookup(self.shards[stable_shard(value, self.shard_count)].value_postings, value)

    @property
    def distinct_value_count(self) -> int:
        return sum(len(shard.value_postings) for shard in self.shards)

    # ------------------------------------------------------------------
    # Token postings
    # ------------------------------------------------------------------
    def add_token(self, token: str, attr_id: AttrId) -> None:
        _add(self.shards[stable_shard(token, self.shard_count)].token_postings, token, attr_id)

    def discard_token(self, token: str, attr_id: AttrId) -> None:
        _discard(self.shards[stable_shard(token, self.shard_count)].token_postings, token, attr_id)

    def token_postings(self, token: str) -> Optional[Collection[AttrId]]:
        return _lookup(self.shards[stable_shard(token, self.shard_count)].token_postings, token)

    # ------------------------------------------------------------------
    # LSH band buckets (the approximate blocking tier)
    # ------------------------------------------------------------------
    def add_bucket(self, key: BandKey, attr_id: AttrId) -> None:
        _add(self.shards[self._bucket_shard(key)].sketch_buckets, key, attr_id)

    def discard_bucket(self, key: BandKey, attr_id: AttrId) -> None:
        _discard(self.shards[self._bucket_shard(key)].sketch_buckets, key, attr_id)

    def bucket(self, key: BandKey) -> Optional[Collection[AttrId]]:
        return _lookup(self.shards[self._bucket_shard(key)].sketch_buckets, key)

    def _bucket_shard(self, key: BandKey) -> int:
        return key % self.shard_count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_sizes(self) -> Tuple[int, ...]:
        """Posting keys per shard (balance diagnostic for benches/stats)."""
        return tuple(shard.entry_count() for shard in self.shards)
