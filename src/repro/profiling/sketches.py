"""MinHash signatures + LSH banding over attribute token sets.

The approximate tier of the profile index's tiered blocking (see
:meth:`~repro.profiling.index.CatalogProfileIndex.tiered_candidates`).
Each attribute's distinct **value tokens** — already computed once at
profiling time — are summarized into a MinHash signature; the signature is
cut into LSH bands, and two attributes become *sketch candidates* when any
band hashes into the same bucket.  A sketch *is* its bucket keys: one int
per band, ``band << 32 | crc32(band rows)``; the signature is dropped once
cut, since only bucket identity decides a candidate.  Bucket membership is
maintained incrementally alongside the posting lists, so a candidate probe
is a handful of bucket lookups instead of a scan over the catalog.

Determinism is a hard requirement: signatures must be identical across
processes and across save/restore cycles (the persistence round-trip
re-derives sketches from the profiles).  All
hashing therefore goes through ``zlib.crc32``-seeded 61-bit universal
hash permutations with constants drawn from a fixed-seed PRNG — nothing
touches Python's per-process-salted builtin ``hash``.

With the default config (48 permutations, 24 bands of 2 rows) the
probability that a pair of attributes with token-set Jaccard ``j``
collides in at least one band is ``1 - (1 - j^2)^24`` — above 99.9% for
``j >= 0.5``, about 91% at ``j = 0.3``.  The exact tier re-verifies every
sketch survivor against the true distinct-value sets, so false positives
never surface; false negatives are bounded by pairing the sketch tier
with exact rare-token postings (see ``tiered_candidates``).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

#: Mersenne prime 2^61 - 1: modulus of the universal hash permutations.
_MERSENNE = (1 << 61) - 1

#: Fixed seed for the permutation constants — part of the sketch format.
_PERMUTATION_SEED = 0x51C7E5


@dataclass(frozen=True)
class SketchConfig:
    """Shape of the MinHash/LSH sketches.

    Attributes
    ----------
    num_perm:
        Signature length (number of hash permutations).
    bands:
        Number of LSH bands; ``num_perm`` must be divisible by ``bands``.
        Rows per band is ``num_perm // bands`` — fewer rows per band makes
        the tier more permissive (higher recall, more exact-tier work).
    """

    num_perm: int = 48
    bands: int = 24

    def __post_init__(self) -> None:
        if self.num_perm < 1 or self.bands < 1:
            raise ValueError("num_perm and bands must be >= 1")
        if self.num_perm % self.bands != 0:
            raise ValueError(
                f"bands ({self.bands}) must divide num_perm ({self.num_perm})"
            )

    @property
    def rows_per_band(self) -> int:
        return self.num_perm // self.bands

    def payload(self) -> Dict[str, int]:
        """JSON-compatible form (persisted with the profile-index state)."""
        return {"num_perm": self.num_perm, "bands": self.bands}

    @classmethod
    def from_payload(cls, payload: Dict[str, int]) -> "SketchConfig":
        return cls(num_perm=payload["num_perm"], bands=payload["bands"])


#: ``num_perm -> [(a, b), ...]`` permutation constants, derived once per
#: signature length from the fixed seed (identical in every process).
_PERMUTATIONS: Dict[int, List[Tuple[int, int]]] = {}


def _permutations(num_perm: int) -> List[Tuple[int, int]]:
    cached = _PERMUTATIONS.get(num_perm)
    if cached is None:
        rng = random.Random(_PERMUTATION_SEED)
        cached = [
            (rng.randrange(1, _MERSENNE), rng.randrange(0, _MERSENNE))
            for _ in range(num_perm)
        ]
        _PERMUTATIONS[num_perm] = cached
    return cached


def token_hash(token: str) -> int:
    """Stable 61-bit base hash of one token.

    Two independent crc32 passes (plain and salted) are combined into one
    wide value so the universal-hash family sees more than 32 bits of
    entropy per token.
    """
    data = token.encode("utf-8")
    low = zlib.crc32(data)
    high = zlib.crc32(data, 0x9E3779B9)
    return ((high << 32) | low) % _MERSENNE


def minhash_signature(
    tokens: Iterable[str], config: SketchConfig
) -> Tuple[int, ...]:
    """MinHash signature of a token set (empty set → all-max sentinel rows).

    The sentinel keeps empty attributes out of every bucket that a
    non-empty attribute could occupy only by genuinely hashing there.
    """
    perms = _permutations(config.num_perm)
    base_hashes = [token_hash(token) for token in set(tokens)]
    if not base_hashes:
        return tuple([_MERSENNE] * config.num_perm)
    signature: List[int] = []
    for a, b in perms:
        signature.append(min((a * h + b) % _MERSENNE for h in base_hashes))
    return tuple(signature)


def band_keys(signature: Tuple[int, ...], config: SketchConfig) -> Tuple[int, ...]:
    """LSH bucket keys of a signature: one int ``band << 32 | digest`` per band.

    ``digest`` is the crc32 of the band's rows, so it fits the low 32 bits
    and the key names the ``(band, digest)`` bucket exactly.

    Empty-set sentinel signatures produce no keys at all — an attribute
    with no tokens can never be a sketch candidate (it has no tokens to
    share), so it does not belong in any bucket.
    """
    if signature and signature[0] == _MERSENNE and len(set(signature)) == 1:
        return ()
    rows = config.rows_per_band
    keys: List[int] = []
    for band in range(config.bands):
        chunk = signature[band * rows : (band + 1) * rows]
        digest = zlib.crc32(b"|".join(str(v).encode("ascii") for v in chunk))
        keys.append(band << 32 | digest)
    return tuple(keys)


def attribute_sketch(value_tokens: FrozenSet[str], config: SketchConfig) -> Tuple[int, ...]:
    """The band keys of one attribute's value-token set (its signature is not kept)."""
    return band_keys(minhash_signature(value_tokens, config), config)
