"""Character n-gram similarity.

One of the alternative keyword/label similarity metrics mentioned in the
paper (Section 2.2), and a component of the metadata matcher.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .tokenize import character_ngrams


@lru_cache(maxsize=16384)
def _ngram_profile(text: str, n: int) -> tuple:
    """Per-label n-gram multiset, precomputed once: ``(Counter, total)``."""
    grams = Counter(character_ngrams(text, n))
    return grams, sum(grams.values())


@lru_cache(maxsize=65536)
def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Dice coefficient over character n-gram multisets, in ``[0, 1]``.

    The Dice coefficient ``2 |A ∩ B| / (|A| + |B|)`` over n-gram *multisets*
    is robust to repeated substrings and is the classic "trigram similarity"
    used by schema matchers.  Memoized at two levels — per label pair, and
    per label for the n-gram counters themselves (the matchers compare the
    same labels against many partners across strategies and trials) — with
    the multiset intersection summed in place rather than materialized.
    """
    grams_a, total_a = _ngram_profile(a, n)
    grams_b, total_b = _ngram_profile(b, n)
    if not grams_a and not grams_b:
        return 1.0
    if not grams_a or not grams_b:
        return 0.0
    if len(grams_b) < len(grams_a):
        grams_a, grams_b = grams_b, grams_a
    get = grams_b.get
    shared = sum(
        count if count <= (other := get(gram, 0)) else other
        for gram, count in grams_a.items()
    )
    return 2.0 * shared / (total_a + total_b)

