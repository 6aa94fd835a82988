"""Jaro and Jaro–Winkler string similarity.

The metadata matcher compares attribute names with Jaro–Winkler, the
edit-distance family measure schema matchers commonly use.  Keyword
matching does not use it: keywords are scored by tf-idf only.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=65536)
def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity between two strings, in ``[0, 1]`` (memoized)."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    match_window = max(len_a, len_b) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len_a
    b_matched = [False] * len_b
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_b)
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if not a_matched[i]:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


@lru_cache(maxsize=65536)
def jaro_winkler_similarity(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro–Winkler similarity, boosting strings that share a common prefix.

    Parameters
    ----------
    a, b:
        Strings to compare (case-sensitive; callers usually lowercase first).
    prefix_scale:
        How much the common-prefix bonus contributes (standard value 0.1).
    max_prefix:
        Maximum prefix length to consider for the bonus (standard value 4).
    """
    jaro = jaro_similarity(a, b)
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix >= max_prefix:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)
