"""Set-based similarity measures over tokens and value sets.

Used for (a) token-level label similarity in the metadata matcher, and
(b) instance-level value-overlap similarity between attributes (the basis of
the value-overlap filter and a feature of the ensemble matcher).
"""

from __future__ import annotations

from typing import Iterable

from .tokenize import token_set


def jaccard(a: Iterable, b: Iterable) -> float:
    """Jaccard similarity ``|A ∩ B| / |A ∪ B|`` between two collections."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def max_containment(a: Iterable, b: Iterable) -> float:
    """Symmetric containment ``|A ∩ B| / min(|A|, |B|)``: unlike Jaccard, a subset scores 1."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    intersection = len(set_a & set_b)
    return max(intersection / len(set_a), intersection / len(set_b))


def token_jaccard(label_a: str, label_b: str) -> float:
    """Jaccard similarity between the token sets of two labels.

    ``token_set`` is memoized, so repeated label comparisons only pay for
    the set algebra.
    """
    return jaccard(token_set(label_a), token_set(label_b))

