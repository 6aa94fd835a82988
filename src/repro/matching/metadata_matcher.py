"""Metadata-based schema matcher (the COMA++ stand-in).

The paper plugs the COMA++ tool into Q as a black-box *metadata* matcher
("we used COMA++'s default structural relationship and substring matchers
over metadata", Section 3.2.1).  COMA++ is closed-source Java software, so
this module provides a matcher with the same interface and the same
qualitative behaviour:

* it looks only at schema-level evidence (attribute and relation names, and
  the names of sibling attributes for a structural signal), never at data
  values;
* it combines several name similarity measures (token overlap, Jaro–Winkler,
  character trigrams, substring containment) into a single confidence in
  ``[0, 1]``;
* it is good at detecting near-identical names (``entry_ac`` ↔ ``entry_ac``)
  and misses purely instance-level synonyms (``go_id`` ↔ ``acc``) — which is
  exactly the behaviour the paper's Table 1 and Figure 10 rely on when
  contrasting COMA++ with the MAD instance-based matcher.

See DESIGN.md, "Substitutions", for the justification of this replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

from ..datastore.table import Table
from ..profiling.index import CatalogProfileIndex
from ..similarity.edit_distance import jaro_winkler_similarity
from ..similarity.jaccard import token_jaccard
from ..similarity.ngram import ngram_similarity
from ..similarity.tokenize import normalize_label
from .base import BaseMatcher, Correspondence


@dataclass
class MetadataMatcherConfig:
    """Weights and thresholds for the metadata matcher.

    The component weights must sum to 1; the defaults follow the common
    "hybrid name matcher" recipe (token evidence weighted highest, then
    string-level evidence, then the structural bonus).
    """

    token_weight: float = 0.40
    jaro_winkler_weight: float = 0.25
    trigram_weight: float = 0.20
    substring_weight: float = 0.15
    structural_bonus: float = 0.05
    min_confidence: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ValueError` if the component weights do not sum to 1."""
        total = (
            self.token_weight
            + self.jaro_winkler_weight
            + self.trigram_weight
            + self.substring_weight
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1.0, got {total}")


class MetadataMatcher(BaseMatcher):
    """Pairwise schema matcher over attribute names and light structure.

    Parameters
    ----------
    config:
        Component weights and thresholds.
    profile_index:
        Optional shared :class:`CatalogProfileIndex` (see
        :meth:`~repro.matching.base.BaseMatcher.index_for`).  Metadata
        evidence is schema-only; the index supplies each relation's
        sibling-name token union.
    """

    name = "metadata"

    def __init__(
        self,
        config: Optional[MetadataMatcherConfig] = None,
        profile_index: Optional[CatalogProfileIndex] = None,
    ) -> None:
        super().__init__(profile_index)
        self.config = config or MetadataMatcherConfig()
        self.config.validate()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def name_similarity(self, label_a: str, label_b: str) -> float:
        """Combined name similarity of two attribute labels, in ``[0, 1]``.

        Memoized per (weights, label pair): schema matching compares the
        same label pairs across every strategy, trial and registration.
        Every component measure is symmetric (Jaccard, Jaro–Winkler, Dice,
        substring containment — covered by the property tests), so the pair
        is canonicalized before the cache and each unordered pair is scored
        exactly once.
        """
        if label_b < label_a:
            label_a, label_b = label_b, label_a
        config = self.config
        return _name_similarity_cached(
            label_a,
            label_b,
            config.token_weight,
            config.jaro_winkler_weight,
            config.trigram_weight,
            config.substring_weight,
        )

    def _structural_similarity(self, table_a: Table, table_b: Table) -> float:
        """Fraction of sibling-attribute tokens the two relations share.

        A weak structural signal in the spirit of COMA++'s structural
        matcher: two attributes embedded in relations whose remaining
        attributes look alike are slightly more likely to correspond.
        Reads each relation's sibling-name token union off its profile.
        """
        index = self.index_for((table_a, table_b))
        tokens_a = index.relation_profile(table_a.schema.qualified_name).name_token_union
        tokens_b = index.relation_profile(table_b.schema.qualified_name).name_token_union
        if not tokens_a or not tokens_b:
            return 0.0
        return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Align all attribute pairs of two relations.

        Every attribute pair is compared (and counted); pairs whose combined
        confidence clears ``min_confidence`` are returned.
        """
        schema_a, schema_b = table_a.schema, table_b.schema
        if schema_a.qualified_name == schema_b.qualified_name:
            return []
        refs_a, refs_b = schema_a.attribute_refs, schema_b.attribute_refs
        self.counter.record_relation_pair(len(refs_a), len(refs_b))
        config = self.config
        bonus = config.structural_bonus * self._structural_similarity(table_a, table_b)
        floor = config.min_confidence
        weights = (config.token_weight, config.jaro_winkler_weight, config.trigram_weight, config.substring_weight)
        name = self.name
        correspondences: List[Correspondence] = []
        for ref_a in refs_a:
            label_a = ref_a.attribute
            for ref_b in refs_b:
                label_b = ref_b.attribute
                # Canonical pair order, as in :meth:`name_similarity`.
                if label_b < label_a:
                    similarity = _name_similarity_cached(label_b, label_a, *weights)
                else:
                    similarity = _name_similarity_cached(label_a, label_b, *weights)
                score = min(1.0, similarity + bonus)
                if score >= floor:
                    correspondences.append(Correspondence(ref_a, ref_b, round(score, 6), name))
        return correspondences


def _substring_score(a: str, b: str) -> float:
    stripped_a = a.replace("_", "")
    stripped_b = b.replace("_", "")
    if not stripped_a or not stripped_b:
        return 0.0
    if stripped_a in stripped_b or stripped_b in stripped_a:
        shorter = min(len(stripped_a), len(stripped_b))
        longer = max(len(stripped_a), len(stripped_b))
        return shorter / longer
    return 0.0


@lru_cache(maxsize=65536)
def _name_similarity_cached(
    label_a: str,
    label_b: str,
    token_weight: float,
    jaro_winkler_weight: float,
    trigram_weight: float,
    substring_weight: float,
) -> float:
    """Pure combined-similarity computation, shared across matcher instances."""
    normalized_a = normalize_label(label_a)
    normalized_b = normalize_label(label_b)
    if not normalized_a or not normalized_b:
        return 0.0
    if normalized_a == normalized_b:
        return 1.0
    token_score = token_jaccard(label_a, label_b)
    jaro_score = jaro_winkler_similarity(normalized_a, normalized_b)
    trigram_score = ngram_similarity(normalized_a, normalized_b)
    substring_score = _substring_score(normalized_a, normalized_b)
    return (
        token_weight * token_score
        + jaro_winkler_weight * jaro_score
        + trigram_weight * trigram_score
        + substring_weight * substring_score
    )
