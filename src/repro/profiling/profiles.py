"""Per-attribute and per-relation profiles shared by every matcher.

A *profile* is everything the registration pipeline repeatedly re-derived
from a table in the seed implementation — distinct value sets, value token
bags, tokenized/normalized attribute names, cardinality statistics — frozen
into one object that is computed **once** when a source is registered and
then shared by the value-overlap filter, the value-overlap matcher, the
metadata matcher, the MAD matcher and the aligner strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Tuple

from ..datastore.table import Table
from ..datastore.types import canonicalize
from ..similarity.tokenize import normalize_label, token_set, tokenize

#: Identity of one attribute: ``(qualified relation name, attribute name)``.
AttrId = Tuple[str, str]

@dataclass(frozen=True)
class AttributeProfile:
    """Everything the matchers need to know about one attribute.

    Attributes
    ----------
    relation, attribute:
        The fully qualified identity of the attribute.
    normalized_name:
        :func:`~repro.similarity.tokenize.normalize_label` of the attribute
        name (what the metadata matcher's string measures operate on).
    name_tokens:
        Token set of the attribute name (token-level name evidence).
    distinct_values:
        Canonicalized distinct non-null values (the posting-list keys).
    value_tokens:
        Distinct text tokens appearing in the attribute's values.
    row_count, non_null_count:
        Cardinality statistics; ``distinct_count``/``selectivity`` derive
        from them.
    """

    relation: str
    attribute: str
    normalized_name: str
    name_tokens: FrozenSet[str]
    distinct_values: FrozenSet[str]
    value_tokens: FrozenSet[str]
    row_count: int
    non_null_count: int

    @property
    def attr_id(self) -> AttrId:
        """``(relation, attribute)`` identity tuple."""
        return (self.relation, self.attribute)

    @cached_property
    def lowered_values(self) -> str:
        """The distinct values lowered and newline-joined: one substring test
        rules out an attribute none of whose values holds a keyword."""
        return "\n".join(value.lower() for value in self.distinct_values)

    @property
    def distinct_count(self) -> int:
        """Number of distinct canonical values."""
        return len(self.distinct_values)

    @property
    def selectivity(self) -> float:
        """Distinct values per non-null row (1.0 for key-like attributes)."""
        if self.non_null_count == 0:
            return 0.0
        return self.distinct_count / self.non_null_count


@dataclass(frozen=True)
class RelationProfile:
    """Schema-level profile of one relation.

    Carries the precomputed union of sibling attribute-name tokens that the
    metadata matcher's structural similarity reads.
    """

    relation: str
    attribute_names: Tuple[str, ...]
    name_token_union: FrozenSet[str]
    row_count: int


def profile_table(table: Table) -> Tuple[RelationProfile, Dict[str, AttributeProfile]]:
    """Build the relation profile and all attribute profiles of ``table``.

    One backend scan over the stored rows (:meth:`Table.scan` — the storage
    protocol's ordered bulk read, identical under memory and SQLite): every
    cell is canonicalized once, its distinct value recorded, and its tokens
    folded into the attribute's value-token set.
    """
    schema = table.schema
    relation = schema.qualified_name
    names = schema.attribute_names
    arity = len(names)
    distinct: Tuple[set, ...] = tuple(set() for _ in range(arity))
    value_tokens: Tuple[set, ...] = tuple(set() for _ in range(arity))
    non_null = [0] * arity
    for row in table.scan():
        values = row.values
        for idx in range(arity):
            canon = canonicalize(values[idx])
            if canon is None:
                continue
            non_null[idx] += 1
            if canon not in distinct[idx]:
                distinct[idx].add(canon)
                value_tokens[idx].update(tokenize(canon))

    row_count = len(table)
    profiles: Dict[str, AttributeProfile] = {}
    token_union: set = set()
    for idx, name in enumerate(names):
        name_tokens = token_set(name)
        token_union |= name_tokens
        profiles[name] = AttributeProfile(
            relation=relation,
            attribute=name,
            normalized_name=normalize_label(name),
            name_tokens=name_tokens,
            distinct_values=frozenset(distinct[idx]),
            value_tokens=frozenset(value_tokens[idx]),
            row_count=row_count,
            non_null_count=non_null[idx],
        )
    relation_profile = RelationProfile(
        relation=relation,
        attribute_names=tuple(names),
        name_token_union=frozenset(token_union),
        row_count=row_count,
    )
    return relation_profile, profiles
