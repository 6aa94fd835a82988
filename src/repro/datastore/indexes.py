"""The inverted index over data values.

:class:`ValueIndex` maps canonical data values to their ``(table,
attribute, row)`` occurrences.  Used for lazy keyword-to-value matching in
the query graph (paper Section 2.2) and for the "Value Overlap Filter"
variant in the Figure 7 experiment.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .database import Catalog, DataSource
from .table import Table
from .types import canonicalize


@dataclass(frozen=True)
class ValueOccurrence:
    """One occurrence of a data value in a specific table cell."""

    relation: str  # qualified relation name, "<source>.<relation>"
    attribute: str  # local attribute name
    row_id: int
    value: str  # canonical value


#: Needles whose substring postings a :class:`ValueIndex` remembers (LRU).
SUBSTRING_POSTINGS_SIZE = 256


class ValueIndex:
    """Inverted index from canonical values to their occurrences.

    Maintenance is incremental in both directions: :meth:`index_source`
    appends a new source's cells without touching existing entries, and
    :meth:`remove_source` / :meth:`remove_table` retract a source's
    contribution exactly (per-relation value bookkeeping keeps retraction
    proportional to the removed relation's footprint, not the index size).
    The registration service relies on this to roll back a failed
    registration without a full rebuild.

    A substring lookup remembers its needle's *posting*: the distinct values
    containing it, in index order.  Indexing a new distinct value appends it
    to every remembered posting it matches, which is where a scan would find
    it (new values go last), so a keyword looked up again after a
    registration reads its posting instead of scanning every value.  A
    retraction forgets them all.
    """

    def __init__(self) -> None:
        self._occurrences: Dict[str, List[ValueOccurrence]] = defaultdict(list)
        self._attribute_values: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
        #: relation -> canonical values it contributed (for exact retraction).
        self._relation_values: Dict[str, Set[str]] = defaultdict(set)
        #: lowered needle -> the distinct values containing it, in index order.
        self._postings: "OrderedDict[str, List[str]]" = OrderedDict()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def index_table(self, table: Table) -> None:
        """Add every cell of ``table`` to the index."""
        relation = table.schema.qualified_name
        relation_values = self._relation_values[relation]
        for row in table.scan():
            for attr_name, value in zip(table.schema.attribute_names, row.values):
                canon = canonicalize(value)
                if canon is None:
                    continue
                occurrence = ValueOccurrence(relation, attr_name, row.row_id, canon)
                if canon not in self._occurrences:
                    lowered = canon.lower()
                    for needle, values in self._postings.items():
                        if needle in lowered:
                            values.append(canon)
                self._occurrences[canon].append(occurrence)
                self._attribute_values[(relation, attr_name)].add(canon)
                relation_values.add(canon)

    def index_source(self, source: DataSource) -> None:
        """Index every table of ``source`` (purely additive)."""
        for table in source:
            self.index_table(table)

    # ------------------------------------------------------------------
    # Retraction
    # ------------------------------------------------------------------
    def remove_table(self, relation: str) -> None:
        """Drop every entry contributed by ``relation``."""
        values = self._relation_values.pop(relation, set())
        self._postings.clear()
        for value in values:
            occurrences = self._occurrences.get(value)
            if occurrences is None:
                continue
            kept = [o for o in occurrences if o.relation != relation]
            if kept:
                self._occurrences[value] = kept
            else:
                del self._occurrences[value]
        for key in [k for k in self._attribute_values if k[0] == relation]:
            del self._attribute_values[key]

    def remove_source(self, source_name: str) -> None:
        """Drop every entry contributed by any relation of ``source_name``."""
        prefix = f"{source_name}."
        for relation in [r for r in self._relation_values if r.startswith(prefix)]:
            self.remove_table(relation)

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "ValueIndex":
        """Build an index over every table of every source in ``catalog``."""
        index = cls()
        for source in catalog:
            index.index_source(source)
        return index

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, value: str) -> Tuple[ValueOccurrence, ...]:
        """Exact lookup of a canonical value."""
        canon = canonicalize(value)
        if canon is None:
            return ()
        return tuple(self._occurrences.get(canon, ()))

    def lookup_substring(self, needle: str, limit: Optional[int] = None) -> Tuple[ValueOccurrence, ...]:
        """Case-insensitive substring lookup over indexed values.

        Used when a keyword only partially matches stored values (e.g. the
        keyword ``membrane`` matching the GO term ``plasma membrane``).
        Occurrences come in index order, value by value, as a scan finds them.
        """
        needle_lower = needle.lower()
        values = self._postings.get(needle_lower)
        if values is None:
            values = [value for value in self._occurrences if needle_lower in value.lower()]
            self._postings[needle_lower] = values
            if len(self._postings) > SUBSTRING_POSTINGS_SIZE:
                self._postings.popitem(last=False)
        else:
            self._postings.move_to_end(needle_lower)
        matches: List[ValueOccurrence] = []
        for value in values:
            matches.extend(self._occurrences[value])
            if limit is not None and len(matches) >= limit:
                return tuple(matches[:limit])
        return tuple(matches)

    def attribute_values(self, relation: str, attribute: str) -> Set[str]:
        """Distinct canonical values stored in ``relation.attribute``."""
        return set(self._attribute_values.get((relation, attribute), set()))

    def attributes_with_value(self, value: str) -> Set[Tuple[str, str]]:
        """All ``(relation, attribute)`` pairs containing ``value``."""
        canon = canonicalize(value)
        if canon is None:
            return set()
        return {(o.relation, o.attribute) for o in self._occurrences.get(canon, ())}

    def overlap(
        self, relation_a: str, attribute_a: str, relation_b: str, attribute_b: str
    ) -> int:
        """Number of shared distinct values between two attributes."""
        values_a = self._attribute_values.get((relation_a, attribute_a), set())
        values_b = self._attribute_values.get((relation_b, attribute_b), set())
        return len(values_a & values_b)

    def has_overlap(
        self, relation_a: str, attribute_a: str, relation_b: str, attribute_b: str
    ) -> bool:
        """Whether two attributes share at least one value (join is possible)."""
        return self.overlap(relation_a, attribute_a, relation_b, attribute_b) > 0

    @property
    def distinct_value_count(self) -> int:
        """Number of distinct values in the index."""
        return len(self._occurrences)

    def indexed_attributes(self) -> Tuple[Tuple[str, str], ...]:
        """All ``(relation, attribute)`` pairs that have at least one value."""
        return tuple(self._attribute_values.keys())

