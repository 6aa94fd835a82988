"""Matcher interfaces and correspondence objects.

Q treats schema matchers as *black boxes* (paper Section 3.2): each matcher
is asked to align the attributes of a pair of relations and returns scored
*correspondences*.  The aligner strategies (Section 3.3) call the matcher
through :meth:`BaseMatcher.match_relations`, and the number of pairwise
attribute comparisons performed is instrumented so that the Figure 7/8
experiments can be reproduced exactly.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..datastore.schema import AttributeRef
from ..datastore.table import Table
from ..profiling.index import CatalogProfileIndex


def pair_key(source: AttributeRef, target: AttributeRef) -> Tuple[str, str]:
    """Order-independent identity of an attribute pair: its qualified names, sorted."""
    a, b = source.qualified, target.qualified
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, slots=True)
class Correspondence:
    """One proposed alignment between two attributes.

    Slotted, so it is one tracked object; its refs are the schemas' own
    (:attr:`~repro.datastore.schema.RelationSchema.attribute_refs`).

    Attributes
    ----------
    source, target:
        The aligned attributes.  Correspondences are undirected; the
        source/target naming only records which side came from the newly
        registered source when relevant.
    confidence:
        Matcher confidence, normalized to ``[0, 1]``.
    matcher:
        Name of the matcher that produced the correspondence.
    """

    source: AttributeRef
    target: AttributeRef
    confidence: float
    matcher: str

    def key(self) -> Tuple[str, str]:
        """Order-independent identity of the aligned attribute pair."""
        return pair_key(self.source, self.target)


class ComparisonCounter:
    """Counts pairwise attribute comparisons (the metric of Figures 7 and 8)."""

    def __init__(self) -> None:
        self.attribute_comparisons = 0
        self.relation_pairs = 0

    def record_relation_pair(self, attributes_a: int, attributes_b: int) -> None:
        """Record one relation-pair alignment of the given attribute arities."""
        self.relation_pairs += 1
        self.attribute_comparisons += attributes_a * attributes_b

    def reset(self) -> None:
        """Zero all counters."""
        self.attribute_comparisons = 0
        self.relation_pairs = 0


class BaseMatcher(abc.ABC):
    """Abstract pairwise schema matcher.

    Concrete matchers must implement :meth:`match_relations`, the black box
    over one relation pair.  ``BASEMATCHER(G', v)`` of Algorithms 2 and 3 is
    that call repeated over the pairs an aligner selects
    (:func:`repro.alignment.base.score_pairs`).

    ``profile_index`` is the :class:`~repro.profiling.index.CatalogProfileIndex`
    the matcher reads every value and name summary from, through
    :meth:`index_for`.  Whoever runs a matcher for a session hands it that
    session's index (:meth:`attach_index`); a bare matcher (``None``) grows
    an index of its own from the tables it is handed.
    """

    #: Matcher name used for feature names and reporting.
    name: str = "matcher"
    #: The index a bare matcher grew for itself (see :meth:`index_for`).
    _private_index: Optional[CatalogProfileIndex] = None

    def __init__(self, profile_index: Optional[CatalogProfileIndex] = None) -> None:
        self.counter = ComparisonCounter()
        self.profile_index = profile_index

    def attach_index(self, profile_index) -> None:
        """Read evidence from ``profile_index`` from now on.

        It replaces whatever index the instance carried: a matcher reused by
        a second session reads that session's catalog, not the first's.
        """
        self.profile_index = profile_index

    def index_for(self, tables: Iterable[Table]) -> CatalogProfileIndex:
        """The index to read ``tables``' profiles from, current for each of them.

        The attached index holds its session's tables and is told of their
        writes, so it only re-profiles what they made stale.  A bare matcher
        grows a private index, kept from then on, that also profiles each
        table it is handed and does not hold.
        """
        index = self.profile_index
        if index is None:
            index = self.profile_index = self._private_index = CatalogProfileIndex()
        if index is self._private_index:
            index.hold(tables)
        index.reprofile_stale()
        return index

    @abc.abstractmethod
    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Align the attributes of two relations and return scored correspondences."""

    def reset_counters(self) -> None:
        """Reset the comparison instrumentation."""
        self.counter.reset()


def top_y_per_attribute(
    correspondences: Iterable[Correspondence],
    y: int,
    min_confidence: float = 0.0,
) -> List[Correspondence]:
    """Keep, for each attribute, its ``y`` highest-confidence correspondences.

    This realizes the paper's "top-Y candidate alignments per attribute"
    (Section 3.2.3): the search graph receives up to Y association edges per
    attribute so that feedback can later suppress a bad alignment and fall
    back to an alternative.
    """
    if y < 1:
        raise ValueError("y must be >= 1")
    # One ranked entry per correspondence, ``(-confidence, attr_a, attr_b,
    # arrival, correspondence)`` with the pair in key order: plain tuple order
    # ranks it, and the arrival number settles a tie the way a stable sort
    # would, before a comparison could reach the correspondence.
    by_attribute: Dict[str, List[tuple]] = defaultdict(list)
    for arrival, correspondence in enumerate(correspondences):
        confidence = correspondence.confidence
        if confidence < min_confidence:
            continue
        a, b = correspondence.source.qualified, correspondence.target.qualified
        if b < a:
            a, b = b, a
        ranked = (-confidence, a, b, arrival, correspondence)
        by_attribute[a].append(ranked)
        by_attribute[b].append(ranked)

    # Per (pair, matcher), the first entry in ranked order that some
    # attribute keeps: its best confidence, earliest on a tie.
    kept: Dict[Tuple[str, str, str], tuple] = {}
    for candidates in by_attribute.values():
        candidates.sort()
        for ranked in candidates[:y]:
            slot = (ranked[1], ranked[2], ranked[4].matcher)
            existing = kept.get(slot)
            if existing is None or ranked < existing:
                kept[slot] = ranked
    return [ranked[4] for ranked in sorted(kept.values())]


def group_correspondences(
    correspondences: Iterable[Correspondence],
) -> Iterator[Tuple[AttributeRef, AttributeRef, Dict[str, float]]]:
    """Group correspondences by attribute pair: one row per pair, in first-seen order.

    A row is ``(source, target, {matcher_name: best confidence})``, what
    :meth:`~repro.graph.search_graph.SearchGraph.add_associations` installs;
    the first correspondence seen for a pair says which side is the source,
    which is what edge installation orients the edge by.  The input is read
    in full first; a pair keeps a confidence map only once a second
    correspondence arrives, and each row builds the rest as it is taken.
    """
    first: Dict[Tuple[str, str], Correspondence] = {}
    merged: Dict[Tuple[str, str], Dict[str, float]] = {}
    for correspondence in correspondences:
        key = correspondence.key()
        seen = first.setdefault(key, correspondence)
        if seen is correspondence:
            continue
        confidences = merged.get(key)
        if confidences is None:
            confidences = merged[key] = {seen.matcher: seen.confidence}
        existing = confidences.get(correspondence.matcher)
        if existing is None or correspondence.confidence > existing:
            confidences[correspondence.matcher] = correspondence.confidence
    for key, seen in first.items():
        yield seen.source, seen.target, merged.get(key) or {seen.matcher: seen.confidence}
