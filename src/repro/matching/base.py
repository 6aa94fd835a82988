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
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..datastore.table import Table
from ..exceptions import UnknownMatcherError


@dataclass(frozen=True)
class AttributeRef:
    """A fully qualified reference to one attribute of one relation."""

    relation: str  # qualified relation name, "<source>.<relation>"
    attribute: str

    @property
    def qualified(self) -> str:
        """``"<source>.<relation>.<attribute>"``."""
        return f"{self.relation}.{self.attribute}"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.qualified


@dataclass(frozen=True)
class Correspondence:
    """One proposed alignment between two attributes.

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
        a, b = self.source.qualified, self.target.qualified
        return (a, b) if a <= b else (b, a)

    def reversed(self) -> "Correspondence":
        """The same correspondence with source and target swapped."""
        return replace(self, source=self.target, target=self.source)


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
    the matcher reads its evidence from.  Whoever runs a matcher for a
    session hands it that session's index (:meth:`attach_index`); ``None``
    is a bare matcher that derives what it needs from the two tables — the
    reference the blocked paths are compared against.
    """

    #: Matcher name used for feature names and reporting.
    name: str = "matcher"

    def __init__(self, profile_index=None) -> None:
        self.counter = ComparisonCounter()
        self.profile_index = profile_index

    def attach_index(self, profile_index) -> None:
        """Read evidence from ``profile_index`` from now on.

        It replaces whatever index the instance carried: a matcher reused by
        a second session reads that session's catalog, not the first's.
        """
        self.profile_index = profile_index

    @abc.abstractmethod
    def match_relations(self, table_a: Table, table_b: Table) -> List[Correspondence]:
        """Align the attributes of two relations and return scored correspondences."""

    def reset_counters(self) -> None:
        """Reset the comparison instrumentation."""
        self.counter.reset()


# ----------------------------------------------------------------------
# Matcher registry
# ----------------------------------------------------------------------
#: Factory producing a fresh matcher instance (matchers carry mutable
#: comparison counters, so shared singletons would corrupt the Figure 7/8
#: instrumentation).
MatcherFactory = Callable[[], "BaseMatcher"]

_MATCHER_REGISTRY: Dict[str, MatcherFactory] = {}


def register_matcher(name: str, factory: MatcherFactory) -> None:
    """Register a matcher factory under its canonical name.

    The name is the dispatch key for requests that reference a matcher by
    string (e.g. ``RegisterSourceRequest(matcher="metadata")``); it should
    equal the matcher class's :attr:`BaseMatcher.name` so that feature names
    in :class:`Correspondence` objects round-trip through the registry.
    """
    _MATCHER_REGISTRY[name] = factory


def available_matchers() -> Tuple[str, ...]:
    """Sorted names of every registered matcher."""
    return tuple(sorted(_MATCHER_REGISTRY))


def resolve_matcher(matcher: Union[str, "BaseMatcher"]) -> "BaseMatcher":
    """Resolve a matcher reference: instances pass through, names dispatch.

    Raises
    ------
    UnknownMatcherError
        If ``matcher`` is a string not present in the registry; the error
        lists the valid options.
    """
    if isinstance(matcher, BaseMatcher):
        return matcher
    factory = _MATCHER_REGISTRY.get(matcher)
    if factory is None:
        raise UnknownMatcherError(matcher, available_matchers())
    return factory()


#: Sort key of a ``((-confidence, pair key), correspondence)`` entry.
_rank = itemgetter(0)


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
    # The sort key is built once per correspondence, here, and rides along
    # with it through every per-attribute sort and the final one.
    by_attribute: Dict[str, List[tuple]] = defaultdict(list)
    for correspondence in correspondences:
        if correspondence.confidence < min_confidence:
            continue
        key = correspondence.key()
        ranked = ((-correspondence.confidence, key), correspondence)
        for attribute in key:
            by_attribute[attribute].append(ranked)

    kept: Dict[Tuple[Tuple[str, str], str], tuple] = {}
    for candidates in by_attribute.values():
        candidates.sort(key=_rank)
        for ranked in candidates[:y]:
            (_, pair), correspondence = ranked
            existing = kept.get((pair, correspondence.matcher))
            if existing is None or correspondence.confidence > existing[1].confidence:
                kept[(pair, correspondence.matcher)] = ranked
    return [correspondence for _, correspondence in sorted(kept.values(), key=_rank)]


def group_correspondences(
    correspondences: Iterable[Correspondence],
) -> Dict[Tuple[str, str], Tuple[Correspondence, Dict[str, float]]]:
    """Group correspondences by attribute pair in one pass over the input.

    Returns ``(attr_a, attr_b) -> (first correspondence seen for the pair,
    {matcher_name: best confidence})`` in first-seen order; the pair key is
    order-independent.  The first correspondence says which side is the
    source, which is what edge installation orients the edge by.
    """
    grouped: Dict[Tuple[str, str], Tuple[Correspondence, Dict[str, float]]] = {}
    for correspondence in correspondences:
        key = correspondence.key()
        entry = grouped.get(key)
        if entry is None:
            entry = grouped[key] = (correspondence, {})
        confidences = entry[1]
        existing = confidences.get(correspondence.matcher)
        if existing is None or correspondence.confidence > existing:
            confidences[correspondence.matcher] = correspondence.confidence
    return grouped


def merge_correspondences(
    correspondences: Iterable[Correspondence],
) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Group correspondences by attribute pair, keeping per-matcher confidences.

    Returns a mapping ``(attr_a, attr_b) -> {matcher_name: confidence}``
    where the pair key is order-independent.  This is the form consumed by
    :meth:`repro.graph.search_graph.SearchGraph.add_association`.
    """
    return {
        key: confidences
        for key, (_, confidences) in group_correspondences(correspondences).items()
    }
