"""Typed alignment-strategy dispatch: enum + aligner factory table.

A registration names its aligner strategy with :class:`AlignmentStrategy`
— an enum whose values are the plain strings requests and persisted
configuration carry (``strategy="view_based"``) — and a table maps each
strategy to a factory that builds the concrete
:class:`~repro.alignment.base.BaseAligner` from an :class:`AlignerSpec`.
Unknown names raise :class:`~repro.exceptions.UnknownStrategyError`, which
lists the valid options.  The enum is closed: a new strategy is a new
member plus its row in the table at the bottom of this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from ..alignment.base import BaseAligner
from ..alignment.exhaustive import ExhaustiveAligner
from ..alignment.preferential import PreferentialAligner
from ..alignment.profile_blocked import ProfileBlockedAligner
from ..alignment.view_based import ViewBasedAligner
from ..exceptions import RegistrationError, UnknownStrategyError
from ..matching.base import BaseMatcher
from ..matching.value_overlap import ValueOverlapFilter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.view import RankedView


class AlignmentStrategy(enum.Enum):
    """The aligner strategies of paper Section 3.3.

    Values are the string names requests may carry instead of a member:
    ``"view_based"`` (and friends) coerce losslessly.
    """

    EXHAUSTIVE = "exhaustive"
    VIEW_BASED = "view_based"
    PREFERENTIAL = "preferential"
    PROFILE_BLOCKED = "profile_blocked"

    @classmethod
    def coerce(cls, value: Union[str, "AlignmentStrategy"]) -> "AlignmentStrategy":
        """Resolve a strategy reference; raise a typed error listing options.

        Accepts enum members (returned unchanged) and their string values
        (case-insensitive).

        Raises
        ------
        UnknownStrategyError
            If ``value`` names no registered strategy.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise UnknownStrategyError(value, available_strategies())


@dataclass
class AlignerSpec:
    """Everything an aligner factory may need to build its aligner.

    Attributes
    ----------
    matcher:
        The base matcher the aligner will call (``BASEMATCHER``).
    top_y:
        Candidate alignments kept per attribute.
    value_filter:
        Optional value-overlap comparison filter.
    max_relations:
        Budget for the preferential strategy.
    view:
        The driving view for the view-based strategy (must be fresh — the
        service pulls it before building the spec).
    profile_index:
        The service's shared
        :class:`~repro.profiling.index.CatalogProfileIndex`; injected into
        the aligner (and from there into the matcher) so candidate
        generation reads the incrementally maintained profiles.
    min_shared_values:
        Exact-tier acceptance floor for the profile-blocked strategy.
    """

    matcher: BaseMatcher
    top_y: int = 2
    value_filter: Optional[ValueOverlapFilter] = None
    max_relations: Optional[int] = 5
    view: Optional["RankedView"] = None
    profile_index: Optional[object] = None
    min_shared_values: int = 1


AlignerFactory = Callable[[AlignerSpec], BaseAligner]


def available_strategies() -> Tuple[str, ...]:
    """Values of every strategy the enum knows, sorted."""
    return tuple(sorted(member.value for member in AlignmentStrategy))


def build_aligner(
    strategy: Union[str, AlignmentStrategy], spec: AlignerSpec
) -> BaseAligner:
    """Build the aligner for ``strategy`` from ``spec``.

    Raises
    ------
    UnknownStrategyError
        If the strategy is unknown.
    RegistrationError
        From the view-based factory when the spec carries no usable view.
    """
    return _FACTORIES[AlignmentStrategy.coerce(strategy)](spec)


def _build_exhaustive(spec: AlignerSpec) -> BaseAligner:
    return ExhaustiveAligner(
        spec.matcher,
        top_y=spec.top_y,
        value_filter=spec.value_filter,
        profile_index=spec.profile_index,
    )


def _build_preferential(spec: AlignerSpec) -> BaseAligner:
    return PreferentialAligner(
        spec.matcher,
        top_y=spec.top_y,
        value_filter=spec.value_filter,
        max_relations=spec.max_relations,
        profile_index=spec.profile_index,
    )


def _build_view_based(spec: AlignerSpec) -> BaseAligner:
    view = spec.view
    if view is None:
        raise RegistrationError(
            "view_based registration requires an existing view; create one first"
        )
    alpha = view.alpha
    if alpha is None:
        raise RegistrationError("the driving view has no answers; refresh it first")
    # The aligner operates on the persistent search graph, which has no
    # keyword nodes; the α-neighborhood is therefore computed in the view's
    # expanded query graph.
    return ViewBasedAligner(
        spec.matcher,
        keyword_nodes=view.terminals,
        alpha=alpha,
        top_y=spec.top_y,
        value_filter=spec.value_filter,
        neighborhood_graph=view.query_graph.graph,
        profile_index=spec.profile_index,
    )


def _build_profile_blocked(spec: AlignerSpec) -> BaseAligner:
    if spec.profile_index is None:
        raise RegistrationError(
            "profile_blocked registration requires the service's profile index"
        )
    return ProfileBlockedAligner(
        spec.matcher,
        top_y=spec.top_y,
        value_filter=spec.value_filter,
        profile_index=spec.profile_index,
        min_shared_values=spec.min_shared_values,
    )


_FACTORIES: Dict[AlignmentStrategy, AlignerFactory] = {
    AlignmentStrategy.EXHAUSTIVE: _build_exhaustive,
    AlignmentStrategy.PREFERENTIAL: _build_preferential,
    AlignmentStrategy.VIEW_BASED: _build_view_based,
    AlignmentStrategy.PROFILE_BLOCKED: _build_profile_blocked,
}
