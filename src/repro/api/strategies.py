"""Typed alignment-strategy names.

A registration names its aligner strategy with :class:`AlignmentStrategy`
— an enum whose values are the plain strings requests and persisted
configuration carry (``strategy="view_based"``).  Unknown names raise
:class:`~repro.exceptions.UnknownStrategyError`, which lists the valid
options.  The enum is closed: the registration that coerces a strategy
builds its aligner (:meth:`repro.api.registration.RegistrationMixin._aligner_for`).
"""

from __future__ import annotations

import enum
from typing import Union

from ..exceptions import UnknownStrategyError


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
            If ``value`` names no strategy.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise UnknownStrategyError(value, tuple(sorted(member.value for member in cls)))
