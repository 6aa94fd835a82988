"""Precompiled selection predicates.

The seed executor's ``_selection_matches`` re-canonicalized the predicate
*needle* for every row it looked at.  The engine compiles each
:class:`~repro.datastore.query.SelectionPredicate` once per query into a
:class:`CompiledPredicate` that holds the needle's canonical value, so that
per-row evaluation touches only the row's cell value.

Compiled predicates are value objects: their :attr:`CompiledPredicate.key`
identifies the predicate independently of the alias it is attached to, which
is what the :class:`~repro.engine.context.ExecutionContext` scan cache keys
on (two queries selecting the same relation with the same predicate share
one cached scan even if their aliases differ).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..datastore.query import SelectionPredicate
from ..datastore.types import canonicalize


class CompiledPredicate:
    """One selection predicate with its needle canonicalized up front."""

    __slots__ = ("alias", "attribute", "value", "canonical_value")

    def __init__(self, predicate: SelectionPredicate) -> None:
        self.alias = predicate.alias
        self.attribute = predicate.attribute
        self.value = predicate.value
        self.canonical_value: Optional[str] = canonicalize(predicate.value)

    def matches(self, value: object) -> bool:
        """Whether one cell value equals the needle, on canonical forms.

        Semantics are identical to the seed executor's
        ``_selection_matches``: null-like cells never match.
        """
        canon = canonicalize(value)
        return canon is not None and canon == self.canonical_value

    @property
    def key(self) -> Tuple[str, Optional[str]]:
        """Alias-independent identity used by scan / join-index caches.

        Built from the canonical needle — the only state :meth:`matches`
        consults — so two predicates share a key exactly when they accept
        the same rows.  (Keying on the raw value would collide ``1`` and
        ``True``, equal in Python but canonically ``"1"`` and ``"true"``.)
        """
        return (self.attribute, self.canonical_value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledPredicate({self.alias}.{self.attribute} = {self.value!r})"


def compile_predicates(predicates: Sequence[SelectionPredicate]) -> List[CompiledPredicate]:
    """Compile a query's selection predicates, preserving order."""
    return [CompiledPredicate(p) for p in predicates]
