"""View registry: stable ids, explicit creation order, per-view side state.

A plain name-keyed dict cannot say which view is the "latest" once a view
name is reused.  The registry keeps:

* a **stable id** per view (``view-0001``, ``view-0002``, ...): ids are
  never reused and never change for as long as their view is registered —
  re-registering a *name* replaces the shadowed view (seed dict semantics)
  and retires its id, which then resolves to a typed
  :class:`~repro.exceptions.UnknownViewError`;
* an explicit **creation-order** list, making :meth:`ViewRegistry.latest` a
  documented accessor: the most recently *created* view, regardless of any
  name reuse;
* what a session keeps **beside** a view and frees with it: the tenant
  twins pricing its expansion.  Whether a view is stale is not recorded
  here — the view knows (:attr:`~repro.core.view.RankedView.expanded_at`
  and its solve state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.view import RankedView
from ..exceptions import UnknownViewError
from ..graph.query_graph import QueryGraph


@dataclass
class ViewRecord:
    """One registered view plus the tenant twins pricing its expansion.

    ``twins`` maps a tenant to the view pricing the view's query-graph
    *object* under the tenant's overlay
    (:meth:`~repro.core.view.RankedView.priced_twin`); read it through
    :meth:`tenant_twins`, which empties it after a re-expansion.  The twins
    go with the record when name reuse retires the view.  What a session
    saves of a view is its definition and ranking, read off the view itself.
    """

    view_id: str
    name: str
    view: RankedView
    created_index: int
    twins: Dict[str, RankedView] = field(default_factory=dict)
    _twinned: Optional[QueryGraph] = None

    def tenant_twins(self) -> Dict[str, RankedView]:
        """Tenant → twin of the view's *current* expansion."""
        if self._twinned is not self.view.query_graph:
            self._twinned = self.view.query_graph
            self.twins.clear()
        return self.twins


class ViewRegistry:
    """Orders and resolves the views of one service session."""

    def __init__(self) -> None:
        self._records: List[ViewRecord] = []
        self._by_id: Dict[str, ViewRecord] = {}
        self._by_name: Dict[str, ViewRecord] = {}
        self._created = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, view: RankedView, name: str) -> ViewRecord:
        """Register ``view`` under ``name``; returns its record.

        The stable id comes from a monotonically increasing creation
        counter and is never reused.  Re-registering a name *replaces* the
        shadowed view (the historical dict behavior): its record is evicted
        from the registry — its tenant twins with it —
        so long-running sessions that recreate views under one name do not
        accrue unbounded records.
        """
        shadowed = self._by_name.get(name)
        if shadowed is not None:
            self._records.remove(shadowed)
            del self._by_id[shadowed.view_id]
        self._created += 1
        return self.restore(view, name, f"view-{self._created:04d}", self._created - 1)

    def restore(self, view: RankedView, name: str, view_id: str, created_index: int) -> ViewRecord:
        """Register a view under an id and creation index the caller supplies.

        What :meth:`add` ends in, and how a session snapshot's views come
        back.  The creation counter is *not* advanced — :meth:`set_created`
        restores it separately so post-restore :meth:`add` calls continue the
        original id sequence.
        """
        record = ViewRecord(view_id=view_id, name=name, view=view, created_index=created_index)
        self._records.append(record)
        self._by_id[record.view_id] = record
        self._by_name[name] = record
        return record

    @property
    def created_count(self) -> int:
        """How many views have ever been created (ids are never reused)."""
        return self._created

    def set_created(self, value: int) -> None:
        """Restore the creation counter (session restore only)."""
        self._created = value

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def get(self, ref: str) -> ViewRecord:
        """Resolve a view id or name.

        Raises
        ------
        UnknownViewError
            Listing the known ids and names.
        """
        record = self._by_id.get(ref) or self._by_name.get(ref)
        if record is None:
            raise UnknownViewError(ref, self.known_references())
        return record

    def find_by_name(self, name: str) -> Optional[ViewRecord]:
        """The record currently registered under ``name``, if any."""
        return self._by_name.get(name)

    def resolve(self, ref: Union[str, RankedView, ViewRecord]) -> ViewRecord:
        """Resolve any supported view reference to its record.

        Strings resolve as ids or names; any other object is matched by
        identity against the registered view instances.
        """
        if isinstance(ref, ViewRecord):
            return ref
        if isinstance(ref, str):
            return self.get(ref)
        for record in self._records:
            if record.view is ref:
                return record
        raise UnknownViewError(
            f"<unregistered view object {ref!r}>", self.known_references()
        )

    def known_references(self) -> Tuple[str, ...]:
        """All resolvable ids and names (for error messages)."""
        return tuple(self._by_id) + tuple(self._by_name)

    # ------------------------------------------------------------------
    # Order and iteration
    # ------------------------------------------------------------------
    def latest(self) -> Optional[ViewRecord]:
        """The most recently *created* view, or ``None`` when empty.

        This is the documented successor of the seed's
        ``next(reversed(views.values()))`` hack: creation order is explicit
        and survives name reuse (a re-registered name does not resurrect an
        older creation slot).
        """
        if not self._records:
            return None
        return self._records[-1]

    def records(self) -> Tuple[ViewRecord, ...]:
        """All records in creation order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ViewRecord]:
        return iter(self._records)

    def __contains__(self, ref: object) -> bool:
        return isinstance(ref, str) and (ref in self._by_id or ref in self._by_name)
