"""Registration service for new data sources (paper Section 3).

The registration service is the entry point triggered when a user (or a
crawler) registers a new database: the source's relations and attributes are
added to the catalog and the search graph, the maintained indexes (the
shared :class:`~repro.profiling.index.CatalogProfileIndex`) are updated
incrementally, and an aligner strategy proposes association edges against
the existing graph.  :meth:`SourceRegistrar.admit` and
:meth:`SourceRegistrar.evict` are the one place a source joins or leaves
catalog, graph and indexes; a session adds and removes its sources through
them too.

Failure atomicity: if the aligner (or index maintenance) raises, the
catalog, the search graph — its edge-id sequence included — *and* every
maintained index are rolled back to their pre-registration state, so a
failed registration is a no-op and its retry allocates the ids a first
attempt would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Union

from ..datastore.database import Catalog, DataSource
from ..exceptions import RegistrationError
from ..graph.search_graph import SearchGraph
from .base import AlignmentResult, BaseAligner

#: A batch entry: a ready aligner, or a zero-argument factory resolved only
#: after the whole batch is admitted (so strategies that snapshot state at
#: construction time — e.g. a view's α-neighborhood graph — see the other
#: batch members).
AlignerOrFactory = Union[BaseAligner, Callable[[], BaseAligner]]


@dataclass
class RegistrationRecord:
    """Book-keeping for one registered source.

    Deliberately holds no :class:`AlignmentResult`: the history lives as
    long as the registrar, the result belongs to the caller.
    """

    source_name: str
    strategy: str


class SourceRegistrar:
    """Adds new sources to the catalog + search graph and runs an aligner.

    Parameters
    ----------
    catalog:
        The system catalog; registered sources are added to it.
    graph:
        The search graph; the new source's schema nodes and the proposed
        association edges are added to it.
    indexes:
        Maintained index objects — anything exposing ``index_source`` and
        ``remove_source``; a session passes its one
        :class:`~repro.profiling.index.CatalogProfileIndex`, which keyword
        matching reads too.  They are updated incrementally on every
        registration, *before* the aligner runs (so value filters and
        blocking see the new source), and retracted on failure.
    """

    def __init__(
        self,
        catalog: Catalog,
        graph: SearchGraph,
        indexes: Iterable[object] = (),
    ) -> None:
        self.catalog = catalog
        self.graph = graph
        self.indexes: List[object] = list(indexes)
        self.history: List[RegistrationRecord] = []

    @property
    def epoch(self) -> int:
        """How many registrations have succeeded (a reporting counter).

        Staleness for the lazy pull-based views is *not* tracked here — it
        rides on the search graph's ``structure_version``, which every
        registration bumps by adding nodes/edges.
        """
        return len(self.history)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def admit(self, source: DataSource) -> None:
        """Add ``source`` to catalog, graph and maintained indexes, unaligned.

        A failure part-way takes out what was added.
        """
        self.catalog.add_source(source)
        edge_number = self.graph.next_edge_number
        try:
            self.graph.add_source(source)
            for index in self.indexes:
                index.index_source(source)  # type: ignore[attr-defined]
        except Exception:
            self.evict(source.name, edge_number)
            raise

    def evict(self, source_name: str, edge_number: Optional[int] = None) -> DataSource:
        """The inverse of :meth:`admit`; returns the removed source.

        Association edges incident to the source's nodes go with them.  A
        rollback passes ``edge_number``, the graph's ``next_edge_number``
        from before the failed attempt: the sequence goes back, so the retry
        reuses the ids of the edges removed.  An unknown name moves nothing
        (neither indexes nor graph hold it) and the catalog raises.
        """
        for index in self.indexes:
            index.remove_source(source_name)  # type: ignore[attr-defined]
        self.graph.remove_source(source_name)
        if edge_number is not None:
            self.graph.next_edge_number = edge_number
        return self.catalog.remove_source(source_name)

    def register(self, source: DataSource, aligner: BaseAligner) -> AlignmentResult:
        """Register ``source``: add it to catalog/graph/indexes, then align it.

        A :meth:`register_batch` of one ready aligner.

        Raises
        ------
        RegistrationError
            If a source with the same name is already registered.
        """
        return self.register_batch([source], [aligner])[0]

    def register_batch(
        self,
        sources: Sequence[DataSource],
        aligners: Sequence[AlignerOrFactory],
    ) -> List[AlignmentResult]:
        """Batch ingest: admit (and profile) every source, then align each.

        All sources are added to the catalog, graph and maintained indexes
        in **one pass** before any alignment runs — so the profile index is
        built once for the whole batch, and each source's alignment can also
        discover correspondences against the other batch members.  Entries
        in ``aligners`` may be zero-argument factories; they are invoked
        only after the whole batch is admitted, so aligners that snapshot
        state at construction time (the view-based strategy captures its
        view's query graph and α) are built against the post-admission
        state.  The batch is atomic: if any admission or alignment fails,
        every batch source is rolled back.
        """
        if len(aligners) != len(sources):
            raise RegistrationError(
                f"register_batch got {len(sources)} sources but {len(aligners)} aligners"
            )
        seen = set()
        for source in sources:
            if self.catalog.has_source(source.name):
                raise RegistrationError(f"source {source.name!r} is already registered")
            if source.name in seen:
                raise RegistrationError(f"source {source.name!r} appears twice in the batch")
            seen.add(source.name)

        admitted: List[str] = []
        resolved: List[BaseAligner] = []
        results: List[AlignmentResult] = []
        edge_number = self.graph.next_edge_number
        try:
            # Phase 1: one profiling pass over the whole batch.
            for source in sources:
                self.admit(source)
                admitted.append(source.name)
            # Phase 2: build each aligner (factories see the grown graph)
            # and align its source against it.
            for source, entry in zip(sources, aligners):
                aligner = entry if isinstance(entry, BaseAligner) else entry()
                resolved.append(aligner)
                results.append(aligner.align(self.graph, self.catalog, source))
        except Exception:
            for name in reversed(admitted):
                self.evict(name, edge_number)
            raise

        for source, aligner in zip(sources, resolved):
            self.history.append(
                RegistrationRecord(source_name=source.name, strategy=aligner.strategy_name)
            )
        return results

    def registered_sources(self) -> List[str]:
        """Names of the sources registered through this service, in order."""
        return [record.source_name for record in self.history]
