"""Feedback learning and tenant overlays of a :class:`~repro.api.service.QService` (paper §4).

An annotation is generalized to the query tree that produced the answer,
logged, and replayed through the session's one learner; the update lands on
the shared weight vector or, for a tenant, on that tenant's overlay.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..core.view import RankedView
from ..learning.feedback import AnswerAnnotation, FeedbackEvent, FeedbackGeneralizer
from ..learning.overlays import TenantProfile
from .types import FeedbackRequest, FeedbackResponse, ViewRef
from .views import ViewRecord


class FeedbackMixin:
    """The feedback and tenant calls of :class:`~repro.api.service.QService`."""

    def feedback(self, request: FeedbackRequest) -> FeedbackResponse:
        """Apply user feedback on one answer of a view.

        The annotation is generalized to the producing query tree, logged,
        and fed to the session's persistent MIRA learner on the view's query
        graph (whose weight vector is shared with the search graph, so all
        views see the adjusted costs on their next read — no view is
        refreshed here).

        With a ``tenant`` on the request the learned update lands in that
        tenant's weight overlay instead: the tenant's own ranking moves,
        the shared base vector (and thus every other tenant) does not.
        """
        record = self.views.resolve(request.view)
        if request.tenant is not None:
            return self._tenant_feedback(record, request)
        event = record.view.annotate(request.answer, request.kind, other=request.other)
        return self._learn(record, [event], request.replay)

    def _tenant_view(self, record: ViewRecord, tenant: str) -> RankedView:
        """The tenant-priced twin of ``record``'s view, kept on the record.

        Shares the base view's query-graph *topology* (same nodes, edge ids
        and therefore tree signatures) through a structural graph clone
        whose weight vector is the tenant's overlay.  Rebuilt whenever the
        base view re-expands (the query-graph object identity moves).
        """
        twins = record.tenant_twins()
        if tenant not in twins:
            base = record.view
            twins[tenant] = RankedView.priced_twin(
                base.query_graph,
                self.tenants.overlay(tenant),
                base.keywords,
                self.catalog,
                k=base.k,
                answer_limit=base.answer_limit,
                engine_context=self.engine_context,
            )
        return twins[tenant]

    def _tenant_feedback(self, record: ViewRecord, request: FeedbackRequest) -> FeedbackResponse:
        """Apply feedback into one tenant's overlay.

        The annotation is generalized against the union of the base view's
        and the tenant view's retained trees (the answer may have been read
        under either ranking — signatures agree because both price the same
        expansion), then replayed through the shared learner with the
        overlay as the ``weights=`` override.  The event still lands in the
        session-wide feedback log for introspection and persistence.
        """
        profile = self.tenants.profile(request.tenant)
        tenant_view = self._tenant_view(record, request.tenant)
        tenant_view.prepare()
        trees = record.view.trees_by_signature()
        trees.update(tenant_view.trees_by_signature())
        generalizer = FeedbackGeneralizer(tenant_view.terminals, trees)
        event = generalizer.generalize(
            AnswerAnnotation(answer=request.answer, kind=request.kind, other=request.other)
        )
        return self._learn(record, [event], request.replay, profile)

    def apply_feedback_events(
        self,
        view: Union[ViewRef, ViewRecord],
        events: Sequence[FeedbackEvent],
        repetitions: int = 1,
    ) -> FeedbackResponse:
        """Apply pre-built feedback events (used by the experiment harnesses)."""
        return self._learn(self.views.resolve(view), list(events), repetitions)

    def _learn(
        self,
        record: ViewRecord,
        events: List[FeedbackEvent],
        repetitions: int,
        profile: Optional[TenantProfile] = None,
    ) -> FeedbackResponse:
        """The one feedback step: log, replay on the view's query graph, autosave.

        The shared base weights learn unless a tenant ``profile`` is given;
        then its overlay learns and counts the steps applied to it.
        """
        for event in events:
            self.feedback_log.add(event)
        overlay = profile.overlay if profile is not None else None
        results = self.learner.replay(
            events, repetitions, graph=record.view.query_graph.graph, weights=overlay
        )
        if profile is not None:
            profile.events_applied += len(results)
        self._after_mutation()
        return FeedbackResponse(
            view_id=record.view_id,
            events=tuple(events),
            steps_processed=len(results),
            weight_change=sum(step.weight_change for step in results),
            weights_version=(self.graph.weights if overlay is None else overlay).version,
        )
