"""Model-based test of the lazy pull: one ``QService`` against an eager twin.

A hypothesis state machine drives a *lazy* session through every way a view
is pulled — full, paged, ``answers_page(offset)`` and tenant reads, base and
tenant feedback, registration, removal, ``prepare_views``, save → open — and
applies each step to an *eager* twin as well, which in addition re-solves
its views after every mutation (the eager leg ``TestEagerLazyParity`` writes
by hand, through the service so that it is counted).

Every read must agree bit for bit — values, costs, order and provenance,
whose query ids hash the trees' edge ids.  An expansion names its edges by
their endpoints, but it seeds the weights of edges it matches for the first
time on the shared vector, so the twin leaves *re-expansion* where the lazy
session has it (the pull of the same step) and is eager about the ranking
only: it re-solves, after each mutation, every view whose expansion is
current.  Pulling more often can only split a staleness interval, never join
two, so the lazy session's ``view_refreshes`` may never exceed the twin's.
Across a registration, a removal or a restart, a keyword match that is still
there keeps the weight feedback taught it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
)
from repro.datasets import build_interpro_go
from repro.graph import EdgeKind, edge_feature
from server_oracle import fingerprint

#: Views of 8–11 answers over five queries each on the InterPro source.
KEYWORDS = (("kinase", "title"), ("protein", "method"), ("receptor", "journal"))
TENANTS = st.sampled_from([None, "alice"])
PICKS = st.integers(0, 5)


def _session() -> QService:
    """An InterPro-only session (``test_api_service._rich_service``); GO stays out to be registered."""
    dataset = build_interpro_go(include_foreign_keys=True)
    service = QService(sources=[dataset.interpro], config=ServiceConfig(top_k=5, top_y=2))
    service.bootstrap_alignments(top_y=2)
    return service


def _go():
    return build_interpro_go(include_foreign_keys=True).go


class LazyPullMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lazy = _session()
        self.eager = _session()
        self.scratch = tempfile.TemporaryDirectory()
        self.location = Path(self.scratch.name) / "session.json"

    def teardown(self):
        self.lazy.close()
        self.eager.close()
        self.scratch.cleanup()

    # ------------------------------------------------------------------
    def _both(self, step):
        """Apply ``step`` to both sessions; a mutation is followed by the eager re-solve."""
        results = [step(self.lazy), step(self.eager)]
        for record in self.eager.views.records():
            if record.view.expansion_is_current:
                self.eager.prepare_view(record)
        return results

    def _view_id(self, pick):
        records = self.lazy.views.records()
        return records[pick % len(records)].view_id

    def _read(self, view_id, tenant):
        request = QueryRequest(view=view_id, tenant=tenant)
        lazy, eager = (
            fingerprint(service.stream_answers(request)) for service in (self.lazy, self.eager)
        )
        assert lazy == eager
        return lazy

    def _keyword_weights(self):
        """Per view whose expansion is current: (keyword, target) -> its match edge's own weight."""
        held = {}
        for record in self.lazy.views.records():
            if record.view.expansion_is_current:
                graph = record.view.query_graph.graph
                held[record.view_id] = {
                    (edge.u, edge.v): graph.weights.get(edge_feature(edge.edge_id))
                    for edge in graph.edges()
                    if edge.kind is EdgeKind.KEYWORD_MATCH
                }
        return held

    def _learning_holds(self, step):
        """Run ``step``, then read each view it found current: every keyword
        match still in that view's expansion weighs what it did before."""
        before = self._keyword_weights()
        step()
        for view_id in before:
            self._read(view_id, None)
        after = self._keyword_weights()
        for view_id, weights in before.items():
            kept = {edge: weight for edge, weight in after[view_id].items() if edge in weights}
            assert kept == {edge: weights[edge] for edge in kept}

    has_views = precondition(lambda self: len(self.lazy.views))

    # ------------------------------------------------------------------
    # Reads: the same pull on both sides (expansion stays aligned)
    # ------------------------------------------------------------------
    @has_views
    @rule(pick=PICKS, tenant=TENANTS)
    def full_read(self, pick, tenant):
        self._read(self._view_id(pick), tenant)

    @has_views
    @rule(pick=PICKS, tenant=TENANTS, page_size=st.integers(1, 4))
    def paged_read(self, pick, tenant, page_size):
        view_id = self._view_id(pick)
        request = QueryRequest(view=view_id, tenant=tenant, page_size=page_size)
        paged = []
        for service in (self.lazy, self.eager):
            pages = list(service.answers(request))
            assert all(len(page.answers) <= page_size for page in pages)
            paged.append(fingerprint(answer for page in pages for answer in page.answers))
        assert paged[0] == paged[1] == self._read(view_id, tenant)

    @has_views
    @rule(pick=PICKS, tenant=TENANTS, offset=st.integers(0, 6), page_size=st.integers(1, 4))
    def page_read(self, pick, tenant, offset, page_size):
        view_id = self._view_id(pick)
        request = QueryRequest(view=view_id, tenant=tenant, offset=offset, page_size=page_size)
        lazy, eager = (
            fingerprint(service.answers_page(request)) for service in (self.lazy, self.eager)
        )
        assert lazy == eager == self._read(view_id, tenant)[offset : offset + page_size]

    @rule(structural_only=st.booleans())
    def prepare_views(self, structural_only):
        lazy = self.lazy.prepare_views(structural_only=structural_only)
        eager = self.eager.prepare_views(structural_only=structural_only)
        assert eager <= lazy <= len(self.lazy.views)
        # Every expansion is current now.  (Rankings may not be: each rebuild
        # prices new keyword edges on the shared vector, moving the version
        # under the views solved before it.)
        assert self.lazy.prepare_views(structural_only=True) == 0

    # ------------------------------------------------------------------
    # Mutations: the twin re-solves after each
    # ------------------------------------------------------------------
    @rule(which=st.integers(0, len(KEYWORDS) - 1), materialize=st.booleans())
    def create_view(self, which, materialize):
        lazy, eager = self._both(
            lambda service: service.create_view(QueryRequest(keywords=KEYWORDS[which]), materialize)
        )
        assert lazy == eager  # same id, same trees, same α

    @has_views
    @rule(pick=PICKS, rank=PICKS, tenant=TENANTS)
    def feedback(self, pick, rank, tenant):
        view_id = self._view_id(pick)
        if not self._read(view_id, tenant):
            return

        def step(service):  # each session annotates the answer of its own (equal) read
            answers = list(service.stream_answers(QueryRequest(view=view_id, tenant=tenant)))
            return service.feedback(
                FeedbackRequest(view=view_id, answer=answers[rank % len(answers)], tenant=tenant)
            )

        lazy, eager = self._both(step)
        assert (lazy.steps_processed, lazy.weight_change) == (eager.steps_processed, eager.weight_change)

    @rule()
    def register_or_remove(self):
        def step(service):
            if service.catalog.has_source("go"):
                service.remove_source("go")
            else:
                service.register_source(RegisterSourceRequest(source=_go(), strategy="exhaustive"))

        self._learning_holds(lambda: self._both(step))

    @rule()
    def save_and_reopen(self):
        """Only the lazy session restarts; the twin never saves."""

        def restart():
            self.lazy.save(self.location)
            self.lazy.close()
            self.lazy = QService.open(self.location)

        self._learning_holds(restart)

    # ------------------------------------------------------------------
    @invariant()
    def lazy_never_refreshes_more(self):
        lazy, eager = self.lazy.stats(), self.eager.stats()
        assert lazy.view_refreshes <= eager.view_refreshes
        assert (lazy.views, lazy.weights_version, lazy.structure_version) == (
            eager.views,
            eager.weights_version,
            eager.structure_version,
        )
        assert self.lazy.graph.next_edge_number == self.eager.graph.next_edge_number


LazyPullMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestLazyPull = LazyPullMachine.TestCase
