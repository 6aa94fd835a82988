"""Per-tenant weight overlays: divergence, base isolation, durability.

Two tenants giving opposite PREFERRED_OVER feedback on the same view must
end up with different rankings — and neither may perturb the shared base
weights.  Overlays must also survive ``save()``/``open()`` round-trips on
both storage backends, alongside the base learner state.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import (
    FeedbackRequest,
    QService,
    QueryRequest,
    ServiceConfig,
)
from repro.core.view import RankedView
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.learning import AnnotationKind
from repro.service import QServer


def _clone(source):
    return source_from_dict(source_to_dict(source))


def _fingerprint(answers):
    """Ranking fingerprint that distinguishes trees, not just projections.

    Different Steiner trees frequently project identical ``(values, cost)``
    sequences (different join paths over the same keyword rows, symmetric
    costs), so the producing tree and base tuples must be part of the key.
    """
    return [
        (
            tuple(answer.values.items()),
            round(answer.cost, 9),
            answer.provenance.query_id,
            tuple(sorted(answer.provenance.base_tuples)),
        )
        for answer in answers
    ]


def _cross_tree_pair(answers):
    """An answer pair produced by two different Steiner trees.

    Same-tree pairs make PREFERRED_OVER nearly symmetric (the shadow
    difference is too small to reorder anything); cross-tree pairs move
    whole tree scores.
    """
    first = answers[0]
    other = next(
        a for a in answers if a.provenance.query_id != first.provenance.query_id
    )
    return first, other


def _opposite_feedback(service, view_id, first, other):
    service.feedback(
        FeedbackRequest(
            view=view_id,
            answer=first,
            kind=AnnotationKind.PREFERRED_OVER,
            other=other,
            replay=4,
            tenant="alice",
        )
    )
    service.feedback(
        FeedbackRequest(
            view=view_id,
            answer=other,
            kind=AnnotationKind.PREFERRED_OVER,
            other=first,
            replay=4,
            tenant="bob",
        )
    )


@pytest.fixture
def gbco_service(gbco_dataset):
    service = QService(
        sources=[_clone(source) for source in gbco_dataset.catalog],
        config=ServiceConfig(top_k=5, top_y=1),
    )
    service.bootstrap_alignments()
    with service:
        yield service


def test_a_retired_view_takes_its_tenant_twins_with_it(gbco_dataset, gbco_service):
    """Twins live on the view's record: re-creating a view under one name
    leaves one record, one twin and two live views, however often."""
    service = gbco_service
    keywords = gbco_dataset.query_log[2].keywords
    for _ in range(5):
        info = service.create_view(QueryRequest(keywords=keywords), materialize=False)
        assert list(service.stream_answers(QueryRequest(view=info.view_id, tenant="alice")))
    assert len(service.views) == 1
    gc.collect()
    live = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, RankedView) and obj.catalog is service.catalog
    ]
    assert len(live) == 2  # 6 while the twins were keyed by view id beside the registry
    record = service.views.get(info.view_id)
    assert sorted(live, key=id) == sorted([record.view, record.twins["alice"]], key=id)


def test_opposite_feedback_diverges_rankings_not_base(gbco_dataset, gbco_service):
    service = gbco_service
    entry = gbco_dataset.query_log[2]
    info = service.create_view(QueryRequest(keywords=entry.keywords), materialize=False)
    base_before = list(service.stream_answers(QueryRequest(view=info.view_id)))
    first, other = _cross_tree_pair(base_before)

    base_weights = dict(service.graph.weights.as_dict())
    base_version_before = service.graph.weights.version

    _opposite_feedback(service, info.view_id, first, other)

    # Shared base: byte-identical weights, untouched version, same ranking.
    assert service.graph.weights.as_dict() == base_weights
    assert service.graph.weights.version == base_version_before
    base_after = list(service.stream_answers(QueryRequest(view=info.view_id)))
    assert _fingerprint(base_after) == _fingerprint(base_before)

    alice = _fingerprint(
        service.stream_answers(QueryRequest(view=info.view_id, tenant="alice"))
    )
    bob = _fingerprint(
        service.stream_answers(QueryRequest(view=info.view_id, tenant="bob"))
    )
    base = _fingerprint(base_after)
    assert alice != bob
    assert alice != base or bob != base
    # Alice reinforced the base winner; bob demoted it.
    assert alice[0][2] == base[0][2]
    assert bob[0][2] != base[0][2]


def test_opposite_feedback_through_server(gbco_dataset, gbco_service):
    """The same divergence holds when all traffic flows through QServer."""
    entry = gbco_dataset.query_log[3]
    with QServer(gbco_service, read_workers=2) as server:
        base = server.query(QueryRequest(keywords=entry.keywords))
        first, other = _cross_tree_pair(base.answers)
        server.feedback(
            FeedbackRequest(
                view=base.view_id,
                answer=first,
                kind=AnnotationKind.PREFERRED_OVER,
                other=other,
                replay=4,
                tenant="alice",
            )
        )
        server.feedback(
            FeedbackRequest(
                view=base.view_id,
                answer=other,
                kind=AnnotationKind.PREFERRED_OVER,
                other=first,
                replay=4,
                tenant="bob",
            )
        )
        alice = server.query(QueryRequest(view=base.view_id, tenant="alice"))
        bob = server.query(QueryRequest(view=base.view_id, tenant="bob"))
        rebase = server.query(QueryRequest(view=base.view_id))
        assert _fingerprint(alice.answers) != _fingerprint(bob.answers)
        assert _fingerprint(rebase.answers) == _fingerprint(base.answers)
        assert gbco_service.stats().tenants == 2


@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_tenant_overlays_survive_save_open(gbco_dataset, tmp_path, backend):
    entry = gbco_dataset.query_log[2]
    if backend == "sqlite":
        db_path = tmp_path / "tenants.db"
        backend_spec = f"sqlite:{db_path}"
        save_path = None
    else:
        db_path = None
        backend_spec = None
        save_path = tmp_path / "tenants.json"

    service = QService(
        sources=[_clone(source) for source in gbco_dataset.catalog],
        config=ServiceConfig(top_k=5, top_y=1),
        backend=backend_spec,
    )
    service.bootstrap_alignments()
    with service:
        info = service.create_view(
            QueryRequest(keywords=entry.keywords), materialize=False
        )
        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        first, other = _cross_tree_pair(answers)
        _opposite_feedback(service, info.view_id, first, other)

        alice_before = _fingerprint(
            service.stream_answers(QueryRequest(view=info.view_id, tenant="alice"))
        )
        bob_before = _fingerprint(
            service.stream_answers(QueryRequest(view=info.view_id, tenant="bob"))
        )
        tenant_state = service.tenants.export_state()
        if backend == "sqlite":
            service.save()
        else:
            service.save(save_path)

    restored = QService.open(db_path if backend == "sqlite" else save_path)
    with restored:
        assert sorted(restored.tenants.names()) == ["alice", "bob"]
        assert restored.tenants.export_state() == tenant_state
        view_id = restored.views.latest().view_id
        alice_after = _fingerprint(
            restored.stream_answers(QueryRequest(view=view_id, tenant="alice"))
        )
        bob_after = _fingerprint(
            restored.stream_answers(QueryRequest(view=view_id, tenant="bob"))
        )
        assert alice_after == alice_before
        assert bob_after == bob_before
        assert alice_after != bob_after
