"""A registration costs a view what it added, and changes nothing it reads.

Between registrations a session keeps what makes the next pull cheap: the
builder's remembered value cells and label postings, the α-bounded
distance tables, the cache's latest ranking (a warm start), re-stamped
queries and the shared answer cache.  None of it may
show: after every feedback step and every registration, each view must read
exactly what a view built cold over the same graph reads — a fresh builder,
a fresh execution context, an empty Steiner cache — same trees, same answers,
costs and provenance, same order.
"""

from __future__ import annotations

from test_api_service import _gbco_service
from test_storage_backends import answer_fingerprint

from repro.api import FeedbackRequest, QueryRequest, RegisterSourceRequest
from repro.core import RankedView
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.graph import QueryGraphBuilder
from repro.profiling import CatalogProfileIndex

HELD_OUT = ("gene", "protein", "publication")


def cold_view(service, view) -> RankedView:
    return RankedView(
        view.keywords, service.catalog, service.graph, k=view.k,
        builder=QueryGraphBuilder(service.catalog, CatalogProfileIndex.from_catalog(service.catalog)),
        answer_limit=view.answer_limit,
    )


def test_views_read_after_feedback_and_registration_as_cold_views_do(gbco_dataset):
    service = _gbco_service(gbco_dataset, held_out=HELD_OUT)
    views = [
        service.create_view(QueryRequest(keywords=entry.keywords, k=6), materialize=False).view_id
        for entry in gbco_dataset.query_log[:8]
    ]

    def read_all():
        read = {}
        for view_id in views:
            answers = list(service.stream_answers(QueryRequest(view=view_id)))
            view, cold = service.view(view_id), cold_view(service, service.view(view_id))
            assert [(tree.edge_ids, tree.cost) for tree in view.trees()] == [
                (tree.edge_ids, tree.cost) for tree in cold.prepare().trees
            ]
            assert answer_fingerprint(answers) == answer_fingerprint(cold.answers())
            read[view_id] = answers
        return read

    read = read_all()
    for step, name in enumerate(HELD_OUT):
        for view_id in views[step::3]:
            if read[view_id]:
                answer = read[view_id][min(3, len(read[view_id]) - 1)]
                service.feedback(FeedbackRequest(view=view_id, answer=answer, replay=2))
        read = read_all()
        source = source_from_dict(source_to_dict(gbco_dataset.catalog.source(name)))
        service.register_source(RegisterSourceRequest(source=source, strategy="exhaustive"))
        read = read_all()
    did = service.engine_context.steiner_cache.solver
    assert did.warm_starts > 0 and did.recalls > 0
