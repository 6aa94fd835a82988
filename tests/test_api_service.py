"""Lazy pull-based consistency semantics of :class:`repro.api.QService`.

Covers the satellite contract of the service API:

* feedback followed by a read refreshes only the *read* view;
* a registration makes every view stale and refreshes nothing until a
  read, which rebuilds the read view once and executes only the query
  contents the session never executed;
* the lazy pull path returns top-k answers identical (values, costs,
  order) to a twin session whose every view is refreshed after each
  mutation, on a fig11-style feedback replay, while performing strictly
  fewer view refreshes;
* streaming answers equal the materialized refresh and execute queries
  lazily, page by page.
"""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.api import (
    AlignmentStrategy,
    FeedbackRequest,
    InvalidRequestError,
    QService,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
    UnknownViewError,
)
from repro.core import QueryGenerator, RankedView, gold_vs_nongold_costs
from repro.core.simulated_feedback import simulated_feedback_for_view
from repro.datasets import build_interpro_go
from repro.datastore import DataSource
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.graph import EdgeKind, edge_feature
from repro.learning import AnnotationKind
from repro.service import QServer

from test_storage_backends import (
    answer_fingerprint,
    distinct_contents,
    fresh_context,
    make_backend,
)


def _mini_sources():
    go = DataSource.build(
        "go",
        {"term": ["acc", "name"]},
        data={
            "term": [
                {"acc": "GO:0001", "name": "plasma membrane"},
                {"acc": "GO:0002", "name": "nucleus"},
            ]
        },
    )
    interpro = DataSource.build(
        "interpro",
        {"interpro2go": ["go_id", "entry_ac"]},
        data={
            "interpro2go": [
                {"go_id": "GO:0001", "entry_ac": "IPR001"},
                {"go_id": "GO:0002", "entry_ac": "IPR002"},
            ]
        },
    )
    return [go, interpro]


def _mini_service() -> QService:
    service = QService(sources=_mini_sources())
    service.graph.add_association(
        "go.term", "acc", "interpro.interpro2go", "go_id", {"mad": 0.9}
    )
    return service


def _gbco_service(gbco_dataset, held_out=(), backend=None) -> QService:
    """A bootstrap-aligned session over a clone of the GBCO catalog."""
    service = QService(
        sources=[
            source_from_dict(source_to_dict(source))
            for source in gbco_dataset.catalog
            if source.name not in held_out
        ],
        backend=backend,
    )
    service.bootstrap_alignments()
    return service


def _extra_source() -> DataSource:
    return DataSource.build(
        "extra",
        {"facts": ["go_acc", "note"]},
        data={"facts": [{"go_acc": "GO:0001", "note": "liver"}]},
    )


def _drain(pages) -> list:
    answers = []
    for page in pages:
        answers.extend(page.answers)
    return answers


def test_bootstrap_hands_the_matchers_the_index_and_installs_the_golden_edges(gbco_dataset):
    """``tests/data/bootstrap_gbco.expected.json`` is what commit 44557bc held
    after this call: edge id -> features in installation order, and the
    correspondence count."""
    expected = json.loads(
        (Path(__file__).parent / "data" / "bootstrap_gbco.expected.json").read_text()
    )
    service = QService(sources=[source_from_dict(source_to_dict(s)) for s in gbco_dataset.catalog])
    assert all(matcher.profile_index is None for matcher in service.matchers)
    correspondences = service.bootstrap_alignments()
    assert all(matcher.profile_index is service.profile_index for matcher in service.matchers)
    assert len(correspondences) == expected["correspondences"]
    held = {edge.edge_id: dict(edge.features) for edge in service.graph.association_edges()}
    assert list(held) == list(expected["edges"])
    assert held == expected["edges"]


class TestLazyConsistency:
    def test_feedback_refreshes_only_the_read_view(self):
        service = _mini_service()
        info_a = service.create_view(QueryRequest(keywords=("membrane", "IPR001")))
        info_b = service.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        view_a = service.view(info_a.view_id)
        view_b = service.view(info_b.view_id)
        assert view_a.refresh_count == 1 and view_b.refresh_count == 1

        answer = view_a.state.answers[0]
        service.feedback(FeedbackRequest(view=info_a.view_id, answer=answer))
        # The mutation itself refreshed nothing.
        assert view_a.refresh_count == 1 and view_b.refresh_count == 1

        _drain(service.answers(QueryRequest(view=info_a.view_id)))
        # Only the read view synchronized; the other stays stale until read.
        assert view_a.refresh_count == 2
        assert view_b.refresh_count == 1
        assert view_a.last_refresh.solver_runs == 1  # weights moved -> re-solve

        stats = service.stats()
        assert stats.view_refreshes == 3  # two creations + one stale read

    def test_feedback_solves_through_the_context_cache(self, gbco_dataset):
        """The session learner shares the views' Steiner cache.  Its first
        replayed step asks for the k best trees of the network the view's read
        just ranked: the topology's last prices serve as they are (a hit) and
        the ranking is recalled.  The second faces the costs the first step
        moved: a re-price and an enumeration.  Neither indexes the graph
        again, and what they did reaches the totals the metrics export."""
        service = _gbco_service(gbco_dataset)
        cache = service.engine_context.steiner_cache
        did = cache.solver
        assert service.learner.solver.network_cache is cache
        info = service.create_view(QueryRequest(keywords=gbco_dataset.query_log[0].keywords))
        # An answer of a tree other than the best: favouring it has to move costs.
        answer = service.view(info.view_id).state.answers[-1]
        before = (cache.hits, cache.rescores, cache.builds, did.recalls)
        one_enumeration = did.base_solves
        service.feedback(FeedbackRequest(view=info.view_id, answer=answer, replay=2))
        assert (cache.hits, cache.rescores, cache.builds, did.recalls) == (
            before[0] + 1, before[1] + 1, before[2], before[3] + 1
        )
        assert did.base_solves > one_enumeration
        assert service.obs.registry.value("q_steiner_recalls_total") == did.recalls
        assert service.obs.registry.value("q_steiner_base_solves_total") == did.base_solves

    def test_re_read_after_feedback_generates_only_the_new_trees(self, gbco_dataset, monkeypatch):
        """A re-solve over the same expansion re-stamps the last solve's
        query of every tree it keeps with that tree's new cost; only trees
        the view had not generated go through the generator.  The stream is
        a fresh view's, to the bit."""

        def fingerprint(answers):
            return [
                (tuple(a.values.items()), a.cost, a.provenance.query_id, tuple(sorted(a.provenance.base_tuples)))
                for a in answers
            ]

        service = _gbco_service(gbco_dataset)
        info = service.create_view(QueryRequest(keywords=gbco_dataset.query_log[0].keywords))
        view = service.view(info.view_id)
        before = {tree.edge_ids: tree.cost for tree in view.trees()}
        service.feedback(FeedbackRequest(view=info.view_id, answer=view.state.answers[-1]))
        generated = []
        generate = QueryGenerator.generate

        def counting(generator, tree):
            generated.append(tree.edge_ids)
            return generate(generator, tree)

        monkeypatch.setattr(QueryGenerator, "generate", counting)
        reread = fingerprint(view.stream_answers())
        assert view.last_refresh.solver_runs == 1
        after = view.trees()
        assert generated == [tree.edge_ids for tree in after if tree.edge_ids not in before]
        kept = [tree for tree in after if tree.edge_ids in before]
        assert kept and any(tree.cost != before[tree.edge_ids] for tree in kept)
        monkeypatch.undo()
        fresh = RankedView(
            view.keywords, service.catalog, service.graph, k=view.k,
            answer_limit=view.answer_limit, engine_context=service.engine_context,
        )
        assert reread == fingerprint(fresh.stream_answers()) and reread

    def test_rereading_unchanged_views_solves_nothing(self, gbco_dataset):
        """Each view's expansion prices its new keyword edges on the vector all
        graphs share, so every earlier view's version key goes stale while its
        costs stay bit-identical: re-reading them recalls their rankings — zero
        base solves where each used to be enumerated again — before and after a
        registration has rebuilt every query graph."""
        held_out = "publication"
        service = _gbco_service(gbco_dataset, held_out=(held_out,))
        did = service.engine_context.steiner_cache.solver

        def read(view_id):
            return [
                (answer.values, answer.cost)
                for answer in service.stream_answers(QueryRequest(view=view_id))
            ]

        views, first = [], []
        for entry in gbco_dataset.query_log[:4]:
            info = service.create_view(QueryRequest(keywords=entry.keywords), materialize=False)
            views.append(info.view_id)
            first.append(read(info.view_id))
        stale = [record for record in service.views.records() if record.view.current_ranking() is None]
        assert len(stale) == 3  # all but the view created last
        solved, recalls = did.base_solves, did.recalls
        assert [read(view_id) for view_id in views] == first
        assert (did.base_solves, did.recalls) == (solved, recalls + 3)

        source = source_from_dict(source_to_dict(gbco_dataset.catalog.source(held_out)))
        service.register_source(RegisterSourceRequest(source=source, strategy="exhaustive"))
        after = [read(view_id) for view_id in views]  # rebuilt and enumerated, one by one
        assert did.base_solves > solved
        solved, recalls = did.base_solves, did.recalls
        assert [read(view_id) for view_id in views] == after
        assert (did.base_solves, did.recalls) == (solved, recalls + 3)

    def test_fresh_read_skips_the_refresh(self):
        service = _mini_service()
        info = service.create_view(QueryRequest(keywords=("membrane", "IPR001")))
        first = _drain(service.answers(QueryRequest(view=info.view_id)))
        second = _drain(service.answers(QueryRequest(view=info.view_id)))
        stats = service.stats()
        # Creation refreshed once; both reads found a current snapshot.
        assert stats.view_refreshes == 1
        assert stats.view_refreshes_skipped == 2
        assert [a.values for a in first] == [a.values for a in second]
        # A fresh read skips even the solver.
        assert service.view(info.view_id).last_refresh.solver_runs == 0

    def test_registration_invalidates_all_views_exactly_once(self):
        service = _mini_service()
        info_a = service.create_view(QueryRequest(keywords=("membrane", "IPR001")))
        info_b = service.create_view(QueryRequest(keywords=("nucleus", "IPR002")))
        view_a = service.view(info_a.view_id)
        view_b = service.view(info_b.view_id)
        expansions = (view_a.query_graph, view_b.query_graph)
        refreshes_before = (view_a.refresh_count, view_b.refresh_count)
        keys_before = {g.key for g in view_a.state.queries}

        new_source = _extra_source()
        service.register_source(
            RegisterSourceRequest(source=new_source, strategy=AlignmentStrategy.EXHAUSTIVE)
        )

        # Mutation time: every view is stale, and none is touched.
        assert not view_a.expansion_is_current and not view_b.expansion_is_current
        assert view_a.query_graph is expansions[0] and view_b.query_graph is expansions[1]
        assert (view_a.refresh_count, view_b.refresh_count) == refreshes_before

        # Read time: the read view rebuilds exactly once; the unread one is
        # left alone.  Only query contents the session never executed run:
        # the rest replay from the engine context.
        _drain(service.answers(QueryRequest(view=info_a.view_id)))
        assert view_a.query_graph is not expansions[0] and view_b.query_graph is expansions[1]
        assert view_a.refresh_count == refreshes_before[0] + 1
        assert view_b.refresh_count == refreshes_before[1]
        keys_after = [g.key for g in view_a.state.queries]
        new = set(keys_after) - keys_before
        assert view_a.last_refresh.queries_executed == len(new)
        assert view_a.last_refresh.queries_reused == len(keys_after) - len(new)
        rebuilt = view_a.query_graph
        _drain(service.answers(QueryRequest(view=info_a.view_id)))
        assert view_a.query_graph is rebuilt

    def test_registration_result_is_not_retained_by_the_session(self):
        # The registrar's history outlives every response; holding each
        # AlignmentResult there grows a serving session without bound.
        service = _mini_service()
        new_source = _extra_source()
        response = service.register_source(
            RegisterSourceRequest(source=new_source, strategy=AlignmentStrategy.EXHAUSTIVE)
        )
        assert response.alignment.correspondences
        alignment_ref = weakref.ref(response.alignment)
        del response
        gc.collect()
        assert alignment_ref() is None
        record = service.registrar.history[-1]
        assert (record.source_name, record.strategy) == ("extra", "exhaustive")

    def test_pairs_scored_counts_single_and_batch_registrations(self, gbco_dataset):
        held = ("gene2pathway", "pathway_member", "gene2phenotype")
        service = _gbco_service(gbco_dataset, held_out=held)

        def request(name):
            source = source_from_dict(source_to_dict(gbco_dataset.catalog.source(name)))
            return RegisterSourceRequest(source=source, strategy=AlignmentStrategy.EXHAUSTIVE)

        before = service.stats().pairs_scored
        responses = [service.register_source(request(held[0]))]
        responses += service.register_sources([request(held[1]), request(held[2])])
        scored = [response.alignment.pairs_scored for response in responses]
        assert all(scored)
        assert service.stats().pairs_scored - before == sum(scored)

    def test_multiple_mutations_cost_one_refresh_at_read(self):
        service = _mini_service()
        info = service.create_view(QueryRequest(keywords=("membrane", "IPR001")))
        view = service.view(info.view_id)
        answer = view.state.answers[0]
        learner = service.learner
        for _ in range(5):
            service.feedback(FeedbackRequest(view=info.view_id, answer=answer))
        # One persistent learner took every step.
        assert service.learner is learner and learner.steps_processed == 5
        assert view.refresh_count == 1
        _drain(service.answers(QueryRequest(view=info.view_id)))
        assert view.refresh_count == 2  # five mutations, one refresh

    def test_association_merge_marks_views_stale(self):
        # Re-running bootstrap merges matcher confidences into EXISTING
        # association edges (no new nodes/edges, no weight change) — edge
        # costs still move, so the structure version must move with them
        # and the next read must re-solve.
        service = _rich_service()
        info = service.create_view(QueryRequest(keywords=("kinase", "title"), k=5))
        view = service.view(info.view_id)
        structure_before = service.graph.structure_version
        service.bootstrap_alignments(top_y=2)  # pure merge: same pairs again
        assert service.graph.structure_version > structure_before
        _drain(service.answers(QueryRequest(view=info.view_id)))
        assert view.last_refresh.solver_runs == 1

    def test_query_request_by_keywords_reuses_existing_view(self):
        service = _mini_service()
        service.create_view(QueryRequest(keywords=("membrane", "IPR001")))
        _drain(service.answers(QueryRequest(keywords=("membrane", "IPR001"))))
        assert len(service.views) == 1  # reused, not recreated

    def test_query_request_by_keywords_creates_view_on_demand(self):
        service = _mini_service()
        answers = _drain(service.answers(QueryRequest(keywords=("membrane", "IPR001"))))
        assert answers
        assert len(service.views) == 1

    def test_errors_are_typed(self):
        service = _mini_service()
        with pytest.raises(UnknownViewError):
            next(iter(service.answers(QueryRequest(view="view-9999"))))
        with pytest.raises(InvalidRequestError):
            next(iter(service.answers(QueryRequest())))
        with pytest.raises(InvalidRequestError):
            service.create_view(QueryRequest())
        # Zero is invalid, not "use the default".
        with pytest.raises(InvalidRequestError):
            service.create_view(QueryRequest(keywords=("membrane",), k=0))
        with pytest.raises(InvalidRequestError):
            service.answers(QueryRequest(keywords=("membrane", "IPR001"), page_size=0))

    def test_keyword_reuse_with_conflicting_k_is_rejected(self):
        service = _mini_service()
        info = service.create_view(QueryRequest(keywords=("membrane", "IPR001"), k=2))
        # Same k (or unspecified) reuses; a different k must not silently
        # serve the smaller-k ranking — on either reference form.
        _drain(service.answers(QueryRequest(keywords=("membrane", "IPR001"))))
        _drain(service.answers(QueryRequest(keywords=("membrane", "IPR001"), k=2)))
        assert len(service.views) == 1
        with pytest.raises(InvalidRequestError):
            service.answers(QueryRequest(keywords=("membrane", "IPR001"), k=5))
        with pytest.raises(InvalidRequestError):
            service.answers(QueryRequest(view=info.view_id, k=5))


class TestReadWindow:
    """One rule for a read's window, whichever call serves it."""

    def test_every_read_path_rejects_an_out_of_range_window(self, gbco_dataset):
        # A served read sliced ``answers[:limit]`` and dropped the last
        # answer for ``limit=-1``; the streamed read raised a bare
        # ValueError, the page read a QueryError, and a served read with
        # ``page_size=0`` failed only when its pages were asked for.
        service = _gbco_service(gbco_dataset)
        view_id = service.create_view(QueryRequest(keywords=gbco_dataset.query_log[0].keywords)).view_id
        everything = list(service.stream_answers(QueryRequest(view=view_id)))
        assert len(everything) > 1
        server = QServer(service, read_workers=1)
        try:
            reads = (
                lambda: server.query(QueryRequest(view=view_id, limit=-1)),
                lambda: list(service.stream_answers(QueryRequest(view=view_id, limit=-1))),
                lambda: _drain(service.answers(QueryRequest(view=view_id, limit=-1))),
                lambda: service.answers_page(QueryRequest(view=view_id, page_size=0)),
                lambda: service.answers_page(QueryRequest(view=view_id, offset=-1)),
                lambda: list(server.query(QueryRequest(view=view_id, page_size=0)).pages()),
            )
            for read in reads:
                with pytest.raises(InvalidRequestError):
                    read()
            # The edges of the range are reads, not errors.
            assert server.query(QueryRequest(view=view_id, limit=0)).answers == ()
            assert list(server.query(QueryRequest(view=view_id, limit=1)).answers) == everything[:1]
            assert list(service.stream_answers(QueryRequest(view=view_id, limit=1))) == everything[:1]
        finally:
            server.close()

    @pytest.mark.parametrize(
        "window", [{"k": 0}, {"page_size": 0}, {"limit": -1}, {"offset": -1}]
    )
    def test_a_request_outside_the_range_is_not_built(self, window):
        with pytest.raises(InvalidRequestError, match=next(iter(window))):
            QueryRequest(keywords=("membrane",), **window)


class TestSessionAnswerCache:
    """One answer cache per session, keyed by query content, valid while the
    tables each answer list read are the same objects at the same versions."""

    @staticmethod
    def _read_all(service, view_ids) -> list:
        return [
            answer_fingerprint(service.stream_answers(QueryRequest(view=view_id)))
            for view_id in view_ids
        ]

    def _views(self, service, entries) -> list:
        return [
            service.create_view(QueryRequest(keywords=entry.keywords), materialize=False).view_id
            for entry in entries
        ]

    def test_unread_source_registration_executes_nothing(self, gbco_dataset):
        service = _gbco_service(gbco_dataset)
        view_ids = self._views(service, gbco_dataset.query_log[:6])
        self._read_all(service, view_ids)
        structure = service.graph.structure_version
        unread = DataSource.build(
            "zeta", {"zeta": ["qqx", "wwy"]}, data={"zeta": [{"qqx": "zq-1", "wwy": "xylophone"}]}
        )
        service.register_source(RegisterSourceRequest(source=unread, strategy="exhaustive"))
        assert service.graph.structure_version > structure

        replayed = []
        for view_id in view_ids:
            replayed.extend(self._read_all(service, [view_id]))
            stats = service.view(view_id).last_refresh
            assert stats.solver_runs == 1  # re-expanded and re-solved
            assert stats.queries_executed == 0
        assert any(replayed)
        fresh_context(service)
        assert self._read_all(service, view_ids) == replayed

    @pytest.mark.parametrize("kind", ("memory", "sqlite"))
    def test_shared_equals_fresh_after_mutations(
        self, gbco_dataset, kind
    ):
        held_out = "publication"
        service = _gbco_service(gbco_dataset, held_out=(held_out,), backend=make_backend(kind))
        with service:
            view_ids = self._views(service, gbco_dataset.query_log[:5])
            first = service.view(view_ids[0])
            answers = list(service.stream_answers(QueryRequest(view=view_ids[0])))
            self._read_all(service, view_ids)

            def check():
                shared = self._read_all(service, view_ids)
                fresh_context(service)
                assert self._read_all(service, view_ids) == shared
                assert any(shared)

            service.feedback(FeedbackRequest(view=view_ids[0], answer=answers[-1], replay=2))
            assert first.current_ranking() is None
            check()
            source = source_from_dict(source_to_dict(gbco_dataset.catalog.source(held_out)))
            service.register_source(RegisterSourceRequest(source=source, strategy="exhaustive"))
            check()
            service.remove_source("pathway")
            check()

    def test_removed_source_tables_are_freed(self, gbco_dataset):
        service = _gbco_service(gbco_dataset)
        view_ids = self._views(service, gbco_dataset.query_log)
        self._read_all(service, view_ids)
        tables = [weakref.ref(table) for table in service.catalog.source("pathway").tables()]
        assert tables and any(
            "pathway.pathway" in g.query.relations()
            for view_id in view_ids
            for g in service.view(view_id).state.queries
        )
        service.remove_source("pathway")
        self._read_all(service, view_ids)
        gc.collect()
        assert [ref() for ref in tables] == [None] * len(tables)


def _edge_weights(view) -> dict:
    """(kind, u, v) -> the weight of the own feature of each edge of ``view``'s expansion."""
    graph = view.query_graph.graph
    return {
        (edge.kind, edge.u, edge.v): graph.weights.get(edge_feature(edge.edge_id))
        for edge in graph.edges()
        if edge_feature(edge.edge_id) in edge.features
    }


class TestLearningSurvivesMutation:
    """Feedback accumulates while sources arrive (paper Section 2.3): a view
    re-expanded after a registration names its edges as before, so every
    weight MIRA learned on them is found in place and none is written."""

    def test_registration_keeps_every_learned_edge_weight(self, gbco_dataset):
        service = _gbco_service(gbco_dataset)
        info = service.create_view(QueryRequest(keywords=gbco_dataset.query_log[0].keywords))
        view = service.view(info.view_id)
        answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
        service.feedback(FeedbackRequest(view=info.view_id, answer=answers[-1], replay=2))
        learned = _edge_weights(view)
        assert any(kind is EdgeKind.KEYWORD_MATCH and weight != 0.05 for (kind, _, _), weight in learned.items())

        unrelated = DataSource.build(
            "zeta", {"zeta": ["qqx", "wwy"]}, data={"zeta": [{"qqx": "zq-1", "wwy": "xylophone"}]}
        )
        service.register_source(RegisterSourceRequest(source=unrelated, strategy="exhaustive"))
        weights = service.graph.weights
        version, features = weights.version, len(weights)
        expansion = view.query_graph
        assert list(service.stream_answers(QueryRequest(view=info.view_id)))
        assert view.query_graph is not expansion  # re-expanded ...
        assert (weights.version, len(weights)) == (version, features)  # ... writing no weight
        kept = _edge_weights(view)
        assert {edge: kept[edge] for edge in learned} == learned  # the source is unrelated: every edge stays

    def test_a_repeated_keyword_ranks_and_answers_like_one(self, gbco_dataset):
        service = _gbco_service(gbco_dataset)
        read = []
        for keywords in (("insulin", "pathway"), ("insulin", "Insulin", "pathway")):
            info = service.create_view(QueryRequest(keywords=keywords))
            view = service.view(info.view_id)
            trees = [(tree.cost, sorted(tree.edge_ids)) for tree in view.state.trees]
            read.append((view.terminals, trees, answer_fingerprint(view.answers())))
        assert read[0] == read[1] and read[0][1] and read[0][2]


def _rich_service(answer_limit=200) -> QService:
    """An InterPro-only session whose k=5 view spans several queries."""
    dataset = build_interpro_go(include_foreign_keys=True)
    service = QService(
        sources=[dataset.interpro],
        config=ServiceConfig(top_k=5, top_y=2, answer_limit=answer_limit),
    )
    service.bootstrap_alignments(top_y=2)
    return service


class TestStreaming:
    def test_stream_equals_materialized_refresh(self):
        service = _rich_service()
        info = service.create_view(QueryRequest(keywords=("kinase", "title"), k=5))
        view = service.view(info.view_id)
        expected = [(a.values, a.cost, a.provenance.query_id) for a in view.refresh().answers]
        streamed = [
            (a.values, a.cost, a.provenance.query_id)
            for a in service.stream_answers(QueryRequest(view=info.view_id))
        ]
        assert len(streamed) > 1
        assert streamed == expected

    def test_first_page_defers_remaining_query_execution(self):
        service = _rich_service()
        info = service.create_view(QueryRequest(keywords=("kinase", "title"), k=5))
        view = service.view(info.view_id)
        total_queries = len(view.state.queries)
        assert total_queries > 1, "test needs a multi-query view"

        # A fresh context, so the streamed read must execute from scratch.
        fresh_context(service)
        pages = service.answers(QueryRequest(view=info.view_id, page_size=1))
        next(pages)
        executed_after_first_page = view.last_refresh.queries_executed
        assert executed_after_first_page < total_queries
        # Draining the rest executes the remaining distinct queries.
        for _ in pages:
            pass
        assert view.last_refresh.queries_executed == distinct_contents(view)

    def test_unmaterialized_creation_executes_nothing_until_streamed(self):
        service = _rich_service()
        info = service.create_view(
            QueryRequest(keywords=("kinase", "title"), k=5), materialize=False
        )
        view = service.view(info.view_id)
        # The solve ran (ranking, alpha available) but no query executed.
        assert info.tree_count > 0 and info.alpha is not None
        assert view.last_refresh.queries_executed == 0
        assert view.last_refresh.queries_reused == 0

        pages = service.answers(QueryRequest(view=info.view_id, page_size=1))
        next(pages)
        assert 0 < view.last_refresh.queries_executed < len(view.state.queries)

    def test_auto_created_view_streams_pay_per_page(self):
        service = _rich_service()
        # First-ever read by keywords: the view is created solve-only and
        # the first page executes only the queries it needs.
        pages = service.answers(QueryRequest(keywords=("kinase", "title"), k=5, page_size=1))
        next(pages)
        view = service.view("kinase title")
        assert 0 < view.last_refresh.queries_executed < len(view.state.queries)

    def test_answers_accessor_rematerializes_after_stream(self):
        service = _rich_service()
        info = service.create_view(QueryRequest(keywords=("kinase", "title"), k=5))
        view = service.view(info.view_id)
        baseline = [(a.values, a.cost) for a in view.answers()]
        assert baseline
        # Feedback re-solves on the next streamed read...
        from repro.api import FeedbackRequest as FR

        service.feedback(FR(view=info.view_id, answer=view.state.answers[0]))
        streamed = [
            (a.values, a.cost)
            for a in service.stream_answers(QueryRequest(view=info.view_id))
        ]
        # ...and the legacy accessor must not report "no answers": it
        # re-materializes and agrees with the stream.
        assert view.answers(), "answers() must re-materialize, not return []"
        assert [(a.values, a.cost) for a in view.answers()] == streamed

    def test_stream_respects_answer_limit(self):
        service = _rich_service(answer_limit=3)
        info = service.create_view(QueryRequest(keywords=("kinase", "title"), k=5))
        streamed = list(service.stream_answers(QueryRequest(view=info.view_id)))
        materialized = service.view(info.view_id).refresh().answers
        assert len(streamed) == len(materialized) == 3
        assert [a.values for a in streamed] == [a.values for a in materialized]


class TestEagerLazyParity:
    """Fig11-style feedback replay: refresh-everything-eagerly vs lazy pull.

    Two instances built from equal sources number their edges alike, so they
    are compared bit-for-bit as they stand.
    """

    @pytest.mark.parametrize("repetitions", [1, 2])
    def test_identical_topk_with_strictly_fewer_refreshes(self, repetitions):
        num_queries = 4
        dataset_eager = build_interpro_go()

        # --- eager: refresh every view after each mutation.
        eager = QService(
            sources=dataset_eager.catalog.sources(),
            config=ServiceConfig(top_k=5, top_y=2),
        )
        eager.bootstrap_alignments(top_y=2)
        eager_views, eager_events = [], []
        for keywords in dataset_eager.keyword_queries[:num_queries]:
            info = eager.create_view(QueryRequest(keywords=tuple(keywords), k=5))
            view = eager.view(info.view_id)
            event = simulated_feedback_for_view(view, dataset_eager.gold)
            if event is not None:
                eager_views.append(view)
                eager_events.append(event)
        for _ in range(repetitions):
            for view, event in zip(eager_views, eager_events):
                eager.apply_feedback_events(view, [event], repetitions=1)
                for record in eager.views:
                    record.view.refresh()
        eager_answers = {
            " ".join(view.keywords): [(a.values, a.cost) for a in view.answers()]
            for view in eager_views
        }
        eager_refreshes = sum(record.view.refresh_count for record in eager.views)

        # --- lazy: the service invalidates on mutation, refreshes on read.
        dataset_lazy = build_interpro_go()
        lazy = QService(
            sources=dataset_lazy.catalog.sources(),
            config=ServiceConfig(top_k=5, top_y=2),
        )
        lazy.bootstrap_alignments(top_y=2)
        lazy_views, lazy_events = [], []
        for keywords in dataset_lazy.keyword_queries[:num_queries]:
            info = lazy.create_view(QueryRequest(keywords=tuple(keywords), k=5))
            view = lazy.view(info.view_id)
            event = simulated_feedback_for_view(view, dataset_lazy.gold)
            if event is not None:
                lazy_views.append(view)
                lazy_events.append(event)
        for _ in range(repetitions):
            for view, event in zip(lazy_views, lazy_events):
                lazy.apply_feedback_events(view, [event], repetitions=1)
        lazy_answers = {
            " ".join(view.keywords): [
                (a.values, a.cost)
                for a in lazy.stream_answers(QueryRequest(view=view))
            ]
            for view in lazy_views
        }
        lazy_refreshes = sum(record.view.refresh_count for record in lazy.views)

        # Identical learning outcome: with aligned edge ids the two weight
        # vectors must agree exactly (one persistent learner, same math)...
        assert lazy.graph.weights.as_dict() == eager.graph.weights.as_dict()
        eager_gap = gold_vs_nongold_costs(eager.graph, dataset_eager.gold)
        lazy_gap = gold_vs_nongold_costs(lazy.graph, dataset_lazy.gold)
        assert lazy_gap.gold_average == pytest.approx(eager_gap.gold_average)
        assert lazy_gap.non_gold_average == pytest.approx(eager_gap.non_gold_average)
        # ...identical top-k answers: values, costs and order...
        assert set(lazy_answers) == set(eager_answers)
        for name in eager_answers:
            assert lazy_answers[name] == eager_answers[name], name
        # ...at strictly fewer view refreshes.
        assert lazy_refreshes < eager_refreshes
        # Exact lazy accounting: one refresh at creation + one read per view.
        assert lazy_refreshes == 2 * len(lazy_views) + (len(lazy.views) - len(lazy_views))
