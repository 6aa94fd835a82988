"""Typed requests, enums, registries, view registry and pagination."""

from __future__ import annotations

import pytest

from repro.api import (
    AlignmentStrategy,
    AnswerPage,
    InvalidRequestError,
    QueryRequest,
    RegisterSourceRequest,
    ServiceConfig,
    UnknownMatcherError,
    UnknownStrategyError,
    UnknownViewError,
    paginate,
)
from repro.api.views import ViewRegistry
from repro.datastore.provenance import AnswerTuple
from repro.exceptions import QError, RegistrationError
from repro.matching import MetadataMatcher, available_matchers, resolve_matcher

from test_api_service import _extra_source, _mini_service


class TestAlignmentStrategy:
    def test_values_match_historical_strings(self):
        assert {s.value for s in AlignmentStrategy} == {
            "exhaustive",
            "view_based",
            "preferential",
            "profile_blocked",
        }

    def test_coerce_accepts_members_strings_and_case(self):
        assert AlignmentStrategy.coerce(AlignmentStrategy.EXHAUSTIVE) is AlignmentStrategy.EXHAUSTIVE
        assert AlignmentStrategy.coerce("view_based") is AlignmentStrategy.VIEW_BASED
        assert AlignmentStrategy.coerce("PREFERENTIAL") is AlignmentStrategy.PREFERENTIAL

    def test_unknown_strategy_lists_valid_options(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            AlignmentStrategy.coerce("nope")
        message = str(excinfo.value)
        assert excinfo.value.valid == ("exhaustive", "preferential", "profile_blocked", "view_based")
        for valid in excinfo.value.valid:
            assert valid in message
        # Typed errors stay catchable through the library-wide base class.
        assert isinstance(excinfo.value, QError)

    @pytest.mark.parametrize("strategy", list(AlignmentStrategy), ids=lambda strategy: strategy.value)
    def test_registration_builds_the_aligner_it_names(self, strategy):
        service = _mini_service()
        service.create_view(QueryRequest(keywords=("membrane", "IPR001")))
        response = service.register_source(RegisterSourceRequest(source=_extra_source(), strategy=strategy.value))
        assert response.strategy is strategy
        assert response.alignment.strategy == strategy.value  # the aligner's strategy_name

    def test_view_based_without_view_raises_registration_error(self):
        service = _mini_service()
        request = RegisterSourceRequest(source=_extra_source(), strategy=AlignmentStrategy.VIEW_BASED)
        with pytest.raises(RegistrationError, match="requires an existing view"):
            service.register_source(request)
        assert service.stats().sources == 2  # refused before anything was admitted


class TestServiceConfig:
    @pytest.mark.parametrize(
        "name, value",
        [("top_k", 0), ("top_y", 0), ("default_page_size", 0), ("write_queue_limit", 0), ("answer_limit", -1)],
    )
    def test_values_no_read_can_serve_are_rejected_at_construction(self, name, value):
        with pytest.raises(InvalidRequestError, match=f"{name} must be >= {value + 1}, got {value}"):
            ServiceConfig(**{name: value})

    def test_the_least_servable_values_construct(self):
        config = ServiceConfig(top_k=1, top_y=1, default_page_size=1, write_queue_limit=1, answer_limit=0)
        assert (config.top_k, config.answer_limit) == (1, 0)
        assert ServiceConfig(answer_limit=None).answer_limit is None


class TestRegisterSourceRequest:
    @pytest.mark.parametrize("budget", [0, -3])
    def test_a_budget_below_one_is_rejected_at_construction(self, budget):
        with pytest.raises(InvalidRequestError, match=f"max_relations must be >= 1, got {budget}"):
            RegisterSourceRequest(source=_extra_source(), max_relations=budget)

    def test_an_unset_budget_constructs(self):
        assert RegisterSourceRequest(source=_extra_source(), max_relations=None).max_relations is None

    def test_bootstrap_rejects_top_y_below_one_before_installing(self):
        service = _mini_service()
        structure = service.graph.structure_version
        with pytest.raises(InvalidRequestError, match="top_y must be >= 1, got 0"):
            service.bootstrap_alignments(top_y=0)
        assert service.graph.structure_version == structure


class TestRetiredConfigKnobs:
    @pytest.mark.parametrize(
        "knob", [{"registration_workers": 2}, {"registration_pool": "process"}]
    )
    def test_scoring_pool_knobs_are_rejected_not_ignored(self, knob):
        with pytest.raises(TypeError):
            ServiceConfig(**knob)


class TestMatcherRegistry:
    def test_builtins_registered_under_canonical_names(self):
        names = available_matchers()
        assert "metadata" in names
        assert "mad" in names
        assert "value_overlap" in names

    def test_resolve_by_name_builds_fresh_instance(self):
        a = resolve_matcher("metadata")
        b = resolve_matcher("metadata")
        assert isinstance(a, MetadataMatcher)
        assert a is not b  # comparison counters must not be shared

    def test_resolve_passes_instances_through(self):
        matcher = MetadataMatcher()
        assert resolve_matcher(matcher) is matcher

    def test_unknown_matcher_lists_valid_options(self):
        with pytest.raises(UnknownMatcherError) as excinfo:
            resolve_matcher("coma_plus_plus")
        message = str(excinfo.value)
        assert "metadata" in message and "mad" in message


class TestQueryRequest:
    def test_keywords_normalized_to_tuple(self):
        request = QueryRequest(keywords=["a", "b"])
        assert request.keywords == ("a", "b")

    def test_frozen(self):
        request = QueryRequest(keywords=("a",))
        with pytest.raises(AttributeError):
            request.k = 7


class _FakeView:
    """Just enough of a RankedView for registry bookkeeping tests."""

    def __init__(self, keywords):
        self.keywords = list(keywords)


class TestViewRegistry:
    def test_stable_ids_and_creation_order(self):
        registry = ViewRegistry()
        first = registry.add(_FakeView(["a"]), "a")
        second = registry.add(_FakeView(["b"]), "b")
        assert first.view_id == "view-0001"
        assert second.view_id == "view-0002"
        assert [r.view_id for r in registry.records()] == ["view-0001", "view-0002"]
        assert registry.latest() is second

    def test_latest_survives_name_reuse(self):
        # The seed's reversed-dict hack returned the *re-inserted* name's
        # view as "latest" even when a newer view existed under another
        # name; explicit creation order does not.
        registry = ViewRegistry()
        registry.add(_FakeView(["a"]), "shared name")
        newer = registry.add(_FakeView(["b"]), "b")
        replacement = registry.add(_FakeView(["a2"]), "shared name")
        assert registry.latest() is replacement  # created last, genuinely latest
        assert registry.get("shared name") is replacement
        assert registry.get("view-0002") is newer  # unshadowed record keeps its id

    def test_name_reuse_evicts_the_shadowed_record(self):
        # Seed dict semantics: views[name] = view REPLACED the old view.
        # The registry must not leak shadowed records (mutation paths
        # iterate all records), and evicted ids are never reused.
        registry = ViewRegistry()
        registry.add(_FakeView(["a"]), "shared name")
        registry.add(_FakeView(["a2"]), "shared name")
        assert len(registry) == 1
        with pytest.raises(UnknownViewError):
            registry.get("view-0001")  # the shadowed record is gone
        third = registry.add(_FakeView(["c"]), "c")
        assert third.view_id == "view-0003"  # ids stay unique after eviction

    def test_resolution_by_id_name_and_instance(self):
        registry = ViewRegistry()
        view = _FakeView(["a"])
        record = registry.add(view, "my view")
        assert registry.get("view-0001") is record
        assert registry.get("my view") is record
        assert registry.resolve(view) is record
        assert "view-0001" in registry and "my view" in registry

    def test_unknown_view_lists_known_references(self):
        registry = ViewRegistry()
        registry.add(_FakeView(["a"]), "known")
        with pytest.raises(UnknownViewError) as excinfo:
            registry.get("missing")
        assert "known" in str(excinfo.value)
        assert "view-0001" in str(excinfo.value)

    def test_latest_on_empty_registry(self):
        assert ViewRegistry().latest() is None


def _answer(i: int) -> AnswerTuple:
    return AnswerTuple(values={"n": i}, cost=float(i))


class TestPagination:
    def test_pages_and_exact_has_more(self):
        pages = list(paginate([_answer(i) for i in range(5)], "view-0001", page_size=2))
        assert [len(p) for p in pages] == [2, 2, 1]
        assert [p.has_more for p in pages] == [True, True, False]
        assert [p.index for p in pages] == [0, 1, 2]
        assert all(p.view_id == "view-0001" for p in pages)

    def test_exactly_full_final_page_reports_no_more(self):
        pages = list(paginate([_answer(i) for i in range(4)], "v", page_size=2))
        assert [len(p) for p in pages] == [2, 2]
        assert [p.has_more for p in pages] == [True, False]

    def test_empty_stream_yields_no_pages(self):
        assert list(paginate([], "v", page_size=3)) == []

    def test_limit_truncates(self):
        pages = list(paginate((_answer(i) for i in range(10)), "v", page_size=4, limit=5))
        assert sum(len(p) for p in pages) == 5

    def test_invalid_page_size_raises_eagerly(self):
        # At call time — not deferred to the first next() of the generator.
        with pytest.raises(InvalidRequestError):
            paginate([], "v", page_size=0)
        with pytest.raises(InvalidRequestError):
            paginate([], "v", page_size=3, limit=-1)

    def test_pagination_is_lazy(self):
        pulled = []

        def stream():
            for i in range(100):
                pulled.append(i)
                yield _answer(i)

        pages = paginate(stream(), "v", page_size=3)
        first = next(pages)
        assert len(first) == 3 and first.has_more
        # Only one answer of lookahead beyond the first page was consumed.
        assert len(pulled) == 4

    def test_answer_page_is_frozen(self):
        (page,) = list(paginate([_answer(1)], "v", page_size=1))
        assert isinstance(page, AnswerPage)
        with pytest.raises(AttributeError):
            page.index = 9
