"""A session's ids and answers depend on the session alone.

Same sources + same call sequence ⇒ same edge ids, answers (column order
included), generated queries and weights — whatever else the process built
before, and whatever its hash seed.  One mini loop (GBCO: bootstrap, four
views, one feedback, one registration, save / open) is run side by side in
one process and once per hash seed in processes of its own.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.api import FeedbackRequest, QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.datasets import build_gbco
from repro.graph import EdgeKind, SearchGraph

from test_alignment import run_in_fresh_process
from test_storage_backends import answer_fingerprint, clone_source

HELD_OUT = "gene2phenotype"
#: Query-log entries whose first reads moved with the hash seed before tree
#: walks were ordered (output column order, hence label assignment).
VIEWS = (0, 1, 2, 3)


def _reads(service, view_ids):
    """Everything a reader sees, per view: answers with their columns in order,
    costs and provenance, and the queries they came from."""
    record = []
    for view_id in view_ids:
        record.append(answer_fingerprint(service.stream_answers(QueryRequest(view=view_id))))
        record.append(
            [
                (repr(g.query.atoms), repr(g.query.joins), repr(g.query.selections),
                 repr(g.query.outputs), g.query.cost, g.signature)
                for g in service.view(view_id).state.queries
            ]
        )
    return record


def mini_loop(workdir: Path) -> dict:
    """One short session, start to reopen; returns what must not vary."""
    workdir.mkdir()
    gbco = build_gbco(rows_per_relation=10)
    service = QService(
        sources=[clone_source(s) for s in gbco.catalog if s.name != HELD_OUT],
        config=ServiceConfig(top_k=5),
    )
    service.bootstrap_alignments()
    views = [
        service.create_view(QueryRequest(keywords=gbco.query_log[i].keywords)).view_id
        for i in VIEWS
    ]
    record = {"first": _reads(service, views)}
    target = next(v for v in views if service.view(v).state.answers)
    answer = next(iter(service.stream_answers(QueryRequest(view=target))))
    record["weight_change"] = service.feedback(FeedbackRequest(view=target, answer=answer)).weight_change
    record["after_feedback"] = _reads(service, views)
    response = service.register_source(
        RegisterSourceRequest(source=clone_source(gbco.catalog.source(HELD_OUT)), strategy="exhaustive")
    )
    record["edges_added"] = [edge.edge_id for edge in response.alignment.edges_added]
    record["after_registration"] = _reads(service, views)
    path = workdir / "session.json"
    service.save(path)
    service.close()
    with QService.open(path) as reopened:
        record["reopened"] = _reads(reopened, views)
        record["edge_ids"] = [edge.edge_id for edge in reopened.graph.edges()] + [
            edge.edge_id
            for view_id in views
            for edge in reopened.view(view_id).query_graph.graph.edges(EdgeKind.KEYWORD_MATCH)
        ]
        record["next_edge_number"] = reopened.graph.next_edge_number
        record["weights"] = sorted(reopened.graph.weights.as_dict().items())
    return record


def loop_digest(workdir: Path) -> str:
    return hashlib.sha256(repr(sorted(mini_loop(workdir).items())).encode()).hexdigest()[:16]


def test_twin_sessions_in_one_process_are_equal(tmp_path):
    first = mini_loop(tmp_path / "a")
    second = mini_loop(tmp_path / "b")
    # A third, after an unrelated graph in the same process numbered 1 000 edges.
    unrelated = SearchGraph()
    for _ in range(1000):
        unrelated.new_edge("u", "v", EdgeKind.ASSOCIATION)
    third = mini_loop(tmp_path / "c")
    assert any(first["first"]) and first["edges_added"] and first["weight_change"] > 0
    assert first["reopened"] == first["after_registration"]
    for key in first:
        assert first[key] == second[key] == third[key], key


def test_hash_seed_does_not_reach_the_answers(tmp_path):
    """No golden: the digests only have to equal each other."""
    script = (
        "import pathlib, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_determinism import loop_digest\n"
        "print(loop_digest(pathlib.Path(sys.argv[1])))\n"
    )
    digests = {
        hash_seed: run_in_fresh_process(script, hash_seed, str(tmp_path / hash_seed))
        for hash_seed in ("0", "1", "30", "random")
    }
    assert len(set(digests.values())) == 1, digests
