"""Writes the saved sessions ``tests/test_persist.py::TestSavedByAnEarlierCommit`` converts.

The files are format 2, which ``src/`` no longer reads: they are the input of
``scripts/upgrade_session.py``, whose format-4 output must open to what the
commit that wrote them answered and held.  Run once with ``src/`` of the
commit whose files are to be kept convertible (last: e7ba70a, the commit
before association edges stopped storing ``matchers``)::

    PYTHONPATH=<that checkout>/src python tests/data/make_saved_session.py tests/data

It writes ``saved_session.json`` + ``.journal`` (memory backend, sidecar),
``saved_session.sql`` (the SQLite session as a dump, rows and session tables)
and ``saved_session.expected.json`` (what that commit answered and held).
"""

from __future__ import annotations

import json
import sqlite3
import sys
from pathlib import Path

from repro.api import FeedbackRequest, QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.datasets import build_interpro_go

KEYWORDS = ("kinase", "journal")
HELD_OUT = "go"


def build(backend, save_path):
    dataset = build_interpro_go(num_terms=12, num_entries=16, num_methods=10, num_pubs=12, include_foreign_keys=True)
    held_out = dataset.catalog.source(HELD_OUT)
    service = QService(
        sources=[source for source in dataset.catalog.sources() if source.name != HELD_OUT],
        config=ServiceConfig(top_k=5),
        backend=backend,
    )
    service.bootstrap_alignments(top_y=2)
    info = service.create_view(QueryRequest(keywords=KEYWORDS))
    service.save(save_path)  # the snapshot
    service.register_source(RegisterSourceRequest(source=held_out, strategy="exhaustive"))
    answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
    service.feedback(FeedbackRequest(view=info.view_id, answer=answers[0]))
    edge = service.graph.association_edges()[0]
    u, v = (service.graph.node(node_id) for node_id in (edge.u, edge.v))
    service.graph.add_association(  # an integer confidence, merged onto a saved edge
        u.relation, u.attribute, v.relation, v.attribute, {"by-hand": 1}, {"note": "curated"}
    )
    service.save(save_path)  # a journal entry: edges added, one changed, weights moved
    expected = {
        "view_id": info.view_id,
        "answers": [
            [sorted(answer.values.items()), answer.cost]
            for answer in service.stream_answers(QueryRequest(view=info.view_id))
        ],
        "edges": [
            [e.edge_id, dict(e.features.items()), json.loads(json.dumps(dict(e.metadata)))]
            for e in service.graph.edges()
        ],
    }
    service.close()
    return expected


def main(out: Path) -> None:
    expected = build(None, out / "saved_session.json")
    database = out / "saved_session.db"
    database.unlink(missing_ok=True)
    assert build(f"sqlite:{database}", None) == expected
    with sqlite3.connect(database) as connection:
        # Expression indexes call a function the backend registers, and makes again on demand.
        statements = [line for line in connection.iterdump() if not line.startswith("CREATE INDEX")]
        (out / "saved_session.sql").write_text("\n".join(statements) + "\n")
    database.unlink()
    (out / "saved_session.expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
