"""Writes ``compiled_sql.expected.json``, the SQL target's golden statements.

``tests/test_storage_backends.py::TestGoldenPushdownSql`` rebuilds every
fixture query of the file, compiles it with
:class:`repro.storage.pushdown.CompiledQuery` and asserts the statement text
and parameter list byte for byte.  Run once with ``src/`` of the commit whose
statements are to be kept (last: 4ae10ca, the commit before the SQLite
backend absorbed its DB-API base class; the ``contains`` and ``keyword``
selection rows and the mode column were dropped since, when equality became
the only selection, and the four remaining statements are unchanged)::

    PYTHONPATH=<that checkout>/src python tests/data/make_compiled_sql.py tests/data
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.datastore import Catalog, ConjunctiveQuery, DataSource
from repro.storage import SqliteBackend
from repro.storage.pushdown import CompiledQuery

SOURCES = {
    "go": {"term": ["acc", "name"]},
    "interpro": {"interpro2go": ["go_id", "entry_ac"]},
}

TERM = ["go.term", "t"]
I2G = ["interpro.interpro2go", "i2g"]
JOIN = ["t", "acc", "i2g", "go_id"]

#: One query per shape the compiler distinguishes: a two-atom join, a
#: self-join on one alias (dropped), no outputs (every attribute projected)
#: and a selection.
QUERIES = [
    {"name": "two_atom_join", "atoms": [TERM, I2G], "joins": [JOIN], "selections": [],
     "outputs": [["t", "name", "term"], ["i2g", "entry_ac", None]]},
    {"name": "self_join_dropped", "atoms": [TERM, I2G], "joins": [["t", "acc", "t", "name"], JOIN],
     "selections": [], "outputs": [["i2g", "entry_ac", None]]},
    {"name": "no_outputs", "atoms": [TERM, I2G], "joins": [JOIN], "selections": [], "outputs": []},
    {"name": "equals", "atoms": [TERM], "joins": [],
     "selections": [["t", "acc", " GO:0003 "]], "outputs": [["t", "name", None]]},
]


def build_catalog(backend, sources) -> Catalog:
    return Catalog(
        [DataSource.build(name, relations) for name, relations in sources.items()],
        backend=backend,
    )


def build_query(spec) -> ConjunctiveQuery:
    query = ConjunctiveQuery(provenance=f"fixture-{spec['name']}", cost=1.5)
    for relation, alias in spec["atoms"]:
        query.add_atom(relation, alias)
    for join in spec["joins"]:
        query.add_join(*join)
    for alias, attribute, value in spec["selections"]:
        query.add_selection(alias, attribute, value)
    for alias, attribute, label in spec["outputs"]:
        query.add_output(alias, attribute, label)
    return query


def main(out: Path) -> None:
    backend = SqliteBackend(":memory:")
    catalog = build_catalog(backend, SOURCES)
    queries = []
    for spec in QUERIES:
        compiled = CompiledQuery(backend, catalog, build_query(spec))
        queries.append({**spec, "sql": compiled.sql, "params": list(compiled.params)})
    backend.close()
    document = {"sources": SOURCES, "queries": queries}
    (out / "compiled_sql.expected.json").write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
