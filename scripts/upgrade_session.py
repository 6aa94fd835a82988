"""Convert a session saved in format 1, 2 or 3 into format 4, the one ``repro.persist`` reads.

Usage, from the repository root::

    PYTHONPATH=src python scripts/upgrade_session.py SRC DST

``SRC`` is a JSON sidecar (its journal is ``SRC.journal``) or a SQLite
session database.  ``DST`` receives one compacted format-4 session of the
same kind: a sidecar with an empty ``DST.journal``, or a copy of the database
whose snapshot is replaced and whose journal is emptied.  ``SRC`` is only
read; close any process that still holds a SQLite ``SRC`` open first.

What older builds wrote, and what is made of it here:

* Format 1 checksums a canonical (sorted-key) re-serialisation of a body;
  formats 2 and 3 checksum the body's bytes as stored.
* A journal entry written before format 2 carries the whole overlay
  (``"overlay"``), not a delta of it.
* Up to format 3, an entry's overlay delta holds the whole feedback log; a
  format-4 delta appends to it.
* Formats 1 and 2 saved each current view's expansion (``"query_graph"``),
  numbering its keyword-match and value-membership edges ``#n`` from the
  graph's sequence.  Learned weights, tenant shadows and carried rankings
  are re-keyed to the endpoint names format 3 gave those edges.
* Up to format 3, an association edge's metadata was written with the
  ``matchers`` record the edge derives from its ``matcher::`` features; that
  record is dropped.
* Older writers omitted keys a format-4 reader requires; they get the values
  those readers defaulted them to.

The journal then replays with ``repro.persist``'s own ``apply_delta`` and
``fold_overlay``, and the folded session is written once, by the current
writers, through ``SessionStore.write_snapshot``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from contextlib import closing
from pathlib import Path
from typing import Dict, List

from repro.api import ServiceConfig
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.graph.edges import EdgeKind, derived_edge_id
from repro.graph.features import WeightVector, edge_feature, matchers_of
from repro.persist import FileSessionStore, SqliteSessionStore, service_config_payload, sniff_sqlite_file
from repro.persist.journal import apply_delta
from repro.persist.session import fold_overlay
from repro.persist.snapshot import (
    graph_payload,
    restore_graph,
    restore_graph_config,
    restore_weights,
    weights_payload,
)
from repro.persist.store import _JOURNAL_TABLE, _SNAPSHOT_TABLE, JOURNAL_SUFFIX
from repro.profiling.index import _RARE_TOKEN_DF, CatalogProfileIndex
from repro.storage import SqliteBackend

#: Where the name of a keyword-match edge's identity feature starts.
_KEYWORD_FEATURE = edge_feature(f"{EdgeKind.KEYWORD_MATCH.value}:")

#: The keys of a journal entry that ``apply_delta`` reads as lists.
_DELTA_LISTS = (
    "sources_removed", "edges_removed", "nodes_removed", "sources_added", "nodes_added", "edges_added",
    "edges_changed",
)


class UpgradeError(Exception):
    """``SRC`` is not a session this converts."""


def unwrap(text: str, what: str) -> Dict[str, object]:
    """The verified body of one document of format 1, 2 or 3.

    A body re-serialised the way its writer serialised it reproduces the
    bytes that writer hashed: compact, in stored key order (formats 2 and 3)
    or sorted (format 1).
    """
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise UpgradeError(f"{what}: not valid JSON ({exc})") from None
    version = document.get("format_version") if isinstance(document, dict) else None
    if version not in (1, 2, 3) or "body" not in document:
        raise UpgradeError(f"{what}: format version {version!r} is not 1, 2 or 3")
    body = document["body"]
    payload = json.dumps(body, sort_keys=version == 1, separators=(",", ":"))
    if hashlib.sha256(payload.encode("utf-8")).hexdigest() != document.get("checksum"):
        raise UpgradeError(f"{what}: checksum mismatch (file was truncated or modified)")
    return body


def _as_stored(edge: Dict[str, object]) -> Dict[str, object]:
    """An edge payload without the ``matchers`` record its features derive."""
    features = edge.get("features") or {}
    metadata = edge.get("metadata")
    edge = {**edge, "features": features}
    if (
        edge["kind"] == EdgeKind.ASSOCIATION.value
        and metadata
        and next(reversed(metadata)) == "matchers"
        and metadata["matchers"] == matchers_of(features)
    ):
        del edge["metadata"]
        rest = {key: value for key, value in metadata.items() if key != "matchers"}
        if rest:
            edge["metadata"] = rest
    return edge


def _profiles(payload, epoch: int) -> Dict[str, object]:
    """A profile-index state with every key ``CatalogProfileIndex`` reads."""
    payload = dict(payload or {})
    for key in ("relations", "attributes", "source_relations"):
        payload.setdefault(key, [])
    payload.setdefault("epoch", epoch)
    return payload


def _snapshot(body: Dict[str, object]) -> Dict[str, object]:
    """``body`` with every key ``restore_core`` reads before the overlay."""
    defaults = service_config_payload(ServiceConfig())
    config = {**defaults, **(body.get("config") or {})}
    config["graph"] = config["graph"] or defaults["graph"]
    graph = {"nodes": [], "edges": [], "structure_version": 0, **(body.get("graph") or {})}
    graph["edges"] = [_as_stored(edge) for edge in graph["edges"]]
    profiles = {"shard_count": 1, "sketch": None, "rare_token_df": _RARE_TOKEN_DF, **_profiles(body.get("profiles"), 0)}
    return {
        **body,
        "snapshot_version": body.get("snapshot_version", 1),
        "config": config,
        "graph": graph,
        "weights": {"values": {}, "version": 0, **(body.get("weights") or {})},
        "profiles": profiles,
    }


def _entry(entry: Dict[str, object], epoch: int) -> Dict[str, object]:
    """A journal entry with every key ``apply_delta`` reads."""
    entry = {**entry, **{key: entry.get(key) or [] for key in _DELTA_LISTS}}
    entry["weights_set"] = entry.get("weights_set") or {}
    entry.setdefault("profile_epoch", epoch)
    for key in ("edges_added", "edges_changed"):
        entry[key] = [_as_stored(edge) for edge in entry[key]]
    entry["sources_added"] = [
        {**spec, "source": spec.get("source"), "profiles": _profiles(spec["profiles"], epoch)}
        for spec in entry["sources_added"]
    ]
    return entry


def _overlay(overlay: Dict[str, object]) -> Dict[str, object]:
    """The overlay as format 4 writes it: its keys, in its order."""
    views = overlay.get("views") or {}
    fields = ("view_id", "name", "keywords", "k", "created_index", "trees")
    records = [{field: spec[field] for field in fields if field in spec} for spec in views.get("records", ())]
    return {
        "tenants": {
            name: {
                "shadow": state.get("shadow", {}),
                "local_version": state.get("local_version", 0),
                "events_applied": state.get("events_applied", 0),
            }
            for name, state in (overlay.get("tenants") or {}).items()
        },
        "edge_id_counter": overlay["edge_id_counter"],
        "weights_version": overlay["weights_version"],
        "structure_version": overlay["structure_version"],
        "views": {"created": views.get("created", len(records)), "records": records},
        "learner_steps": overlay.get("learner_steps", 0),
        "feedback_events": overlay.get("feedback_events", []),
        "registrations": overlay.get("registrations", []),
        "refreshes": overlay.get("refreshes", 0),
        "refreshes_skipped": overlay.get("refreshes_skipped", 0),
        "applied_ops": overlay.get("applied_ops", []),
    }


def _name_derived_edges_by_endpoints(graph, overlay: Dict[str, object]) -> Dict[str, object]:
    """Re-key a session saved in format 1 or 2 the way format 3 names its edges.

    Those formats numbered a view's keyword-match and value-membership edges
    from the graph's sequence, and saved each current view's expansion.  The
    expansions are read once, here: their edges' ids lose the ``#n`` in the
    weight vector (``graph.weights`` is replaced), in every tenant shadow and
    in each carried ranking, and the records drop them.  A keyword-edge
    feature no saved expansion holds belonged to an expansion since replaced,
    and is dropped.  Where two views held one edge under different learned
    weights the vector's first is kept, and the other view's ranking, priced
    under its own, is not carried.
    """
    records = overlay["views"]["records"]
    renamed = {
        edge["id"]: derived_edge_id(EdgeKind(edge["kind"]), edge["u"], edge["v"])
        for spec in records
        for edge in (spec.get("query_graph") or {}).get("edges", ())
    }

    def rekeyed(weights: Dict[str, float]) -> Dict[str, float]:
        kept: Dict[str, float] = {}
        for name, value in weights.items():
            if name.startswith(_KEYWORD_FEATURE):
                edge_id = renamed.get(name.partition("::")[2])
                if edge_id is None:
                    continue
                name = edge_feature(edge_id)
            kept.setdefault(name, value)
        return kept

    saved = graph.weights.as_dict()
    graph.weights = WeightVector(rekeyed(saved))
    upgraded = []
    for spec in records:
        record = {key: value for key, value in spec.items() if key not in ("query_graph", "trees")}
        priced_alike = all(
            saved.get(edge_feature(edge["id"])) == graph.weights.get(edge_feature(renamed[edge["id"]]), None)
            for edge in (spec.get("query_graph") or {}).get("edges", ())
        )
        if "trees" in spec and priced_alike:
            record["trees"] = [sorted(renamed.get(edge, edge) for edge in tree) for tree in spec["trees"]]
        upgraded.append(record)
    tenants = {
        name: {**state, "shadow": rekeyed(state.get("shadow", {}))}
        for name, state in (overlay.get("tenants") or {}).items()
    }
    return {**overlay, "tenants": tenants, "views": {**overlay["views"], "records": upgraded}}


class _Sources(dict):
    """A sidecar's catalog as ``apply_delta`` edits it: source payloads by name, in order."""

    has_source = dict.__contains__

    def add_source(self, source) -> None:
        self[source.name] = source_to_dict(source)

    def remove_source(self, name: str) -> None:
        del self[name]


def convert(snapshot: str, journal: List[str], holds_rows: bool) -> Dict[str, object]:
    """The format-4 snapshot body of a session stored as ``snapshot`` + ``journal`` documents."""
    body = _snapshot(unwrap(snapshot, "snapshot"))
    version = body["snapshot_version"]
    entries = [unwrap(text, f"journal entry {number}") for number, text in enumerate(journal, 1)]
    graph_config = restore_graph_config(body["config"]["graph"])
    graph = restore_graph(body["graph"], config=graph_config, weights=restore_weights(body["weights"]))
    index = CatalogProfileIndex.from_state(body["profiles"])
    sources = None
    if not holds_rows:
        sources = _Sources()
        for payload in (body.get("catalog") or {}).get("sources", ()):
            sources.add_source(source_from_dict(payload))
    overlay = body["overlay"]
    for entry in entries:
        if entry.get("after_snapshot_version", version) != version:
            continue  # left behind by a crash between a snapshot and its journal's truncation
        apply_delta(_entry(entry, index.epoch), sources, graph, index, holds_rows)
        if "overlay" in entry:  # before format 2: the whole overlay
            overlay = entry["overlay"]
        else:  # up to format 3 a delta holds the whole feedback log, not what it appended
            delta = entry["overlay_delta"]
            overlay = fold_overlay({**overlay, "feedback_events": []} if "feedback_events" in delta else overlay, delta)
    if any("query_graph" in spec for spec in (overlay.get("views") or {}).get("records", ())):
        overlay = _name_derived_edges_by_endpoints(graph, overlay)
    overlay = _overlay(overlay)
    graph.weights.version = overlay["weights_version"]
    graph.structure_version = overlay["structure_version"]
    return {
        "kind": "session",
        "snapshot_version": version,
        "config": body["config"],
        "graph": graph_payload(graph),
        "weights": weights_payload(graph.weights),
        "profiles": index.export_state(),
        "overlay": overlay,
        "catalog": None if holds_rows else {"sources": list(sources.values())},
    }


def upgrade(src: Path, dst: Path) -> None:
    """Write the format-4 conversion of the session at ``src`` to ``dst``."""
    if dst.resolve() == src.resolve():
        raise UpgradeError("DST must differ from SRC: the converter never edits its input")
    if sniff_sqlite_file(src):
        shutil.copyfile(src, dst)
        try:
            with closing(SqliteBackend(dst)) as backend:
                stored = backend.execute_sql(
                    "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ?", (_SNAPSHOT_TABLE,)
                )
                rows = stored and backend.execute_sql(f"SELECT payload FROM {_SNAPSHOT_TABLE} WHERE id = 1")
                if not rows:
                    raise UpgradeError(f"{src}: no session is stored in this database")
                entries = backend.execute_sql(f"SELECT payload FROM {_JOURNAL_TABLE} ORDER BY seq")
                journal = [text for (text,) in entries]
                SqliteSessionStore(backend).write_snapshot(convert(rows[0][0], journal, holds_rows=True))
        except BaseException:
            dst.unlink()  # a half-written copy is no session
            raise
        return
    journal_path = Path(str(src) + JOURNAL_SUFFIX)
    journal = journal_path.read_text(encoding="utf-8").splitlines() if journal_path.exists() else []
    body = convert(src.read_text(encoding="utf-8"), [line for line in journal if line.strip()], holds_rows=False)
    FileSessionStore(dst).write_snapshot(body)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="session of format 1, 2 or 3: a JSON sidecar or a SQLite database")
    parser.add_argument("dst", type=Path, help="where the format-4 session is written")
    args = parser.parse_args(argv)
    try:
        upgrade(args.src, args.dst)
    except UpgradeError as exc:
        print(f"upgrade_session: {exc}", file=sys.stderr)
        return 1
    print(f"upgrade_session: wrote {args.dst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
