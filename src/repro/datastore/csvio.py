"""Loading and saving data sources as CSV / JSON-friendly structures.

The registration service of the Q system can be pointed at plain CSV files
(one per relation); this module implements that loading path, plus a simple
round-trippable dictionary serialization used by the synthetic dataset
generators and the test-suite fixtures.

Loading is *streaming*: rows flow from the file into the storage backend in
bounded batches (:data:`DEFAULT_BATCH_SIZE` rows per backend ingest call),
so a CSV larger than RAM can be ingested into a disk-backed catalog without
ever materializing the whole file as a Python list.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import DataError
from .database import Catalog, DataSource
from .schema import ForeignKey, RelationSchema, SourceSchema

PathLike = Union[str, Path]

#: Rows per backend ingest call when streaming a CSV file.
DEFAULT_BATCH_SIZE = 1000


def read_relation_header(
    path: PathLike, relation_name: Optional[str] = None, delimiter: str = ","
) -> RelationSchema:
    """Read only the header row of a CSV file into a relation schema."""
    path = Path(path)
    relation_name = relation_name or path.stem
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"CSV file {path} is empty") from None
    header = [column.strip() for column in header]
    return RelationSchema(relation_name, header)


def iter_relation_rows(
    path: PathLike, delimiter: str = ","
) -> Iterator[Dict[str, str]]:
    """Lazily yield one ``{attribute: value}`` dict per CSV record.

    The header row is consumed for attribute names; records are validated
    against it as they stream.  All values are kept as strings, as the CSV
    holds them; no column type is inferred.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"CSV file {path} is empty") from None
        header = [column.strip() for column in header]
        for line_number, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(
                    f"{path}:{line_number}: expected {len(header)} fields, got {len(record)}"
                )
            yield dict(zip(header, record))


def load_relation_csv(
    path: PathLike,
    relation_name: Optional[str] = None,
    delimiter: str = ",",
) -> Tuple[RelationSchema, List[Dict[str, str]]]:
    """Load one CSV file into a relation schema plus its (materialized) rows.

    Convenience wrapper kept for small files and the test fixtures; bulk
    ingest paths should prefer :func:`iter_relation_rows` +
    :meth:`~repro.datastore.table.Table.extend`, which never materialize
    the file.
    """
    schema = read_relation_header(path, relation_name, delimiter)
    return schema, list(iter_relation_rows(path, delimiter))


def _batches(rows: Iterator[Dict[str, str]], size: int) -> Iterator[List[Dict[str, str]]]:
    while True:
        batch = list(itertools.islice(rows, size))
        if not batch:
            return
        yield batch


def load_source_from_csv_dir(
    directory: PathLike,
    source_name: Optional[str] = None,
    foreign_keys: Optional[Iterable[Tuple[str, str, str, str]]] = None,
    delimiter: str = ",",
    backend=None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> DataSource:
    """Load every ``*.csv`` file under ``directory`` as one data source.

    Each CSV file becomes one relation named after the file stem.  Only the
    headers are read up front (to build the source schema); the data then
    streams file by file into the relation's storage backend in
    ``batch_size``-row ingest batches.

    Parameters
    ----------
    backend:
        Optional :class:`~repro.storage.base.StorageBackend` the relations
        are created on (e.g. a :class:`~repro.storage.sqlite.SqliteBackend`
        for datasets larger than RAM); defaults to per-table memory.
    batch_size:
        Rows per backend ingest call; bounds peak Python-side memory.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"{directory} is not a directory")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    source_name = source_name or directory.name
    schema = SourceSchema(source_name)
    csv_paths = sorted(directory.glob("*.csv"))
    for csv_path in csv_paths:
        schema.add_relation(read_relation_header(csv_path, delimiter=delimiter))
    if not schema.relations:
        raise DataError(f"no CSV files found under {directory}")
    for fk in foreign_keys or ():
        schema.add_foreign_key(ForeignKey(*fk))
    source = DataSource(schema, backend=backend)
    for csv_path in csv_paths:
        table = source.table(csv_path.stem)
        for batch in _batches(iter_relation_rows(csv_path, delimiter), batch_size):
            table.extend(batch)
    return source


def save_source_to_csv_dir(source: DataSource, directory: PathLike) -> List[Path]:
    """Write each relation of ``source`` as ``<directory>/<relation>.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for table in source:
        path = directory / f"{table.schema.name}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.schema.attribute_names)
            for row in table.scan():
                writer.writerow(["" if v is None else v for v in row.values])
        written.append(path)
    return written


def source_to_dict(source: DataSource) -> Dict[str, Any]:
    """Serialize a source (schema + data) to a JSON-compatible dictionary."""
    return {
        "name": source.name,
        "description": source.schema.description,
        "relations": {
            table.schema.name: {
                "attributes": list(table.schema.attribute_names),
                "primary_key": list(table.schema.primary_key),
                "rows": [list(row.values) for row in table.scan()],
            }
            for table in source
        },
        "foreign_keys": [list(fk.as_tuple()) for fk in source.schema.foreign_keys],
    }


def source_from_dict(payload: Mapping[str, Any], backend=None) -> DataSource:
    """Inverse of :func:`source_to_dict`."""
    schema = SourceSchema(payload["name"], description=payload.get("description", ""))
    rows_by_relation: Dict[str, Sequence[Sequence[Any]]] = {}
    for relation_name, spec in payload.get("relations", {}).items():
        schema.add_relation(
            RelationSchema(
                relation_name,
                spec["attributes"],
                primary_key=spec.get("primary_key") or None,
            )
        )
        rows_by_relation[relation_name] = spec.get("rows", [])
    for fk in payload.get("foreign_keys", ()):
        schema.add_foreign_key(ForeignKey(*fk))
    source = DataSource(schema, backend=backend)
    for relation_name, rows in rows_by_relation.items():
        source.table(relation_name).extend(rows)
    return source


def save_catalog_json(catalog: Catalog, path: PathLike) -> Path:
    """Serialize an entire catalog to a JSON file."""
    path = Path(path)
    payload = {"sources": [source_to_dict(source) for source in catalog]}
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def load_catalog_json(path: PathLike, backend=None) -> Catalog:
    """Load a catalog previously written by :func:`save_catalog_json`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    catalog = Catalog(backend=backend)
    for source_payload in payload.get("sources", ()):
        catalog.add_source(source_from_dict(source_payload))
    return catalog
