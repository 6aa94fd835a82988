"""Relational substrate: schemas, tables, catalogs and the query model.

This subpackage provides everything the Q system needs from a database layer:

* :class:`Attribute`, :class:`RelationSchema`, :class:`SourceSchema`,
  :class:`ForeignKey` — metadata (paper Section 2.1).
* :class:`Table`, :class:`Row` — relation facade over pluggable tuple
  storage (:mod:`repro.storage`: in-memory or SQLite backends).
* :class:`DataSource`, :class:`Catalog` — registered sources.
* :class:`ConjunctiveQuery` and friends, :class:`AnswerTuple`,
  :class:`TupleProvenance` — the query model and provenance-carrying answers
  (paper Section 2.2); execution lives in :mod:`repro.engine`.
* CSV / JSON loading via :mod:`repro.datastore.csvio`, and display SQL for
  one query via :func:`repro.datastore.sqlgen.query_to_sql`.
"""

from .database import Catalog, DataSource
from .provenance import AnswerTuple, TupleProvenance
from .query import (
    ConjunctiveQuery,
    JoinPredicate,
    OutputColumn,
    QueryAtom,
    SelectionPredicate,
)
from .schema import Attribute, ForeignKey, RelationSchema, SourceSchema, qualified_name, split_qualified
from .table import Row, Table
from .types import ValueType, canonicalize, infer_value_type, is_null

__all__ = [
    "AnswerTuple",
    "Attribute",
    "Catalog",
    "ConjunctiveQuery",
    "DataSource",
    "ForeignKey",
    "JoinPredicate",
    "OutputColumn",
    "QueryAtom",
    "RelationSchema",
    "Row",
    "SelectionPredicate",
    "SourceSchema",
    "Table",
    "TupleProvenance",
    "ValueType",
    "canonicalize",
    "infer_value_type",
    "is_null",
    "qualified_name",
    "split_qualified",
]
