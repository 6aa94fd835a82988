"""Lightweight value typing for the relational substrate.

The Q system reasons about *type compatibility* of attributes — e.g. the MAD
matcher prunes numeric columns because they "are likely to induce spurious
associations between attributes" (Section 5.2.1 of the paper).  This module
provides a small, dependency-free type system used by
:mod:`repro.datastore.schema` and the matchers.
"""

from __future__ import annotations

import enum
import math
import re
from functools import lru_cache
from typing import Any, Optional


class ValueType(enum.Enum):
    """Coarse-grained value types recognised by the substrate."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    IDENTIFIER = "identifier"
    NULL = "null"

    def is_numeric(self) -> bool:
        """Return ``True`` for the numeric types (integer / float)."""
        return self in (ValueType.INTEGER, ValueType.FLOAT)


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
# Identifiers in bioinformatics databases frequently look like "GO:0005134"
# or "IPR000001": an alphabetic prefix followed by punctuation/digits.
_IDENTIFIER_RE = re.compile(r"^[A-Za-z]{1,10}[:_\-]?\d{2,}$")
_BOOL_VALUES = {"true", "false", "t", "f", "yes", "no"}


def infer_value_type(value: Any) -> ValueType:
    """Infer the :class:`ValueType` of a single Python value.

    ``None`` and NaN floats map to :data:`ValueType.NULL`.  Strings are
    inspected syntactically so that CSV-loaded data (all strings) still gets
    useful types.
    """
    if value is None:
        return ValueType.NULL
    if isinstance(value, bool):
        return ValueType.BOOLEAN
    if isinstance(value, int):
        return ValueType.INTEGER
    if isinstance(value, float):
        if math.isnan(value):
            return ValueType.NULL
        return ValueType.FLOAT
    text = str(value).strip()
    if not text:
        return ValueType.NULL
    if text.lower() in _BOOL_VALUES:
        return ValueType.BOOLEAN
    if _INT_RE.match(text):
        return ValueType.INTEGER
    if _FLOAT_RE.match(text):
        return ValueType.FLOAT
    if _IDENTIFIER_RE.match(text):
        return ValueType.IDENTIFIER
    return ValueType.STRING


def is_null(value: Any) -> bool:
    """Return ``True`` if ``value`` should be treated as SQL NULL."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and not value.strip():
        return True
    return False


@lru_cache(maxsize=131072)
def _canonicalize_str(value: str) -> Optional[str]:
    stripped = value.strip()
    return stripped or None


def canonicalize(value: Any) -> Optional[str]:
    """Return the canonical string form of ``value`` used for joins/overlap.

    Values are compared *textually* throughout the library (the paper joins
    on shared data values across heterogeneous sources, where one side may
    store ``42`` and the other ``"42"``).  Whitespace is stripped and case
    preserved; null-like values canonicalize to ``None``.  The string fast
    path is memoized — joins and index builds canonicalize the same cell
    values constantly.
    """
    if type(value) is str:
        return _canonicalize_str(value)
    if is_null(value):
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip()
