"""Unit tests for value typing and canonicalization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datastore.types import (
    ValueType,
    canonicalize,
    infer_value_type,
    is_null,
)


class TestInferValueType:
    def test_none_is_null(self):
        assert infer_value_type(None) is ValueType.NULL

    def test_nan_is_null(self):
        assert infer_value_type(float("nan")) is ValueType.NULL

    def test_empty_string_is_null(self):
        assert infer_value_type("   ") is ValueType.NULL

    def test_bool(self):
        assert infer_value_type(True) is ValueType.BOOLEAN
        assert infer_value_type("false") is ValueType.BOOLEAN

    def test_integers(self):
        assert infer_value_type(42) is ValueType.INTEGER
        assert infer_value_type("-17") is ValueType.INTEGER

    def test_floats(self):
        assert infer_value_type(3.25) is ValueType.FLOAT
        assert infer_value_type("1.5e-3") is ValueType.FLOAT

    def test_identifiers(self):
        assert infer_value_type("GO:0005134") is ValueType.IDENTIFIER
        assert infer_value_type("IPR000123") is ValueType.IDENTIFIER
        assert infer_value_type("PF00069") is ValueType.IDENTIFIER

    def test_strings(self):
        assert infer_value_type("plasma membrane") is ValueType.STRING

    def test_numeric_helpers(self):
        assert ValueType.INTEGER.is_numeric()
        assert ValueType.FLOAT.is_numeric()
        assert not ValueType.STRING.is_numeric()


class TestCanonicalize:
    def test_null_values(self):
        assert canonicalize(None) is None
        assert canonicalize("  ") is None
        assert is_null(float("nan"))

    def test_strips_whitespace(self):
        assert canonicalize("  GO:1  ") == "GO:1"

    def test_integral_float(self):
        assert canonicalize(42.0) == "42"

    def test_bool(self):
        assert canonicalize(True) == "true"
        assert canonicalize(False) == "false"

    def test_int_and_string_agree(self):
        assert canonicalize(42) == canonicalize("42")

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_integer_roundtrip_property(self, value):
        assert canonicalize(value) == str(value)

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_canonical_is_stripped_property(self, text):
        canon = canonicalize(text)
        assert canon == text.strip()
