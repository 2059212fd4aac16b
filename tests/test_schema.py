"""Tests for table schemas and row validation."""

import pytest

from repro import types
from repro.errors import ConstraintError, SchemaError, TypeMismatchError
from repro.schema import ColumnDef, TableSchema, schema


@pytest.fixture
def sales_schema():
    return schema(
        ("id", types.INT, False),
        ("customer", types.VARCHAR),
        ("amount", types.decimal(2)),
    )


class TestSchemaConstruction:
    def test_requires_columns(self):
        with pytest.raises(SchemaError):
            TableSchema([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            schema(("a", types.INT), ("A", types.INT))

    def test_rejects_bad_names(self):
        with pytest.raises(SchemaError):
            ColumnDef("has space", types.INT)
        with pytest.raises(SchemaError):
            ColumnDef("", types.INT)

    def test_underscore_names_ok(self):
        assert ColumnDef("order_date", types.DATE).name == "order_date"

    def test_names_property(self, sales_schema):
        assert sales_schema.names == ["id", "customer", "amount"]


class TestLookup:
    def test_position_case_insensitive(self, sales_schema):
        assert sales_schema.position("CUSTOMER") == 1

    def test_unknown_column(self, sales_schema):
        with pytest.raises(SchemaError):
            sales_schema.position("nope")

    def test_contains(self, sales_schema):
        assert "id" in sales_schema
        assert "missing" not in sales_schema

    def test_dtype(self, sales_schema):
        assert sales_schema.dtype("amount").scale == 2


class TestRowValidation:
    def test_coerce_valid_row(self, sales_schema):
        row = sales_schema.coerce_row((1, "alice", 9.99))
        assert row == (1, "alice", 999)

    def test_arity_mismatch(self, sales_schema):
        with pytest.raises(SchemaError):
            sales_schema.coerce_row((1, "alice"))

    def test_not_null_enforced(self, sales_schema):
        with pytest.raises(ConstraintError):
            sales_schema.coerce_row((None, "alice", 1.0))

    def test_nullable_accepts_none(self, sales_schema):
        row = sales_schema.coerce_row((1, None, None))
        assert row == (1, None, None)

    def test_type_mismatch_propagates(self, sales_schema):
        with pytest.raises(TypeMismatchError):
            sales_schema.coerce_row(("x", "alice", 1.0))


class TestProjection:
    def test_project_reorders(self, sales_schema):
        projected = sales_schema.project(["amount", "id"])
        assert projected.names == ["amount", "id"]

    def test_project_unknown_raises(self, sales_schema):
        with pytest.raises(SchemaError):
            sales_schema.project(["ghost"])
