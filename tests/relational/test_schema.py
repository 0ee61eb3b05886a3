"""Unit tests for schemas and attribute resolution."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType


def sample_schema():
    return Schema.of("cname:string", "revenue:float", "currency:string", qualifier="r1")


class TestConstruction:
    def test_of_parses_specs(self):
        schema = sample_schema()
        assert schema.names == ["cname", "revenue", "currency"]
        assert schema[1].type is DataType.FLOAT
        assert schema[0].qualifier == "r1"

    def test_spec_without_type_defaults_to_any(self):
        schema = Schema.of("x")
        assert schema[0].type is DataType.ANY

    def test_qualified_names(self):
        assert sample_schema().qualified_names == ["r1.cname", "r1.revenue", "r1.currency"]

    def test_equality_and_hash(self):
        assert sample_schema() == sample_schema()
        assert hash(sample_schema()) == hash(sample_schema())
        assert sample_schema() != Schema.of("a:integer")


class TestResolution:
    def test_index_of_unqualified(self):
        assert sample_schema().index_of("revenue") == 1

    def test_index_of_case_insensitive(self):
        assert sample_schema().index_of("REVENUE", "R1") == 1

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            sample_schema().index_of("profit")

    def test_wrong_qualifier_raises(self):
        with pytest.raises(SchemaError):
            sample_schema().index_of("revenue", "r2")

    def test_ambiguous_unqualified_reference_raises(self):
        left = sample_schema()
        right = Schema.of("cname:string", qualifier="r2")
        joined = left.concat(right)
        with pytest.raises(SchemaError):
            joined.index_of("cname")
        assert joined.index_of("cname", "r2") == 3

    def test_has(self):
        schema = sample_schema()
        assert schema.has("cname")
        assert not schema.has("profit")


class TestDerivations:
    def test_with_qualifier(self):
        requalified = sample_schema().with_qualifier("x")
        assert all(attribute.qualifier == "x" for attribute in requalified)

    def test_concat_preserves_order(self):
        joined = sample_schema().concat(Schema.of("expenses:float", qualifier="r2"))
        assert joined.qualified_names[-1] == "r2.expenses"
        assert len(joined) == 4

    def test_project(self):
        projected = sample_schema().project([2, 0])
        assert projected.names == ["currency", "cname"]

    def test_project_out_of_range(self):
        with pytest.raises(SchemaError):
            sample_schema().project([9])

    def test_rename(self):
        renamed = sample_schema().rename(["a", "b", "c"])
        assert renamed.names == ["a", "b", "c"]
        assert renamed[1].type is DataType.FLOAT
        assert renamed[0].qualifier is None

    def test_rename_arity_mismatch(self):
        with pytest.raises(SchemaError):
            sample_schema().rename(["only-one"])


class TestRowValidation:
    def test_validate_row_coerces(self):
        row = sample_schema().validate_row(("IBM", "100.5", "USD"))
        assert row == ("IBM", 100.5, "USD")

    def test_validate_row_wrong_arity(self):
        with pytest.raises(SchemaError):
            sample_schema().validate_row(("IBM",))

    def test_validate_row_allows_nulls(self):
        row = sample_schema().validate_row((None, None, None))
        assert row == (None, None, None)

    def test_the_resolved_validators_agree_with_datatype_validate(self):
        """``validate_row``'s per-schema fast path (NULL, ``ANY``, exact class)
        against the per-value rule it short-cuts: same value and class, or the
        same error with the same message."""
        from decimal import Decimal

        from hypothesis import given, settings, strategies as st

        from repro.errors import TypeMismatchError

        class Whole(int):
            pass

        class Text(str):
            pass

        values = st.one_of(
            st.none(), st.booleans(), st.integers(-10**20, 10**20),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-1000, 1000).map(float),  # integral floats
            st.text(max_size=6),
            st.sampled_from(["1,000", " 12 ", "3.5", "-7", "1e3", "true", "FALSE", "",
                             "nan", Decimal("2.50"), Whole(3), Text("4"), b"5", (1,)]),
        )
        columns = st.lists(st.tuples(st.sampled_from(list(DataType)), values),
                           min_size=1, max_size=6)

        def outcome(function):
            try:
                value = function()
            except TypeMismatchError as error:
                return ("error", str(error))
            return (value.__class__, repr(value))

        @settings(max_examples=300, deadline=None)
        @given(columns)
        def check(columns):
            schema = Schema(Attribute(f"c{position}", declared)
                            for position, (declared, _value) in enumerate(columns))
            row = [value for _declared, value in columns]
            expected = [outcome(lambda: declared.validate(value))
                        for declared, value in columns]
            errors = [entry for entry in expected if entry[0] == "error"]
            for _ in range(2):  # resolving the validators, then reusing them
                whole = outcome(lambda: schema.validate_row(row))
                if errors:
                    assert whole == errors[0]  # the first bad column's message
                else:
                    validated = schema.validate_row(row)
                    assert [(value.__class__, repr(value)) for value in validated] == expected

        check()

    def test_arity_is_checked_against_the_resolved_validators_too(self):
        schema = sample_schema()
        schema.validate_row(("IBM", 1.0, "USD"))
        with pytest.raises(SchemaError, match="row arity 4 does not match schema arity 3"):
            schema.validate_row(("IBM", 1.0, "USD", None))
