"""Unit tests for the in-memory Relation class."""

import pytest

from repro.errors import TypeMismatchError
from repro.relational.relation import Relation, relation_from_rows
from repro.relational.schema import Schema


def companies():
    return relation_from_rows(
        "r1",
        ["cname:string", "revenue:float", "currency:string"],
        [
            ("IBM", 1_000_000, "USD"),
            ("NTT", 1_000_000, "JPY"),
            ("Acme", 250_000, "EUR"),
        ],
    )


def expenses():
    return relation_from_rows(
        "r2",
        ["cname:string", "expenses:float"],
        [("IBM", 1_500_000), ("NTT", 5_000_000)],
    )


class TestConstruction:
    def test_rows_are_validated_and_coerced(self):
        relation = companies()
        assert relation[0][1] == 1_000_000.0
        assert isinstance(relation[0][1], float)

    def test_append_type_error(self):
        with pytest.raises(TypeMismatchError):
            companies().append(("X", "not-a-number", "USD"))

    def test_records_and_column(self):
        relation = companies()
        assert relation.records()[1]["cname"] == "NTT"
        assert relation.column("currency") == ["USD", "JPY", "EUR"]

    def test_len_iter_getitem(self):
        relation = companies()
        assert len(relation) == 3
        assert list(relation)[0][0] == "IBM"
        assert relation[2][0] == "Acme"


class TestEquality:
    def test_bag_equality_ignores_row_order(self):
        left = companies()
        right = relation_from_rows(
            "r1",
            ["cname:string", "revenue:float", "currency:string"],
            [
                ("Acme", 250_000, "EUR"),
                ("IBM", 1_000_000, "USD"),
                ("NTT", 1_000_000, "JPY"),
            ],
        )
        assert left == right

    def test_different_rows_not_equal(self):
        other = companies()
        other.append(("Extra", 1, "USD"))
        assert companies() != other

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(companies())


class TestAlgebra:
    def test_project_by_name_and_qualified_name(self):
        projected = companies().project(["revenue", "r1.cname"])
        assert projected.schema.names == ["revenue", "cname"]
        assert projected[0] == (1_000_000.0, "IBM")

    def test_order_by_multiple_keys(self):
        ordered = companies().order_by(["revenue", "cname"], ascending=[False, True])
        assert [row[0] for row in ordered] == ["IBM", "NTT", "Acme"]


class TestPresentation:
    def test_ascii_table_contains_headers_and_rows(self):
        text = companies().to_ascii_table()
        assert "r1.cname" in text
        assert "NTT" in text
        assert text.count("+") >= 4

    def test_ascii_table_truncates(self):
        relation = relation_from_rows("t", ["a:integer"], [(i,) for i in range(30)])
        text = relation.to_ascii_table(max_rows=5)
        assert "more rows" in text
