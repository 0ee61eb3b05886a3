"""Unit tests for conversion functions and the conversion registry."""

import pytest

from repro.errors import ConversionError
from repro.coin.conversion import (
    ConversionBuilder,
    ConversionEnvironment,
    ConversionRegistry,
    CurrencyConversion,
    DateFormatConversion,
    FactorTableConversion,
    Operand,
    ScaleFactorConversion,
    build_financial_conversions,
)
from repro.coin.domain import build_financial_domain_model
from repro.sql.ast import ColumnRef
from repro.sql.printer import to_sql


def expr(name="r1.revenue"):
    table, _, column = name.partition(".")
    return ColumnRef(name=column, table=table)


class TestOperand:
    def test_constant_and_expression(self):
        constant = Operand.of_constant("USD")
        assert constant.is_constant and constant.describe() == "'USD'"
        expression = Operand.of_expression(expr("r1.currency"))
        assert not expression.is_constant
        assert expression.describe() == "r1.currency"
        assert to_sql(constant.as_node()) == "'USD'"
        assert to_sql(expression.as_node()) == "r1.currency"


class TestConversionBuilder:
    def test_alias_allocation_avoids_collisions(self):
        builder = ConversionBuilder(used_aliases=["r1", "r3"])
        assert builder.allocate_alias("r3") == "r3_1"
        assert builder.allocate_alias("r3") == "r3_2"
        assert builder.allocate_alias("rates") == "rates"

    def test_add_ancillary_records_table(self):
        builder = ConversionBuilder(used_aliases=["r1"])
        alias = builder.add_ancillary("r3")
        assert alias == "r3"
        assert builder.extra_tables[0].name == "r3"
        assert builder.extra_tables[0].alias is None


class TestScaleFactorConversion:
    def test_constant_folding(self):
        conversion = ScaleFactorConversion()
        builder = ConversionBuilder()
        result = conversion.build_expression(expr(), Operand.of_constant(1000), Operand.of_constant(1), builder)
        assert to_sql(result) == "r1.revenue * 1000"
        assert builder.extra_tables == [] and builder.extra_conditions == []

    def test_identity_when_equal(self):
        conversion = ScaleFactorConversion()
        result = conversion.build_expression(expr(), Operand.of_constant(1), Operand.of_constant(1), ConversionBuilder())
        assert to_sql(result) == "r1.revenue"

    def test_fractional_ratio(self):
        conversion = ScaleFactorConversion()
        result = conversion.build_expression(expr(), Operand.of_constant(1), Operand.of_constant(1000), ConversionBuilder())
        assert to_sql(result) == "r1.revenue * 0.001"

    def test_column_valued_scale(self):
        conversion = ScaleFactorConversion()
        result = conversion.build_expression(
            expr(), Operand.of_expression(expr("r1.scale")), Operand.of_constant(1), ConversionBuilder()
        )
        assert to_sql(result) == "r1.revenue * r1.scale"

    def test_value_mode(self):
        conversion = ScaleFactorConversion()
        assert conversion.convert_value(5, 1000, 1, ConversionEnvironment()) == 5000
        assert conversion.convert_value(None, 1000, 1, ConversionEnvironment()) is None

    def test_invalid_factors(self):
        conversion = ScaleFactorConversion()
        with pytest.raises(ConversionError):
            conversion.convert_value(5, "big", 1, ConversionEnvironment())
        with pytest.raises(ConversionError):
            conversion.convert_value(5, 1, 0, ConversionEnvironment())


class TestCurrencyConversion:
    def test_expression_mode_adds_ancillary_join(self):
        conversion = CurrencyConversion("r3")
        builder = ConversionBuilder(used_aliases=["r1", "r2"])
        result = conversion.build_expression(
            expr(), Operand.of_expression(expr("r1.currency")), Operand.of_constant("USD"), builder
        )
        assert to_sql(result) == "r1.revenue * r3.rate"
        assert [table.name for table in builder.extra_tables] == ["r3"]
        conditions = [to_sql(condition) for condition in builder.extra_conditions]
        assert "r3.fromCur = r1.currency" in conditions
        assert "r3.toCur = 'USD'" in conditions

    def test_identity_when_same_constant_currency(self):
        conversion = CurrencyConversion("r3")
        builder = ConversionBuilder()
        result = conversion.build_expression(
            expr(), Operand.of_constant("USD"), Operand.of_constant("USD"), builder
        )
        assert to_sql(result) == "r1.revenue"
        assert builder.extra_tables == []

    def test_alias_uniqueness_across_two_conversions(self):
        conversion = CurrencyConversion("r3")
        builder = ConversionBuilder(used_aliases=["r1", "r2", "r3"])
        conversion.build_expression(expr(), Operand.of_constant("JPY"), Operand.of_constant("USD"), builder)
        conversion.build_expression(expr(), Operand.of_constant("EUR"), Operand.of_constant("USD"), builder)
        aliases = [table.alias for table in builder.extra_tables]
        assert aliases == ["r3_1", "r3_2"]

    def test_value_mode_uses_rate_lookup(self):
        conversion = CurrencyConversion("r3")
        environment = ConversionEnvironment(rate_lookup=lambda f, t: 0.0096)
        assert conversion.convert_value(1_000_000, "JPY", "USD", environment) == pytest.approx(9600)
        assert conversion.convert_value(5, "USD", "USD", environment) == 5

    def test_value_mode_requires_lookup(self):
        with pytest.raises(ConversionError):
            CurrencyConversion("r3").convert_value(1, "JPY", "USD", ConversionEnvironment())


class TestFactorTableConversion:
    def test_expression_and_value_modes(self):
        conversion = FactorTableConversion("units", {("thousand", "unit"): 1000.0})
        result = conversion.build_expression(
            expr(), Operand.of_constant("thousand"), Operand.of_constant("unit"), ConversionBuilder()
        )
        assert to_sql(result) == "r1.revenue * 1000"
        assert conversion.convert_value(2, "thousand", "unit", ConversionEnvironment()) == 2000
        assert conversion.convert_value(2, "unit", "unit", ConversionEnvironment()) == 2

    def test_missing_entry_raises(self):
        conversion = FactorTableConversion("units", {})
        with pytest.raises(ConversionError):
            conversion.convert_value(2, "a", "b", ConversionEnvironment())

    def test_expression_mode_requires_constants(self):
        conversion = FactorTableConversion("units", {})
        with pytest.raises(ConversionError):
            conversion.build_expression(
                expr(), Operand.of_expression(expr("r1.unit")), Operand.of_constant("unit"),
                ConversionBuilder(),
            )


class TestDateFormatConversion:
    def test_value_mode_both_directions(self):
        conversion = DateFormatConversion()
        environment = ConversionEnvironment()
        assert conversion.convert_value("1997-02-28", "iso", "us", environment) == "02/28/1997"
        assert conversion.convert_value("02/28/1997", "us", "iso", environment) == "1997-02-28"
        assert conversion.convert_value("1997-02-28", "iso", "iso", environment) == "1997-02-28"

    def test_expression_mode_builds_substr_concat(self):
        conversion = DateFormatConversion()
        result = conversion.build_expression(
            expr("t.d"), Operand.of_constant("iso"), Operand.of_constant("us"), ConversionBuilder()
        )
        text = to_sql(result)
        assert "SUBSTR(t.d, 6, 2)" in text and "||" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ConversionError):
            DateFormatConversion().convert_value("x", "julian", "iso", ConversionEnvironment())


class TestRegistry:
    def test_lookup_walks_type_hierarchy(self):
        model = build_financial_domain_model()
        registry = build_financial_conversions(model)
        function = registry.lookup("companyFinancials", "currency")
        assert isinstance(function, CurrencyConversion)
        assert isinstance(registry.lookup("stockPrice", "scaleFactor"), ScaleFactorConversion)

    def test_wildcard_registration(self):
        registry = ConversionRegistry()
        registry.register(ConversionRegistry.ANY_TYPE, "currency", CurrencyConversion("r3"))
        assert registry.has("anything", "currency")

    def test_missing_conversion_raises(self):
        registry = ConversionRegistry(build_financial_domain_model())
        with pytest.raises(ConversionError):
            registry.lookup("companyFinancials", "currency")

    def test_registered_conversions_are_found_by_type(self):
        model = build_financial_domain_model()
        registry = build_financial_conversions(model)
        assert registry.lookup("monetaryAmount", "currency").name == "currency"
        assert registry.lookup("monetaryAmount", "scaleFactor").name == "scale-factor"
        assert len(registry) == 3
