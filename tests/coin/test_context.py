"""Unit tests for contexts and context theories."""

import pytest

from repro.errors import ContextError
from repro.coin.context import (
    AttributeValue,
    ConstantValue,
    Context,
    ContextRegistry,
    Guard,
    ModifierCase,
    ModifierDeclaration,
)


class TestGuardsAndCases:
    def test_guard_operators_validated(self):
        assert Guard("currency", "=", "JPY").describe() == "currency = 'JPY'"
        with pytest.raises(ContextError):
            Guard("currency", ">", 10)

    def test_guard_negation(self):
        guard = Guard("currency", "=", "JPY")
        assert guard.negated() == Guard("currency", "<>", "JPY")
        assert guard.negated().negated() == guard

    def test_case_description(self):
        case = ModifierCase(ConstantValue(1000), (Guard("currency", "=", "JPY"),))
        assert "1000" in case.describe() and "when" in case.describe()

    def test_declaration_requires_cases(self):
        with pytest.raises(ContextError):
            ModifierDeclaration("companyFinancials", "currency", ())

    def test_static_detection(self):
        static = ModifierDeclaration("t", "m", (ModifierCase(ConstantValue("USD")),))
        assert static.is_static and static.static_value == "USD"
        dynamic = ModifierDeclaration("t", "m", (ModifierCase(AttributeValue("currency")),))
        assert not dynamic.is_static
        with pytest.raises(ContextError):
            dynamic.static_value


class TestContext:
    def test_declare_shorthands(self):
        context = Context("c1")
        context.declare_constant("companyFinancials", "currency", "USD")
        context.declare_attribute("companyFinancials", "scaleFactor", "scale")
        assert context.declaration("companyFinancials", "currency").is_static
        assert isinstance(
            context.declaration("companyFinancials", "scaleFactor").cases[0].value, AttributeValue
        )

    def test_declaration_falls_back_to_ancestors(self):
        context = Context("c1")
        context.declare_constant("monetaryAmount", "currency", "USD")
        declaration = context.declaration(
            "companyFinancials", "currency", ancestors=["companyFinancials", "monetaryAmount"]
        )
        assert declaration.static_value == "USD"

    def test_missing_declaration_raises(self):
        with pytest.raises(ContextError):
            Context("c1").declaration("companyFinancials", "currency")

    def test_axiom_count_counts_cases(self):
        context = Context("c1")
        context.declare_constant("t", "m", 1)
        context.declare_cases("t", "n", [
            ModifierCase(ConstantValue(1000), (Guard("currency", "=", "JPY"),)),
            ModifierCase(ConstantValue(1), (Guard("currency", "<>", "JPY"),)),
        ])
        assert context.axiom_count() == 3

    def test_redeclaration_replaces(self):
        context = Context("c1").declare_constant("t", "m", 1)
        context.declare_constant("t", "m", 2)
        assert context.declaration("t", "m").static_value == 2
        assert len(context.declarations) == 1

    def test_describe(self):
        context = Context("c1").declare_constant("t", "m", "USD")
        assert "c1" in context.describe() and "t.m" in context.describe()


class TestContextRegistry:
    def test_register_create_get(self):
        registry = ContextRegistry()
        registry.register(Context("c1"))
        created = registry.create("c2", "second")
        assert registry.get("c2") is created
        assert registry.names == ["c1", "c2"]
        assert registry.has("c1") and not registry.has("c3")
        assert len(registry) == 2

    def test_create_duplicate_raises(self):
        registry = ContextRegistry([Context("c1")])
        with pytest.raises(ContextError):
            registry.create("c1")

    def test_unknown_context_raises(self):
        with pytest.raises(ContextError):
            ContextRegistry().get("ghost")

    def test_total_axiom_count(self):
        registry = ContextRegistry()
        registry.register(Context("a").declare_constant("t", "m", 1))
        registry.register(Context("b").declare_constant("t", "m", 2))
        assert registry.total_axiom_count() == 2
