"""Unit tests for the assembled CoinSystem."""

import pytest

from repro.errors import CoinModelError, ContextError
from repro.coin.context import Context
from repro.coin.conversion import ConversionRegistry, ScaleFactorConversion
from repro.coin.domain import build_financial_domain_model
from repro.coin.elevation import ElevationRegistry
from repro.coin.system import CoinSystem
from repro.demo.scenarios import build_paper_coin_system


@pytest.fixture
def system():
    return build_paper_coin_system()


class TestLookups:
    def test_semantic_column_resolution(self, system):
        column = system.semantic_column("r1", "revenue")
        assert column.semantic_type == "companyFinancials"
        assert column.context == "c_source1"
        assert column.source == "source1"
        assert column.qualified == "r1.revenue"

    def test_unelevated_column_returns_none(self, system):
        assert system.semantic_column("r1", "nonexistent") is None
        assert system.semantic_column("unknown_relation", "x") is None

    def test_a_columns_context_is_its_relations(self, system):
        assert system.semantic_column("r2", "expenses").context == "c_source2"

    def test_declaration_search_uses_hierarchy(self, system):
        declaration = system.declaration_for("c_receiver", "companyFinancials", "currency")
        assert declaration.static_value == "USD"

    def test_receiver_value_requires_static_declaration(self, system):
        assert system.receiver_value("c_receiver", "companyFinancials", "scaleFactor") == 1
        with pytest.raises(ContextError):
            # c_source1's currency is attribute-valued, not static.
            system.receiver_value("c_source1", "companyFinancials", "currency")

    def test_modifiers_of_type(self, system):
        assert set(system.modifiers_of_type("companyFinancials")) == {"currency", "scaleFactor"}


class TestValidation:
    def test_paper_system_validates(self, system):
        system.validate()

    def test_context_with_unknown_type_detected(self, system):
        bad = Context("c_bad").declare_constant("notAType", "currency", "USD")
        system.add_context(bad)
        with pytest.raises(CoinModelError):
            system.validate()

    def test_context_with_unknown_modifier_detected(self):
        system = build_paper_coin_system()
        bad = Context("c_bad").declare_constant("companyFinancials", "flavour", "spicy")
        system.add_context(bad)
        with pytest.raises(CoinModelError):
            system.validate()

    def test_elevation_with_unknown_context_detected(self):
        system = build_paper_coin_system()
        system.elevations.elevate("sX", "rX", "c_missing", {"v": "companyFinancials"})
        with pytest.raises(CoinModelError):
            system.validate()

    def test_missing_conversion_detected(self):
        model = build_financial_domain_model()
        system = CoinSystem(model, conversions=ConversionRegistry(model))
        system.add_context(Context("c").declare_constant("companyFinancials", "currency", "USD"))
        system.elevations.elevate("s", "r", "c", {"revenue": "companyFinancials"})
        with pytest.raises(CoinModelError):
            system.validate()


class TestAccounting:
    def test_integration_effort_counts(self, system):
        effort = system.integration_effort()
        assert effort["contexts"] == 4
        assert effort["elevation_axioms"] == 6
        assert effort["conversion_functions"] == 3
        assert effort["context_axioms"] >= 8
        assert effort["semantic_types"] > 5


class TestDatalogView:
    def test_modifier_cases_and_guards_emitted(self, system):
        kb = system.to_knowledge_base()
        assert kb.defines("modifier_case", 6)
        assert kb.defines("case_guard", 7)
        assert kb.defines("elevated", 4)

    def test_case_guard_for_jpy_scale_factor(self, system):
        from repro.datalog import Resolver, atom, pos, var

        kb = system.to_knowledge_base()
        solutions = list(Resolver(kb).solve([pos(atom(
            "case_guard", "c_source1", "companyFinancials", "scaleFactor",
            var("Case"), var("Column"), "=", "JPY",
        ))]))
        assert len(solutions) == 1
        assert solutions[0].value(var("Column")) == "currency"
