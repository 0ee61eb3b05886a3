"""Unit tests for the domain model of semantic types."""

import pytest

from repro.errors import DomainModelError
from repro.coin.domain import DomainModel, SemanticType, build_financial_domain_model


class TestConstruction:
    def test_primitives_always_present(self):
        model = DomainModel()
        assert model.has("basicValue")
        assert model.has("basicNumber")
        assert model.has("basicString")

    def test_add_type_and_lookup(self):
        model = DomainModel()
        model.add_type("price", parent="basicNumber", modifiers={"currency": "basicString"})
        assert model.get("price").parent == "basicNumber"
        assert model.has("price")

    def test_duplicate_type_rejected(self):
        model = DomainModel()
        model.add_type("price")
        with pytest.raises(DomainModelError):
            model.add_type("price")

    def test_unknown_parent_rejected(self):
        model = DomainModel()
        with pytest.raises(DomainModelError):
            model.add_type("price", parent="ghost")

    def test_unknown_type_lookup_raises(self):
        with pytest.raises(DomainModelError):
            DomainModel().get("ghost")


class TestHierarchy:
    def test_ancestors_and_subtyping(self):
        model = build_financial_domain_model()
        chain = model.ancestors("companyFinancials")
        assert chain[0] == "companyFinancials"
        assert "monetaryAmount" in chain
        assert chain[-1] == "basicValue"
        assert "companyFinancials" not in model.ancestors("monetaryAmount")

    def test_modifiers_inherited(self):
        model = build_financial_domain_model()
        modifiers = model.modifiers_of("companyFinancials")
        assert set(modifiers) == {"scaleFactor", "currency"}
        assert modifiers["currency"] == "currencyType"

    def test_modifier_declaration_order_preserved(self):
        # The rewriter applies conversions in declaration order; scaleFactor first.
        model = build_financial_domain_model()
        assert list(model.modifiers_of("companyFinancials")) == ["scaleFactor", "currency"]

    def test_attributes_inherited(self):
        model = build_financial_domain_model()
        assert model.attributes_of("companyFinancials") == {"company": "companyName"}

    def test_a_type_outside_the_hierarchy_has_no_modifiers(self):
        model = build_financial_domain_model()
        assert "currency" not in model.modifiers_of("companyName")


class TestValidation:
    def test_financial_model_validates(self):
        build_financial_domain_model().validate()

    def test_dangling_modifier_type_detected(self):
        model = DomainModel()
        model._types["bad"] = SemanticType("bad", parent="basicValue",
                                           modifiers={"m": "doesNotExist"})
        with pytest.raises(DomainModelError):
            model.validate()

    def test_cycle_detected(self):
        model = DomainModel()
        model.add_type("a")
        model.add_type("b", parent="a")
        # Introduce a cycle behind the API's back.
        model._types["a"] = SemanticType("a", parent="b")
        with pytest.raises(DomainModelError):
            model.ancestors("a")
