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
        assert model.is_subtype("companyFinancials", "monetaryAmount")
        assert not model.is_subtype("monetaryAmount", "companyFinancials")

    def test_modifiers_inherited(self):
        model = build_financial_domain_model()
        modifiers = model.modifiers_of("companyFinancials")
        assert set(modifiers) == {"scaleFactor", "currency"}
        assert model.modifier_value_type("companyFinancials", "currency") == "currencyType"

    def test_modifier_declaration_order_preserved(self):
        # The rewriter applies conversions in declaration order; scaleFactor first.
        model = build_financial_domain_model()
        assert list(model.modifiers_of("companyFinancials")) == ["scaleFactor", "currency"]

    def test_attributes_inherited(self):
        model = build_financial_domain_model()
        assert model.attributes_of("companyFinancials") == {"company": "companyName"}

    def test_unknown_modifier_raises(self):
        model = build_financial_domain_model()
        with pytest.raises(DomainModelError):
            model.modifier_value_type("companyName", "currency")


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


class TestDatalogView:
    def test_knowledge_base_facts(self):
        kb = build_financial_domain_model().to_knowledge_base()
        assert kb.defines("semantic_type", 1)
        assert kb.defines("isa", 2)
        assert kb.defines("has_modifier", 3)
        predicates = {rule.head.predicate for rule in kb.rules}
        assert "has_attribute" in predicates

    def test_query_modifiers_through_resolution(self):
        from repro.datalog import Resolver, atom, pos, var

        kb = build_financial_domain_model().to_knowledge_base()
        solutions = list(Resolver(kb).solve([pos(atom("has_modifier", "monetaryAmount", var("M"), var("T")))]))
        assert sorted(solution.value(var("M")) for solution in solutions) == ["currency", "scaleFactor"]
