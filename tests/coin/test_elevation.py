"""Unit tests for elevation axioms."""

import pytest

from repro.errors import ElevationError
from repro.coin.domain import build_financial_domain_model
from repro.coin.elevation import ColumnElevation, ElevationAxiom, ElevationRegistry
from repro.relational.schema import Schema


def r1_axiom():
    return ElevationAxiom(
        source="source1",
        relation="r1",
        context="c_source1",
        columns=(
            ColumnElevation("cname", "companyName"),
            ColumnElevation("revenue", "companyFinancials"),
            ColumnElevation("currency", "currencyType"),
        ),
    )


class TestAxiom:
    def test_semantic_type_lookup_case_insensitive(self):
        axiom = r1_axiom()
        assert axiom.semantic_type_of("REVENUE") == "companyFinancials"
        assert axiom.semantic_type_of("unknown") is None

    def test_axiom_count(self):
        assert r1_axiom().axiom_count() == 3

    def test_describe(self):
        text = r1_axiom().describe()
        assert "source1.r1" in text and "companyFinancials" in text


class TestRegistry:
    def test_register_and_lookup(self):
        registry = ElevationRegistry([r1_axiom()])
        assert registry.for_relation("R1").context == "c_source1"
        assert registry.has_relation("r1")
        assert registry.relations == ["r1"]
        assert len(registry) == 1

    def test_elevate_convenience_builder(self):
        registry = ElevationRegistry()
        axiom = registry.elevate("source2", "r2", "c_source2",
                                 {"cname": "companyName", "expenses": "companyFinancials"})
        assert axiom.axiom_count() == 2
        assert registry.for_relation("r2") is axiom

    def test_duplicate_relation_rejected(self):
        registry = ElevationRegistry([r1_axiom()])
        with pytest.raises(ElevationError):
            registry.register(r1_axiom())

    def test_replace_for_schema_evolution(self):
        registry = ElevationRegistry([r1_axiom()])
        updated = ElevationAxiom("source1", "r1", "c_source1_v2",
                                 (ColumnElevation("revenue", "companyFinancials"),))
        registry.replace(updated)
        assert registry.for_relation("r1").context == "c_source1_v2"

    def test_unknown_relation_raises(self):
        with pytest.raises(ElevationError):
            ElevationRegistry().for_relation("ghost")

    def test_total_axiom_count(self):
        registry = ElevationRegistry([r1_axiom()])
        registry.elevate("source1", "extra", "c_source1", {"x": "companyName"})
        assert registry.total_axiom_count() == 4


class TestValidation:
    def test_validates_against_domain_and_schema(self):
        registry = ElevationRegistry([r1_axiom()])
        schemas = {"r1": Schema.of("cname:string", "revenue:float", "currency:string")}
        registry.validate_against(build_financial_domain_model(), schemas)

    def test_unknown_semantic_type_detected(self):
        registry = ElevationRegistry()
        registry.elevate("s", "r", "c", {"x": "notAType"})
        with pytest.raises(ElevationError):
            registry.validate_against(build_financial_domain_model(), {})

    def test_unknown_column_detected(self):
        registry = ElevationRegistry([r1_axiom()])
        schemas = {"r1": Schema.of("cname:string")}
        with pytest.raises(ElevationError):
            registry.validate_against(build_financial_domain_model(), schemas)


class TestDatalogView:
    def test_facts_emitted(self):
        kb = ElevationRegistry([r1_axiom()]).to_knowledge_base()
        assert kb.defines("elevated", 4)
        assert kb.defines("relation_context", 2)
        assert kb.defines("relation_source", 2)
