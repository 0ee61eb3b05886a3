"""Unit tests for conflict detection (semantic values and modifier analyses)."""

import pytest

from repro.errors import MediationError
from repro.coin.context import AttributeValue, ConstantValue
from repro.demo.scenarios import build_paper_coin_system
from repro.mediation.conflicts import (
    analyze_modifier,
    analyze_query,
    analyze_value,
    binding_map,
    find_semantic_values,
)
from repro.sql.parser import parse

PAPER_QUERY = (
    "SELECT r1.cname, r1.revenue FROM r1, r2 "
    "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
)


@pytest.fixture
def system():
    return build_paper_coin_system()


class TestBindingMap:
    def test_aliases_and_names(self):
        select = parse("SELECT a.x FROM r1 a, r2")
        assert binding_map(select) == {"a": "r1", "r2": "r2"}

    def test_derived_tables_rejected(self):
        select = parse("SELECT d.x FROM (SELECT r1.x FROM r1) d")
        with pytest.raises(MediationError):
            binding_map(select)


class TestFindSemanticValues:
    def test_paper_query_finds_revenue_and_expenses(self, system):
        values = find_semantic_values(parse(PAPER_QUERY), system)
        assert set(values) == {("r1", "revenue"), ("r2", "expenses")}
        revenue = values[("r1", "revenue")]
        assert revenue.semantic_type == "companyFinancials"
        assert revenue.source_context == "c_source1"
        assert revenue.qualified == "r1.revenue"

    def test_modifierless_columns_ignored(self, system):
        values = find_semantic_values(parse("SELECT r1.cname FROM r1"), system)
        assert values == {}

    def test_unelevated_relations_ignored(self, system):
        values = find_semantic_values(parse("SELECT x.a FROM something_else x"), system)
        assert values == {}

    def test_star_rejected(self, system):
        with pytest.raises(MediationError):
            find_semantic_values(parse("SELECT * FROM r1"), system)

    def test_alias_binding_used_as_key(self, system):
        values = find_semantic_values(parse("SELECT f.revenue FROM r1 f"), system)
        assert set(values) == {("f", "revenue")}
        assert values[("f", "revenue")].binding == "f"

    def test_unqualified_column_with_single_table(self, system):
        values = find_semantic_values(parse("SELECT revenue FROM r1"), system)
        assert set(values) == {("r1", "revenue")}


class TestAnalyzeModifier:
    def test_static_conflicting_constant(self, system):
        value = find_semantic_values(parse("SELECT r2.expenses FROM r2"), system)[("r2", "expenses")]
        analysis = analyze_modifier(value, "currency", system, "c_receiver_jpy")
        assert analysis.receiver_value == "JPY"
        assert len(analysis.resolutions) == 1
        resolution = analysis.resolutions[0]
        assert resolution.needs_conversion is True
        assert resolution.source.constant == "USD"
        assert resolution.guards == ()

    def test_static_agreeing_constant_is_trivial(self, system):
        value = find_semantic_values(parse("SELECT r2.expenses FROM r2"), system)[("r2", "expenses")]
        analysis = analyze_modifier(value, "currency", system, "c_receiver")
        assert not analysis.has_potential_conflict

    def test_attribute_valued_modifier_splits_in_two(self, system):
        value = find_semantic_values(parse("SELECT r1.revenue FROM r1"), system)[("r1", "revenue")]
        analysis = analyze_modifier(value, "currency", system, "c_receiver")
        assert len(analysis.resolutions) == 2
        equal, different = analysis.resolutions
        assert equal.needs_conversion is False
        assert equal.guards[0].describe() == "r1.currency = 'USD'"
        assert different.needs_conversion is True
        assert different.guards[0].op == "<>"
        assert different.source.is_constant is False

    def test_guarded_cases_qualified_with_binding(self, system):
        value = find_semantic_values(parse("SELECT f.revenue FROM r1 f"), system)[("f", "revenue")]
        analysis = analyze_modifier(value, "scaleFactor", system, "c_receiver")
        guards = [guard for resolution in analysis.resolutions for guard in resolution.guards]
        assert all(guard.column.startswith("f.") for guard in guards)
        # JPY case converts (1000 -> 1); the other case does not (1 -> 1).
        jpy = [r for r in analysis.resolutions if any(g.op == "=" for g in r.guards)][0]
        assert jpy.needs_conversion is True
        assert jpy.source.constant == 1000


class TestAnalyzeQuery:
    def test_paper_query_analysis_shape(self, system):
        analyses = analyze_query(parse(PAPER_QUERY), system, "c_receiver")
        # Two semantic values x two modifiers each.
        assert len(analyses) == 4
        keys = {(analysis.value.key, analysis.modifier) for analysis in analyses}
        assert (("r1", "revenue"), "currency") in keys
        assert (("r2", "expenses"), "scaleFactor") in keys
        conflicting = [analysis for analysis in analyses if analysis.has_potential_conflict]
        assert {(analysis.value.key, analysis.modifier) for analysis in conflicting} == {
            (("r1", "revenue"), "currency"),
            (("r1", "revenue"), "scaleFactor"),
        }

    def test_deterministic_order(self, system):
        analyses = analyze_query(parse(PAPER_QUERY), system, "c_receiver")
        ordered = [(analysis.value.key, analysis.modifier) for analysis in analyses]
        assert ordered == sorted(ordered)

    def test_analyze_value_covers_all_modifiers(self, system):
        value = find_semantic_values(parse("SELECT r1.revenue FROM r1"), system)[("r1", "revenue")]
        analyses = analyze_value(value, system, "c_receiver")
        assert {analysis.modifier for analysis in analyses} == {"currency", "scaleFactor"}
