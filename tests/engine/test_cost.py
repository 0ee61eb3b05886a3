"""Unit tests for the planner's cost model."""

import pytest

from repro.engine.cost import CostEstimate, CostModel
from repro.sources.base import SourceCapabilities


class TestCostEstimate:
    def test_total_and_add(self):
        left = CostEstimate(source_execution=10, communication=5, local_execution=1)
        right = CostEstimate(source_execution=1, communication=2, local_execution=3)
        combined = left.add(right)
        assert combined.total == 22
        assert combined.source_execution == 11
        snapshot = combined.snapshot()
        assert snapshot["total"] == 22

    def test_empty_estimate_is_zero(self):
        assert CostEstimate().total == 0


class TestCardinalities:
    def test_selection_cardinality_shrinks_per_conjunct(self):
        model = CostModel(selection_selectivity=0.5)
        assert model.selection_cardinality(100, 0) == 100
        assert model.selection_cardinality(100, 1) == 50
        assert model.selection_cardinality(100, 2) == 25
        assert model.selection_cardinality(100, 10) >= 1
        assert model.selection_cardinality(0, 3) == 0

    def test_join_cardinality(self):
        model = CostModel(join_selectivity=0.1)
        assert model.join_cardinality(10, 10, equi_keys=0) == 100
        assert model.join_cardinality(10, 10, equi_keys=1) == 10
        assert model.join_cardinality(0, 10, equi_keys=1) == 0


class TestCosts:
    def test_source_query_cost_components(self):
        model = CostModel()
        capabilities = SourceCapabilities(query_overhead=10, scan_cost_per_row=0.1,
                                          transfer_cost_per_row=1.0)
        estimate = model.source_query_cost(capabilities, base_rows=100, result_rows=30)
        assert estimate.source_execution == pytest.approx(10 + 10.0)
        assert estimate.communication == pytest.approx(30.0)
        assert estimate.local_execution == 0

    def test_web_source_costs_more_per_row(self):
        model = CostModel()
        database = SourceCapabilities.full_sql()
        web = SourceCapabilities.scan_only()
        db_cost = model.source_query_cost(database, 100, 100).total
        web_cost = model.source_query_cost(web, 100, 100).total
        assert web_cost > db_cost

    def test_local_join_cost_hash_cheaper_than_nested_loop(self):
        model = CostModel()
        hash_cost = model.local_join_cost(1000, 1000, hash_join=True).total
        loop_cost = model.local_join_cost(1000, 1000, hash_join=False).total
        assert hash_cost < loop_cost

    def test_scan_and_staging_costs_scale_with_rows(self):
        model = CostModel()
        assert model.local_scan_cost(200).total == pytest.approx(200 * 0.01)
        assert model.staging_cost(200).total == pytest.approx(200 * 0.005)
        assert model.local_scan_cost(0).total == 0
