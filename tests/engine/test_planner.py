"""Unit tests for the query planner (decomposition, pushdown, join ordering)."""

import pytest

from repro.errors import PlanningError
from repro.demo.scenarios import build_paper_federation
from repro.engine import planner as planner_module
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.relational.algebra import left_deep
from repro.sql.parser import parse
from repro.sql.printer import to_sql


@pytest.fixture(scope="module")
def federation():
    return build_paper_federation().federation


@pytest.fixture(scope="module")
def catalog(federation):
    return federation.engine.catalog


def plan(catalog, sql, **config_kwargs):
    planner = QueryPlanner(catalog, config=PlannerConfig(**config_kwargs) if config_kwargs else None)
    return planner.plan(parse(sql))


class TestDecomposition:
    def test_one_request_per_binding(self, catalog):
        query_plan = plan(catalog, "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname")
        branch = query_plan.branches[0]
        assert {request.transfer.binding for request in branch.requests} == {"r1", "r2"}
        assert len(left_deep(branch.tree)[1]) == 1

    def test_selection_pushed_to_sql_source(self, catalog):
        query_plan = plan(catalog, "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'")
        transfer = query_plan.branches[0].requests[0].transfer
        assert transfer.target.query is not None
        assert "WHERE r1.currency = 'JPY'" in to_sql(transfer.target.query)
        assert transfer.filters == ()

    def test_selection_not_pushed_to_scan_only_source(self, catalog):
        query_plan = plan(catalog, "SELECT r3.rate FROM r3 WHERE r3.toCur = 'USD'")
        transfer = query_plan.branches[0].requests[0].transfer
        assert transfer.target.query is None
        assert transfer.target.text == "FETCH r3"
        assert len(transfer.filters) == 1

    def test_projection_pushed_when_supported(self, catalog):
        query_plan = plan(catalog, "SELECT r1.cname FROM r1")
        scan = query_plan.branches[0].requests[0].transfer.target
        assert scan.columns == ("cname",)
        assert "SELECT r1.cname FROM r1" == to_sql(scan.query) == scan.text

    def test_cross_source_condition_becomes_join_step(self, catalog):
        query_plan = plan(
            catalog,
            "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses",
        )
        step = left_deep(query_plan.branches[0].tree)[1][0]
        assert len(step.conditions) == 2
        assert step.hash_join is True

    def test_join_step_carries_oriented_equi_keys(self, catalog):
        query_plan = plan(
            catalog,
            "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses",
        )
        step = left_deep(query_plan.branches[0].tree)[1][0]
        assert len(step.equi_keys) == 1
        left_ref, right_ref = step.equi_keys[0]
        # Keys are oriented (already-joined intermediate, newly staged side).
        assert {left_ref.table, right_ref.table} == {"r1", "r2"}
        assert len(step.residual) == 1
        assert step.residual[0].op == ">"

    def test_multiple_equi_conjuncts_form_composite_key(self, catalog):
        query_plan = plan(
            catalog,
            "SELECT r1.cname FROM r1, r2 "
            "WHERE r1.cname = r2.cname AND r1.currency = r2.cname",
        )
        step = left_deep(query_plan.branches[0].tree)[1][0]
        assert len(step.equi_keys) == 2
        assert step.residual == ()

    def test_union_planned_branch_by_branch(self, catalog, federation):
        mediated = federation.mediate_only(
            "SELECT r1.cname, r1.revenue FROM r1, r2 "
            "WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses"
        ).mediated
        query_plan = federation.engine.planner.plan(mediated)
        assert len(query_plan.branches) == 3
        assert query_plan.request_count >= 8

    def test_explain_text(self, catalog):
        query_plan = plan(catalog, "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname")
        text = query_plan.explain()
        assert "source requests" in text
        assert "local joins" in text
        assert "estimated rows" in text


class TestAblationSwitches:
    def test_disabling_selection_pushdown(self, catalog):
        pushed = plan(catalog, "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'")
        unpushed = plan(catalog, "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'",
                        push_selections=False)
        assert pushed.branches[0].requests[0].transfer.target.conditions != ()
        assert unpushed.branches[0].requests[0].transfer.target.conditions == ()
        assert len(unpushed.branches[0].requests[0].transfer.filters) == 1

    def test_disabling_projection_pushdown(self, catalog):
        unpushed = plan(catalog, "SELECT r1.cname FROM r1", push_projections=False)
        scan = unpushed.branches[0].requests[0].transfer.target
        assert scan.columns == tuple(catalog.schema_of("r1").names)

    def test_pushdown_reduces_estimated_cost(self, catalog):
        sql = "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.currency = 'JPY'"
        pushed = plan(catalog, sql)
        unpushed = plan(catalog, sql, push_selections=False, push_projections=False)
        assert pushed.cost.total <= unpushed.cost.total


class TestErrors:
    def test_unknown_relation(self, catalog):
        with pytest.raises(PlanningError):
            plan(catalog, "SELECT ghost.x FROM ghost")

    def test_query_without_from(self, catalog):
        with pytest.raises(PlanningError):
            plan(catalog, "SELECT 1")

    def test_explicit_join_syntax_rejected(self, catalog):
        with pytest.raises(PlanningError):
            plan(catalog, "SELECT r1.cname FROM r1 JOIN r2 ON r1.cname = r2.cname")

    def test_unknown_column_binding(self, catalog):
        with pytest.raises(PlanningError):
            plan(catalog, "SELECT r1.cname FROM r1 WHERE zz.other = 1")

    def test_ambiguous_unqualified_column(self, catalog):
        with pytest.raises(PlanningError):
            plan(catalog, "SELECT cname FROM r1, r2")

    def test_too_many_tables(self, catalog, monkeypatch):
        monkeypatch.setattr(planner_module, "MAX_BRANCH_TABLES", 1)
        planner = QueryPlanner(catalog)
        with pytest.raises(PlanningError):
            planner.plan(parse("SELECT r1.cname FROM r1, r2"))
