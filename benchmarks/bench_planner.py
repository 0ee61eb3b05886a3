"""E7 — planning and optimization in the multi-database access engine.

"Planning and optimizing the multi-source queries taking into account the
sources capabilities as well as the execution and communication costs."

Reproduced rows: for the paper's mediated query and for larger synthetic
federations, the estimated cost and the rows actually transferred with
capability-aware push-down enabled versus disabled (the ablation
PERFORMANCE.md, "Paper-artifact benches", calls out), plus raw planning
latency.
"""

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation, build_scalability_federation
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.planner import PlannerConfig
from repro.relational.algebra import left_deep


def _engine_without_pushdown(reference_engine):
    engine = MultiDatabaseEngine(
        planner_config=PlannerConfig(push_selections=False, push_projections=False)
    )
    for wrapper in reference_engine.catalog.wrappers:
        engine.register_wrapper(wrapper, estimate_rows=False)
    return engine


def test_e7_pushdown_vs_no_pushdown_on_paper_query():
    scenario = build_paper_federation()
    federation = scenario.federation
    mediated = federation.mediate_only(PAPER_QUERY).mediated

    with_push = federation.engine
    without_push = _engine_without_pushdown(with_push)

    plan_push = with_push.plan(mediated)
    plan_nopush = without_push.plan(mediated)
    run_push = with_push.execute(mediated)
    run_nopush = without_push.execute(mediated)

    print("\n=== E7: capability-aware push-down (paper query) ===")
    print(f"{'variant':>12} {'est. cost':>10} {'rows transferred':>17} {'answer rows':>12}")
    print(f"{'push-down':>12} {plan_push.cost.total:>10.1f} "
          f"{run_push.report.rows_transferred:>17} {run_push.report.result_rows:>12}")
    print(f"{'no push':>12} {plan_nopush.cost.total:>10.1f} "
          f"{run_nopush.report.rows_transferred:>17} {run_nopush.report.result_rows:>12}")

    # Same answers, cheaper plans with push-down.
    assert sorted(run_push.relation.rows) == sorted(run_nopush.relation.rows)
    assert plan_push.cost.total <= plan_nopush.cost.total
    assert run_push.report.rows_transferred <= run_nopush.report.rows_transferred


def test_e7_pushdown_savings_grow_with_source_size():
    print("\n=== E7: rows transferred vs source size (selective query) ===")
    print(f"{'rows/source':>12} {'push-down':>10} {'no push':>10}")
    for companies in (10, 40, 160):
        scenario = build_scalability_federation(3, companies_per_source=companies)
        sql = (
            f"SELECT {scenario.relations[0]}.cname FROM {scenario.relations[0]}, {scenario.relations[1]} "
            f"WHERE {scenario.relations[0]}.cname = {scenario.relations[1]}.cname "
            f"AND {scenario.relations[0]}.cname = '{scenario.companies[0]}'"
        )
        engine = scenario.federation.engine
        no_push = _engine_without_pushdown(engine)
        pushed = engine.execute(sql).report.rows_transferred
        unpushed = no_push.execute(sql).report.rows_transferred
        print(f"{companies:>12} {pushed:>10} {unpushed:>10}")
        assert pushed < unpushed


def test_e7_planning_latency(benchmark):
    scenario = build_paper_federation()
    federation = scenario.federation
    mediated = federation.mediate_only(PAPER_QUERY).mediated
    plan = benchmark(lambda: federation.engine.plan(mediated))
    assert len(plan.branches) == 3
    benchmark.extra_info["requests"] = plan.request_count
    benchmark.extra_info["estimated_cost"] = round(plan.cost.total, 2)


def test_e7_join_order_prefers_small_relations():
    scenario = build_scalability_federation(2, companies_per_source=50)
    federation = scenario.federation
    big, small = scenario.relations[0], scenario.relations[1]
    # Make one source much more selective than the other.
    sql = (
        f"SELECT {big}.cname FROM {big}, {small} "
        f"WHERE {big}.cname = {small}.cname AND {small}.cname = '{scenario.companies[0]}'"
    )
    plan = federation.engine.plan(sql)
    branch = plan.branches[0]
    initial_binding = left_deep(branch.tree)[0][0].binding
    # The pipeline starts from the (estimated) smaller input: the filtered one.
    assert initial_binding == small
