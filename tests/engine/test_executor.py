"""Unit tests for plan execution and the engine façade."""

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.planner import PlannerConfig
from repro.errors import EngineError
from repro.relational.algebra import left_deep
from repro.relational.query import QueryProcessor
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

PAPER_MEDIATED_JPY_BRANCH = (
    "SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 "
    "WHERE r1.currency = 'JPY' AND r1.cname = r2.cname "
    "AND r1.revenue * 1000 * r3.rate > r2.expenses "
    "AND r3.fromCur = r1.currency AND r3.toCur = 'USD'"
)


@pytest.fixture(scope="module")
def engine():
    return build_paper_federation().federation.engine


class TestExecution:
    def test_single_source_query(self, engine):
        relation = engine.query("SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'")
        assert relation.column("cname") == ["NTT"]

    def test_cross_source_join(self, engine):
        relation = engine.query(
            "SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname"
        )
        assert len(relation) == 2

    def test_three_way_join_with_web_source(self, engine):
        relation = engine.query(PAPER_MEDIATED_JPY_BRANCH)
        assert len(relation) == 1
        assert relation.rows[0][0] == "NTT"
        assert relation.rows[0][1] == pytest.approx(9_600_000)

    def test_union_execution(self, engine):
        relation = engine.query(
            "SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' UNION SELECT r2.cname FROM r2"
        )
        assert sorted(relation.column("cname")) == ["IBM", "NTT"]

    def test_aggregation_over_joined_sources(self, engine):
        relation = engine.query(
            "SELECT COUNT(*) AS n, SUM(r2.expenses) AS total FROM r1, r2 WHERE r1.cname = r2.cname"
        )
        assert relation.records() == [{"n": 2, "total": 6_500_000.0}]

    def test_order_and_limit(self, engine):
        relation = engine.query("SELECT r2.cname FROM r2 ORDER BY r2.expenses DESC LIMIT 1")
        assert relation.column("cname") == ["NTT"]

    def test_column_names_follow_aliases(self, engine):
        relation = engine.query("SELECT r2.cname AS company FROM r2")
        assert relation.schema.names == ["company"]

    def test_star_over_a_reordered_join_lists_columns_in_from_order(self, engine):
        sql = "SELECT * FROM r2, r1 WHERE r1.cname = r2.cname"
        plan = engine.plan(sql)
        transfers, _joins = left_deep(plan.branches[0].tree)
        assert [transfer.binding for transfer in transfers] == ["r1", "r2"]  # reordered
        relation = engine.execute(plan).relation
        assert relation.schema.names == ["cname", "expenses", "cname", "revenue", "currency"]
        assert relation.rows == engine.query(
            "SELECT r2.*, r1.* FROM r2, r1 WHERE r1.cname = r2.cname").rows
        assert relation.rows[0] == ("IBM", 1_500_000.0, "IBM", 1_000_000.0, "USD")


class TestReports:
    def test_execution_report_details(self, engine):
        result = engine.execute(PAPER_MEDIATED_JPY_BRANCH)
        report = result.report
        assert len(report.requests) == 3
        assert report.result_rows == 1
        # Every request returned rows — from the wire on a cold engine, from
        # the source-result cache on a warm one (rows_transferred counts only
        # the former).
        assert all(entry.rows_returned >= 1 for entry in report.requests)
        assert report.rows_transferred + report.cache_hits >= 3
        assert report.elapsed_seconds >= 0
        assert report.temp_storage["tables_created"] >= 3
        by_binding = {request.binding: request for request in report.requests}
        # The web source cannot evaluate SQL: it is fetched and filtered locally.
        assert by_binding["r3"].request.startswith("FETCH")
        assert by_binding["r1"].request.startswith("SELECT")

    def test_temp_storage_is_the_statements_own_usage(self):
        # Each run stages and drops its own eight tables: the block is that,
        # not the store's running totals taken before the drop.
        federation = build_paper_federation().federation
        blocks = [federation.query(PAPER_QUERY).execution.report.snapshot()["temp_storage"]
                  for _ in range(3)]
        assert blocks[0] == blocks[1] == blocks[2]
        assert blocks[0]["tables_created"] == blocks[0]["tables_dropped"] == 8
        assert federation.engine.temp_store.handles == []

    def test_operator_stats_trace_the_local_pipeline(self, engine):
        result = engine.execute(PAPER_MEDIATED_JPY_BRANCH)
        stats = result.report.operator_stats
        names = [entry.operator for entry in stats]
        # One scan starts the pipeline, each staged relation joins in after.
        assert names[0] == "Scan"
        assert names.count("HashJoin") + names.count("NestedLoopJoin") == 2
        assert all(entry.rows_out >= 0 and entry.elapsed_seconds >= 0 for entry in stats)
        # The final operator's output matches the branch's joined row count.
        snapshot = result.report.snapshot()
        assert snapshot["operators"] == [entry.snapshot() for entry in stats]

    def test_equi_join_steps_execute_as_hash_joins(self, engine):
        result = engine.execute(
            "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname"
        )
        operators = [entry.operator for entry in result.report.operator_stats]
        assert "HashJoin" in operators
        assert "NestedLoopJoin" not in operators

    def test_boolean_join_keys_keep_sql_equality_semantics(self):
        # SQL equality coerces booleans against any number (TRUE = 2 is
        # true); the planner must keep such conjuncts out of hash-key
        # position so they are evaluated per pair, not bucket-matched.
        from repro.relational import relation_from_rows

        source = MemorySQLSource("boolsrc")
        source.add_relation(relation_from_rows(
            "flags", ["name:string", "active:boolean"],
            [("on2", True), ("off", False)], qualifier=None,
        ))
        source.add_relation(relation_from_rows(
            "nums", ["num:integer", "tag:string"],
            [(2, "two"), (0, "zero")], qualifier=None,
        ))
        engine = MultiDatabaseEngine()
        engine.register_wrapper(RelationalWrapper(source))

        plan = engine.plan(
            "SELECT flags.name, nums.tag FROM flags, nums WHERE flags.active = nums.num"
        )
        assert left_deep(plan.branches[0].tree)[1][0].equi_keys == ()

        result = engine.execute(
            "SELECT flags.name, nums.tag FROM flags, nums WHERE flags.active = nums.num"
        )
        # True = 2 (truthy) and False = 0 (falsy) both hold under sql_equal.
        assert sorted(result.relation.rows) == [("off", "zero"), ("on2", "two")]

    @pytest.mark.parametrize("key_type, join, method", [
        ("integer", "HashJoin", "hash join"),
        ("any", "NestedLoopJoin", "nested-loop join"),
        ("boolean", "NestedLoopJoin", "nested-loop join"),
    ])
    def test_one_rule_decides_whether_a_key_hashes(self, key_type, join, method):
        # ``types.may_hash`` decides for a plan and for the local processor
        # (a source's SQL engine) alike.
        source = MemorySQLSource("keys")
        source.load_sql(
            f"CREATE TABLE l (k {key_type}, a varchar)",
            f"CREATE TABLE r (k {key_type}, b varchar)",
            "INSERT INTO l VALUES (1, 'x'), (0, 'y')",
            "INSERT INTO r VALUES (1, 'p')",
        )
        engine = MultiDatabaseEngine()
        engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)
        sql = "SELECT l.a, r.b FROM l, r WHERE l.k = r.k"
        assert f"- {method} r ON l.k = r.k" in engine.explain(sql)
        result = engine.execute(sql)
        assert join in [entry.operator for entry in result.report.operator_stats]
        assert result.relation.rows == [("x", "p")]

        tree = QueryProcessor.over_tables(source.database.tables).lower(sql).explain()
        assert [line.strip().split("(")[0] for line in tree.splitlines()] == [
            "Project", join, "Scan", "Scan"]

    def test_statistics_accumulate(self):
        engine = build_paper_federation().federation.engine
        before = engine.statistics.snapshot()
        engine.query("SELECT r1.cname FROM r1")
        after = engine.statistics.snapshot()
        assert after["statements_executed"] == before["statements_executed"] + 1
        assert after["rows_transferred"] > before["rows_transferred"]

    def test_plan_then_execute(self, engine):
        plan = engine.plan("SELECT r1.cname FROM r1")
        result = engine.execute(plan)
        assert len(result.relation) == 2
        assert result.plan is plan

    def test_explain_returns_text(self, engine):
        assert "source requests" in engine.explain("SELECT r1.cname FROM r1")


class TestLocalFilterFallback:
    def test_weak_source_filters_applied_locally(self):
        """A selection-incapable source still yields correct answers."""
        from repro.sources.base import SourceCapabilities

        source = MemorySQLSource("weak", capabilities=SourceCapabilities.scan_only())
        source.load_sql(
            "CREATE TABLE t (a integer, b varchar)",
            "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')",
        )
        engine = MultiDatabaseEngine()
        engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)
        relation = engine.query("SELECT t.a FROM t WHERE t.b = 'x'")
        assert sorted(relation.column("a")) == [1, 3]

    def test_pushdown_and_no_pushdown_agree(self):
        """Ablation: disabling pushdown changes the plan but not the answer."""
        scenario = build_paper_federation()
        engine_default = scenario.federation.engine
        engine_no_push = MultiDatabaseEngine(
            planner_config=PlannerConfig(push_selections=False, push_projections=False)
        )
        for wrapper in engine_default.catalog.wrappers:
            engine_no_push.register_wrapper(wrapper, estimate_rows=False)

        sql = (
            "SELECT r1.cname, r2.expenses FROM r1, r2 "
            "WHERE r1.cname = r2.cname AND r1.currency = 'USD'"
        )
        with_push = engine_default.query(sql)
        without_push = engine_no_push.query(sql)
        assert sorted(with_push.rows) == sorted(without_push.rows)
        # Without pushdown more rows are transferred from the sources.
        report_no_push = engine_no_push.execute(sql).report
        report_push = engine_default.execute(sql).report
        assert report_no_push.rows_transferred >= report_push.rows_transferred


class TestErrors:
    def test_non_select_rejected(self, engine):
        with pytest.raises(EngineError):
            engine.execute("CREATE TABLE z (a integer)")
