"""The streaming execution core: cursors, early termination, budgets.

Contract under test:

* a streamed execution yields exactly the eager execution's rows, in order,
  for every finalization shape (plain, ORDER BY/LIMIT, DISTINCT, aggregates,
  UNION dedup);
* first rows arrive while slower branches are still fetching, and closing a
  stream early cancels fetches that were never consumed;
* the planner pushes safe LIMIT bounds into single-request branches;
* a memory budget forces spilling without changing answers, and the peak
  stays bounded;
* mid-stream failures surface through ``fetchmany`` without corrupting the
  scheduler, the source-result cache, or temporary storage.
"""

import time

import pytest

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.planner import PlannerConfig
from repro.engine.request_cache import SourceResultCache
from repro.errors import SourceError
from repro.obs.trace import Tracer, deactivate_span
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def _source(name, create, insert, capabilities=None):
    source = MemorySQLSource(name, capabilities=capabilities or SourceCapabilities.full_sql())
    source.load_sql(create, insert)
    return source


def _basic_engine(**kwargs):
    engine = MultiDatabaseEngine(**kwargs)
    values = ", ".join(
        f"({index}, {float((index * 37) % 100)}, '{('xyz')[index % 3]}')"
        for index in range(200)
    )
    source = _source("db", "CREATE TABLE t (a integer, v float, b varchar)",
                     f"INSERT INTO t VALUES {values}")
    engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)
    return engine


class _SleepyWrapper(RelationalWrapper):
    def __init__(self, source, latency):
        super().__init__(source)
        self.latency = latency
        self.round_trips = 0

    def _sleep(self):
        self.round_trips += 1
        time.sleep(self.latency)

    def fetch(self, relation):
        self._sleep()
        return super().fetch(relation)

    def query(self, statement):
        self._sleep()
        return super().query(statement)


class _FailingWrapper(RelationalWrapper):
    def fetch(self, relation):
        raise SourceError("simulated source outage")

    def query(self, statement):
        raise SourceError("simulated source outage")


QUERIES = (
    "SELECT t.a, t.v FROM t WHERE t.a > 20",
    "SELECT t.a, t.v * 2 AS double_v FROM t ORDER BY double_v DESC, t.a LIMIT 7",
    "SELECT t.a, t.v FROM t ORDER BY t.v DESC, t.a LIMIT 5 OFFSET 3",
    "SELECT DISTINCT t.b FROM t ORDER BY t.b",
    "SELECT t.b, COUNT(*) AS n, SUM(t.v) AS total FROM t GROUP BY t.b ORDER BY n DESC, t.b",
    "SELECT t.a FROM t WHERE t.b = 'x' UNION SELECT t.a FROM t WHERE t.a < 10",
    "SELECT t.a FROM t WHERE t.b = 'x' UNION ALL SELECT t.a FROM t WHERE t.a < 10",
)


class TestStreamedEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_stream_matches_eager_rows_and_order(self, query):
        eager = _basic_engine().execute(query)
        stream = _basic_engine().execute_stream(query)
        rows = stream.fetchall()
        assert rows == list(eager.relation.rows)
        assert stream.schema.names == eager.relation.schema.names
        assert stream.exhausted

    @pytest.mark.parametrize("capabilities", [SourceCapabilities.full_sql(),
                                              SourceCapabilities.scan_only()])
    def test_order_by_boolean_literal_is_not_a_position(self, capabilities):
        def engine():
            built = MultiDatabaseEngine()
            source = _source("db", "CREATE TABLE t (a integer, b integer)",
                             "INSERT INTO t VALUES (3, 1), (1, 2), (2, 3)",
                             capabilities=capabilities)
            built.register_wrapper(RelationalWrapper(source), estimate_rows=False)
            return built

        query = "SELECT t.a, t.b FROM t ORDER BY TRUE"
        expected = [(3, 1), (1, 2), (2, 3)]  # a constant key keeps input order
        assert list(engine().execute(query).relation.rows) == expected
        assert engine().execute_stream(query).fetchall() == expected

    def test_fetchmany_batches_and_counters(self):
        stream = _basic_engine().execute_stream("SELECT t.a FROM t ORDER BY t.a LIMIT 10")
        first = stream.fetchmany(4)
        rest = stream.fetchall()
        assert [row[0] for row in first + rest] == list(range(10))
        report = stream.report
        assert report.rows_streamed == 10
        assert 0 < report.first_row_seconds <= report.elapsed_seconds

    def test_eager_report_carries_streaming_fields(self):
        result = _basic_engine().execute("SELECT t.a FROM t")
        snapshot = result.report.snapshot()
        assert snapshot["streaming"]["rows_streamed"] == len(result.relation)
        assert snapshot["memory"]["staged_bytes"] > 0


class TestLimitPushdown:
    def test_single_request_branch_pushes_order_and_limit(self):
        engine = _basic_engine()
        plan = engine.plan("SELECT t.a, t.v FROM t ORDER BY t.v DESC LIMIT 5")
        scan = plan.branches[0].requests[0].transfer.target
        assert plan.branches[0].fetch_limit == 5
        assert (scan.limit, len(scan.order_by)) == (5, 1)
        assert "LIMIT 5" in scan.text
        assert "ORDER BY" in scan.text
        # The source ships only the needed prefix.
        result = engine.execute(plan)
        assert result.report.requests[0].rows_returned == 5

    def test_offset_is_folded_into_the_bound(self):
        plan = _basic_engine().plan("SELECT t.a FROM t ORDER BY t.a LIMIT 5 OFFSET 2")
        assert plan.branches[0].fetch_limit == 7
        assert "LIMIT 7" in plan.branches[0].requests[0].transfer.target.text

    def test_distinct_blocks_the_bound(self):
        plan = _basic_engine().plan("SELECT DISTINCT t.b FROM t LIMIT 2")
        assert plan.branches[0].fetch_limit is None
        assert "LIMIT" not in plan.branches[0].requests[0].transfer.target.text

    def test_aggregates_block_the_bound(self):
        plan = _basic_engine().plan("SELECT COUNT(*) AS n FROM t LIMIT 1")
        assert plan.branches[0].fetch_limit is None

    def test_scan_only_sources_keep_the_local_bound_only(self):
        engine = MultiDatabaseEngine()
        source = _source("scan", "CREATE TABLE s (a integer)",
                         "INSERT INTO s VALUES (1), (2), (3)",
                         capabilities=SourceCapabilities.scan_only())
        engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)
        plan = engine.plan("SELECT s.a FROM s LIMIT 2")
        assert plan.branches[0].fetch_limit == 2
        assert plan.branches[0].requests[0].transfer.target.text == "FETCH s"
        assert list(engine.execute(plan).relation.rows) == [(1,), (2,)]

    def test_ablation_switch_disables_the_push(self):
        engine = _basic_engine(planner_config=PlannerConfig(push_fetch_limits=False))
        plan = engine.plan("SELECT t.a FROM t ORDER BY t.a LIMIT 5")
        assert plan.branches[0].fetch_limit is None
        assert "LIMIT" not in plan.branches[0].requests[0].transfer.target.text


class TestEarlyTermination:
    def _two_branch_engine(self, latency=0.3):
        engine = MultiDatabaseEngine()
        fast = _source("fast", "CREATE TABLE f (a integer)",
                       "INSERT INTO f VALUES (1), (2), (3), (4)",
                       capabilities=SourceCapabilities.scan_only())
        slow = _source("slow", "CREATE TABLE s (a integer)",
                       "INSERT INTO s VALUES (9), (10)",
                       capabilities=SourceCapabilities.scan_only())
        engine.register_wrapper(RelationalWrapper(fast), estimate_rows=False)
        slow_wrapper = _SleepyWrapper(slow, latency)
        engine.register_wrapper(slow_wrapper, estimate_rows=False)
        return engine, slow_wrapper

    def test_first_batch_arrives_before_slow_branch_fetch_completes(self):
        engine, slow_wrapper = self._two_branch_engine()
        stream = engine.execute_stream(
            "SELECT f.a FROM f UNION ALL SELECT s.a FROM s"
        )
        started = time.perf_counter()
        first = stream.fetchmany(3)
        first_batch_elapsed = time.perf_counter() - started
        assert first == [(1,), (2,), (3,)]
        assert first_batch_elapsed < slow_wrapper.latency
        stream.close()

    def test_closing_early_cancels_unconsumed_fetches_serially(self):
        # Serial dispatch defers fetches until a branch needs them: a stream
        # abandoned after branch 1 never pays branch 2's round trip.
        engine, slow_wrapper = self._two_branch_engine()
        engine.max_concurrent_requests = 1
        stream = engine.execute_stream(
            "SELECT f.a FROM f UNION ALL SELECT s.a FROM s"
        )
        assert stream.fetchmany(2) == [(1,), (2,)]
        stream.close()
        assert slow_wrapper.round_trips == 0

    @pytest.mark.parametrize("union", ("UNION", "UNION ALL"))
    def test_a_branch_fetches_when_the_root_operator_reaches_it(self, union):
        # A branch is an input of the root UnionAll, staged on its first
        # pull: with serial dispatch its source hears nothing until the
        # branch before it is drained.
        engine, slow_wrapper = self._two_branch_engine(latency=0.0)
        engine.max_concurrent_requests = 1
        engine.memory_budget_bytes = 1_000_000
        root = Tracer().start_trace("statement")
        token = root.activate()
        try:
            stream = engine.execute_stream(f"SELECT f.a FROM f {union} SELECT s.a FROM s")
        finally:
            deactivate_span(token)
        assert stream.fetchmany(4) == [(1,), (2,), (3,), (4,)]
        assert slow_wrapper.round_trips == 0
        assert stream.report.branch_rows == []
        assert stream.fetchmany(1) == [(9,)]
        assert slow_wrapper.round_trips == 1
        assert stream.report.branch_rows == [4]
        stream.close()
        assert engine.temp_store.handles == []
        assert stream.budget.used_bytes == 0
        assert root.open_spans() == [root]

    def test_a_limit_over_the_union_never_reaches_a_later_branch(self):
        # Clauses after the last branch finish the whole union: the LIMIT
        # above it stops pulling once satisfied.
        engine, slow_wrapper = self._two_branch_engine(latency=0.0)
        engine.max_concurrent_requests = 1
        answer = engine.execute("SELECT f.a FROM f UNION ALL SELECT s.a FROM s LIMIT 3")
        assert answer.relation.rows == [(1,), (2,), (3,)]
        assert slow_wrapper.round_trips == 0

    def test_closing_after_the_first_batch_leaves_nothing_behind(self):
        engine, slow_wrapper = self._two_branch_engine()
        engine.max_concurrent_requests = 1
        engine.memory_budget_bytes = 1_000_000
        root = Tracer().start_trace("statement")
        token = root.activate()
        try:
            stream = engine.execute_stream(
                "SELECT DISTINCT f.a FROM f ORDER BY f.a UNION SELECT s.a FROM s")
        finally:
            deactivate_span(token)
        assert stream.schema.names == ["a"]
        assert stream.fetchmany(1) == [(1,)]
        assert stream.budget.used_bytes > 0 and engine.temp_store.handles
        stream.close()
        assert slow_wrapper.round_trips == 0
        assert engine.temp_store.handles == []
        assert stream.budget.used_bytes == 0
        assert root.open_spans() == [root]
        assert [request.binding for request in stream.report.requests] == ["f"]

    def test_staged_temporaries_are_released_on_close(self):
        engine = _basic_engine()
        stream = engine.execute_stream("SELECT t.a FROM t")
        stream.fetchmany(1)
        assert engine.temp_store.handles
        stream.close()
        assert engine.temp_store.handles == []

    def test_fetch_after_close_raises(self):
        from repro.errors import ExecutionError

        stream = _basic_engine().execute_stream("SELECT t.a FROM t")
        stream.close()
        with pytest.raises(ExecutionError, match="closed result stream"):
            stream.fetchmany(1)
        # close stays idempotent
        stream.close()


class TestMemoryBudgetedExecution:
    def test_budgeted_sort_spills_with_identical_answers(self):
        query = "SELECT t.a, t.v, t.b FROM t ORDER BY t.v, t.a"
        config = PlannerConfig(push_fetch_limits=False, push_selections=False)
        unbudgeted = _basic_engine(planner_config=config).execute(query)
        budgeted_engine = _basic_engine(planner_config=config,
                                        memory_budget_bytes=2_000)
        budgeted = budgeted_engine.execute(query)
        assert list(budgeted.relation.rows) == list(unbudgeted.relation.rows)
        report = budgeted.report
        assert report.spill_count > 0
        assert report.memory_limit_bytes == 2_000
        # One force-reserved row of slack at most.
        assert report.peak_memory_bytes <= 2_000 + 200

    def test_the_sort_over_a_union_spills_on_the_statement_budget(self):
        query = ("SELECT t.a, t.v FROM t WHERE t.b = 'x' UNION ALL "
                 "SELECT t.a, t.v FROM t WHERE t.b <> 'x' ORDER BY v, a")
        unbudgeted = _basic_engine().execute(query)
        budgeted = _basic_engine(memory_budget_bytes=2_000).execute(query)
        assert list(budgeted.relation.rows) == list(unbudgeted.relation.rows)
        assert [row[1] for row in unbudgeted.relation.rows] == sorted(
            row[1] for row in unbudgeted.relation.rows)
        assert len(unbudgeted.relation.rows) == 200
        assert unbudgeted.report.spill_count == 0
        assert budgeted.report.spill_count > 0
        assert budgeted.report.peak_memory_bytes <= 2_000 + 200

    def test_unbudgeted_execution_reports_peak_without_spilling(self):
        result = _basic_engine().execute("SELECT t.a, t.v FROM t ORDER BY t.v, t.a")
        assert result.report.spill_count == 0
        assert result.report.peak_memory_bytes > 0

    def test_order_by_unprojected_column_falls_back_and_matches(self):
        # The ORDER BY key is not in the output: the branch finalizes through
        # the materializing processor, and answers still match shape for shape.
        query = "SELECT t.a FROM t ORDER BY t.v, t.a"
        eager = _basic_engine().execute(query)
        stream = _basic_engine().execute_stream(query)
        assert stream.fetchall() == list(eager.relation.rows)


class TestMidStreamErrors:
    def _engine_with_failing_branch(self):
        engine = MultiDatabaseEngine(request_cache=SourceResultCache(capacity=8))
        good = _source("good", "CREATE TABLE g (a integer)",
                       "INSERT INTO g VALUES (1), (2), (3)",
                       capabilities=SourceCapabilities.scan_only())
        bad = _source("bad", "CREATE TABLE b (a integer)",
                      "INSERT INTO b VALUES (7)",
                      capabilities=SourceCapabilities.scan_only())
        engine.register_wrapper(RelationalWrapper(good), estimate_rows=False)
        engine.register_wrapper(_FailingWrapper(bad), estimate_rows=False)
        return engine

    def test_error_surfaces_through_fetchmany_after_first_rows(self):
        engine = self._engine_with_failing_branch()
        engine.max_concurrent_requests = 1  # defer the bad fetch
        stream = engine.execute_stream(
            "SELECT g.a FROM g UNION ALL SELECT b.a FROM b"
        )
        assert stream.fetchmany(3) == [(1,), (2,), (3,)]
        with pytest.raises(SourceError, match="simulated source outage"):
            stream.fetchmany(1)
        assert stream.closed

    def test_failure_does_not_corrupt_cache_or_scheduler(self):
        engine = self._engine_with_failing_branch()
        engine.max_concurrent_requests = 1
        stream = engine.execute_stream(
            "SELECT g.a FROM g UNION ALL SELECT b.a FROM b"
        )
        stream.fetchmany(3)
        with pytest.raises(SourceError):
            stream.fetchmany(1)
        # The failing request was never cached; temporaries were released.
        assert engine.temp_store.handles == []
        # The engine keeps serving: the healthy branch alone still answers,
        # now from the (uncorrupted) source-result cache.
        result = engine.execute("SELECT g.a FROM g")
        assert list(result.relation.rows) == [(1,), (2,), (3,)]
        assert result.report.cache_hits == 1

    def test_eager_execute_still_fails_cleanly(self):
        engine = self._engine_with_failing_branch()
        with pytest.raises(SourceError):
            engine.execute("SELECT g.a FROM g UNION ALL SELECT b.a FROM b")
        assert engine.temp_store.handles == []


class TestFederationStreaming:
    def test_streamed_warm_path_keeps_cache_counters_at_zero(self):
        from repro.demo.datasets import PAPER_QUERY
        from repro.demo.scenarios import build_paper_federation

        federation = build_paper_federation().federation
        with federation.query(PAPER_QUERY, stream=True) as cursor:
            first_rows = cursor.fetchall()

        mediations_before = federation.mediator.statistics.snapshot()["queries_mediated"]
        plans_before = federation.engine.statistics.snapshot()["plans_built"]
        with federation.query(PAPER_QUERY, stream=True) as cursor:
            assert cursor.fetchall() == first_rows
        assert federation.mediator.statistics.snapshot()["queries_mediated"] == mediations_before
        assert federation.engine.statistics.snapshot()["plans_built"] == plans_before

    def test_cursor_metadata_matches_materialized_answer(self):
        from repro.demo.datasets import PAPER_QUERY
        from repro.demo.scenarios import build_paper_federation

        federation = build_paper_federation().federation
        answer = federation.query(PAPER_QUERY)
        cursor = federation.query(PAPER_QUERY, stream=True)
        assert cursor.mediated_sql == answer.mediated_sql
        assert [a.label() for a in cursor.annotations] == [
            a.label() for a in answer.annotations
        ]
        assert cursor.fetchall() == list(answer.relation.rows)

    def test_prepared_query_streams(self):
        from repro.demo.datasets import PAPER_QUERY
        from repro.demo.scenarios import build_paper_federation

        federation = build_paper_federation().federation
        prepared = federation.prepare(PAPER_QUERY)
        eager = prepared.execute()
        with prepared.execute(stream=True) as cursor:
            assert cursor.fetchall() == list(eager.relation.rows)
