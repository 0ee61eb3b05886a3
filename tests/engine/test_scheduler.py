"""Tests for the federated request scheduler: dedup, concurrency, caching.

The scheduler collapses the source requests of all UNION branches into
distinct round trips, dispatches them concurrently, and (optionally) serves
repeats from the source-result cache.  These tests pin the contract: answers
and reports stay deterministic and byte-identical to serial execution, round
trips match distinct (wrapper, request) pairs, per-branch local filters
survive deduplication, and stale cache entries die on invalidation.
"""

import time

import pytest

from repro.demo.datasets import PAPER_QUERY
from repro.demo.scenarios import build_paper_federation
from repro.engine.engine import MultiDatabaseEngine
from repro.engine.plan import QueryPlan
from repro.engine.request_cache import SourceResultCache
from repro.errors import ExecutionError
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource
from repro.sql.parser import parse
from repro.wrappers.wrapper import RelationalWrapper

UNION_OVER_ONE_RELATION = (
    "SELECT t.a FROM t WHERE t.b = 'x' UNION SELECT t.a FROM t WHERE t.b = 'y'"
)


def _scan_only_source(name: str = "dup") -> MemorySQLSource:
    source = MemorySQLSource(name, capabilities=SourceCapabilities.scan_only())
    source.load_sql(
        "CREATE TABLE t (a integer, b varchar)",
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')",
    )
    return source


def _engine_over(source: MemorySQLSource, **kwargs) -> MultiDatabaseEngine:
    engine = MultiDatabaseEngine(**kwargs)
    engine.register_wrapper(RelationalWrapper(source), estimate_rows=False)
    return engine


class _SleepyWrapper(RelationalWrapper):
    """A wrapper whose fetches cost real wall-clock time."""

    def __init__(self, source, latency: float):
        super().__init__(source)
        self.latency = latency

    def fetch(self, relation):
        time.sleep(self.latency)
        return super().fetch(relation)

    def query(self, statement):
        time.sleep(self.latency)
        return super().query(statement)


def _latency_engine(latencies, **kwargs) -> MultiDatabaseEngine:
    """One scan-only relation ``s{i}`` per latency, joined by column ``k``."""
    engine = MultiDatabaseEngine(**kwargs)
    for index, latency in enumerate(latencies, start=1):
        source = MemorySQLSource(f"lat{index}",
                                 capabilities=SourceCapabilities.scan_only())
        values = ", ".join(f"({key}, {key * index})" for key in range(6))
        source.load_sql(
            f"CREATE TABLE s{index} (k integer, v{index} integer)",
            f"INSERT INTO s{index} VALUES {values}",
        )
        engine.register_wrapper(_SleepyWrapper(source, latency), estimate_rows=False)
    return engine


def _latency_query(branches: int, sources: int) -> str:
    tables = ", ".join(f"s{index}" for index in range(1, sources + 1))
    joins = " AND ".join(f"s{index}.k = s{index + 1}.k" for index in range(1, sources))
    return " UNION ".join(
        f"SELECT s1.k FROM {tables} WHERE {joins} AND s1.v1 > {branch}"
        for branch in range(branches)
    )


class TestZeroBranchGuard:
    def test_empty_plan_raises_execution_error(self):
        engine = MultiDatabaseEngine()
        plan = QueryPlan(statement=parse("SELECT t.a FROM t"), branches=[])
        with pytest.raises(ExecutionError, match="no branches"):
            engine.execute(plan)


class TestDeduplication:
    def test_identical_branch_requests_share_one_round_trip(self):
        source = _scan_only_source()
        engine = _engine_over(source)
        result = engine.execute(UNION_OVER_ONE_RELATION)

        # Both branches FETCH t — one actual source access.
        assert source.statistics.queries == 1
        report = result.report
        assert report.distinct_requests == 1
        assert report.dedup_hits == 1
        assert report.source_round_trips == 1
        assert len(report.requests) == 2
        assert [entry.dedup_hit for entry in report.requests] == [False, True]
        assert sorted(result.relation.rows) == [(1,), (2,), (3,)]

    def test_dedup_preserves_per_branch_local_filters(self):
        source = _scan_only_source()
        result = _engine_over(source).execute(UNION_OVER_ONE_RELATION)
        # Branch 0 keeps b='x' (2 rows), branch 1 keeps b='y' (1 row), even
        # though both were served from the same fetched relation.
        assert result.report.branch_rows == [2, 1]
        by_branch = {entry.branch: entry for entry in result.report.requests}
        assert by_branch[0].rows_after_local_filters == 2
        assert by_branch[1].rows_after_local_filters == 1
        assert by_branch[0].rows_returned == by_branch[1].rows_returned == 3

    def test_different_pushdowns_are_not_deduplicated(self):
        source = MemorySQLSource("push")
        source.load_sql(
            "CREATE TABLE t (a integer, b varchar)",
            "INSERT INTO t VALUES (1, 'x'), (2, 'y')",
        )
        engine = _engine_over(source)
        result = engine.execute(UNION_OVER_ONE_RELATION)
        # Full-SQL source: each branch pushes a different WHERE down.
        assert result.report.distinct_requests == 2
        assert result.report.dedup_hits == 0

    def test_estimates_updated_once_per_distinct_request(self):
        source = _scan_only_source()
        engine = _engine_over(source)
        updates = []
        original = engine.catalog.update_estimate
        engine.catalog.update_estimate = lambda relation, rows: (
            updates.append((relation, rows)), original(relation, rows))[-1]
        engine.execute(UNION_OVER_ONE_RELATION)
        # One update for the one distinct request — branch fan-out must not
        # feed the same cardinality into the estimate twice.
        assert updates == [("t", 3)]

    def test_baseline_mode_disables_dedup(self):
        source = _scan_only_source()
        engine = _engine_over(source, deduplicate_requests=False,
                              max_concurrent_requests=1)
        result = engine.execute(UNION_OVER_ONE_RELATION)
        assert source.statistics.queries == 2
        assert result.report.dedup_hits == 0
        assert result.report.distinct_requests == 2


class TestConcurrentDispatch:
    LATENCIES = (0.05, 0.002, 0.02)

    def test_concurrent_wall_clock_beats_serial(self):
        query = _latency_query(branches=2, sources=3)
        serial = _latency_engine(self.LATENCIES, deduplicate_requests=False,
                                 max_concurrent_requests=1)
        concurrent = _latency_engine(self.LATENCIES)

        started = time.perf_counter()
        serial_result = serial.execute(query)
        serial_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        concurrent_result = concurrent.execute(query)
        concurrent_elapsed = time.perf_counter() - started

        assert list(concurrent_result.relation.rows) == list(serial_result.relation.rows)
        # 6 serial round trips vs 3 concurrent ones: the margin is wide
        # enough (>= 2x in theory ~4x) that this cannot flake on wall clock.
        assert concurrent_elapsed < serial_elapsed
        assert concurrent_result.report.max_in_flight > 1

    def test_results_and_report_order_ignore_completion_order(self):
        # Latencies are chosen so fetches complete in reverse plan order;
        # answers and the report must still follow plan order.
        query = _latency_query(branches=2, sources=3)
        reference = None
        for _ in range(3):
            engine = _latency_engine(self.LATENCIES)
            result = engine.execute(query)
            ordering = [(entry.branch, entry.binding) for entry in result.report.requests]
            assert ordering == sorted(ordering)
            rows = list(result.relation.rows)
            if reference is None:
                reference = rows
            assert rows == reference


class TestLatencyAwareDispatch:
    """Published per-wrapper latency profiles reorder pool submissions so the
    expected-slowest fetch (the statement's long pole) is submitted first."""

    def _seed_profile(self, engine, wrapper_name, fetch_seconds, rows=5):
        for _ in range(3):  # MIN_LATENCY_SAMPLES successes publish it
            engine.resilience.source(wrapper_name).succeeded(fetch_seconds, rows)

    def test_cold_catalog_keeps_plan_order(self):
        engine = _latency_engine((0.0, 0.0, 0.0))
        report = engine.execute(_latency_query(branches=1, sources=3)).report
        assert report.dispatch_policy == "plan"
        assert report.dispatch_order == ["s1", "s2", "s3"]

    def test_slowest_profile_is_submitted_first(self):
        engine = _latency_engine((0.0, 0.0, 0.0))
        self._seed_profile(engine, "lat1", 0.001)
        self._seed_profile(engine, "lat2", 0.010)
        self._seed_profile(engine, "lat3", 0.200)
        report = engine.execute(_latency_query(branches=1, sources=3)).report
        assert report.dispatch_policy == "latency"
        assert report.dispatch_order == ["s3", "s2", "s1"]
        snapshot = report.snapshot()["scheduler"]
        assert snapshot["dispatch_order"] == ["s3", "s2", "s1"]
        assert snapshot["dispatch_policy"] == "latency"

    def test_unprofiled_wrappers_keep_plan_order_behind_profiled(self):
        engine = _latency_engine((0.0, 0.0, 0.0))
        self._seed_profile(engine, "lat2", 0.050)
        report = engine.execute(_latency_query(branches=1, sources=3)).report
        assert report.dispatch_policy == "latency"
        assert report.dispatch_order == ["s2", "s1", "s3"]

    def test_reorder_does_not_change_answers_or_report_order(self):
        query = _latency_query(branches=2, sources=3)
        latencies = (0.03, 0.001, 0.01)
        baseline = _latency_engine(latencies)
        expected = list(baseline.execute(query).relation.rows)

        engine = _latency_engine(latencies)
        self._seed_profile(engine, "lat1", 0.030)
        self._seed_profile(engine, "lat3", 0.010)
        result = engine.execute(query)
        assert list(result.relation.rows) == expected
        ordering = [(entry.branch, entry.binding) for entry in result.report.requests]
        assert ordering == sorted(ordering)


class TestSourceResultCache:
    def test_repeat_statements_skip_round_trips(self):
        source = _scan_only_source()
        engine = _engine_over(source, request_cache=SourceResultCache(capacity=8))
        first = engine.execute("SELECT t.a FROM t")
        assert first.report.cache_hits == 0
        queries_after_first = source.statistics.queries

        second = engine.execute("SELECT t.a FROM t")
        assert second.report.cache_hits == 1
        assert second.report.source_round_trips == 0
        assert source.statistics.queries == queries_after_first
        assert list(second.relation.rows) == list(first.relation.rows)

    def test_rows_transferred_counts_only_real_round_trips(self):
        source = _scan_only_source()
        engine = _engine_over(source, request_cache=SourceResultCache(capacity=8))
        # Two branches dedup to one 3-row fetch: 3 rows crossed the wire.
        first = engine.execute(UNION_OVER_ONE_RELATION)
        assert first.report.rows_transferred == 3
        # A cache-warm repeat ships nothing.
        second = engine.execute(UNION_OVER_ONE_RELATION)
        assert second.report.rows_transferred == 0

    def test_invalidation_restores_freshness_after_data_change(self):
        source = _scan_only_source()
        engine = _engine_over(source, request_cache=SourceResultCache(capacity=8))
        assert len(engine.execute("SELECT t.a FROM t").relation) == 3

        source.database.table("t").append((4, "z"))
        # The cache cannot observe the autonomous source's update: stale.
        assert len(engine.execute("SELECT t.a FROM t").relation) == 3

        assert engine.invalidate_source_cache(relation="t") == 1
        assert len(engine.execute("SELECT t.a FROM t").relation) == 4

    def test_reregistering_a_wrapper_invalidates_its_entries(self):
        source = _scan_only_source()
        cache = SourceResultCache(capacity=8)
        engine = _engine_over(source, request_cache=cache)
        engine.execute("SELECT t.a FROM t")
        assert len(cache) == 1

        replacement = MemorySQLSource("dup2",
                                      capabilities=SourceCapabilities.scan_only())
        replacement.load_sql("CREATE TABLE u (a integer)", "INSERT INTO u VALUES (9)")
        engine.register_wrapper(RelationalWrapper(replacement, name="dup"),
                                estimate_rows=False)
        # Same wrapper name re-registered: its cached results are dropped.
        assert len(cache) == 0

    def test_web_wrapper_invalidate_reaches_the_engine_cache(self):
        # WebWrapper.invalidate's contract is "the site changed, re-crawl";
        # the engine-level request cache must not keep serving old rows.
        scenario = build_paper_federation()
        federation = scenario.federation
        federation.query(PAPER_QUERY)
        exchange_entries = [
            key for key in federation.request_cache._entries if key.wrapper == "exchange"
        ]
        assert exchange_entries

        scenario.exchange_wrapper.invalidate()
        assert all(
            key.wrapper != "exchange" for key in federation.request_cache._entries
        )
        # The next query re-fetches (and re-crawls) instead of hitting stale rows.
        report = federation.query(PAPER_QUERY).execution.report
        refetched = [entry for entry in report.requests
                     if entry.wrapper_name == "exchange" and not entry.dedup_hit]
        assert refetched and not refetched[0].cache_hit

    def test_engine_cache_is_off_by_default(self):
        source = _scan_only_source()
        engine = _engine_over(source)
        assert engine.request_cache is None
        engine.execute("SELECT t.a FROM t")
        engine.execute("SELECT t.a FROM t")
        assert source.statistics.queries == 2

    def test_wrapper_does_not_pin_dead_engines(self):
        import gc
        import weakref

        source = _scan_only_source()
        wrapper = RelationalWrapper(source)
        engine = MultiDatabaseEngine(request_cache=SourceResultCache(capacity=8))
        engine.register_wrapper(wrapper, estimate_rows=False)
        engine_ref = weakref.ref(engine)
        del engine
        gc.collect()
        assert engine_ref() is None
        # Notifying prunes the dead engine's listener instead of erroring.
        wrapper.notify_invalidated()
        assert wrapper._invalidation_listeners == []


class TestFederationWiring:
    def test_repeated_receiver_queries_hit_the_cache(self):
        federation = build_paper_federation().federation
        assert federation.request_cache is not None

        first = federation.query(PAPER_QUERY)
        second = federation.query(PAPER_QUERY)
        report = second.execution.report
        assert report.cache_hits == report.distinct_requests
        assert report.source_round_trips == 0
        assert list(second.relation.rows) == list(first.relation.rows)

        stats = federation.statistics()
        assert stats["request_cache"]["hits"] >= report.cache_hits
        assert stats["engine"]["cache_hits"] >= report.cache_hits
        assert federation.invalidate_source_cache() >= 1

    def test_scheduled_answers_match_the_serial_baseline(self):
        # The mediated paper query under dedup + concurrency + cache must be
        # byte-identical to the pre-scheduler serial execution (this is what
        # keeps the mediation bench's answers_sha256 stable).
        scenario = build_paper_federation()
        mediated = scenario.federation.mediate_only(PAPER_QUERY).mediated

        serial = MultiDatabaseEngine(deduplicate_requests=False,
                                     max_concurrent_requests=1)
        for wrapper in scenario.federation.engine.catalog.wrappers:
            serial.register_wrapper(wrapper, estimate_rows=False)

        serial_rows = list(serial.execute(mediated).relation.rows)
        for _ in range(2):  # second pass exercises the warm cache too
            concurrent_rows = list(
                scenario.federation.engine.execute(mediated).relation.rows
            )
            assert concurrent_rows == serial_rows
