"""Chaos suite: the engine under deterministic fault injection.

The acceptance contract of the resilience layer, end to end:

* transient source failures are retried to **byte-identical** answers — the
  same rows, in the same order, as the fault-free run;
* a permanently dead source fails the statement in ``fail`` mode, and in
  ``partial`` mode degrades it: the surviving branches answer, and every
  dropped branch is recorded in the report's ``resilience`` block;
* ``timeout_seconds`` fires within tolerance on a hung source, in the eager
  *and* the streaming path, and the fetches it abandons never slow another
  statement on the same engine;
* failed or partially-transferred fetches are never banked into the
  source-result cache (no poisoned answers after recovery);
* repeated failures trip the per-wrapper breaker, and the tripped breaker
  rejects follow-up statements fast.

Every schedule is seeded: reruns replay identical fault patterns.
"""

import threading
import time

import pytest

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.executor import DEFAULT_MAX_CONCURRENT_REQUESTS
from repro.engine.request_cache import SourceResultCache
from repro.engine.resilience import ResiliencePolicy, RetryPolicy
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    SourceError,
    SourceUnavailableError,
)
from repro.sources.base import SourceCapabilities
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper
from tests.engine.test_feedback import BIND_QUERY, _bind_engine

pytestmark = pytest.mark.chaos

#: Three single-source branches: each can degrade independently.
UNION_QUERY = (
    "SELECT s1.k, s1.v1 AS v FROM s1 WHERE s1.k < 30"
    " UNION SELECT s2.k, s2.v2 AS v FROM s2 WHERE s2.k < 20"
    " UNION SELECT s3.k, s3.v3 AS v FROM s3 WHERE s3.k < 10"
)

#: Fast deterministic retries for tests (no jitterless wall-clock stalls).
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay_seconds=0.001,
                           max_delay_seconds=0.01, jitter=0.25, seed=42)


def _wrapper(index):
    source = MemorySQLSource(f"src{index}",
                             capabilities=SourceCapabilities.scan_only())
    values = ", ".join(f"({key}, {float(key * index)})" for key in range(40))
    source.load_sql(
        f"CREATE TABLE s{index} (k integer, v{index} float)",
        f"INSERT INTO s{index} VALUES {values}",
    )
    return RelationalWrapper(source)


def _engine(schedules=None, cache=False, **policy_kwargs):
    """Three scan-only sources, each optionally behind a fault injector."""
    policy_kwargs.setdefault("retry_policy", FAST_RETRIES)
    engine = MultiDatabaseEngine(
        request_cache=SourceResultCache(capacity=32) if cache else None,
        resilience=ResiliencePolicy(**policy_kwargs),
    )
    flaky = {}
    for index in (1, 2, 3):
        wrapper = _wrapper(index)
        schedule = (schedules or {}).get(index)
        if schedule is not None:
            wrapper = FaultInjectingSource(wrapper, schedule)
            flaky[index] = wrapper
        engine.register_wrapper(wrapper, estimate_rows=False)
    return engine, flaky


class _HangingWrapper(RelationalWrapper):
    """A wrapper whose round trips hang for a fixed (real) duration, or
    until ``release`` is set; ``threads`` names the thread of each call."""

    def __init__(self, source, hang_seconds):
        super().__init__(source)
        self.hang_seconds = hang_seconds
        self.release = threading.Event()
        self.threads = []

    def fetch(self, relation):
        self.threads.append(threading.current_thread().name)
        self.release.wait(self.hang_seconds)
        return super().fetch(relation)

    def query(self, statement):
        self.threads.append(threading.current_thread().name)
        self.release.wait(self.hang_seconds)
        return super().query(statement)


class TestRetryToIdenticalAnswers:
    def test_transient_failures_retried_to_byte_identical_rows(self):
        clean_engine, _ = _engine()
        expected = list(clean_engine.execute(UNION_QUERY).relation.rows)
        assert expected

        flaky_engine, flaky = _engine(schedules={
            1: FaultSchedule(fail_first=2),
            2: FaultSchedule(fail_first=1),
        })
        result = flaky_engine.execute(UNION_QUERY)
        assert list(result.relation.rows) == expected

        resilience = result.report.snapshot()["resilience"]
        assert resilience["retries"] == 3
        assert resilience["failed_requests"] == 0
        assert resilience["degraded_branches"] == []
        assert flaky[1].snapshot()["injected_failures"] == 2
        # The engine's aggregate statistics folded the retries in.
        assert flaky_engine.statistics.snapshot()["source_retries"] == 3

    def test_fault_schedules_replay_identically(self):
        runs = []
        for _ in range(2):
            engine, _ = _engine(schedules={
                1: FaultSchedule(failure_rate=0.4, seed=9),
            })
            try:
                result = engine.execute(UNION_QUERY)
                runs.append(("ok", list(result.relation.rows)))
            except SourceError as error:
                runs.append(("error", str(error)))
        assert runs[0] == runs[1]

    def test_source_health_reflects_the_weather(self):
        engine, _ = _engine(schedules={1: FaultSchedule(fail_first=1)})
        engine.execute(UNION_QUERY)
        health = engine.source_health()["sources"]["src1"]
        assert health["failures"] == 1
        assert health["retries"] == 1
        assert health["successes"] >= 1
        assert "injected fault" in health["last_error"]


class TestPartialAnswers:
    def test_fail_mode_propagates_permanent_outage(self):
        engine, _ = _engine(schedules={
            3: FaultSchedule(permanent_outage_after=1),
        })
        with pytest.raises(SourceUnavailableError, match="permanently out"):
            engine.execute(UNION_QUERY)
        # No retries: the outage is tagged permanent.
        snapshot = engine.statistics.snapshot()
        assert snapshot["source_retries"] == 0
        assert snapshot["failed_requests"] == 1

    def test_partial_mode_answers_from_surviving_branches(self):
        clean_engine, _ = _engine()
        survivors = list(clean_engine.execute(
            "SELECT s1.k, s1.v1 AS v FROM s1 WHERE s1.k < 30"
            " UNION SELECT s2.k, s2.v2 AS v FROM s2 WHERE s2.k < 20"
        ).relation.rows)

        engine, _ = _engine(schedules={
            3: FaultSchedule(permanent_outage_after=1),
        })
        result = engine.execute(UNION_QUERY, on_source_error="partial")
        assert sorted(result.relation.rows) == sorted(survivors)

        resilience = result.report.snapshot()["resilience"]
        assert resilience["mode"] == "partial"
        [degraded] = resilience["degraded_branches"]
        assert degraded["wrapper"] == "src3"
        assert "permanently out" in degraded["error"]
        assert engine.statistics.snapshot()["degraded_branches"] == 1

    def test_partial_mode_streaming_flows_past_dead_branch(self):
        engine, _ = _engine(schedules={
            2: FaultSchedule(permanent_outage_after=1),
        })
        stream = engine.execute_stream(UNION_QUERY, on_source_error="partial")
        rows = stream.fetchall()
        assert rows  # branches 1 and 3 answered
        [degraded] = stream.report.snapshot()["resilience"]["degraded_branches"]
        assert degraded["wrapper"] == "src2"

    @pytest.mark.parametrize("streamed", (False, True), ids=("eager", "streamed"))
    @pytest.mark.parametrize("dead", (1, 2, 3))
    def test_a_partial_answer_is_named_by_the_first_planned_branch(self, dead, streamed):
        # The first branch's select list names the answer, whichever
        # branches live to type it: a consumer reading columns by name must
        # not see them change with the weather.
        branches = {
            1: "SELECT s1.k AS key1, s1.v1 AS first FROM s1 WHERE s1.k < 30",
            2: "SELECT s2.k, s2.v2 FROM s2 WHERE s2.k < 20",
            3: "SELECT s3.k, s3.v3 FROM s3 WHERE s3.k < 10",
        }
        clean_engine, _ = _engine()
        healthy = clean_engine.execute(" UNION ".join(branches.values()))
        assert healthy.relation.schema.names == ["key1", "first"]
        alive = [index for index in branches if index != dead]
        survivors = clean_engine.execute(
            " UNION ".join(branches[index] for index in alive))

        engine, _ = _engine(schedules={dead: FaultSchedule(permanent_outage_after=1)})
        query = " UNION ".join(branches.values())
        if streamed:
            stream = engine.execute_stream(query, on_source_error="partial")
            schema = stream.schema  # asked before the first row, as a cursor header is
            rows, report = stream.fetchall(), stream.report
        else:
            result = engine.execute(query, on_source_error="partial")
            schema, rows, report = (result.relation.schema,
                                    list(result.relation.rows), result.report)
        assert schema == healthy.relation.schema
        assert rows == list(survivors.relation.rows)
        assert report.branch_rows == survivors.report.branch_rows
        [degraded] = report.snapshot()["resilience"]["degraded_branches"]
        assert (degraded["branch"], degraded["wrapper"]) == (dead - 1, f"src{dead}")
        assert "permanently out" in degraded["error"]
        assert sorted({entry.branch for entry in report.requests}) == [
            index - 1 for index in alive]

    def test_one_branch_statement_with_its_source_dead_is_an_error(self):
        engine, _ = _engine(schedules={1: FaultSchedule(permanent_outage_after=1)})
        with pytest.raises(ExecutionError, match="no surviving branch"):
            engine.execute("SELECT s1.k FROM s1", on_source_error="partial")
        assert engine.temp_store.handles == []

    def test_all_branches_dead_is_an_error_not_an_empty_answer(self):
        engine, _ = _engine(schedules={
            1: FaultSchedule(permanent_outage_after=1),
            2: FaultSchedule(permanent_outage_after=1),
            3: FaultSchedule(permanent_outage_after=1),
        })
        with pytest.raises(ExecutionError, match="no surviving branch"):
            engine.execute(UNION_QUERY, on_source_error="partial")

    def test_degradation_is_never_silent_in_fail_mode(self):
        engine, _ = _engine(schedules={
            3: FaultSchedule(permanent_outage_after=1),
        })
        with pytest.raises(SourceError):
            engine.execute(UNION_QUERY)  # default on_source_error="fail"


class TestDeadlines:
    HANG = 2.0
    TIMEOUT = 0.25
    #: Generous scheduling tolerance: the deadline must fire well before the
    #: hung fetch would have completed.
    TOLERANCE = 1.2

    def _hanging_engine(self):
        engine = MultiDatabaseEngine(
            resilience=ResiliencePolicy(retry_policy=FAST_RETRIES),
        )
        source = MemorySQLSource("slow", capabilities=SourceCapabilities.scan_only())
        source.load_sql("CREATE TABLE t (a integer)", "INSERT INTO t VALUES (1), (2)")
        engine.register_wrapper(_HangingWrapper(source, self.HANG),
                                estimate_rows=False)
        return engine

    def test_timeout_fires_on_hung_source_eager(self):
        engine = self._hanging_engine()
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="deadline"):
            engine.execute("SELECT t.a FROM t", timeout_seconds=self.TIMEOUT)
        elapsed = time.perf_counter() - started
        assert elapsed < self.TOLERANCE, (
            f"deadline took {elapsed:.2f}s to fire (timeout {self.TIMEOUT}s)"
        )

    def test_timeout_fires_on_hung_source_streaming(self):
        engine = self._hanging_engine()
        stream = engine.execute_stream("SELECT t.a FROM t",
                                       timeout_seconds=self.TIMEOUT)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="deadline"):
            stream.fetchall()
        elapsed = time.perf_counter() - started
        assert elapsed < self.TOLERANCE
        stream.close()
        assert engine.temp_store.handles == []

    def test_deadline_is_statement_wide_not_per_fetch(self):
        # Two hung fetches in one statement share one budget: the statement
        # still dies once, near the single timeout, not after 2x.
        engine = self._hanging_engine()
        source = MemorySQLSource("slow2", capabilities=SourceCapabilities.scan_only())
        source.load_sql("CREATE TABLE u (a integer)", "INSERT INTO u VALUES (3)")
        engine.register_wrapper(_HangingWrapper(source, self.HANG),
                                estimate_rows=False)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            engine.execute("SELECT t.a FROM t UNION SELECT u.a FROM u",
                           timeout_seconds=self.TIMEOUT)
        assert time.perf_counter() - started < self.TOLERANCE

    def test_report_records_remaining_budget(self):
        engine, _ = _engine()
        result = engine.execute(UNION_QUERY, timeout_seconds=30.0)
        remaining = result.report.snapshot()["resilience"]["deadline_remaining_seconds"]
        assert remaining is not None and 0 < remaining <= 30.0

    def test_expiry_is_never_downgraded_to_partial(self):
        engine = self._hanging_engine()
        with pytest.raises(DeadlineExceededError):
            engine.execute("SELECT t.a FROM t", timeout_seconds=self.TIMEOUT,
                           on_source_error="partial")


class TestNoWaitInsideAWrapperCall:
    """A bounded statement waits on its fetches' futures, where the deadline
    fires: no wrapper call runs on the consumer's thread, whatever the lane
    cap or the fetch's route into the fetch stage."""

    HANG = 1.5
    TIMEOUT = 0.3
    BOUND = 0.5

    def _expires_in_time(self, engine, statement, hanging):
        started = time.perf_counter()
        try:
            with pytest.raises(DeadlineExceededError, match="deadline"):
                engine.execute(statement, timeout_seconds=self.TIMEOUT)
            elapsed = time.perf_counter() - started
        finally:
            hanging.release.set()
        assert elapsed < self.BOUND, f"deadline fired after {elapsed:.2f}s"
        assert hanging.threads and all(
            name.startswith("source-fetch") for name in hanging.threads), hanging.threads

    def test_a_single_lane_statement(self):
        engine = MultiDatabaseEngine(max_concurrent_requests=1)
        source = MemorySQLSource("slow")
        source.load_sql("CREATE TABLE t (a integer)", "INSERT INTO t VALUES (1), (2)")
        wrapper = _HangingWrapper(source, self.HANG)
        engine.register_wrapper(wrapper, estimate_rows=False)
        self._expires_in_time(engine, "SELECT t.a FROM t", wrapper)

    def test_bind_batches_behind_a_cached_driver(self):
        engine = _bind_engine(cache=True)
        engine.execute(BIND_QUERY)  # cold: feedback enables binding
        plan = engine.plan(BIND_QUERY)
        assert any(request.bind is not None for request in plan.branches[0].requests)
        engine.execute(plan)
        engine.execute(plan)
        engine.request_cache.invalidate(relation="o")  # the driver stays cached
        _driver, orders = engine._test_sources
        hanging = _HangingWrapper(orders, self.HANG)
        ord_wrapper = engine.catalog.wrappers.get("ord")
        ord_wrapper.query = hanging.query
        self._expires_in_time(engine, plan, hanging)


class TestHungSourceIsolation:
    """An engine's statements share its fetch workers: one stuck in a hung
    wrapper must never make another statement's fetch wait."""

    HANG = 60.0  # released when the test ends
    TIMEOUT = 0.05
    #: Abandoned fetches, each leaving a worker stuck in the hung wrapper:
    #: more than any fixed worker count sized from the cap would absorb.
    HUNG_STATEMENTS = 3 * DEFAULT_MAX_CONCURRENT_REQUESTS

    def test_a_hung_source_does_not_slow_another_statement(self):
        engine, _ = _engine()
        source = MemorySQLSource("slow", capabilities=SourceCapabilities.scan_only())
        source.load_sql("CREATE TABLE t (a integer)", "INSERT INTO t VALUES (1)")
        hanging = _HangingWrapper(source, self.HANG)
        engine.register_wrapper(hanging, estimate_rows=False)
        expected = list(engine.execute(UNION_QUERY).relation.rows)
        started = time.perf_counter()
        engine.execute(UNION_QUERY)
        normal = time.perf_counter() - started
        try:
            for _ in range(self.HUNG_STATEMENTS):
                with pytest.raises(DeadlineExceededError):
                    engine.execute("SELECT t.a FROM t", timeout_seconds=self.TIMEOUT)
            started = time.perf_counter()
            result = engine.execute(UNION_QUERY, timeout_seconds=10.0)
            elapsed = time.perf_counter() - started
        finally:
            hanging.release.set()
        assert list(result.relation.rows) == expected
        assert elapsed < normal + 0.5, (
            f"{elapsed:.3f}s behind {self.HUNG_STATEMENTS} hung fetches "
            f"(normal {normal:.3f}s)"
        )


class TestCacheNeverPoisoned:
    def test_failed_fetch_not_banked(self):
        engine, _ = _engine(cache=True, schedules={
            1: FaultSchedule(permanent_outage_after=1),
        })
        with pytest.raises(SourceError):
            engine.execute("SELECT s1.k FROM s1")
        assert len(engine.request_cache) == 0

    def test_mid_transfer_cut_not_banked_and_recovery_refetches(self):
        # Every access in the first statement is cut after the rows were
        # computed — the partial transfer must not be banked, and the second
        # statement (faults over) must hit the source again, not the cache.
        engine, flaky = _engine(cache=True, schedules={
            1: FaultSchedule(fail_first=3),  # == max_attempts: statement 1 dies
        })
        with pytest.raises(SourceError):
            engine.execute("SELECT s1.k FROM s1")
        assert len(engine.request_cache) == 0

        result = engine.execute("SELECT s1.k FROM s1")
        assert len(result.relation) == 40
        assert result.report.cache_hits == 0
        assert flaky[1].snapshot()["accesses"] == 4  # 3 failed + 1 real
        # Now the healthy result is banked and the repeat is served warm.
        repeat = engine.execute("SELECT s1.k FROM s1")
        assert repeat.report.cache_hits == 1
        assert flaky[1].snapshot()["accesses"] == 4

    def test_cut_after_rows_transferred_is_still_an_error(self):
        engine, flaky = _engine(cache=True, schedules={
            2: FaultSchedule(cut_every=1),
        })
        with pytest.raises(SourceError, match="cut after"):
            engine.execute("SELECT s2.k FROM s2")
        assert flaky[2].snapshot()["injected_cuts"] >= 1
        assert len(engine.request_cache) == 0


class TestBreakerAcrossStatements:
    def test_repeated_failures_trip_and_reject_fast(self):
        engine, _ = _engine(
            schedules={1: FaultSchedule(permanent_outage_after=1)},
            retry_policy=RetryPolicy(max_attempts=1),
            failure_threshold=2, cooldown_seconds=600.0,
        )
        for _ in range(2):
            with pytest.raises(SourceUnavailableError):
                engine.execute("SELECT s1.k FROM s1")
        assert engine.source_health()["breakers"]["src1"]["state"] == "open"

        # The third statement is rejected without a round trip.
        with pytest.raises(CircuitOpenError):
            engine.execute("SELECT s1.k FROM s1")
        assert engine.statistics.snapshot()["breaker_rejections"] == 1
        # Other sources are unaffected by src1's breaker.
        assert len(engine.execute("SELECT s2.k FROM s2").relation) == 40

    def test_tripped_breaker_with_partial_mode_degrades_fast(self):
        engine, flaky = _engine(
            schedules={3: FaultSchedule(permanent_outage_after=1)},
            retry_policy=RetryPolicy(max_attempts=1),
            failure_threshold=1, cooldown_seconds=600.0,
        )
        first = engine.execute(UNION_QUERY, on_source_error="partial")
        assert len(first.report.degraded_branches) == 1
        accesses_after_trip = flaky[3].snapshot()["accesses"]

        second = engine.execute(UNION_QUERY, on_source_error="partial")
        [degraded] = second.report.snapshot()["resilience"]["degraded_branches"]
        assert "circuit-broken" in degraded["error"]
        # The dead source was not even asked: the breaker rejected fast.
        assert flaky[3].snapshot()["accesses"] == accesses_after_trip
