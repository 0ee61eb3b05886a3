"""Proactive health probing and per-source adaptive fetch timeouts.

The two PR-6 follow-through satellites: a background prober that drives
half-open breaker probes itself (recovery without sacrificing a receiver
query), and fetch timeouts derived from each wrapper's own rolling latency
history instead of the statement's one-size-fits-all deadline slice.
"""

import pytest

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.executor import ExecutionReport
from repro.engine.resilience import (
    ADAPTIVE_MAX_SECONDS,
    ADAPTIVE_MIN_SAMPLES,
    ADAPTIVE_MIN_SECONDS,
    Deadline,
    HealthProber,
    ManualClock,
    ResiliencePolicy,
    RetryPolicy,
    latency_quantile,
)
from repro.errors import SourceUnavailableError
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper

DOWN = SourceUnavailableError("down")


def _policy(clock, **overrides):
    options = dict(failure_threshold=2, cooldown_seconds=5.0, clock=clock)
    options.update(overrides)
    return ResiliencePolicy(**options)


def _samples(policy, name):
    return policy.snapshot()["sources"][name]["latency_samples"]


class _Served:
    """A served wrapper as the prober sees it: one relation, and a fetch
    that is recorded and fails while ``error`` is set."""

    def __init__(self, name="w", error=None):
        self.name = name
        self.error = error
        self.fetches = []

    def relation_names(self):
        return ["t"]

    def fetch(self, relation):
        self.fetches.append(relation)
        if self.error is not None:
            raise self.error
        return ["row"]


def _record_fetches(wrapper, label, calls):
    """Record ``(label, relation)`` in ``calls`` on each of ``wrapper``'s fetches."""
    fetch = wrapper.fetch

    def recorded(relation):
        calls.append((label, relation))
        return fetch(relation)

    wrapper.fetch = recorded


class TestLatencyQuantile:
    def test_nearest_rank_over_the_rolling_window(self):
        policy = _policy(ManualClock().clock)
        record = policy.source("w")
        for latency in (0.1, 0.2, 0.3, 0.4, 0.5):
            record.succeeded(latency)
        assert _samples(policy, "w") == 5
        ordered = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert latency_quantile(ordered, 0.0) == pytest.approx(0.1)
        assert latency_quantile(ordered, 0.5) == pytest.approx(0.3)
        assert latency_quantile(ordered, 1.0) == pytest.approx(0.5)
        assert policy.snapshot()["sources"]["w"]["p95_latency_seconds"] == (
            pytest.approx(0.5))

    def test_empty_window_has_no_quantile(self):
        policy = _policy(ManualClock().clock)
        policy.source("w")
        assert latency_quantile([], 0.95) is None
        assert policy.snapshot()["sources"]["w"]["p95_latency_seconds"] is None

    def test_failures_do_not_pollute_the_latency_window(self):
        policy = _policy(ManualClock().clock)
        record = policy.source("w")
        record.succeeded(0.1)
        record.failed(RuntimeError("down"))
        assert _samples(policy, "w") == 1
        assert policy.snapshot()["sources"]["w"]["p95_latency_seconds"] == (
            pytest.approx(0.1))


class TestAdaptiveFetchTimeout:
    def test_cold_wrapper_stays_unbounded(self):
        policy = _policy(ManualClock().clock)
        record = policy.source("w")
        for _ in range(ADAPTIVE_MIN_SAMPLES - 1):
            record.succeeded(0.1)
        assert record.fetch_timeout() is None  # below min samples
        record.succeeded(0.1)
        assert record.fetch_timeout() is not None

    def test_timeout_is_quantile_times_headroom(self):
        policy = _policy(ManualClock().clock)
        record = policy.source("w")
        for latency in [0.1] * (ADAPTIVE_MIN_SAMPLES - 1) + [0.2]:
            record.succeeded(latency)
        # The 0.95 nearest rank of eight samples is the largest, times 4.
        assert record.fetch_timeout() == pytest.approx(0.8)

    def test_clamped_to_configured_bounds(self):
        policy = _policy(ManualClock().clock)
        fast = policy.source("fast")
        slow = policy.source("slow")
        for _ in range(ADAPTIVE_MIN_SAMPLES):
            fast.succeeded(ADAPTIVE_MIN_SECONDS / 4 / 100)
            slow.succeeded(ADAPTIVE_MAX_SECONDS / 4 * 100)
        assert fast.fetch_timeout() == pytest.approx(ADAPTIVE_MIN_SECONDS)
        assert slow.fetch_timeout() == pytest.approx(ADAPTIVE_MAX_SECONDS)

    def test_snapshot_reports_the_adaptive_timeout(self):
        policy = _policy(ManualClock().clock)
        record = policy.source("w")
        for _ in range(ADAPTIVE_MIN_SAMPLES):
            record.succeeded(0.1)
        entry = policy.snapshot()["sources"]["w"]
        assert entry["adaptive_fetch_timeout_seconds"] == pytest.approx(0.4)


class TestHealthProberUnit:
    def test_probe_closes_a_half_open_breaker(self):
        manual = ManualClock()
        policy = _policy(manual.clock)
        served = _Served()
        prober = HealthProber(policy, [served])

        breaker = policy.source("w")
        breaker.failed(DOWN)
        breaker.failed(DOWN)
        assert breaker.state == "open"

        assert prober.run_once() == {}  # open, not half-open: nothing to do
        assert served.fetches == []

        manual.advance(5.0)  # cooldown elapses: half-open
        assert breaker.state == "half_open"
        assert prober.run_once() == {"w": True}
        assert served.fetches == ["t"]
        assert breaker.state == "closed"
        # The probe's latency primes the health window too.
        assert _samples(policy, "w") == 1
        assert prober.probes_succeeded == 1

    def test_failed_probe_reopens_the_breaker(self):
        manual = ManualClock()
        policy = _policy(manual.clock)
        served = _Served(error=RuntimeError("still down"))
        prober = HealthProber(policy, [served])
        breaker = policy.source("w")
        breaker.failed(DOWN)
        breaker.failed(DOWN)
        manual.advance(5.0)
        assert prober.run_once() == {"w": False}
        assert breaker.state == "open"  # failed probe restarts the cooldown
        assert prober.probes_failed == 1
        # Next cooldown, the source recovered: the prober rediscovers it.
        served.error = None
        manual.advance(5.0)
        assert prober.run_once() == {"w": True}
        assert breaker.state == "closed"

    def test_closed_breakers_are_never_probed(self):
        policy = _policy(ManualClock().clock)
        served = _Served()
        prober = HealthProber(policy, [served])
        assert prober.run_once() == {}
        assert served.fetches == []

    def test_in_flight_statement_probe_is_not_doubled(self):
        manual = ManualClock()
        policy = _policy(manual.clock)
        served = _Served()
        prober = HealthProber(policy, [served])
        breaker = policy.source("w")
        breaker.failed(DOWN)
        breaker.failed(DOWN)
        manual.advance(5.0)
        # A statement already claimed the half-open probe slot.
        assert breaker.allow()
        assert prober.run_once() == {}
        assert served.fetches == []

    def test_refused_probe_claim_is_not_a_rejection(self):
        """The prober skipping a wrapper whose half-open probe a statement
        holds refuses no request: neither block books a rejection."""
        manual = ManualClock()
        policy = _policy(manual.clock, retry_policy=RetryPolicy(max_attempts=1))
        served = _Served()
        prober = HealthProber(policy, [served])

        def dead():
            raise SourceUnavailableError("down")

        for _ in range(2):
            with pytest.raises(SourceUnavailableError):
                policy.run_fetch("w", "q", dead,
                                 Deadline.unbounded(manual.clock),
                                 ExecutionReport())
        manual.advance(5.0)
        seen = []

        def probe_while_in_flight():
            # The statement's own probe is in flight while the prober runs.
            seen.append(prober.run_once())
            return "rows"

        policy.run_fetch("w", "q", probe_while_in_flight,
                         Deadline.unbounded(manual.clock), ExecutionReport())
        assert seen == [{}]
        assert served.fetches == []
        snapshot = policy.snapshot()
        assert snapshot["breakers"]["w"]["rejections"] == 0
        assert snapshot["sources"]["w"]["rejections"] == 0

    def test_unfetched_wrapper_is_listed_in_both_blocks(self):
        policy = _policy(ManualClock().clock)
        prober = HealthProber(policy, [_Served("cold")])
        assert prober.run_once() == {}
        snapshot = policy.snapshot()
        assert list(snapshot["breakers"]) == list(snapshot["sources"]) == ["cold"]

    def test_start_and_stop_background_thread(self):
        policy = _policy(ManualClock().clock)
        prober = HealthProber(policy, [], interval_seconds=0.01)
        prober.start()
        assert prober.running
        prober.start()  # idempotent
        prober.stop()
        assert not prober.running
        snapshot = prober.snapshot()
        assert snapshot["running"] is False


class TestEngineProberIntegration:
    def test_engine_built_prober_recovers_a_faulted_source(self):
        manual = ManualClock()
        source = MemorySQLSource("flaky")
        source.load_sql(
            "CREATE TABLE t (k integer)",
            "INSERT INTO t VALUES (1), (2)",
        )
        # The first probe attempt still fails; the second finds it recovered.
        wrapper = FaultInjectingSource(
            RelationalWrapper(source), FaultSchedule(fail_first=1),
        )
        engine = MultiDatabaseEngine(
            resilience=_policy(manual.clock),
        )
        engine.register_wrapper(wrapper, estimate_rows=False)

        prober = engine.build_health_prober(interval_seconds=0.5)
        policy = engine.resilience
        breaker = policy.source("flaky")
        breaker.failed(DOWN)
        breaker.failed(DOWN)
        assert breaker.state == "open"

        manual.advance(5.0)
        assert prober.run_once() == {"flaky": False}  # fail_first consumes
        manual.advance(5.0)
        assert prober.run_once() == {"flaky": True}
        assert breaker.state == "closed"
        # The next statement runs against a known-good source: no sacrifice.
        result = engine.execute("SELECT t.k FROM t")
        assert len(result.relation.rows) == 2

    def test_federation_exposes_a_prober(self):
        from repro.demo.scenarios import build_paper_federation

        federation = build_paper_federation().federation
        prober = federation.health_prober(interval_seconds=2.0)
        assert prober.interval_seconds == 2.0
        assert prober.run_once() == {}  # everything healthy: nothing half-open
        snapshot = prober.snapshot()
        assert snapshot["probes_attempted"] == 0


class TestProberFollowsTheCatalog:
    """The prober probes the wrappers the catalog serves when it runs, and
    every round trip is booked once, on the serving wrapper's record."""

    def test_prober_built_before_a_replacement_probes_the_replacement(self):
        from repro.demo.scenarios import build_exchange_wrapper, build_paper_federation

        federation = build_paper_federation().federation
        engine = federation.engine
        prober = federation.health_prober()
        calls = []
        _record_fetches(engine.catalog.wrappers.get("exchange"), "replaced", calls)
        replacement = build_exchange_wrapper()
        _record_fetches(replacement, "replacement", calls)
        federation.register_wrapper(replacement, estimate_rows=False)

        # A zero cooldown makes the new record half-open once it trips.
        engine.resilience.cooldown_seconds = 0.0
        record = engine.resilience.source("exchange")
        for _ in range(record.failure_threshold):
            record.failed(DOWN)
        assert record.state == "half_open"

        assert prober.run_once() == {"exchange": True}
        assert calls == [("replacement", "r3")]
        assert record.state == "closed"
        assert engine.resilience.source("exchange") is record
        health = engine.source_health()["sources"]["exchange"]
        assert (health["successes"], health["latency_samples"]) == (1, 1)

    def test_one_transient_failure_and_retry_are_booked_once(self):
        source = MemorySQLSource("flaky")
        source.load_sql("CREATE TABLE t (k integer)", "INSERT INTO t VALUES (1), (2)")
        engine = MultiDatabaseEngine(resilience=ResiliencePolicy(
            retry_policy=RetryPolicy(base_delay_seconds=0.0)))
        engine.register_wrapper(FaultInjectingSource(
            RelationalWrapper(source), FaultSchedule(fail_first=1)), estimate_rows=False)

        assert len(engine.execute("SELECT t.k FROM t").relation.rows) == 2
        health = engine.source_health()["sources"]["flaky"]
        assert (health["failures"], health["retries"], health["successes"]) == (1, 1, 1)
        # The source keeps no second count of the same round trips.
        assert set(source.statistics.snapshot()) == {
            "queries", "rows_returned", "pages_fetched"}
