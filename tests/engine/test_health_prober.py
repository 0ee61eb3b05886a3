"""Proactive health probing and per-source adaptive fetch timeouts.

The two PR-6 follow-through satellites: a background prober that drives
half-open breaker probes itself (recovery without sacrificing a receiver
query), and fetch timeouts derived from each wrapper's own rolling latency
history instead of the statement's one-size-fits-all deadline slice.
"""

import pytest

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.resilience import (
    HealthProber,
    ManualClock,
    ResiliencePolicy,
)
from repro.sources.faults import FaultInjectingSource, FaultSchedule
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


def _policy(clock, **overrides):
    options = dict(failure_threshold=2, cooldown_seconds=5.0, clock=clock)
    options.update(overrides)
    return ResiliencePolicy(**options)


class TestLatencyQuantile:
    def test_nearest_rank_over_the_rolling_window(self):
        policy = _policy(ManualClock().clock)
        health = policy.health.wrapper("w")
        for latency in (0.1, 0.2, 0.3, 0.4, 0.5):
            health.record_success(latency)
        assert health.sample_count() == 5
        assert health.latency_quantile(0.0) == pytest.approx(0.1)
        assert health.latency_quantile(0.5) == pytest.approx(0.3)
        assert health.latency_quantile(1.0) == pytest.approx(0.5)

    def test_empty_window_has_no_quantile(self):
        policy = _policy(ManualClock().clock)
        assert policy.health.wrapper("w").latency_quantile(0.95) is None

    def test_failures_do_not_pollute_the_latency_window(self):
        policy = _policy(ManualClock().clock)
        health = policy.health.wrapper("w")
        health.record_success(0.1)
        health.record_failure(99.0, RuntimeError("down"))
        assert health.sample_count() == 1
        assert health.latency_quantile(1.0) == pytest.approx(0.1)


class TestAdaptiveFetchTimeout:
    def test_cold_wrapper_stays_unbounded(self):
        policy = _policy(ManualClock().clock, adaptive_min_samples=8)
        health = policy.health.wrapper("w")
        for _ in range(7):
            health.record_success(0.1)
        assert policy.adaptive_fetch_timeout("w") is None  # below min samples
        health.record_success(0.1)
        assert policy.adaptive_fetch_timeout("w") is not None

    def test_timeout_is_quantile_times_headroom(self):
        policy = _policy(ManualClock().clock, adaptive_min_samples=4,
                         adaptive_quantile=1.0, adaptive_headroom=4.0)
        health = policy.health.wrapper("w")
        for latency in (0.1, 0.1, 0.1, 0.2):
            health.record_success(latency)
        assert policy.adaptive_fetch_timeout("w") == pytest.approx(0.8)

    def test_clamped_to_configured_bounds(self):
        policy = _policy(ManualClock().clock, adaptive_min_samples=1,
                         adaptive_min_seconds=0.05, adaptive_max_seconds=30.0)
        fast = policy.health.wrapper("fast")
        fast.record_success(0.0001)
        assert policy.adaptive_fetch_timeout("fast") == pytest.approx(0.05)
        slow = policy.health.wrapper("slow")
        slow.record_success(1000.0)
        assert policy.adaptive_fetch_timeout("slow") == pytest.approx(30.0)

    def test_disabled_policy_never_bounds(self):
        policy = _policy(ManualClock().clock, adaptive_timeouts=False,
                         adaptive_min_samples=1)
        policy.health.wrapper("w").record_success(0.1)
        assert policy.adaptive_fetch_timeout("w") is None

    def test_snapshot_reports_the_adaptive_timeout(self):
        policy = _policy(ManualClock().clock, adaptive_min_samples=1)
        policy.health.wrapper("w").record_success(0.1)
        entry = policy.snapshot()["sources"]["w"]
        assert entry["adaptive_fetch_timeout_seconds"] == pytest.approx(0.4)


class TestHealthProberUnit:
    def test_probe_closes_a_half_open_breaker(self):
        manual = ManualClock()
        policy = _policy(manual.clock)
        calls = []
        prober = HealthProber(policy, probes={"w": lambda: calls.append("probe")})

        breaker = policy.breaker("w")
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"

        assert prober.run_once() == {}  # open, not half-open: nothing to do
        assert calls == []

        manual.advance(5.0)  # cooldown elapses: half-open
        assert breaker.state == "half_open"
        assert prober.run_once() == {"w": True}
        assert calls == ["probe"]
        assert breaker.state == "closed"
        # The probe's latency primes the health window too.
        assert policy.health.wrapper("w").sample_count() == 1
        assert prober.probes_succeeded == 1

    def test_failed_probe_reopens_the_breaker(self):
        manual = ManualClock()
        policy = _policy(manual.clock)

        def dead_probe():
            raise RuntimeError("still down")

        prober = HealthProber(policy, probes={"w": dead_probe})
        breaker = policy.breaker("w")
        breaker.record_failure()
        breaker.record_failure()
        manual.advance(5.0)
        assert prober.run_once() == {"w": False}
        assert breaker.state == "open"  # failed probe restarts the cooldown
        assert prober.probes_failed == 1
        # Next cooldown, the source recovered: the prober rediscovers it.
        prober.register("w", lambda: "rows")
        manual.advance(5.0)
        assert prober.run_once() == {"w": True}
        assert breaker.state == "closed"

    def test_closed_breakers_are_never_probed(self):
        policy = _policy(ManualClock().clock)
        calls = []
        prober = HealthProber(policy, probes={"w": lambda: calls.append("probe")})
        assert prober.run_once() == {}
        assert calls == []

    def test_in_flight_statement_probe_is_not_doubled(self):
        manual = ManualClock()
        policy = _policy(manual.clock)
        calls = []
        prober = HealthProber(policy, probes={"w": lambda: calls.append("probe")})
        breaker = policy.breaker("w")
        breaker.record_failure()
        breaker.record_failure()
        manual.advance(5.0)
        # A statement already claimed the half-open probe slot.
        assert breaker.allow()
        assert prober.run_once() == {}
        assert calls == []

    def test_start_and_stop_background_thread(self):
        policy = _policy(ManualClock().clock)
        prober = HealthProber(policy, interval_seconds=0.01)
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
        breaker = policy.breaker("flaky")
        breaker.record_failure()
        breaker.record_failure()
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
