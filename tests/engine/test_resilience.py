"""The resilience layer: clocks, deadlines, retries, breakers, health.

Contract under test:

* deadlines are statement-wide: bounded remaining time, expiry raising
  :class:`DeadlineExceededError`, never negative remaining;
* error classification separates transient (source weather) from permanent
  (capability/spec) failures, with an explicit ``transient`` tag override;
* retry backoff schedules are pure functions of (seed, request, attempt) —
  identical across runs and thread interleavings;
* the per-wrapper :class:`SourceRecord`'s breaker walks closed → open →
  half-open → closed deterministically on an injected clock, admits exactly
  one half-open probe, and stays consistent under concurrent threads;
* ``ResiliencePolicy.run_fetch`` composes all of the above around a fetch
  callable and books every outcome in the wrapper's record and the
  statement's report.
"""

import sys
import threading

import pytest

from repro.engine.executor import ExecutionReport
from repro.engine.resilience import (
    Clock,
    Deadline,
    ManualClock,
    ResiliencePolicy,
    RetryPolicy,
    SourceRecord,
    classify_error,
    validate_on_source_error,
)
from repro.errors import (
    CapabilityError,
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    SourceError,
    SourceUnavailableError,
    WrapperError,
)


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert not deadline.bounded
        assert deadline.remaining() is None
        deadline.check("anything")  # no raise

    def test_bounded_expiry_on_manual_clock(self):
        manual = ManualClock()
        deadline = Deadline(5.0, manual.clock)
        assert deadline.bounded
        assert deadline.remaining() == pytest.approx(5.0)
        manual.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        deadline.check("still in budget")
        manual.advance(2.0)
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="5.0s exceeded while staging"):
            deadline.check("staging")

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ExecutionError, match="must be positive"):
            Deadline(0)
        with pytest.raises(ExecutionError, match="must be positive"):
            Deadline(-1.5)

    def test_deadline_error_is_never_partial_degradable(self):
        # Deadline expiry classifies as permanent: retrying can't help, and
        # the streaming path re-raises it instead of degrading the branch.
        assert classify_error(DeadlineExceededError("late")) == "permanent"


class TestClassification:
    @pytest.mark.parametrize("error,expected", [
        (SourceError("blip"), "transient"),
        (SourceUnavailableError("down"), "transient"),
        (CapabilityError("cannot aggregate"), "permanent"),
        (WrapperError("bad spec"), "permanent"),
        (CircuitOpenError("open"), "permanent"),
        (DeadlineExceededError("late"), "permanent"),
        (ValueError("not ours"), "permanent"),
    ])
    def test_class_based_rules(self, error, expected):
        assert classify_error(error) == expected

    def test_transient_tag_overrides_class(self):
        tagged = WrapperError("flaky extraction")
        tagged.transient = True
        assert classify_error(tagged) == "transient"
        permanent = SourceError("dead for good")
        permanent.transient = False
        assert classify_error(permanent) == "permanent"

    def test_validate_on_source_error(self):
        assert validate_on_source_error("fail") == "fail"
        assert validate_on_source_error("partial") == "partial"
        with pytest.raises(ExecutionError, match="unknown on_source_error"):
            validate_on_source_error("ignore")


class TestRetryPolicy:
    def test_backoff_is_deterministic_per_request_and_attempt(self):
        policy = RetryPolicy(seed=7)
        first = [policy.backoff_delay("SELECT 1", attempt) for attempt in (1, 2, 3)]
        second = [policy.backoff_delay("SELECT 1", attempt) for attempt in (1, 2, 3)]
        assert first == second
        # A different request draws a different jitter stream.
        assert policy.backoff_delay("SELECT 2", 1) != first[0]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_seconds=1.0, multiplier=2.0,
                             max_delay_seconds=3.0, jitter=0.0)
        assert policy.backoff_delay("q", 1) == 1.0
        assert policy.backoff_delay("q", 2) == 2.0
        assert policy.backoff_delay("q", 3) == 3.0  # capped
        assert policy.backoff_delay("q", 9) == 3.0

    def test_jitter_is_bounded(self):
        policy = RetryPolicy(base_delay_seconds=1.0, multiplier=1.0,
                             max_delay_seconds=1.0, jitter=0.25, seed=3)
        for attempt in range(1, 20):
            delay = policy.backoff_delay("q", attempt)
            assert 1.0 <= delay <= 1.25


DOWN = SourceUnavailableError("down")


class TestSourceRecordBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        manual = ManualClock()
        breaker = SourceRecord(failure_threshold=3, cooldown_seconds=10.0,
                               clock=manual.clock)
        assert breaker.state == "closed"
        assert not breaker.failed(DOWN)
        assert not breaker.failed(DOWN)
        assert breaker.failed(DOWN)  # third consecutive failure trips it
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.rejections == 1
        manual.advance(10.0)
        assert breaker.state == "half_open"

    def test_half_open_admits_one_probe(self):
        manual = ManualClock()
        breaker = SourceRecord(failure_threshold=1, cooldown_seconds=5.0,
                               clock=manual.clock)
        breaker.failed(DOWN)
        manual.advance(5.0)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # concurrent request rejected
        breaker.succeeded(0.1)
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        manual = ManualClock()
        breaker = SourceRecord(failure_threshold=1, cooldown_seconds=5.0,
                               clock=manual.clock)
        breaker.failed(DOWN)
        manual.advance(5.0)
        assert breaker.allow()
        assert breaker.failed(DOWN)  # probe failed: re-trip
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker = SourceRecord(failure_threshold=3, clock=ManualClock().clock)
        breaker.failed(DOWN)
        breaker.failed(DOWN)
        breaker.succeeded(0.1)
        breaker.failed(DOWN)
        breaker.failed(DOWN)
        assert breaker.state == "closed"  # never three in a row

    def test_concurrent_threads_observe_consistent_state_machine(self):
        manual = ManualClock()
        breaker = SourceRecord(failure_threshold=5, cooldown_seconds=30.0,
                               clock=manual.clock)
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(50):
                if breaker.allow():
                    breaker.failed(DOWN)
                    with lock:
                        outcomes.append("attempted")
                else:
                    with lock:
                        outcomes.append("rejected")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot, _ = breaker.snapshot()
        assert snapshot["state"] == "open"
        # Conservation: every call either attempted or was rejected, and the
        # books agree with the observed outcomes exactly.
        assert outcomes.count("rejected") == snapshot["rejections"]
        assert len(outcomes) == 8 * 50
        # At least one trip happened; failures beyond the first trip while
        # open are impossible because allow() rejects them.
        assert snapshot["trips"] >= 1

    def test_half_open_single_probe_under_concurrency(self):
        manual = ManualClock()
        breaker = SourceRecord(failure_threshold=1, cooldown_seconds=1.0,
                               clock=manual.clock)
        breaker.failed(DOWN)
        manual.advance(1.0)
        admitted = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            if breaker.allow():
                with lock:
                    admitted.append(threading.get_ident())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1


class TestSourceRecordHealth:
    def test_rolling_statistics(self):
        policy = ResiliencePolicy(clock=ManualClock().clock)
        health = policy.source("Db1")
        health.succeeded(0.1)
        health.failed(SourceError("blip"))
        health.retried()
        health.succeeded(0.1)
        snapshot = policy.snapshot()["sources"]["db1"]
        assert snapshot["successes"] == 2
        assert snapshot["failures"] == 1
        assert snapshot["retries"] == 1
        assert snapshot["failure_rate"] == pytest.approx(1 / 3)
        assert snapshot["mean_latency_seconds"] == pytest.approx(0.1)
        assert "blip" in snapshot["last_error"]

    def test_case_insensitive_identity(self):
        policy = ResiliencePolicy()
        assert policy.source("DB") is policy.source("db")

    def test_snapshot_reads_one_point_in_time(self):
        """A failure booked while a snapshot is being taken is either wholly
        in it or wholly out of it: the failure rate matches its counts, and
        the breaker and source entries agree."""
        health = SourceRecord(clock=ManualClock().clock)
        health.succeeded(0.1)

        class BookingLock:
            """Books one failure right after the lock is first released."""

            def __init__(self):
                self._lock = threading.Lock()
                self._booked = False

            def __enter__(self):
                self._lock.acquire()

            def __exit__(self, *exc_info):
                self._lock.release()
                if not self._booked:
                    self._booked = True
                    health.failed(SourceError("late"))

        health._lock = BookingLock()
        breaker, before = health.snapshot()
        assert (before["successes"], before["failures"]) == (1, 0)
        assert before["failure_rate"] == 0.0
        assert breaker["consecutive_failures"] == before["consecutive_failures"] == 0
        breaker, after = health.snapshot()
        assert (after["successes"], after["failures"]) == (1, 1)
        assert after["failure_rate"] == 0.5
        assert breaker["consecutive_failures"] == after["consecutive_failures"] == 1


def _policy(manual, **kwargs):
    kwargs.setdefault("retry_policy", RetryPolicy(max_attempts=3, jitter=0.0,
                                                  base_delay_seconds=0.5))
    return ResiliencePolicy(clock=manual.clock, **kwargs)


class TestRunFetch:
    def test_transient_failures_retried_to_success(self):
        manual = ManualClock()
        policy = _policy(manual)
        report = ExecutionReport()
        calls = []

        def fetch():
            calls.append(1)
            if len(calls) < 3:
                raise SourceUnavailableError("blip")
            return "answer"

        result, attempts = policy.run_fetch(
            "db", "SELECT 1", fetch, Deadline.unbounded(manual.clock), report)
        assert result == "answer"
        assert attempts == 3
        assert report.attempts == 3 and report.retries == 2
        assert report.failed_requests == 0
        # Backoff slept the deterministic schedule.
        assert manual.sleeps == [0.5, 1.0]

    def test_permanent_failure_not_retried(self):
        manual = ManualClock()
        policy = _policy(manual)
        report = ExecutionReport()

        def fetch():
            raise CapabilityError("cannot aggregate")

        with pytest.raises(CapabilityError):
            policy.run_fetch("db", "q", fetch,
                             Deadline.unbounded(manual.clock), report)
        assert report.attempts == 1 and report.retries == 0
        assert report.failed_requests == 1
        assert manual.sleeps == []

    def test_retry_budget_exhausted_raises_last_error(self):
        manual = ManualClock()
        policy = _policy(manual)
        report = ExecutionReport()

        def fetch():
            raise SourceUnavailableError("still down")

        with pytest.raises(SourceUnavailableError, match="still down"):
            policy.run_fetch("db", "q", fetch,
                             Deadline.unbounded(manual.clock), report)
        assert report.attempts == 3
        assert report.retries == 2
        assert report.failed_requests == 1

    def test_backoff_never_overruns_deadline(self):
        manual = ManualClock()
        policy = _policy(manual)
        report = ExecutionReport()
        deadline = Deadline(0.3, manual.clock)  # smaller than the 0.5s backoff

        def fetch():
            raise SourceUnavailableError("blip")

        with pytest.raises(DeadlineExceededError, match="no room to retry"):
            policy.run_fetch("db", "q", fetch, deadline, report)
        assert report.attempts == 1
        assert report.failed_requests == 1
        assert manual.sleeps == []  # it refused to sleep past the deadline

    def test_breaker_rejects_fast_after_trip(self):
        manual = ManualClock()
        policy = _policy(manual, failure_threshold=2, cooldown_seconds=60.0,
                         retry_policy=RetryPolicy(max_attempts=1))
        report = ExecutionReport()

        def fetch():
            raise SourceUnavailableError("down")

        for _ in range(2):
            with pytest.raises(SourceUnavailableError):
                policy.run_fetch("db", "q", fetch,
                                 Deadline.unbounded(manual.clock), report)
        assert report.breaker_trips == 1
        with pytest.raises(CircuitOpenError, match="circuit-broken"):
            policy.run_fetch("db", "q", fetch,
                             Deadline.unbounded(manual.clock), report)
        assert report.breaker_rejections == 1
        snapshot = policy.snapshot()
        assert snapshot["breakers"]["db"]["state"] == "open"
        assert snapshot["sources"]["db"]["rejections"] == 1

    def test_failure_that_trips_the_breaker_ends_the_retry_loop(self):
        """The tripping failure is the fetch's last attempt: no backoff for an
        attempt the open circuit would refuse, no retry or rejection booked,
        and the source's own error is raised, not ``CircuitOpenError``."""
        manual = ManualClock()
        policy = _policy(manual, failure_threshold=1,
                         retry_policy=RetryPolicy(max_attempts=3))
        report = ExecutionReport()

        def fetch():
            raise SourceUnavailableError("down")

        with pytest.raises(SourceUnavailableError, match="down") as raised:
            policy.run_fetch("db", "q", fetch, Deadline.unbounded(manual.clock),
                             report)
        assert not isinstance(raised.value, CircuitOpenError)
        assert manual.sleeps == []
        assert report.attempts == 1
        assert report.retries == 0
        assert report.breaker_trips == 1
        assert report.breaker_rejections == 0
        assert report.failed_requests == 1
        snapshot = policy.snapshot()
        assert snapshot["breakers"]["db"]["state"] == "open"
        assert snapshot["breakers"]["db"]["rejections"] == 0
        assert snapshot["sources"]["db"]["retries"] == 0
        assert snapshot["sources"]["db"]["rejections"] == 0
        assert snapshot["sources"]["db"]["failures"] == 1

    def test_concurrent_fetches_lose_no_count(self):
        """Fetch workers count into one report under its lock: with threads
        switching as often as possible, no attempt or retry is lost."""
        manual = ManualClock()
        policy = _policy(manual, failure_threshold=10_000)
        report = ExecutionReport()
        per_thread, threads_count = 50, 8

        def worker(index):
            for number in range(per_thread):
                calls = []

                def fetch():
                    calls.append(1)
                    if len(calls) < 2:
                        raise SourceUnavailableError("blip")
                    return "ok"

                policy.run_fetch("db", f"q{index}.{number}", fetch,
                                 Deadline.unbounded(manual.clock), report)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        fetches = per_thread * threads_count
        assert report.attempts == 2 * fetches
        assert report.retries == fetches
        assert report.failed_requests == 0

    def test_record_books_failures_retries_and_the_success(self):
        """A fetch that fails once and succeeds on its retry is booked on the
        record only: one failure, one retry, and one success carrying the
        successful attempt's latency."""
        manual = ManualClock()
        policy = _policy(manual)
        report = ExecutionReport()
        calls = []

        def fetch():
            calls.append(1)
            if len(calls) < 2:
                raise SourceUnavailableError("blip")
            manual.advance(0.2)
            return ["row"] * 4

        policy.run_fetch("db", "q", fetch, Deadline.unbounded(manual.clock), report)
        snapshot = policy.snapshot()["sources"]["db"]
        assert (snapshot["failures"], snapshot["retries"], snapshot["successes"],
                snapshot["latency_samples"]) == (1, 1, 1, 1)
        assert snapshot["mean_latency_seconds"] == pytest.approx(0.2)


class TestBreakerAndHealthAgree:
    """The ``breakers`` and ``sources`` blocks of a snapshot are two views of
    one record per wrapper: their shared counts cannot disagree."""

    def test_failed_half_open_probe_counts_every_failure(self):
        manual = ManualClock()
        policy = _policy(manual, failure_threshold=2, cooldown_seconds=5.0,
                         retry_policy=RetryPolicy(max_attempts=1))

        def fetch():
            raise SourceUnavailableError("down")

        def failed_fetch():
            with pytest.raises(SourceUnavailableError):
                policy.run_fetch("w", "q", fetch,
                                 Deadline.unbounded(manual.clock),
                                 ExecutionReport())

        failed_fetch()
        failed_fetch()
        manual.advance(5.0)
        failed_fetch()  # the half-open probe fails too
        snapshot = policy.snapshot()
        assert snapshot["breakers"]["w"]["state"] == "open"
        # Every failed round trip since the last success, in both blocks.
        assert snapshot["breakers"]["w"]["consecutive_failures"] == 3
        assert snapshot["sources"]["w"]["consecutive_failures"] == 3
