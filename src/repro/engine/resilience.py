"""Fault tolerance for federated execution: retries, breakers, deadlines.

The paper's mediator queries autonomous sources — on-line databases and web
sites that slow down, flake and vanish without notice.  This module is the
resilience layer the scheduler threads every distinct source round trip
through:

* :class:`RetryPolicy` — classifies :class:`~repro.errors.SourceError` /
  :class:`~repro.errors.WrapperError` failures into *transient* (worth
  retrying: simulated network blips, sources briefly unavailable) and
  *permanent* (capability mismatches, malformed wrapper specs — retrying
  cannot help), and spaces retries with exponential backoff whose jitter is
  **deterministically seeded** per (request, attempt): fault-injection tests
  and benchmarks replay byte-identical schedules regardless of thread
  interleaving.
* :class:`CircuitBreaker` — one per wrapper, closed → open after a run of
  consecutive failures, open → half-open after a cooldown, half-open →
  closed on a successful probe.  An open circuit rejects requests *fast*:
  a dead source costs nothing per statement instead of a full retry budget.
* :class:`Deadline` — a per-statement time bound propagated from
  ``Federation.query(..., timeout_seconds=...)`` through fetch waits, retry
  backoff sleeps and streaming finalization.  Expiry raises
  :class:`~repro.errors.DeadlineExceededError` and is never downgraded to a
  partial answer.
* :class:`SourceHealth` / :class:`HealthRegistry` — rolling
  success/failure/latency statistics per wrapper, surfaced through the
  engine's statistics façade so operators can see which sources are rotten
  before receivers complain.

Everything time-related goes through an injectable :class:`Clock`
(``now``/``sleep``), so breaker transitions and backoff schedules are testable
with a :class:`ManualClock` — no wall-clock sleeps, no flaky timing tests.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    CapabilityError,
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    SourceError,
    WrapperError,
)

if TYPE_CHECKING:
    from repro.engine.executor import ExecutionReport

#: Valid values of the ``on_source_error`` execution option.
ON_SOURCE_ERROR_MODES = ("fail", "partial")


def validate_on_source_error(mode: str) -> str:
    if mode not in ON_SOURCE_ERROR_MODES:
        raise ExecutionError(
            f"unknown on_source_error mode {mode!r}; "
            f"expected one of {', '.join(ON_SOURCE_ERROR_MODES)}"
        )
    return mode


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clock:
    """The two time primitives the resilience layer uses, injectable."""

    now: Callable[[], float]
    sleep: Callable[[float], None]


SYSTEM_CLOCK = Clock(now=time.monotonic, sleep=time.sleep)


class ManualClock:
    """A deterministic test clock: ``sleep`` advances time instead of waiting.

    Thread-safe; records every sleep so tests can assert exact backoff
    schedules.  Use ``manual_clock.clock`` wherever a :class:`Clock` is
    expected.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._lock = threading.Lock()
        self.sleeps: List[float] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append(seconds)
            self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += max(0.0, seconds)

    @property
    def clock(self) -> Clock:
        return Clock(now=self.now, sleep=self.sleep)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class Deadline:
    """A statement-wide time bound (``timeout_seconds=None`` = unbounded).

    One deadline is created per statement and handed to every fetch wait,
    retry sleep and row pull, so a statement's total wall clock — not each
    individual wait — is what the receiver bounded.
    """

    __slots__ = ("timeout_seconds", "_expires_at", "_clock")

    def __init__(self, timeout_seconds: Optional[float],
                 clock: Clock = SYSTEM_CLOCK):
        if timeout_seconds is not None:
            timeout_seconds = float(timeout_seconds)
            if timeout_seconds <= 0:
                raise ExecutionError(
                    f"timeout_seconds must be positive, got {timeout_seconds}"
                )
        self.timeout_seconds = timeout_seconds
        self._clock = clock
        self._expires_at = (
            clock.now() + timeout_seconds if timeout_seconds is not None else None
        )

    @classmethod
    def unbounded(cls, clock: Clock = SYSTEM_CLOCK) -> "Deadline":
        return cls(None, clock)

    @property
    def bounded(self) -> bool:
        return self._expires_at is not None

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or None when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock.now())

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self._clock.now() >= self._expires_at

    def check(self, context: str) -> None:
        """Raise :class:`DeadlineExceededError` when the deadline has passed."""
        if self.expired:
            raise DeadlineExceededError(
                f"statement deadline of {self.timeout_seconds}s exceeded "
                f"while {context}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.bounded:
            return "<Deadline unbounded>"
        return f"<Deadline {self.timeout_seconds}s, {self.remaining():.3f}s left>"


# ---------------------------------------------------------------------------
# Error classification and retry policy
# ---------------------------------------------------------------------------


def classify_error(error: BaseException) -> str:
    """``"transient"`` (retry may help) or ``"permanent"`` (it cannot).

    An explicit boolean ``transient`` attribute on the exception overrides
    the class-based rules — fault harnesses and exotic wrappers can tag
    their failures directly.
    """
    override = getattr(error, "transient", None)
    if isinstance(override, bool):
        return "transient" if override else "permanent"
    if isinstance(error, (CircuitOpenError, DeadlineExceededError)):
        return "permanent"
    if isinstance(error, CapabilityError):
        # The source cannot evaluate the request; asking again changes nothing.
        return "permanent"
    if isinstance(error, SourceError):
        # Unavailability and generic source failures model network weather.
        return "transient"
    if isinstance(error, WrapperError):
        # Spec/extraction problems are deterministic: same page, same failure.
        return "permanent"
    return "permanent"


@dataclass(frozen=True)
class RetryPolicy:
    """How transient source failures are retried.

    ``backoff_delay`` grows exponentially and is jittered by a PRNG seeded
    from ``(seed, request_text, attempt)`` — the schedule is a pure function
    of the request, independent of thread scheduling, so chaos tests and the
    resilience benchmark replay identically.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.02
    multiplier: float = 2.0
    max_delay_seconds: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def is_transient(self, error: BaseException) -> bool:
        return classify_error(error) == "transient"

    def backoff_delay(self, request_text: str, attempt: int) -> float:
        """Delay before retrying ``attempt`` (1-based count of failures so far)."""
        delay = min(
            self.base_delay_seconds * (self.multiplier ** max(0, attempt - 1)),
            self.max_delay_seconds,
        )
        if self.jitter > 0:
            rng = random.Random(f"{self.seed}|{request_text}|{attempt}")
            delay *= 1.0 + self.jitter * rng.random()
        return delay


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Per-wrapper closed → open → half-open failure gate.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — requests are rejected instantly (no round trip, no
      retries) until ``cooldown_seconds`` elapse.
    * **half-open** — one probe request is let through at a time; success
      closes the breaker, failure re-opens it (and restarts the cooldown).

    All transitions are lock-guarded and driven by the injected clock, so
    concurrent fetch threads observe a consistent state machine and tests
    can walk it deterministically.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_seconds: float = 30.0,
                 clock: Clock = SYSTEM_CLOCK):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: Closed/half-open → open transitions over the breaker's lifetime.
        self.trips = 0
        #: Requests rejected without a round trip while open.
        self.rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        """State after applying cooldown expiry (callers hold the lock)."""
        if self._state == "open" and (
            self._clock.now() - self._opened_at >= self.cooldown_seconds
        ):
            self._state = "half_open"
            self._probe_in_flight = False
        return self._state

    def allow(self) -> bool:
        """May a request proceed right now?  (Counts rejections.)"""
        with self._lock:
            state = self._effective_state()
            if state == "closed":
                return True
            if state == "half_open" and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != "closed":
                self._state = "closed"

    def record_failure(self) -> bool:
        """Record one failed round trip; True when this call tripped it open."""
        with self._lock:
            state = self._effective_state()
            self._probe_in_flight = False
            if state == "half_open":
                self._state = "open"
                self._opened_at = self._clock.now()
                self._consecutive_failures = self.failure_threshold
                self.trips += 1
                return True
            self._consecutive_failures += 1
            if state == "closed" and self._consecutive_failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._clock.now()
                self.trips += 1
                return True
            return False

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "trips": self.trips,
                "rejections": self.rejections,
            }


# ---------------------------------------------------------------------------
# Source health
# ---------------------------------------------------------------------------

#: Rolling-latency window per wrapper.
HEALTH_WINDOW = 32


class SourceHealth:
    """Rolling success/failure/latency statistics of one wrapper."""

    def __init__(self, wrapper_name: str):
        self.wrapper_name = wrapper_name
        self._lock = threading.Lock()
        self.successes = 0
        self.failures = 0
        self.retries = 0
        self.rejections = 0
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self._recent_latencies: Deque[float] = deque(maxlen=HEALTH_WINDOW)
        self.total_latency_seconds = 0.0

    def record_success(self, latency_seconds: float) -> None:
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            self._recent_latencies.append(latency_seconds)
            self.total_latency_seconds += latency_seconds

    def record_failure(self, latency_seconds: float, error: BaseException) -> None:
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1
            self.last_error = f"{type(error).__name__}: {error}"
            self.total_latency_seconds += latency_seconds

    def record_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.rejections += 1

    def sample_count(self) -> int:
        """Number of latency samples currently in the rolling window."""
        with self._lock:
            return len(self._recent_latencies)

    def latency_quantile(self, quantile: float) -> Optional[float]:
        """The ``quantile`` (0..1) of the rolling latency window, or None.

        Nearest-rank over the (at most ``HEALTH_WINDOW``) recent successful
        round trips — the signal the adaptive fetch timeout is fed from.
        """
        with self._lock:
            recent = sorted(self._recent_latencies)
        if not recent:
            return None
        quantile = min(1.0, max(0.0, quantile))
        index = min(len(recent) - 1, int(round(quantile * (len(recent) - 1))))
        return recent[index]

    def snapshot(self) -> Dict[str, object]:
        # One critical section: the failure rate is computed from the very
        # counts the snapshot reports.
        with self._lock:
            attempts = self.successes + self.failures
            recent = list(self._recent_latencies)
            p95 = None
            if recent:
                ordered = sorted(recent)
                p95 = ordered[min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))]
            return {
                "successes": self.successes,
                "failures": self.failures,
                "retries": self.retries,
                "rejections": self.rejections,
                "consecutive_failures": self.consecutive_failures,
                "failure_rate": round(self.failures / attempts, 6) if attempts else 0.0,
                "mean_latency_seconds": (
                    round(sum(recent) / len(recent), 6) if recent else 0.0
                ),
                "p95_latency_seconds": round(p95, 6) if p95 is not None else None,
                "latency_samples": len(recent),
                "last_error": self.last_error,
            }


class HealthRegistry:
    """Lock-guarded map wrapper-name → :class:`SourceHealth`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, SourceHealth] = {}

    def wrapper(self, name: str) -> SourceHealth:
        key = name.lower()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = SourceHealth(name)
            return entry

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            entries = dict(self._entries)
        return {name: entry.snapshot() for name, entry in sorted(entries.items())}


# ---------------------------------------------------------------------------
# The policy bundle the engine owns
# ---------------------------------------------------------------------------


class ResiliencePolicy:
    """Retry policy + per-wrapper breakers + health registry, as one unit.

    Owned by a :class:`~repro.engine.engine.MultiDatabaseEngine` and shared
    across its statements and scans, so breaker state and health statistics
    persist where they are useful: a wrapper that killed the last five
    statements is rejected fast by the sixth.
    """

    def __init__(self, retry_policy: Optional[RetryPolicy] = None,
                 failure_threshold: int = 5, cooldown_seconds: float = 30.0,
                 clock: Clock = SYSTEM_CLOCK,
                 adaptive_timeouts: bool = True,
                 adaptive_quantile: float = 0.95,
                 adaptive_headroom: float = 4.0,
                 adaptive_min_samples: int = 8,
                 adaptive_min_seconds: float = 0.05,
                 adaptive_max_seconds: float = 30.0):
        self.retry_policy = retry_policy or RetryPolicy()
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock
        #: Per-source adaptive fetch timeouts: a wrapper whose rolling-window
        #: p95 latency is known gets its own wait bound (p95 × headroom,
        #: clamped) instead of the statement's one-size-fits-all deadline
        #: slice.  ``adaptive_min_samples`` keeps cold wrappers unbounded.
        self.adaptive_timeouts = adaptive_timeouts
        self.adaptive_quantile = adaptive_quantile
        self.adaptive_headroom = adaptive_headroom
        self.adaptive_min_samples = adaptive_min_samples
        self.adaptive_min_seconds = adaptive_min_seconds
        self.adaptive_max_seconds = adaptive_max_seconds
        self.health = HealthRegistry()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def deadline(self, timeout_seconds: Optional[float]) -> Deadline:
        """A fresh statement deadline on this policy's clock."""
        return Deadline(timeout_seconds, self.clock)

    def breaker(self, wrapper_name: str) -> CircuitBreaker:
        key = wrapper_name.lower()
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    cooldown_seconds=self.cooldown_seconds,
                    clock=self.clock,
                )
            return breaker

    def run_fetch(self, wrapper_name: str, request_text: str,
                  fetch: Callable[[], object], deadline: Deadline,
                  report: ExecutionReport,
                  source_statistics=None, span=None) -> Tuple[object, int]:
        """One guarded source round trip: breaker + retries + deadline.

        Returns ``(result, attempts)``.  Raises the final classified error
        (or :class:`DeadlineExceededError` / :class:`CircuitOpenError`);
        health, breaker and the statement ``report``'s counters (under its
        lock) are updated either way.  When a (recording) fetch ``span`` is
        passed, every attempt becomes one child span annotated with the
        breaker state it observed, so a trace's attempt spans reconcile
        exactly with the report's ``attempts`` counter.
        """
        breaker = self.breaker(wrapper_name)
        health = self.health.wrapper(wrapper_name)
        policy = self.retry_policy
        attempt = 0
        while True:
            deadline.check(f"fetching {request_text} from wrapper {wrapper_name!r}")
            if not breaker.allow():
                if span is not None:
                    span.event("breaker_rejection", wrapper=wrapper_name,
                               breaker_state=breaker.state)
                health.record_rejection()
                with report.lock:
                    report.breaker_rejections += 1
                raise CircuitOpenError(
                    f"wrapper {wrapper_name!r} is circuit-broken after repeated "
                    f"failures; retrying after cooldown "
                    f"({breaker.cooldown_seconds}s)"
                )
            attempt += 1
            with report.lock:
                report.attempts += 1
            attempt_span = None
            if span is not None:
                attempt_span = span.child(
                    "attempt", attempt=attempt, wrapper=wrapper_name,
                    breaker_state=breaker.state,
                )
            started = self.clock.now()
            try:
                result = fetch()
            except Exception as error:
                latency = self.clock.now() - started
                tripped = breaker.record_failure()
                if tripped:
                    with report.lock:
                        report.breaker_trips += 1
                if attempt_span is not None:
                    if tripped:
                        attempt_span.event("breaker_trip", wrapper=wrapper_name)
                    attempt_span.finish(error=error)
                health.record_failure(latency, error)
                if source_statistics is not None:
                    source_statistics.add(failures=1)
                if not policy.is_transient(error) or attempt >= policy.max_attempts:
                    with report.lock:
                        report.failed_requests += 1
                    raise
                delay = policy.backoff_delay(request_text, attempt)
                remaining = deadline.remaining()
                if remaining is not None and delay >= remaining:
                    with report.lock:
                        report.failed_requests += 1
                    raise DeadlineExceededError(
                        f"statement deadline of {deadline.timeout_seconds}s "
                        f"leaves no room to retry {request_text} on wrapper "
                        f"{wrapper_name!r} (attempt {attempt} failed: {error})"
                    ) from error
                with report.lock:
                    report.retries += 1
                health.record_retry()
                if source_statistics is not None:
                    source_statistics.add(retries=1)
                self.clock.sleep(delay)
                continue
            if attempt_span is not None:
                attempt_span.finish()
            breaker.record_success()
            health.record_success(self.clock.now() - started)
            return result, attempt

    def adaptive_fetch_timeout(self, wrapper_name: str) -> Optional[float]:
        """This wrapper's earned wait bound, or None (no bound yet).

        ``None`` until the rolling health window holds at least
        ``adaptive_min_samples`` successful latencies — a cold or rarely-used
        wrapper keeps the statement-deadline-only behaviour.  Afterwards the
        bound is ``quantile × headroom`` clamped to
        ``[adaptive_min_seconds, adaptive_max_seconds]``: a healthy source
        that suddenly stalls is cut loose quickly, a habitually slow one is
        given the latitude its own history justifies.
        """
        if not self.adaptive_timeouts:
            return None
        health = self.health.wrapper(wrapper_name)
        if health.sample_count() < self.adaptive_min_samples:
            return None
        latency = health.latency_quantile(self.adaptive_quantile)
        if latency is None:
            return None
        return min(self.adaptive_max_seconds,
                   max(self.adaptive_min_seconds,
                       latency * self.adaptive_headroom))

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            breakers = dict(self._breakers)
        sources = self.health.snapshot()
        for name, entry in sources.items():
            entry["adaptive_fetch_timeout_seconds"] = self.adaptive_fetch_timeout(name)
        return {
            "breakers": {
                name: breaker.snapshot() for name, breaker in sorted(breakers.items())
            },
            "sources": sources,
        }


# ---------------------------------------------------------------------------
# Proactive health probing
# ---------------------------------------------------------------------------


class HealthProber:
    """Background half-open circuit probes: recovery without sacrifice.

    A breaker past its cooldown sits half-open until *some* statement risks a
    request against the wrapper — reactive recovery sacrifices one receiver
    query per dead-source comeback.  The prober instead drives the half-open
    probe itself: ``run_once()`` walks the registered probe callables (one
    cheap fetch per wrapper, typically the smallest catalogued relation) and
    issues a probe against every breaker currently half-open, recording the
    outcome on the breaker *and* the health window so a recovered source is
    rediscovered — and its latency stats re-primed — before the next
    statement arrives.

    ``run_once()`` is deterministic and directly testable (drive it from a
    test with a :class:`ManualClock` policy); ``start()`` runs it on a daemon
    thread every ``interval_seconds`` for real deployments.
    """

    def __init__(self, policy: ResiliencePolicy,
                 probes: Optional[Dict[str, Callable[[], object]]] = None,
                 interval_seconds: float = 1.0):
        self.policy = policy
        self.interval_seconds = float(interval_seconds)
        self._lock = threading.Lock()
        self._probes: Dict[str, Callable[[], object]] = {}
        for name, probe in (probes or {}).items():
            self._probes[name.lower()] = probe
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.probes_attempted = 0
        self.probes_succeeded = 0
        self.probes_failed = 0

    def register(self, wrapper_name: str, probe: Callable[[], object]) -> None:
        with self._lock:
            self._probes[wrapper_name.lower()] = probe

    def run_once(self) -> Dict[str, bool]:
        """Probe every half-open breaker once; ``{wrapper: recovered}``."""
        with self._lock:
            probes = sorted(self._probes.items())
        results: Dict[str, bool] = {}
        for name, probe in probes:
            breaker = self.policy.breaker(name)
            if breaker.state != "half_open":
                continue
            if not breaker.allow():
                continue  # a statement's own probe is already in flight
            health = self.policy.health.wrapper(name)
            started = self.policy.clock.now()
            try:
                probe()
            except Exception as error:
                breaker.record_failure()
                health.record_failure(self.policy.clock.now() - started, error)
                results[name] = False
                with self._lock:
                    self.probes_attempted += 1
                    self.probes_failed += 1
            else:
                breaker.record_success()
                health.record_success(self.policy.clock.now() - started)
                results[name] = True
                with self._lock:
                    self.probes_attempted += 1
                    self.probes_succeeded += 1
        return results

    # -- background operation ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Run :meth:`run_once` every ``interval_seconds`` on a daemon thread."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="health-prober", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.run_once()
            except Exception:  # pragma: no cover - probes must never kill the loop
                pass

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "running": self.running,
                "interval_seconds": self.interval_seconds,
                "registered_probes": len(self._probes),
                "probes_attempted": self.probes_attempted,
                "probes_succeeded": self.probes_succeeded,
                "probes_failed": self.probes_failed,
            }
