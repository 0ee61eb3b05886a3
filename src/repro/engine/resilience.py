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
* :class:`SourceRecord` — one per wrapper, under one lock: its circuit
  breaker (closed → open after a run of consecutive failures, open →
  half-open after a cooldown, half-open → closed on a successful probe),
  its rolling success/failure/latency health, surfaced through the engine's
  ``source_health()`` so operators can see which sources are rotten before
  receivers complain, and the EWMA latency profile the planner prices the
  wrapper with.  An open circuit rejects requests *fast*: a dead
  source costs nothing per statement instead of a full retry budget.
* :class:`Deadline` — a per-statement time bound propagated from
  ``Federation.query(..., timeout_seconds=...)`` through fetch waits, retry
  backoff sleeps and streaming finalization.  Expiry raises
  :class:`~repro.errors.DeadlineExceededError` and is never downgraded to a
  partial answer.

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
from typing import (TYPE_CHECKING, Callable, Deque, Dict, Iterable, List,
                    Optional, Tuple)

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
# Per-wrapper records: circuit breaker and health window
# ---------------------------------------------------------------------------

#: Rolling-latency window per wrapper.
HEALTH_WINDOW = 32

#: Adaptive fetch timeouts: once a wrapper's window holds
#: ``ADAPTIVE_MIN_SAMPLES`` successful latencies, its fetch wait is bounded by
#: their ``ADAPTIVE_QUANTILE`` × ``ADAPTIVE_HEADROOM``, clamped to
#: ``[ADAPTIVE_MIN_SECONDS, ADAPTIVE_MAX_SECONDS]``.
ADAPTIVE_QUANTILE = 0.95
ADAPTIVE_HEADROOM = 4.0
ADAPTIVE_MIN_SAMPLES = 8
ADAPTIVE_MIN_SECONDS = 0.05
ADAPTIVE_MAX_SECONDS = 30.0

#: Smoothing factor of a wrapper's EWMA latency profile.
EWMA_ALPHA = 0.3

#: Successful round trips before a latency profile is published.
MIN_LATENCY_SAMPLES = 3


def latency_quantile(ordered: List[float], quantile: float) -> Optional[float]:
    """The nearest-rank ``quantile`` (0..1) of sorted latencies, or None."""
    if not ordered:
        return None
    quantile = min(1.0, max(0.0, quantile))
    return ordered[min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1))))]


class SourceRecord:
    """Everything the engine knows about one wrapper, under one lock.

    The circuit breaker is a closed → open → half-open state machine:

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — requests are rejected instantly (no round trip, no
      retries) until ``cooldown_seconds`` elapse.
    * **half-open** — one probe request is let through at a time; success
      closes the breaker, failure re-opens it (and restarts the cooldown).

    Beside it the record keeps the wrapper's health: success, failure and
    retry counts, the last error, the latencies of the last
    ``HEALTH_WINDOW`` successful round trips, which the adaptive fetch
    timeout is fed from, and the EWMA latency profile the cost model and the
    dispatch order read (:attr:`profile`).  ``consecutive_failures`` counts
    every failed round trip since the last success, and both the breaker and
    the health view report it.  Transitions are driven by the injected
    clock, so concurrent fetch threads observe a consistent state machine
    and tests can walk it deterministically.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_seconds: float = 30.0,
                 clock: Clock = SYSTEM_CLOCK):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: Closed/half-open → open transitions over the record's lifetime.
        self.trips = 0
        #: Statement requests refused without a round trip.
        self.rejections = 0
        self.successes = 0
        self.failures = 0
        self.retries = 0
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self._latencies: Deque[float] = deque(maxlen=HEALTH_WINDOW)
        self._ewma = (0.0, 0.0)
        #: ``(request_seconds, seconds_per_row)``: the EWMA of the successful
        #: round trips, None until ``MIN_LATENCY_SAMPLES`` of them.  Replaced
        #: whole under the lock, so a reader needs none.
        self.profile: Optional[Tuple[float, float]] = None

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

    def _admit(self) -> bool:
        """Admit one request (callers hold the lock): any while closed, the
        one probe while half-open."""
        state = self._effective_state()
        if state == "closed":
            return True
        if state == "half_open" and not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def allow(self) -> bool:
        """May a statement's request proceed right now?  (Counts rejections.)"""
        with self._lock:
            if self._admit():
                return True
            self.rejections += 1
            return False

    def claim_probe(self) -> bool:
        """Take the half-open probe slot for the prober.

        False when the breaker is closed, still open, or a statement's own
        probe is in flight; a refused claim is not a rejection.
        """
        with self._lock:
            return self._effective_state() == "half_open" and self._admit()

    def succeeded(self, latency_seconds: float, rows: int = 0) -> None:
        """Book one successful round trip that shipped ``rows`` rows: it
        closes the breaker and feeds both the health window and the profile."""
        per_row = latency_seconds / rows if rows > 0 else 0.0
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            self._latencies.append(latency_seconds)
            self._probe_in_flight = False
            self._state = "closed"
            if self.successes == 1:
                self._ewma = (latency_seconds, per_row)
            else:
                request, row = self._ewma
                self._ewma = (request + EWMA_ALPHA * (latency_seconds - request),
                              row + EWMA_ALPHA * (per_row - row))
            if self.successes >= MIN_LATENCY_SAMPLES:
                self.profile = self._ewma

    def failed(self, error: BaseException) -> bool:
        """Book one failed round trip; True when this call tripped it open."""
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1
            self.last_error = f"{type(error).__name__}: {error}"
            state = self._effective_state()
            self._probe_in_flight = False
            if state == "half_open" or (
                state == "closed"
                and self.consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock.now()
                self.trips += 1
                return True
            return False

    def retried(self) -> None:
        with self._lock:
            self.retries += 1

    @staticmethod
    def _fetch_timeout(ordered: List[float]) -> Optional[float]:
        if len(ordered) < ADAPTIVE_MIN_SAMPLES:
            return None
        latency = latency_quantile(ordered, ADAPTIVE_QUANTILE)
        return min(ADAPTIVE_MAX_SECONDS,
                   max(ADAPTIVE_MIN_SECONDS, latency * ADAPTIVE_HEADROOM))

    def fetch_timeout(self) -> Optional[float]:
        """This wrapper's earned wait bound, or None (no bound yet).

        ``None`` until the window holds ``ADAPTIVE_MIN_SAMPLES`` successful
        latencies — a cold or rarely-used wrapper keeps the
        statement-deadline-only behaviour.  Afterwards a healthy source that
        suddenly stalls is cut loose quickly, and a habitually slow one is
        given the latitude its own history justifies.
        """
        with self._lock:
            ordered = sorted(self._latencies)
        return self._fetch_timeout(ordered)

    def snapshot(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """``(breaker entry, source entry)``, read in one critical section:
        the failure rate is computed from the very counts it reports."""
        with self._lock:
            state = self._effective_state()
            ordered = sorted(self._latencies)
            attempts = self.successes + self.failures
            p95 = latency_quantile(ordered, 0.95)
            breaker = {
                "state": state,
                "consecutive_failures": self.consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "trips": self.trips,
                "rejections": self.rejections,
            }
            source = {
                "successes": self.successes,
                "failures": self.failures,
                "retries": self.retries,
                "rejections": self.rejections,
                "consecutive_failures": self.consecutive_failures,
                "failure_rate": round(self.failures / attempts, 6) if attempts else 0.0,
                "mean_latency_seconds": (
                    round(sum(ordered) / len(ordered), 6) if ordered else 0.0
                ),
                "p95_latency_seconds": round(p95, 6) if p95 is not None else None,
                "latency_samples": len(ordered),
                "last_error": self.last_error,
                "adaptive_fetch_timeout_seconds": self._fetch_timeout(ordered),
            }
        return breaker, source


# ---------------------------------------------------------------------------
# The policy bundle the engine owns
# ---------------------------------------------------------------------------


class ResiliencePolicy:
    """Retry policy + one :class:`SourceRecord` per wrapper, as one unit.

    Owned by a :class:`~repro.engine.engine.MultiDatabaseEngine` and shared
    across its statements and scans, so breaker state and health statistics
    persist where they are useful: a wrapper that killed the last five
    statements is rejected fast by the sixth.
    """

    def __init__(self, retry_policy: Optional[RetryPolicy] = None,
                 failure_threshold: int = 5, cooldown_seconds: float = 30.0,
                 clock: Clock = SYSTEM_CLOCK):
        self.retry_policy = retry_policy or RetryPolicy()
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock
        self._records: Dict[str, SourceRecord] = {}
        self._lock = threading.Lock()

    def deadline(self, timeout_seconds: Optional[float]) -> Deadline:
        """A fresh statement deadline on this policy's clock."""
        return Deadline(timeout_seconds, self.clock)

    def source(self, wrapper_name: str) -> SourceRecord:
        key = wrapper_name.lower()
        with self._lock:
            record = self._records.get(key)
            if record is None:
                record = self._records[key] = SourceRecord(
                    failure_threshold=self.failure_threshold,
                    cooldown_seconds=self.cooldown_seconds,
                    clock=self.clock,
                )
            return record

    def profile(self, wrapper_name: str) -> Optional[Tuple[float, float]]:
        """The wrapper's published latency profile (:attr:`SourceRecord.profile`),
        or None; never creates a record."""
        record = self._records.get(wrapper_name.lower())
        return record.profile if record is not None else None

    def forget(self, wrapper_name: str) -> None:
        """Drop the wrapper's record: a new wrapper under the name starts
        with a closed breaker, an empty health window and no profile."""
        with self._lock:
            self._records.pop(wrapper_name.lower(), None)

    def run_fetch(self, wrapper_name: str, request_text: str,
                  fetch: Callable[[], object], deadline: Deadline,
                  report: ExecutionReport, span=None) -> Tuple[object, int]:
        """One guarded source round trip: breaker + retries + deadline.

        Returns ``(result, attempts)``.  Raises the final classified error
        (or :class:`DeadlineExceededError` / :class:`CircuitOpenError`);
        the wrapper's :class:`SourceRecord` and the statement ``report``'s
        counters (under its lock) are updated either way, each attempt with
        one booking on the record: a success books its latency and the rows
        ``fetch`` returned (``len(result)``).  When a (recording) fetch ``span`` is
        passed, every attempt becomes one child span annotated with the
        breaker state it observed, so a trace's attempt spans reconcile
        exactly with the report's ``attempts`` counter.
        """
        record = self.source(wrapper_name)
        policy = self.retry_policy
        attempt = 0
        while True:
            deadline.check(f"fetching {request_text} from wrapper {wrapper_name!r}")
            if not record.allow():
                if span is not None:
                    span.event("breaker_rejection", wrapper=wrapper_name,
                               breaker_state=record.state)
                with report.lock:
                    report.breaker_rejections += 1
                raise CircuitOpenError(
                    f"wrapper {wrapper_name!r} is circuit-broken after repeated "
                    f"failures; retrying after cooldown "
                    f"({record.cooldown_seconds}s)"
                )
            attempt += 1
            with report.lock:
                report.attempts += 1
            attempt_span = None
            if span is not None:
                attempt_span = span.child(
                    "attempt", attempt=attempt, wrapper=wrapper_name,
                    breaker_state=record.state,
                )
            started = self.clock.now()
            try:
                result = fetch()
            except Exception as error:
                tripped = record.failed(error)
                if attempt_span is not None:
                    if tripped:
                        attempt_span.event("breaker_trip", wrapper=wrapper_name)
                    attempt_span.finish(error=error)
                # A failure that trips the breaker ends the loop: the next
                # attempt would only meet the circuit this failure opened.
                if (tripped or not policy.is_transient(error)
                        or attempt >= policy.max_attempts):
                    with report.lock:
                        if tripped:
                            report.breaker_trips += 1
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
                record.retried()
                self.clock.sleep(delay)
                continue
            if attempt_span is not None:
                attempt_span.finish()
            record.succeeded(self.clock.now() - started, len(result))
            return result, attempt

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            records = sorted(self._records.items())
        breakers: Dict[str, object] = {}
        sources: Dict[str, object] = {}
        for name, record in records:
            breakers[name], sources[name] = record.snapshot()
        return {"breakers": breakers, "sources": sources}


# ---------------------------------------------------------------------------
# Proactive health probing
# ---------------------------------------------------------------------------


class HealthProber:
    """Background half-open circuit probes: recovery without sacrifice.

    A breaker past its cooldown sits half-open until *some* statement risks a
    request against the wrapper — reactive recovery sacrifices one receiver
    query per dead-source comeback.  The prober instead drives the half-open
    probe itself: ``run_once()`` walks the wrappers served at that moment
    (``wrappers`` is read again on every run, so a replaced wrapper is probed
    as its replacement) and, for every breaker currently half-open, fetches
    the wrapper's first exported relation, booking the outcome once on the
    wrapper's :class:`SourceRecord` — breaker, health window and latency
    profile together — so a recovered source is rediscovered, and its latency
    stats re-primed, before the next statement arrives.

    ``run_once()`` is deterministic and directly testable (drive it from a
    test with a :class:`ManualClock` policy); ``start()`` runs it on a daemon
    thread every ``interval_seconds`` for real deployments.
    """

    def __init__(self, policy: ResiliencePolicy, wrappers: Iterable,
                 interval_seconds: float = 1.0):
        self.policy = policy
        self.wrappers = wrappers
        self.interval_seconds = float(interval_seconds)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.probes_attempted = 0
        self.probes_succeeded = 0
        self.probes_failed = 0

    def run_once(self) -> Dict[str, bool]:
        """Probe every half-open breaker once; ``{wrapper: recovered}``."""
        results: Dict[str, bool] = {}
        for wrapper in sorted(self.wrappers, key=lambda w: w.name.lower()):
            name = wrapper.name.lower()
            relations = wrapper.relation_names()
            if not relations:
                continue
            record = self.policy.source(name)
            if not record.claim_probe():
                continue  # closed, still open, or a statement's probe is in flight
            started = self.policy.clock.now()
            try:
                rows = len(wrapper.fetch(relations[0]))
            except Exception as error:
                record.failed(error)
                results[name] = False
                with self._lock:
                    self.probes_attempted += 1
                    self.probes_failed += 1
            else:
                record.succeeded(self.policy.clock.now() - started, rows)
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
                "probes_attempted": self.probes_attempted,
                "probes_succeeded": self.probes_succeeded,
                "probes_failed": self.probes_failed,
            }
