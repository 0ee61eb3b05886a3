"""Admission control for the mediation server: quotas, shedding, drain.

PR 6 made *individual statements* fault-tolerant; this module makes the
*serving layer* robust when traffic exceeds capacity.  The prototype's server
was thread-per-call: a burst of receiver queries queued unboundedly, hung
sources pinned callers, and overload failed late (client timeouts deep in a
queue) instead of early and cleanly.  The :class:`AdmissionGateway` in front
of every heavy operation enforces the discipline an industry-scale query
service needs:

* **Bounded workers, bounded queue.** At most ``max_workers`` requests
  execute concurrently (a counting semaphore; admitted work runs on the
  caller's thread, so there is no hand-off copy) and at most
  ``max_queue_depth`` wait for a slot.  Everything beyond that is *shed* with
  a clean, retriable :class:`~repro.errors.OverloadError` — the client hears
  "try again shortly" in microseconds instead of timing out in minutes.

* **Per-tenant token-bucket quotas.** Each tenant (receiver/session id,
  threaded through the protocol, HTTP header, ODBC driver and QBE form)
  draws from its own :class:`TokenBucket`; a tenant flooding the server is
  rate-limited at admission, before it can starve anyone else's slots, and
  the shed error carries the bucket's time-to-next-token as the retry hint.

* **Deadline-aware admission.** A request arriving with ``timeout_seconds``
  is shed *immediately* when the projected queue wait (EWMA service time ×
  queue position) would already eat its deadline, and — the hard guarantee —
  its semaphore wait is bounded by the deadline itself, so no request ever
  waits in the queue past the moment its answer became worthless.  Queue
  time spent is deducted from the timeout the admitted work runs under.

* **Streaming backpressure.** Streaming answers (server cursors, the chunked
  HTTP endpoint) hold a worker slot only while *opening*; row production is
  pulled on the consumer's thread against bounded buffers.  What bounds slow
  consumers is the separate **stream-permit** pool (``max_active_streams``):
  an exhausted pool sheds new streams instead of letting ten thousand idle
  cursors pin the server.

* **Graceful drain.** :meth:`begin_drain` sheds new arrivals (reason
  ``"draining"``) while admitted work runs to completion;
  :meth:`await_drain` blocks until the gateway is idle.

Every decision is counted — queued/admitted/shed-by-reason/active, queue-wait
seconds, per-tenant counters, peaks — and surfaced by :meth:`snapshot` as the
``server_load`` report block.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional, TypeVar

from repro.engine.resilience import SYSTEM_CLOCK, Clock
from repro.errors import OverloadError
from repro.obs.metrics import CounterSet
from repro.obs.trace import bind_tenant, current_span, unbind_tenant

T = TypeVar("T")

#: Peaks and running totals, in ``server_load`` order (the three gauges they
#: are peaks of — active, queued, active streams — are state and stay plain
#: fields): (field, kind, exported series, help).
GATEWAY_COUNTERS = (
    ("peak_active", "peak", None, ""),
    ("peak_queued", "peak", None, ""),
    ("peak_active_streams", "peak", None, ""),
    ("arrived", "sum", "gateway_arrived_total",
     "Requests that reached the admission gateway."),
    ("admitted", "sum", "gateway_admitted_total",
     "Requests admitted to a worker slot."),
    ("completed", "sum", "gateway_completed_total",
     "Admitted requests that finished executing."),
    ("streams_opened", "sum", "gateway_streams_opened_total",
     "Streaming permits handed out over the gateway's lifetime."),
)

#: Tenant attributed to requests that name none.
DEFAULT_TENANT = "anonymous"

#: Shed reasons, in the order the admission pipeline checks them.
SHED_REASONS = ("draining", "quota", "deadline", "queue_full", "streams")


class TokenBucket:
    """A clock-driven token bucket: ``rate`` tokens/second up to ``burst``.

    ``try_acquire`` never blocks — admission control sheds instead of
    waiting — and ``seconds_until`` reports how long until the next token
    matures (the ``Retry-After`` hint).  A non-positive rate means the bucket
    never refills: the burst is a hard allowance (useful in tests and for
    suspended tenants).
    """

    def __init__(self, rate_per_second: float, burst: float,
                 clock: Clock = SYSTEM_CLOCK):
        self.rate = float(rate_per_second)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock.now()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock.now()
        if self.rate > 0:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
        self._updated = now

    def try_acquire(self, cost: float = 1.0) -> bool:
        with self._lock:
            self._refill()
            if self._tokens >= cost:
                self._tokens -= cost
                return True
            return False

    def seconds_until(self, cost: float = 1.0) -> Optional[float]:
        """Seconds until ``cost`` tokens are available (None: never)."""
        with self._lock:
            self._refill()
            deficit = cost - self._tokens
            if deficit <= 0:
                return 0.0
            if self.rate <= 0:
                return None
            return deficit / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


@dataclass(frozen=True)
class GatewayConfig:
    """Sizing and policy of one :class:`AdmissionGateway`.

    Requests that name no tenant are attributed to ``DEFAULT_TENANT``.
    """

    #: Concurrently executing admitted requests.
    max_workers: int = 8
    #: Requests allowed to wait for a worker slot; beyond this, shed.
    max_queue_depth: int = 32
    #: Per-tenant admission rate (tokens/second).  None disables quotas.
    tenant_rate_per_second: Optional[float] = None
    #: Per-tenant burst allowance (None: 2 × rate, at least 1).
    tenant_burst: Optional[float] = None
    #: Concurrently open streaming answers (cursors + chunked responses).
    max_active_streams: int = 64
    #: Smoothing factor of the service-time EWMA behind deadline projection.
    ewma_alpha: float = 0.2

    def tenant_bucket_burst(self) -> float:
        if self.tenant_burst is not None:
            return float(self.tenant_burst)
        if self.tenant_rate_per_second is None:
            return 1.0
        return max(1.0, 2.0 * float(self.tenant_rate_per_second))


@dataclass
class _TenantCounters:
    """Per-tenant admission accounting (guarded by the gateway lock)."""

    arrived: int = 0
    admitted: int = 0
    shed: int = 0
    queue_wait_seconds: float = 0.0
    active_streams: int = 0

    def snapshot(self) -> Dict[str, object]:
        return dict(asdict(self),
                    queue_wait_seconds=round(self.queue_wait_seconds, 6))


class AdmissionGateway:
    """The overload-robust front door every heavy server operation passes.

    :meth:`run` is the worker path (admit → execute on the caller's thread →
    release); :meth:`acquire_stream` is the streaming-backpressure path (a
    permit held for the life of a cursor/chunked response).  Both shed with
    :class:`~repro.errors.OverloadError` instead of queueing unboundedly.
    """

    def __init__(self, config: Optional[GatewayConfig] = None,
                 clock: Clock = SYSTEM_CLOCK):
        self.config = config or GatewayConfig()
        if self.config.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.config.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        self._clock = clock
        self._semaphore = threading.Semaphore(self.config.max_workers)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._buckets: Dict[str, TokenBucket] = {}
        self._tenants: Dict[str, _TenantCounters] = defaultdict(_TenantCounters)
        # -- load accounting (all moved under self._lock, so snapshot() is
        # point-in-time) ---------------------------------------------------
        self._waiting = 0
        self._active = 0
        self._active_streams = 0
        self._totals = CounterSet(GATEWAY_COUNTERS)
        self._shed: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        self._queue_wait_seconds = 0.0
        self._max_queue_wait_seconds = 0.0
        self._ewma_service_seconds: Optional[float] = None
        # -- event metrics (None until bind_metrics) ----------------------------
        self._shed_metric = None
        self._queue_wait_metric = None

    # -- metrics -----------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Expose admission accounting through a metrics registry.

        The running totals are attached (the registry renders the counters
        :meth:`snapshot` reads); the load gauges are read at scrape time.
        Sheds (labelled by reason) and the queue-wait histogram are event
        metrics recorded inline: sheds are an error path and queue waits only
        occur when a request actually queued.
        """
        registry.attach(self._totals)
        registry.gauge(
            "gateway_active",
            "Requests executing right now.",
            function=lambda: self._active,
        )
        registry.gauge(
            "gateway_queued",
            "Requests waiting for a worker slot right now.",
            function=lambda: self._waiting,
        )
        registry.gauge(
            "gateway_active_streams",
            "Streaming permits currently held by open cursors/responses.",
            function=lambda: self._active_streams,
        )
        self._shed_metric = registry.counter(
            "gateway_sheds_total",
            "Requests shed at admission, labelled by reason.",
        )
        self._queue_wait_metric = registry.histogram(
            "gateway_queue_wait_seconds",
            "Seconds admitted requests spent waiting for a worker slot.",
        )

    # -- tenants -----------------------------------------------------------------

    def _tenant(self, tenant: Optional[str]) -> str:
        return (tenant or "").strip() or DEFAULT_TENANT

    def _counters(self, tenant: str) -> _TenantCounters:
        """Caller holds the lock."""
        return self._tenants[tenant]

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        rate = self.config.tenant_rate_per_second
        if rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    rate, self.config.tenant_bucket_burst(), self._clock
                )
            return bucket

    # -- shedding ----------------------------------------------------------------

    def _shed_request(self, tenant: str, reason: str, message: str,
                      retry_after_seconds: Optional[float] = None) -> None:
        with self._lock:
            self._shed[reason] = self._shed.get(reason, 0) + 1
            self._counters(tenant).shed += 1
        if self._shed_metric is not None:
            self._shed_metric.inc(reason=reason)
        raise OverloadError(message, reason=reason,
                            retry_after_seconds=retry_after_seconds)

    def _projected_wait_seconds(self) -> float:
        """Expected queue wait of one more arrival, from the service EWMA."""
        with self._lock:
            waiting = self._waiting
            active = self._active
            service = self._ewma_service_seconds
        free = self.config.max_workers - active
        if free > waiting:
            return 0.0
        if not service:
            return 0.0  # no history yet: optimism, backed by the hard bound
        position = waiting - free + 1
        return service * math.ceil(position / self.config.max_workers)

    # -- the worker path -----------------------------------------------------------

    def run(self, work: Callable[[Optional[float]], T],
            tenant: Optional[str] = None,
            timeout_seconds: Optional[float] = None) -> T:
        """Admit and execute ``work`` on the caller's thread.

        ``work`` receives the timeout budget *remaining after queue wait*
        (None when the request was unbounded) — the statement deadline the
        admitted execution should run under.  Raises
        :class:`~repro.errors.OverloadError` when the request is shed.

        The admission decision is traced as an ``admission`` span under the
        caller's current span (queue wait annotated; a shed closes the span
        with the error and force-keeps the trace), and the tenant is bound to
        the execution context so deep layers (the slow-query log) attribute
        the work without threading a tenant parameter everywhere.
        """
        tenant_name = self._tenant(tenant)
        span = current_span().child("admission", tenant=tenant_name)
        try:
            remaining, queue_wait = self._admit(tenant_name, timeout_seconds)
        except OverloadError as error:
            span.flag("shed")
            span.annotate(shed_reason=error.reason)
            span.finish(error=error)
            raise
        span.annotate(queue_wait_seconds=round(queue_wait, 6))
        span.finish()

        tenant_token = bind_tenant(tenant_name)
        started = self._clock.now()
        try:
            return work(remaining)
        finally:
            unbind_tenant(tenant_token)
            elapsed = self._clock.now() - started
            with self._lock:
                self._active -= 1
                self._totals.add(completed=1)
                alpha = self.config.ewma_alpha
                if self._ewma_service_seconds is None:
                    self._ewma_service_seconds = elapsed
                else:
                    self._ewma_service_seconds = (
                        alpha * elapsed + (1.0 - alpha) * self._ewma_service_seconds
                    )
                self._idle.notify_all()
            self._semaphore.release()

    def _arrive(self, tenant_name: str) -> bool:
        """Book one arrival; returns whether the gateway is draining."""
        with self._lock:
            self._totals.add(arrived=1)
            self._counters(tenant_name).arrived += 1
            return self._draining

    def _admit(self, tenant_name: str,
               timeout_seconds: Optional[float]) -> tuple:
        """Walk the shed pipeline; returns ``(remaining_budget, queue_wait)``."""
        if self._arrive(tenant_name):
            self._shed_request(
                tenant_name, "draining",
                "the server is draining for shutdown; retry against another "
                "replica or after restart",
            )

        bucket = self._bucket(tenant_name)
        if bucket is not None and not bucket.try_acquire():
            self._shed_request(
                tenant_name, "quota",
                f"tenant {tenant_name!r} exceeded its admission quota "
                f"({self.config.tenant_rate_per_second}/s, burst "
                f"{self.config.tenant_bucket_burst():g})",
                retry_after_seconds=bucket.seconds_until(),
            )

        if timeout_seconds is not None:
            projected = self._projected_wait_seconds()
            if projected >= timeout_seconds:
                self._shed_request(
                    tenant_name, "deadline",
                    f"projected queue wait of {projected:.3f}s exceeds the "
                    f"request's {timeout_seconds}s deadline; shedding instead "
                    "of queueing it to death",
                    retry_after_seconds=projected,
                )

        # A free worker slot means no queueing at all: grab it without
        # blocking.  Only when every slot is busy does the bounded queue
        # (and with it the queue-full shed) come into play — so
        # ``max_queue_depth=0`` still serves up to ``max_workers``
        # concurrent requests, it just refuses to let anyone *wait*.
        acquired = self._semaphore.acquire(blocking=False)
        queue_wait = 0.0
        if not acquired:
            with self._lock:
                queue_full = self._waiting >= self.config.max_queue_depth
                if not queue_full:
                    self._waiting += 1
                    self._totals.add(peak_queued=self._waiting)
            if queue_full:
                self._shed_request(
                    tenant_name, "queue_full",
                    f"admission queue is full ({self.config.max_queue_depth} "
                    f"waiting on {self.config.max_workers} workers)",
                    retry_after_seconds=self._ewma_service_seconds,
                )

            queued_at = self._clock.now()
            try:
                if timeout_seconds is None:
                    self._semaphore.acquire()
                    acquired = True
                else:
                    # The hard guarantee: nobody waits in queue past their own
                    # deadline, whatever the projection believed.
                    acquired = self._semaphore.acquire(timeout=timeout_seconds)
            finally:
                with self._lock:
                    self._waiting -= 1
                    self._idle.notify_all()
            queue_wait = self._clock.now() - queued_at
        if not acquired:
            self._shed_request(
                tenant_name, "deadline",
                f"request waited {queue_wait:.3f}s for a worker and its "
                f"{timeout_seconds}s deadline left no budget to execute",
                retry_after_seconds=self._ewma_service_seconds,
            )

        remaining: Optional[float] = None
        if timeout_seconds is not None:
            remaining = timeout_seconds - queue_wait
            if remaining <= 1e-9:
                self._semaphore.release()
                self._shed_request(
                    tenant_name, "deadline",
                    f"queue wait of {queue_wait:.3f}s consumed the request's "
                    f"{timeout_seconds}s deadline",
                    retry_after_seconds=self._ewma_service_seconds,
                )

        with self._lock:
            self._active += 1
            self._totals.add(admitted=1, peak_active=self._active)
            self._queue_wait_seconds += queue_wait
            self._max_queue_wait_seconds = max(
                self._max_queue_wait_seconds, queue_wait
            )
            counters = self._counters(tenant_name)
            counters.admitted += 1
            counters.queue_wait_seconds += queue_wait
        if self._queue_wait_metric is not None:
            self._queue_wait_metric.observe(queue_wait)
        return remaining, queue_wait

    # -- the transport path ------------------------------------------------------------

    @property
    def admission_capacity(self) -> int:
        """Admitted statements the gateway can hold: running + queued.

        An event-loop transport must not hand the gateway more concurrent
        statements than this — its worker handoff (unlike the thread-per-call
        transport, where the *caller's* thread queues inside :meth:`run`)
        would otherwise buffer the excess outside the gateway's bounded,
        deadline-aware queue.  The transport sheds the overflow itself via
        :meth:`shed_at_transport`.
        """
        return self.config.max_workers + self.config.max_queue_depth

    def shed_at_transport(self, tenant: Optional[str] = None) -> None:
        """Record a transport-level shed and raise the retriable error.

        Keeps loop-side sheds inside the gateway's books (``arrived``/``shed``
        counters, per-tenant accounting), so the overload contract reads the
        same whichever layer turned the request away.  Always raises
        :class:`~repro.errors.OverloadError`.
        """
        tenant_name = self._tenant(tenant)
        self._shed_request(
            tenant_name,
            "draining" if self._arrive(tenant_name) else "queue_full",
            f"transport at admission capacity ({self.config.max_workers} "
            f"workers + {self.config.max_queue_depth} queued); retry shortly",
            retry_after_seconds=self._ewma_service_seconds,
        )

    # -- the streaming path ----------------------------------------------------------

    def acquire_stream(self, tenant: Optional[str] = None) -> Callable[[], None]:
        """Claim one streaming permit; returns its (idempotent) release.

        The permit — not a worker thread — is what a slow consumer holds for
        the life of a cursor or chunked response: row production happens on
        the consumer's own pulls against bounded buffers, and the bounded
        permit pool is the backpressure that sheds new streams once
        ``max_active_streams`` are open.
        """
        tenant_name = self._tenant(tenant)
        with self._lock:
            if self._draining:
                shed_reason = "draining"
            elif self._active_streams >= self.config.max_active_streams:
                shed_reason = "streams"
            else:
                shed_reason = None
                self._active_streams += 1
                self._totals.add(streams_opened=1,
                                 peak_active_streams=self._active_streams)
                self._counters(tenant_name).active_streams += 1
        if shed_reason is not None:
            self._shed_request(tenant_name, shed_reason, {
                "draining": "the server is draining for shutdown; no new streams",
                "streams": f"all {self.config.max_active_streams} streaming "
                           "permits are held by open cursors/responses; close "
                           "one or retry shortly",
            }[shed_reason])

        released = [False]

        def release() -> None:
            with self._lock:
                if released[0]:
                    return
                released[0] = True
                self._active_streams -= 1
                self._counters(tenant_name).active_streams -= 1
                self._idle.notify_all()

        return release

    # -- drain ------------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Shed new arrivals from now on; admitted work keeps running."""
        with self._lock:
            self._draining = True
            self._idle.notify_all()

    def await_drain(self, timeout_seconds: Optional[float] = None) -> bool:
        """Block until no work is active, queued or streaming; True if so."""
        deadline = (
            None if timeout_seconds is None
            else self._clock.now() + timeout_seconds
        )
        with self._idle:
            while self._active or self._waiting or self._active_streams:
                wait = None
                if deadline is not None:
                    wait = deadline - self._clock.now()
                    if wait <= 0:
                        return False
                self._idle.wait(timeout=wait)
            return True

    def drain(self, timeout_seconds: Optional[float] = None) -> bool:
        self.begin_drain()
        return self.await_drain(timeout_seconds)

    def resume(self) -> None:
        """Accept traffic again (tests, rolling restarts)."""
        with self._lock:
            self._draining = False

    # -- reporting ----------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The ``server_load`` report block."""
        with self._lock:
            shed = dict(self._shed)
            return {
                "workers": self.config.max_workers,
                "max_queue_depth": self.config.max_queue_depth,
                "max_active_streams": self.config.max_active_streams,
                "tenant_rate_per_second": self.config.tenant_rate_per_second,
                "draining": self._draining,
                "active": self._active,
                "queued": self._waiting,
                "active_streams": self._active_streams,
                **self._totals.snapshot(),
                "shed": {"total": sum(shed.values()), **shed},
                "queue_wait_seconds": round(self._queue_wait_seconds, 6),
                "max_queue_wait_seconds": round(self._max_queue_wait_seconds, 6),
                "mean_service_seconds": (
                    round(self._ewma_service_seconds, 6)
                    if self._ewma_service_seconds is not None else None
                ),
                "tenants": {
                    name: counters.snapshot()
                    for name, counters in sorted(self._tenants.items())
                },
            }
