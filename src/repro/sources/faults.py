"""Deterministic fault injection for chaos-testing federated execution.

The resilience layer (:mod:`repro.engine.resilience`) is only trustworthy if
its behaviour under failure is *reproducible*: a retry schedule that depends
on wall-clock luck cannot be asserted byte-for-byte.  This module provides a
decorator that stands between the engine and a real wrapper and injects
faults from a **seeded schedule**:

* **fail-N-then-succeed** — the first N accesses raise a transient
  :class:`~repro.errors.SourceUnavailableError`; the (N+1)-th succeeds.
  Exercises the retry path to a byte-identical answer.
* **probabilistic flakiness** — each access fails with a fixed probability
  drawn from a PRNG seeded per (schedule seed, access index): the failure
  pattern is a pure function of the schedule, independent of thread
  interleaving.
* **latency spikes** — every k-th access sleeps (through an injectable sleep,
  so tests use a :class:`~repro.engine.resilience.ManualClock`).  Exercises
  deadline expiry on a hung source.
* **mid-stream cuts** — the access computes its full answer, then drops the
  connection: the engine sees rows transferred and then an error, and must
  discard the partial result (never bank it into the source-result cache).
* **permanent outage** — from the M-th access on, every access raises a
  failure tagged ``transient=False``: retrying is hopeless, the breaker
  trips, and partial-answer mode must degrade the affected branches.

:class:`FaultInjectingSource` wraps a :class:`~repro.wrappers.wrapper.Wrapper`
(the engine's unit of source access) rather than a raw source, so one
injector covers relational and web wrappers alike and plugs straight into
``Federation(wrappers=[...])``.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import SourceUnavailableError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.wrappers.wrapper import Wrapper


class InjectedFaultError(SourceUnavailableError):
    """A fault raised by the harness (transient unless tagged otherwise)."""

    def __init__(self, message: str, transient: bool = True):
        super().__init__(message)
        #: Read by :func:`repro.engine.resilience.classify_error` — an
        #: explicit tag beats class-based classification.
        self.transient = transient


@dataclass(frozen=True)
class FaultSchedule:
    """When and how a :class:`FaultInjectingSource` misbehaves.

    All decisions are pure functions of ``(seed, access index)`` — replaying
    the same sequence of accesses replays the same faults.
    """

    #: The first N accesses fail with a transient outage, then recover.
    fail_first: int = 0
    #: Independent per-access failure probability (seeded, deterministic).
    failure_rate: float = 0.0
    #: Every k-th access (1-based; 0 disables) sleeps before answering.
    latency_spike_every: int = 0
    latency_spike_seconds: float = 0.0
    #: Every k-th access (1-based; 0 disables) computes its answer, then
    #: drops the connection mid-transfer instead of delivering it.
    cut_every: int = 0
    #: From this access on (1-based; None disables) the source is dead for
    #: good: failures are tagged permanent, so retries stop immediately.
    permanent_outage_after: Optional[int] = None
    #: Seed of the per-access PRNG used for ``failure_rate`` decisions.
    seed: int = 0

    def outage_message(self, name: str, access: int) -> str:
        return (f"injected fault: source {name!r} unavailable "
                f"(access {access})")

    def is_permanently_out(self, access: int) -> bool:
        return (self.permanent_outage_after is not None
                and access >= self.permanent_outage_after)

    def fails_transiently(self, access: int) -> bool:
        if access <= self.fail_first:
            return True
        if self.failure_rate > 0.0:
            rng = random.Random(f"{self.seed}|{access}")
            return rng.random() < self.failure_rate
        return False

    def spikes(self, access: int) -> bool:
        return (self.latency_spike_every > 0
                and access % self.latency_spike_every == 0)

    def cuts(self, access: int) -> bool:
        return self.cut_every > 0 and access % self.cut_every == 0


class FaultInjectingSource(Wrapper):
    """A wrapper decorator injecting scheduled faults into every access.

    Wraps an inner :class:`~repro.wrappers.wrapper.Wrapper` and forwards
    metadata untouched; every data access (``fetch``/``query``) first
    consults the :class:`FaultSchedule` under a lock-guarded access counter.
    ``sleep`` is injectable so latency spikes advance a
    :class:`~repro.engine.resilience.ManualClock` instead of wall time.
    """

    def __init__(self, inner: Wrapper, schedule: FaultSchedule,
                 name: Optional[str] = None,
                 sleep: Callable[[float], None] = None):
        super().__init__(name or inner.name, inner.capabilities)
        self.inner = inner
        self.schedule = schedule
        self._sleep = sleep
        self._lock = threading.Lock()
        self.accesses = 0
        self.injected_failures = 0
        self.injected_cuts = 0
        self.injected_spikes = 0

    # -- metadata (forwarded) ---------------------------------------------------

    def relation_names(self) -> List[str]:
        return self.inner.relation_names()

    def schema_of(self, relation: str) -> Schema:
        return self.inner.schema_of(relation)

    # -- fault machinery --------------------------------------------------------

    def _next_access(self) -> int:
        with self._lock:
            self.accesses += 1
            return self.accesses

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _guard(self, access: int) -> None:
        """Raise/sleep according to the schedule, before the inner access."""
        schedule = self.schedule
        if schedule.is_permanently_out(access):
            self._count("injected_failures")
            raise InjectedFaultError(
                f"injected fault: source {self.name!r} is permanently out "
                f"(access {access})",
                transient=False,
            )
        if schedule.fails_transiently(access):
            self._count("injected_failures")
            raise InjectedFaultError(schedule.outage_message(self.name, access))
        if schedule.spikes(access):
            self._count("injected_spikes")
            if self._sleep is not None:
                self._sleep(schedule.latency_spike_seconds)

    def _deliver(self, access: int, relation: Relation) -> Relation:
        """Cut the connection mid-transfer when the schedule says so."""
        if self.schedule.cuts(access):
            self._count("injected_cuts")
            raise InjectedFaultError(
                f"injected fault: connection to source {self.name!r} cut "
                f"after {len(relation)} rows (access {access})"
            )
        return relation

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "accesses": self.accesses,
                "injected_failures": self.injected_failures,
                "injected_cuts": self.injected_cuts,
                "injected_spikes": self.injected_spikes,
            }

    # -- data access (guarded) --------------------------------------------------

    def fetch(self, relation: str) -> Relation:
        access = self._next_access()
        self._guard(access)
        return self._deliver(access, self.inner.fetch(relation))

    def query(self, statement) -> Relation:
        access = self._next_access()
        self._guard(access)
        return self._deliver(access, self.inner.query(statement))
