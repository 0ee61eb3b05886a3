"""The load loop and its arithmetic: slices of closed loop, the host-speed
calibration beside them, and how a run's samples become its metrics.

A run is a sequence of **slices**.  In a slice every client sends, waits,
checks and repeats; the latency percentiles of a slice are percentiles over
its single executions, and a run reports the **median over its slices**.

The host this runs on is a small shared VM.  Its CPU runs fixed work 1.0x to
2x slower from one minute to the next (and from one millisecond to the next),
and the hypervisor takes the CPU away for 3-10 ms at a time, some seconds
never, others twenty times: the raw median latency of one commit spreads by
8-29 % over ten runs, which no bound a benchmark may carry survives.  Two
things make a run repeatable.  The measuring process is pinned to one CPU
(``pin_to_one_cpu``).  And the load is **paused** every ``PAUSE_EVERY``
seconds: when every client is between two statements and nothing is in
flight, one of them times a fixed pure-Python **reference kernel** for a tenth
of the load time just spent, on the wall clock and on its thread's CPU clock.
No other thread of the process has work then, so the readings say how fast
the host is and nothing about the code under test.  A slice's load time is
then split by the process CPU clock into the time a CPU was working for it
and the time it waited (charged source latency, sockets); only the working
part is rescaled to the reference host, never the waiting (``Calibration``,
``Slice``).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from coinbench.statements import Statement
from coinbench.workloads import Reference, Workload

#: The reference kernel's time on the reference host.  Any constant would do;
#: this one is its time here when the neighbours are quiet, so a reference
#: millisecond reads as "a millisecond on this host, undisturbed".
K_REF_MS = 0.5
#: Seconds of load between two calibration pauses.
PAUSE_EVERY = 0.2
#: Kernel time per pause, as a share of the load time since the last one.
KERNEL_DUTY = 0.10
#: Share of the slowest kernel readings the *calm* factors leave out, rounded
#: up: the readings the hypervisor stalled.  The median execution of a slice
#: is not a stalled one, so latency percentiles are rescaled by the calm
#: factors; a slice's throughput and CPU time contain its stalls, so they are
#: rescaled by the plain means, which contain them in proportion.  (Over ten
#: 20 s stretches of one 200 s ``warm_repeat`` loop the median latency spread
#: by 9 % rescaled by the plain mean and 4 % by the calm one; throughput by
#: 3 % and 8 %.)
CALM_TRIM = 0.02


def pin_to_one_cpu() -> None:
    """Keep this process (and its threads) on one CPU.

    The mediator is Python: its threads take turns under the interpreter
    lock, so a second CPU adds no throughput, but handing the lock across
    CPUs of a shared host adds a wait that varies with the neighbours
    (``served_mix`` read 20-27 ms a statement unpinned, 17.5-18.4 ms pinned).
    It also makes the process CPU clock the time *a* CPU was busy, which the
    split of a slice into working and waiting time relies on.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: measure unpinned


def reference_kernel() -> int:
    """Fixed work shaped like the mediator's: small tuples and strings built,
    hashed into a dict, probed, filtered and sorted."""
    rows = [("c%d" % (index % 97), index * 1.5, index & 7) for index in range(600)]
    buckets: Dict[str, list] = {}
    for row in rows:
        buckets.setdefault(row[0], []).append(row)
    out = [(row[0], row[1] * 2.0) for row in rows if row[2] > 2
           for _ in buckets[row[0]][:2]]
    out.sort(key=lambda pair: pair[1], reverse=True)
    return len(out)


def calm_mean(values: Sequence[float]) -> float:
    """Mean of all but the slowest ``CALM_TRIM`` share (at least one reading,
    of two or more)."""
    ordered = sorted(values)
    dropped = min(math.ceil(len(ordered) * CALM_TRIM), len(ordered) - 1)
    return statistics.fmean(ordered[:len(ordered) - dropped])


class Calibration:
    """Reference-kernel readings taken while nothing else in the process runs.

    Each kernel run is read on two clocks.  The thread's CPU clock sees what
    the host's speed does to fixed work (the *speed*); the wall clock also
    sees the hypervisor taking the CPU away (the *factor*).  Both are the
    kernel's mean time over ``K_REF_MS``: over all readings, or (``calm``)
    over all but the stalled ones.
    """

    def __init__(self) -> None:
        self.wall_ms: List[float] = []
        self.cpu_ms: List[float] = []

    def run(self, seconds: float) -> None:
        """Time the kernel, at least once, for about ``seconds``."""
        deadline = time.perf_counter() + seconds
        while True:
            cpu_started = time.thread_time()
            started = time.perf_counter()
            reference_kernel()
            ended = time.perf_counter()
            self.cpu_ms.append((time.thread_time() - cpu_started) * 1000.0)
            self.wall_ms.append((ended - started) * 1000.0)
            if ended >= deadline:
                return

    def timed(self, call: Callable[[], Any]) -> Tuple[float, float]:
        """Raw ``(wall, process CPU)`` milliseconds of ``call()``, with its
        share of kernel after it (for probes on the calling thread)."""
        cpu_started = time.process_time()
        started = time.perf_counter()
        call()
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        self.run(KERNEL_DUTY * elapsed)
        return elapsed * 1000.0, cpu * 1000.0

    @property
    def kernel_ms(self) -> float:
        """The kernel's raw mean time here."""
        return statistics.fmean(self.wall_ms)

    def factors(self, calm: bool = False) -> Tuple[float, float]:
        """``(factor, speed)``: how much longer than on the reference host CPU
        work takes here by the wall clock, and by the CPU clock."""
        mean = calm_mean if calm else statistics.fmean
        return mean(self.wall_ms) / K_REF_MS, mean(self.cpu_ms) / K_REF_MS

    def waiting(self, wall: float, cpu: float) -> float:
        """The part of ``wall`` (any unit) no CPU was working, given that
        ``cpu`` of CPU time was spent in it: that much CPU time took
        ``cpu * factor / speed`` of wall clock here."""
        factor, speed = self.factors()
        return max(wall - cpu * factor / speed, 0.0)

    def reference(self, wall: float, cpu: float, calm: bool = False) -> float:
        """``wall`` on the reference host: the work is rescaled (it takes
        ``cpu / speed`` there), the waiting is kept as it was."""
        factor, speed = self.factors(calm)
        return cpu / speed + max(wall - cpu * factor / speed, 0.0)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_and_iqr(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartile distance as a share of the median, and the range."""
    ordered = sorted(values)
    if not ordered:
        return {"median": 0.0, "iqr_ratio": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        quartiles = statistics.quantiles(ordered, n=4)
        iqr = quartiles[2] - quartiles[0]
    else:
        iqr = 0.0
    return {"median": median, "iqr_ratio": iqr / median if median else 0.0,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Sample:
    """One attempted statement.  Answers are checked and dropped at once:
    holding rows would put the harness's memory into ``peak_rss_mb``."""

    shape: str
    total_ms: float
    first_row_ms: float
    correct: bool
    error: Optional[str] = None
    #: Kept in the traced pass only: the statement's execution report.
    report: Any = None


class Gate:
    """Pauses the load and keeps the clocks of a slice.

    Client 0 asks for a pause; every other client parks before its next
    statement; when all are parked nothing is in flight and client 0 has the
    process to itself.  Load time and process CPU time are counted between
    pauses only.  The gate is born paused: a slice starts with the kernel.
    """

    def __init__(self, clients: int) -> None:
        self._others = clients - 1
        self._condition = threading.Condition()
        self._wanted = True
        self._parked = 0
        self._left = 0
        self._resumed: Optional[Tuple[float, float]] = None
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0

    def load_seconds(self) -> float:
        """Seconds of load since the last pause."""
        return time.perf_counter() - self._resumed[0]

    @contextmanager
    def alone(self) -> Iterator[None]:
        """Client 0: park the others, stop the slice's clocks, resume after."""
        with self._condition:
            self._wanted = True
            self._condition.wait_for(
                lambda: self._parked + self._left >= self._others)
        if self._resumed is not None:
            wall, cpu = self._resumed
            self.wall_seconds += time.perf_counter() - wall
            self.cpu_seconds += time.process_time() - cpu
        try:
            yield
        finally:
            self._resumed = (time.perf_counter(), time.process_time())
            with self._condition:
                self._wanted = False
                self._condition.notify_all()

    def checkpoint(self) -> None:
        """Any other client, before a statement: park while a pause is on."""
        if not self._wanted:
            return
        with self._condition:
            self._parked += 1
            self._condition.notify_all()
            self._condition.wait_for(lambda: not self._wanted)
            self._parked -= 1

    def leave(self) -> None:
        """Any other client, done with the slice."""
        with self._condition:
            self._left += 1
            self._condition.notify_all()


@dataclass
class Slice:
    """One slice of closed loop and what was measured beside it."""

    clients: int
    #: Seconds of load and process CPU seconds spent in them, pauses excluded.
    wall_seconds: float
    cpu_seconds: float
    calibration: Calibration
    samples: List[Sample] = field(default_factory=list)

    @property
    def reference_seconds(self) -> float:
        """The slice's seconds of load on the reference host, stalls and all."""
        return self.calibration.reference(self.wall_seconds, self.cpu_seconds)

    @property
    def latency_scale(self) -> float:
        """Reference-host time over this host's time for an execution the
        hypervisor did not stall: the slice's working and waiting time with
        the stalls taken out, before and after the work is rescaled."""
        waiting = self.calibration.waiting(self.wall_seconds, self.cpu_seconds)
        factor, speed = self.calibration.factors(calm=True)
        here = self.cpu_seconds * factor / speed + waiting
        return (self.cpu_seconds / speed + waiting) / here if here else 1.0

    def metrics(self) -> Dict[str, float]:
        """The slice's timing metrics on the reference host (see module doc),
        and the raw median latency beside them."""
        good = [sample for sample in self.samples if sample.correct]
        if not good:
            return dict.fromkeys(TIMING_METRICS + ("raw_stmt_p50_ms",), 0.0)
        totals = sorted(sample.total_ms for sample in good)
        firsts = sorted(sample.first_row_ms for sample in good)
        scale = self.latency_scale
        return {
            "stmt_p50_ms": percentile(totals, 0.50) * scale,
            "stmt_p95_ms": percentile(totals, 0.95) * scale,
            "first_row_p50_ms": percentile(firsts, 0.50) * scale,
            "throughput_qps": len(good) / self.reference_seconds,
            "cpu_ms_per_stmt": (self.cpu_seconds * 1000.0 / len(self.samples)
                                / self.calibration.factors()[1]),
            "raw_stmt_p50_ms": percentile(totals, 0.50),
        }


#: The timing metrics every slice yields; a run reports their medians.
TIMING_METRICS = ("stmt_p50_ms", "stmt_p95_ms", "first_row_p50_ms",
                  "throughput_qps", "cpu_ms_per_stmt")


def over_slices(slices: Sequence[Slice]) -> Dict[str, Dict[str, float]]:
    """Per timing metric: median over slices, with spread and range."""
    per_slice = [piece.metrics() for piece in slices]
    return {name: median_and_iqr([values[name] for values in per_slice])
            for name in per_slice[0]}


def pooled_latency_scale(slices: Sequence[Slice]) -> float:
    """``latency_scale`` over several slices, weighted by their load time."""
    wall = sum(piece.wall_seconds for piece in slices)
    return (sum(piece.latency_scale * piece.wall_seconds for piece in slices) / wall
            if wall else 1.0)


def pooled_p99_ms(slices: Sequence[Slice]) -> float:
    """99th percentile of single executions pooled over the slices."""
    return percentile(sorted(sample.total_ms * piece.latency_scale
                             for piece in slices
                             for sample in piece.samples if sample.correct), 0.99)


def run_slice(workload: Workload, schedules: List[Iterator[Statement]],
              reference: Reference, seconds: float) -> Slice:
    """Closed loop for ``seconds`` of wall clock, calibration pauses included."""
    calibration = Calibration()
    gate = Gate(workload.clients)
    keep_reports = workload.recorder is not None and workload.recorder.enabled
    deadline = time.perf_counter() + seconds

    def attempt(client: int) -> Sample:
        statement = next(schedules[client])
        try:
            outcome = workload.run(client, statement)
        except Exception as exc:  # an errored or shed statement is a failure
            return Sample(statement.shape, 0.0, 0.0, False,
                          error=f"{type(exc).__name__}: {exc}")
        return Sample(statement.shape,
                      outcome.total_seconds * 1000.0,
                      outcome.first_row_seconds * 1000.0,
                      reference.check(statement, outcome.rows),
                      report=outcome.report if keep_reports else None)

    def calibrate() -> None:
        """The kernel, alone, until it has had its share of the load time."""
        with gate.alone():
            calibration.run(KERNEL_DUTY * (gate.wall_seconds + PAUSE_EVERY)
                            - sum(calibration.wall_ms) / 1000.0)

    def loop(client: int) -> List[Sample]:
        samples = []
        try:
            if not client:
                calibrate()
            while time.perf_counter() < deadline:
                if client:
                    gate.checkpoint()
                samples.append(attempt(client))
                if not client and gate.load_seconds() >= PAUSE_EVERY:
                    calibrate()
        finally:
            if client:
                gate.leave()
            else:
                calibrate()  # the slice ends as it began: paused
        return samples

    per_client = workload.run_clients(loop)
    return Slice(
        clients=workload.clients,
        wall_seconds=gate.wall_seconds,
        cpu_seconds=gate.cpu_seconds,
        calibration=calibration,
        samples=[sample for samples in per_client for sample in samples],
    )
