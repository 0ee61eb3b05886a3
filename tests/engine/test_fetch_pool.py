"""One fetch pool per engine.

Every statement's source fetches run on its engine's shared worker
threads: a statement queues its pending fetches and at most
``max_concurrent_requests`` lanes drain that queue on the pool.  These tests
pin what that must keep and what it must buy:

* a loop of statements starts a bounded number of worker threads in total,
  not a few per statement;
* statements running side by side each keep their own in-flight cap and
  dispatch order, and do not wait for each other's cap;
* closing a stream cancels the fetches still queued, which never reach
  their wrapper;
* the workers exit once their engine is collected.
"""

import gc
import sys
import threading
import time

from repro.engine.engine import MultiDatabaseEngine
from repro.sources.base import SourceCapabilities
from repro.sources.memory import MemorySQLSource
from repro.wrappers.wrapper import RelationalWrapper


class _HookedWrapper(RelationalWrapper):
    """A scan-only wrapper that counts its round trips and runs ``hook``
    (when set) before answering one."""

    def __init__(self, source):
        super().__init__(source)
        self.calls = 0
        self.hook = None

    def fetch(self, relation):
        self.calls += 1
        if self.hook is not None:
            self.hook()
        return super().fetch(relation)


def _engine(sources, **kwargs):
    """``sources`` scan-only relations ``s1 … sN`` on one engine, no cache."""
    engine = MultiDatabaseEngine(**kwargs)
    wrappers = []
    for index in range(1, sources + 1):
        source = MemorySQLSource(f"src{index}",
                                 capabilities=SourceCapabilities.scan_only())
        values = ", ".join(f"({key})" for key in range(40))
        source.load_sql(f"CREATE TABLE s{index} (k integer)",
                        f"INSERT INTO s{index} VALUES {values}")
        wrapper = _HookedWrapper(source)
        engine.register_wrapper(wrapper, estimate_rows=False)
        wrappers.append(wrapper)
    return engine, wrappers


def _union(sources):
    """One branch per source, each its own round trip."""
    return " UNION ALL ".join(f"SELECT s{index}.k FROM s{index}"
                              for index in range(1, sources + 1))


def _wait_until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


class TestThreadStarts:
    def test_a_statement_loop_starts_at_most_the_cap_in_threads(self, monkeypatch):
        engine, _ = _engine(3)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            if thread.name.startswith("source-fetch"):
                started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(200):
            result = engine.execute(_union(3))
            assert result.report.source_round_trips == 3
            assert len(result.relation) == 120
        # A pool per statement started about 3 threads each (600 here).
        assert 0 < len(started) <= engine.max_concurrent_requests


class _Rendezvous:
    """The first ``parties`` calls return only once that many are in flight
    together; later calls pass straight through."""

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties, timeout=10.0)
        self._lock = threading.Lock()
        self._arrivals = 0

    def __call__(self):
        with self._lock:
            self._arrivals += 1
            waits = self._arrivals <= self.barrier.parties
        if waits:
            self.barrier.wait()


class TestStatementsShareThePool:
    CAP = 2
    SOURCES = 4

    def test_each_statement_keeps_its_cap_and_dispatch_order(self):
        engine, wrappers = _engine(self.SOURCES, max_concurrent_requests=self.CAP)
        query = _union(self.SOURCES)
        solo = engine.execute(query).report

        # Two statements, CAP lanes each: the rendezvous opens only when all
        # four fetches are in flight at once — so neither statement waits for
        # the other's lanes — and a statement exceeding its cap would fill
        # it alone (its max_in_flight would read 4).
        rendezvous = _Rendezvous(2 * self.CAP)
        for wrapper in wrappers:
            wrapper.hook = rendezvous
        reports, errors = [], []

        def run():
            try:
                reports.append(engine.execute(query).report)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not rendezvous.barrier.broken
        for report in reports:
            assert report.max_in_flight == self.CAP
            assert report.dispatch_order == solo.dispatch_order
            assert report.dispatch_policy == solo.dispatch_policy
        assert solo.dispatch_order == [f"s{index}" for index in range(1, self.SOURCES + 1)]

    def test_many_statements_at_once_under_a_short_switch_interval(self):
        # More lanes than cores, switching every few bytecodes: a lost update
        # of a statement's queue or lane count would drop a fetch (the
        # statement then hits its deadline) or break its cap.
        engine, _ = _engine(6, max_concurrent_requests=self.CAP)
        query = _union(6)
        expected = sorted(engine.execute(query).relation.rows)
        failures = []

        def run():
            for _ in range(25):
                try:
                    result = engine.execute(query, timeout_seconds=10.0)
                    assert sorted(result.relation.rows) == expected
                    assert result.report.max_in_flight <= self.CAP
                except Exception as error:  # surfaced by the assertion below
                    failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestCloseCancelsQueuedFetches:
    def test_queued_fetches_are_cancelled_and_never_reach_their_wrapper(self):
        engine, wrappers = _engine(5, max_concurrent_requests=2)
        gate = threading.Event()
        entered = threading.Semaphore(0)

        def hold():
            entered.release()
            assert gate.wait(timeout=10.0)

        for wrapper in wrappers[1:]:
            wrapper.hook = hold
        stream = engine.execute_stream(_union(5))
        try:
            assert stream.fetchmany(1)  # branch 1 (s1) is staged
            # Both lanes are now held inside s2 and s3; s4 and s5 are queued.
            for _ in range(2):
                assert entered.acquire(timeout=10.0)
            stream.close()
        finally:
            gate.set()
        assert stream.report.cancelled_fetches == 2
        _wait_until(lambda: stream._lanes == 0)
        assert [wrapper.calls for wrapper in wrappers] == [1, 1, 1, 0, 0]


class TestWorkerLifetime:
    def test_fetch_threads_exit_with_their_engine(self):
        before = set(threading.enumerate())
        engine, _ = _engine(3)
        engine.execute(_union(3))
        workers = [thread for thread in threading.enumerate()
                   if thread not in before and thread.name.startswith("source-fetch")]
        assert workers
        del engine
        gc.collect()
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        assert [worker.name for worker in workers if worker.is_alive()] == []
