"""``CounterSet``: the one structure every layer's aggregate counters live in.

Unit behaviour (declared order, ``sum``/``peak`` kinds, attribute reads,
registry attachment), then the concurrency contract for every declaration
table in the system: eight threads hammering ``add`` lose no update, and a
snapshot taken mid-flight is never torn.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.engine import ENGINE_COUNTERS
from repro.engine.feedback import FEEDBACK_COUNTERS
from repro.engine.request_cache import RequestKey, SourceResultCache
from repro.mediation.mediator import MEDIATOR_COUNTERS
from repro.obs.cache import CACHE_COUNTERS, BoundedCache
from repro.obs.metrics import CounterSet, MetricsRegistry
from repro.pipeline import PIPELINE_COUNTERS
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.storage import STORAGE_COUNTERS, TemporaryStore
from repro.server.aio import AIO_COUNTERS, SESSION_COUNTERS
from repro.server.gateway import GATEWAY_COUNTERS
from repro.server.http import CHANNEL_COUNTERS
from repro.server.server import SERVER_COUNTERS
from repro.sources.base import SOURCE_COUNTERS

THREADS = 8
ROUNDS = 300

DECLARATIONS = {
    "engine": ENGINE_COUNTERS,
    "pipeline": PIPELINE_COUNTERS,
    "server": SERVER_COUNTERS,
    "channel": CHANNEL_COUNTERS,
    "cache": CACHE_COUNTERS,
    "storage": STORAGE_COUNTERS,
    "source": SOURCE_COUNTERS,
    "mediator": MEDIATOR_COUNTERS,
    "feedback": FEEDBACK_COUNTERS,
    "gateway": GATEWAY_COUNTERS,
    "aio": AIO_COUNTERS,
    "sessions": SESSION_COUNTERS,
}


def _hammer(task) -> None:
    """Run ``task(thread_index)`` on THREADS threads under a shortened switch
    interval (so a lost update has every chance to happen); re-raise any
    failure."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(task, index) for index in range(THREADS)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def _stop(watcher: threading.Thread, done: threading.Event) -> None:
    done.set()
    watcher.join(timeout=30)
    assert not watcher.is_alive()


class TestCounterSet:
    DECLARATION = (
        ("requests", "sum", "requests_total", "Requests seen."),
        ("hidden", "sum", None, ""),
        ("deepest", "peak", "deepest_queue", "Deepest queue seen."),
    )

    def test_snapshot_lists_fields_in_declared_order(self):
        counters = CounterSet(self.DECLARATION)
        counters.add(deepest=1, hidden=2, requests=3)
        assert list(counters.snapshot().items()) == [
            ("requests", 3), ("hidden", 2), ("deepest", 1)]

    def test_sum_accumulates_and_peak_keeps_the_maximum(self):
        counters = CounterSet(self.DECLARATION)
        counters.add(requests=2, deepest=5)
        counters.add(requests=3, deepest=4)
        assert counters.requests == 5
        assert counters.deepest == 5

    def test_snapshot_is_a_copy(self):
        counters = CounterSet(self.DECLARATION)
        snapshot = counters.snapshot()
        snapshot["requests"] = 99
        assert counters.requests == 0

    def test_undeclared_fields_are_errors(self):
        counters = CounterSet(self.DECLARATION)
        with pytest.raises(KeyError):
            counters.add(typo=1)
        with pytest.raises(AttributeError):
            counters.typo

    def test_attached_set_is_rendered_by_the_registry(self):
        registry = MetricsRegistry()
        counters = registry.attach(CounterSet(self.DECLARATION))
        counters.add(requests=7, hidden=1, deepest=3)
        assert registry.render() == (
            "# HELP coin_deepest_queue Deepest queue seen.\n"
            "# TYPE coin_deepest_queue gauge\n"
            "coin_deepest_queue 3\n"
            "# HELP coin_requests_total Requests seen.\n"
            "# TYPE coin_requests_total counter\n"
            "coin_requests_total 7\n"
        )
        assert registry.snapshot() == {"coin_deepest_queue": 3,
                                       "coin_requests_total": 7}
        assert registry.get("requests_total").value() == 7
        assert len(registry) == 2

    def test_reattaching_a_declaration_replaces_the_previous_set(self):
        registry = MetricsRegistry()
        registry.attach(CounterSet(self.DECLARATION)).add(requests=1)
        registry.attach(CounterSet(self.DECLARATION)).add(requests=5)
        assert registry.get("requests_total").value() == 5


class TestNoLostUpdates:
    @pytest.mark.parametrize("layer", sorted(DECLARATIONS))
    def test_eight_threads_leave_exact_totals(self, layer):
        """Every ``sum`` field ends at exactly N x M x delta, every ``peak``
        field at the largest value any thread offered."""
        declarations = DECLARATIONS[layer]
        counters = CounterSet(declarations)

        def task(index):
            for round_number in range(ROUNDS):
                counters.add(**{
                    field: (index * ROUNDS + round_number if kind == "peak"
                            else position + 1)
                    for position, (field, kind, _, _) in enumerate(declarations)
                })

        _hammer(task)
        assert counters.snapshot() == {
            field: (THREADS * ROUNDS - 1 if kind == "peak"
                    else THREADS * ROUNDS * (position + 1))
            for position, (field, kind, _, _) in enumerate(declarations)
        }

    def test_a_snapshot_is_never_torn(self):
        """Fields that move in one ``add`` are equal in every snapshot."""
        counters = CounterSet(SERVER_COUNTERS)
        done = threading.Event()
        torn = []

        def watch():
            while not done.is_set():
                snapshot = counters.snapshot()
                if snapshot["errors"] != snapshot["requests_shed"]:
                    torn.append(snapshot)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            _hammer(lambda index: [counters.add(errors=1, requests_shed=1)
                                   for _ in range(ROUNDS)])
        finally:
            _stop(watcher, done)
        assert not torn
        assert counters.errors == THREADS * ROUNDS


def _relation(rows=3):
    relation = Relation(Schema.of("k:integer"), name="t")
    relation.rows = [(i,) for i in range(rows)]
    return relation


class _SourceCacheDriver:
    """``get`` alternates hits and misses; ``put`` keeps evicting."""

    def __init__(self):
        self.cache = SourceResultCache(capacity=4)
        self.relation = _relation()

    @staticmethod
    def key(name):
        return RequestKey("w", "t", str(name))

    def put(self, name):
        self.cache.put(self.key(name), self.relation)

    def get(self, name):
        return self.cache.get(self.key(name))


class _BoundedCacheDriver:
    def __init__(self):
        self.cache = BoundedCache(capacity=4)

    def put(self, name):
        self.cache.put(("plan", name), object())

    def get(self, name):
        return self.cache.get(("plan", name))


class TestCacheSnapshotsMidFlight:
    @pytest.mark.parametrize("driver_type",
                             [_SourceCacheDriver, _BoundedCacheDriver])
    def test_counters_and_entries_are_one_point_in_time(self, driver_type):
        """While eight threads ``get`` and ``put`` distinct keys, every
        snapshot satisfies the cache's own conservation laws: each lookup is
        exactly one hit or one miss, and each entry present is a put that was
        neither evicted nor invalidated."""
        driver = driver_type()
        gets_started = [0] * THREADS
        gets_finished = [0] * THREADS
        done = threading.Event()
        violations = []

        def work(index):
            for round_number in range(ROUNDS):
                name = (index, round_number)
                gets_started[index] += 1
                assert driver.get(name) is None          # a miss
                gets_finished[index] += 1
                driver.put(name)
                gets_started[index] += 1
                driver.get(name)        # a hit unless already evicted
                gets_finished[index] += 1

        def watch():
            while not done.is_set():
                finished_before = sum(gets_finished)
                snapshot = driver.cache.snapshot()
                started_after = sum(gets_started)
                lookups = snapshot["hits"] + snapshot["misses"]
                if not finished_before <= lookups <= started_after:
                    violations.append(("lookups", snapshot))
                if snapshot["entries"] != (snapshot["puts"]
                                           - snapshot["evictions"]
                                           - snapshot["invalidations"]):
                    violations.append(("entries", snapshot))

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            _hammer(work)
        finally:
            _stop(watcher, done)
        assert not violations
        final = driver.cache.snapshot()
        assert final["hits"] + final["misses"] == 2 * THREADS * ROUNDS
        assert final["puts"] == THREADS * ROUNDS
        assert final["entries"] == 4


class TestTemporaryStoreSnapshot:
    def test_concurrent_staging_keeps_exact_accounting(self):
        store = TemporaryStore("t")

        def work(index):
            for _ in range(ROUNDS // 3):
                handle, _ = store.stage(_relation(rows=5))
                store.release([handle])

        _hammer(work)
        staged = THREADS * (ROUNDS // 3)
        snapshot = store.statistics.snapshot()
        assert snapshot["tables_created"] == staged
        assert snapshot["tables_dropped"] == staged
        assert snapshot["rows_written"] == snapshot["rows_read"] == 5 * staged
        assert 1 <= snapshot["peak_tables"] <= THREADS
