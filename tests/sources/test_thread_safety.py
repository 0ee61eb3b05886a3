"""Concurrency tests for source statistics and the web-wrapper crawl cache.

The engine's scheduler issues fetches from a thread pool, so the counters
sources maintain (queries, pages, simulated latency) must not lose updates
under contention, and a web wrapper hit by two distinct queries at once must
crawl its site exactly once.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.obs.metrics import CounterSet
from repro.sources.base import SOURCE_COUNTERS
from repro.sources.web import WebPage, SimulatedWebSite

THREADS = 8
ROUNDS = 400


def _hammer(task) -> None:
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for future in [pool.submit(task) for _ in range(THREADS)]:
            future.result()


class TestSourceStatistics:
    def test_record_query_loses_no_updates(self):
        statistics = CounterSet(SOURCE_COUNTERS)

        def task():
            for _ in range(ROUNDS):
                statistics.add(queries=1, rows_returned=3)

        _hammer(task)
        assert statistics.queries == THREADS * ROUNDS
        assert statistics.rows_returned == 3 * THREADS * ROUNDS

    def test_record_pages_loses_no_updates(self):
        statistics = CounterSet(SOURCE_COUNTERS)
        _hammer(lambda: [statistics.add(pages_fetched=1)
                         for _ in range(ROUNDS)])
        assert statistics.snapshot()["pages_fetched"] == THREADS * ROUNDS


class TestSimulatedWebSite:
    def test_concurrent_fetches_keep_exact_latency_accounting(self):
        site = SimulatedWebSite("site", "http://example.test", latency_per_fetch=0.25)
        site.add_page(WebPage(url="index.html", content="<html></html>"))

        _hammer(lambda: [site.fetch_page("index.html") for _ in range(ROUNDS)])
        fetches = THREADS * ROUNDS
        assert site.statistics.pages_fetched == fetches
        assert site.simulated_latency == 0.25 * fetches


class TestWebWrapperMaterialize:
    def test_concurrent_queries_trigger_exactly_one_crawl(self):
        from repro.demo.scenarios import build_exchange_wrapper

        wrapper = build_exchange_wrapper()
        queries = [
            "SELECT r3.rate FROM r3 WHERE r3.toCur = 'USD'",
            "SELECT r3.fromCur FROM r3",
            "SELECT r3.rate FROM r3 WHERE r3.fromCur = 'JPY'",
        ]

        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            futures = [pool.submit(wrapper.query, sql) for sql in queries * 4]
            results = [future.result() for future in futures]

        assert all(len(result) >= 1 for result in results)
        # The crawl cache was built once; every concurrent query reused it.
        pages_after_burst = wrapper.site.statistics.pages_fetched
        wrapper.query("SELECT r3.rate FROM r3")
        assert wrapper.site.statistics.pages_fetched == pages_after_burst
        assert pages_after_burst == wrapper.last_report.pages_visited
