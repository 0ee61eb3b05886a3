"""Unit tests for relational and web wrappers."""

import pytest

from repro.engine.engine import MultiDatabaseEngine
from repro.engine.resilience import ResiliencePolicy, RetryPolicy
from repro.errors import SourceUnavailableError, WrapperError
from repro.sources.base import SourceCapabilities
from repro.sources.exchange import build_exchange_rate_site
from repro.sources.memory import MemorySQLSource
from repro.wrappers.spec import parse_wrapper_spec
from repro.wrappers.wrapper import RelationalWrapper, WebWrapper, WrapperRegistry

RATES_SPEC = r"""
EXPORT rates(fromCur string, toCur string, rate float)
START index.html STATE index
TRANSITION index -> quotes FOLLOW "rates/.*\.html"
EXTRACT quotes TUPLE "<tr><td>(?P<fromCur>[A-Z]{3})</td><td>(?P<toCur>[A-Z]{3})</td><td>(?P<rate>[0-9.]+)</td></tr>"
"""


def sql_source(capabilities=None):
    source = MemorySQLSource("source1", capabilities=capabilities)
    source.load_sql(
        "CREATE TABLE r1 (cname varchar, revenue float, currency varchar)",
        "INSERT INTO r1 VALUES ('IBM', 1000000, 'USD'), ('NTT', 1000000, 'JPY')",
    )
    return source


def web_wrapper(**kwargs):
    site = build_exchange_rate_site({("JPY", "USD"): 0.0096, ("EUR", "USD"): 1.1})
    return WebWrapper(site, parse_wrapper_spec(RATES_SPEC), name="exchange", **kwargs), site


class TestRelationalWrapper:
    def test_metadata(self):
        wrapper = RelationalWrapper(sql_source())
        assert wrapper.relation_names() == ["r1"]
        assert wrapper.schema_of("r1").names == ["cname", "revenue", "currency"]

    def test_query_pushdown(self):
        source = sql_source()
        wrapper = RelationalWrapper(source)
        result = wrapper.query("SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'")
        assert result.column("cname") == ["NTT"]
        assert source.statistics.queries == 1

    def test_unknown_relation_rejected(self):
        wrapper = RelationalWrapper(sql_source())
        with pytest.raises(WrapperError):
            wrapper.query("SELECT x.a FROM unknown_table x")

    def test_capability_fallback_evaluates_locally(self):
        source = sql_source(capabilities=SourceCapabilities(
            join=False, arithmetic=False, aggregation=False, order_by=False, union=False))
        wrapper = RelationalWrapper(source)
        # Aggregation is not supported by the source, so the wrapper fetches and
        # evaluates locally; the answer must still be correct.
        result = wrapper.query("SELECT COUNT(*) AS n FROM r1")
        assert result.records() == [{"n": 2}]

    def test_fetch(self):
        wrapper = RelationalWrapper(sql_source())
        assert len(wrapper.fetch("r1")) == 2


class TestWebWrapper:
    def test_materialize_crawls_once_with_cache(self):
        wrapper, site = web_wrapper(cache_results=True)
        first = wrapper.materialize()
        pages_after_first = site.statistics.pages_fetched
        second = wrapper.materialize()
        assert first is second
        assert site.statistics.pages_fetched == pages_after_first

    def test_invalidate_forces_recrawl(self):
        wrapper, site = web_wrapper(cache_results=True)
        wrapper.materialize()
        pages_after_first = site.statistics.pages_fetched
        wrapper.invalidate()
        wrapper.materialize()
        assert site.statistics.pages_fetched > pages_after_first

    def test_query_evaluated_over_crawled_relation(self):
        wrapper, _site = web_wrapper()
        result = wrapper.query(
            "SELECT rates.rate FROM rates WHERE rates.fromCur = 'JPY' AND rates.toCur = 'USD'"
        )
        assert result.column("rate") == [0.0096]

    def test_schema_and_fetch_validate_relation_name(self):
        wrapper, _site = web_wrapper()
        assert wrapper.relation_names() == ["rates"]
        with pytest.raises(WrapperError):
            wrapper.schema_of("other")
        with pytest.raises(WrapperError):
            wrapper.fetch("other")

    def test_crawl_report_recorded(self):
        wrapper, _site = web_wrapper()
        wrapper.materialize()
        assert wrapper.last_report is not None
        assert wrapper.last_report.pages_visited >= 2

    def test_failed_crawl_releases_lock_and_publishes_nothing(self):
        wrapper, site = web_wrapper()
        site.available = False
        with pytest.raises(SourceUnavailableError):
            wrapper.materialize()
        # The serialization lock was released on the failure path — a
        # retrying scheduler (or a concurrent query) can crawl immediately.
        assert wrapper._materialize_lock.acquire(blocking=False)
        wrapper._materialize_lock.release()
        # Nothing half-crawled was published.
        assert wrapper.last_report is None
        assert wrapper._cache is None
        site.available = True
        assert len(wrapper.materialize()) >= 2
        assert wrapper.last_report is not None

    def test_failed_crawl_is_booked_on_the_wrapper_record(self):
        """An engine books a crawl's failures and retries on the wrapper's
        record; the site keeps no count of its own."""
        wrapper, site = web_wrapper()
        engine = MultiDatabaseEngine(resilience=ResiliencePolicy(
            retry_policy=RetryPolicy(max_attempts=2, base_delay_seconds=0.0)))
        engine.register_wrapper(wrapper, estimate_rows=False)
        site.available = False
        with pytest.raises(SourceUnavailableError):
            engine.execute("SELECT rates.rate FROM rates")
        health = engine.source_health()["sources"]["exchange"]
        assert (health["failures"], health["retries"]) == (2, 1)
        assert set(site.statistics.snapshot()) == {
            "queries", "rows_returned", "pages_fetched"}


class TestWrapperRegistry:
    def test_register_and_get(self):
        relational = RelationalWrapper(sql_source())
        web, _site = web_wrapper()
        registry = WrapperRegistry([relational, web])
        assert registry.get("exchange") is web
        assert registry.names == ["exchange", "source1"]
        assert len(registry) == 2

    def test_unknown_wrapper_raises(self):
        with pytest.raises(WrapperError):
            WrapperRegistry().get("missing")
