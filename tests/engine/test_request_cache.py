"""Unit tests for canonical request keys and the source-result cache."""

import pytest

from repro.engine.plan import SourceRequest
from repro.engine.request_cache import RequestKey, SourceResultCache, request_key
from repro.relational import relation_from_rows
from repro.relational.algebra import Scan, Transfer
from repro.sql.parser import parse_expression


def _sql_request(condition: str, wrapper: str = "source1", relation: str = "r1",
                 binding: str = "r1") -> SourceRequest:
    """A request for ``r1.cname`` of the rows satisfying ``condition``."""
    scan = Scan(relation, None, ("cname",), conditions=(parse_expression(condition),))
    return SourceRequest(transfer=Transfer(scan, binding), wrapper_name=wrapper)


def _fetch_request(wrapper: str = "exchange", relation: str = "r3",
                   binding: str = "r3", filters=()) -> SourceRequest:
    scan = Scan(relation, None, ("fromCur", "toCur", "rate"), takes_sql=False)
    return SourceRequest(transfer=Transfer(scan, binding, filters), wrapper_name=wrapper)


def _relation(name: str = "cached", rows=((1, "x"), (2, "y"))):
    return relation_from_rows(name, ["a:integer", "b:string"], list(rows),
                              qualifier=None)


class TestRequestKey:
    def test_identical_pushdowns_share_a_key(self):
        condition = "r1.currency = 'JPY'"
        key = request_key(_sql_request(condition))
        assert key == request_key(_sql_request(condition))
        assert key.text == "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'"

    def test_different_pushdowns_get_different_keys(self):
        first = _sql_request("r1.currency = 'JPY'")
        second = _sql_request("r1.currency = 'USD'")
        assert request_key(first) != request_key(second)

    def test_fetch_requests_key_on_wrapper_and_relation(self):
        assert request_key(_fetch_request()) == request_key(_fetch_request())
        assert request_key(_fetch_request()).text == "FETCH r3"
        assert request_key(_fetch_request()) != request_key(
            _fetch_request(wrapper="other")
        )

    def test_wrapper_and_relation_names_are_case_insensitive(self):
        lower = request_key(_fetch_request(wrapper="exchange", relation="r3"))
        upper = request_key(_fetch_request(wrapper="EXCHANGE", relation="R3"))
        assert lower.wrapper == upper.wrapper
        assert lower.relation == upper.relation

    def test_local_filters_do_not_change_the_key(self):
        # Residual per-binding filters are applied locally after the shared
        # fetch; two branches differing only in them must share a round trip.
        plain = _fetch_request()
        filtered = _fetch_request(filters=(parse_expression("r3.toCur = 'USD'"),))
        assert request_key(plain) == request_key(filtered)


class TestSourceResultCache:
    def test_get_miss_then_hit(self):
        cache = SourceResultCache(capacity=4)
        key = request_key(_fetch_request())
        assert cache.get(key) is None
        cache.put(key, _relation())
        hit = cache.get(key)
        assert hit is not None
        assert hit.rows == [(1, "x"), (2, "y")]
        assert cache.statistics.misses == 1
        assert cache.statistics.hits == 1

    def test_entries_are_frozen_copies(self):
        cache = SourceResultCache(capacity=4)
        key = request_key(_fetch_request())
        live = _relation()
        cache.put(key, live)
        live.rows.append((3, "z"))
        assert len(cache.get(key)) == 2

    def test_hits_are_isolated_from_consumer_mutation(self):
        cache = SourceResultCache(capacity=4)
        key = request_key(_fetch_request())
        cache.put(key, _relation())
        cache.get(key).rows.append((99, "corrupt"))
        assert len(cache.get(key)) == 2

    def test_lru_eviction_prefers_recently_used(self):
        cache = SourceResultCache(capacity=2)
        keys = [RequestKey("w", f"r{index}", f"FETCH r{index}") for index in range(3)]
        cache.put(keys[0], _relation())
        cache.put(keys[1], _relation())
        cache.get(keys[0])  # refresh: key 1 is now the oldest
        cache.put(keys[2], _relation())
        assert keys[0] in cache and keys[2] in cache
        assert keys[1] not in cache
        assert cache.statistics.evictions == 1

    def test_invalidate_per_wrapper_and_relation(self):
        cache = SourceResultCache(capacity=8)
        cache.put(RequestKey("w1", "a", "FETCH a"), _relation())
        cache.put(RequestKey("w1", "b", "FETCH b"), _relation())
        cache.put(RequestKey("w2", "a", "FETCH a"), _relation())
        assert cache.invalidate(wrapper="W1", relation="b") == 1
        assert cache.invalidate(relation="A") == 2
        assert len(cache) == 0
        assert cache.statistics.invalidations == 3

    def test_clear_and_snapshot(self):
        cache = SourceResultCache(capacity=8)
        cache.put(RequestKey("w", "r", "FETCH r"), _relation())
        assert cache.clear() == 1
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 0
        assert snapshot["capacity"] == 8
        assert snapshot["puts"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SourceResultCache(capacity=0)
