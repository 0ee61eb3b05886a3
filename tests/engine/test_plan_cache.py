"""The pipeline's plan cache: a ``BoundedCache`` under generation keys (LRU
behaviour, statistics, pruning)."""

import pytest

from repro.obs.cache import BoundedCache
from repro.pipeline import PlanCacheKey


def key(fingerprint="f", context="c", mediate=True, catalog=0, knowledge=0):
    return PlanCacheKey(
        fingerprint=fingerprint,
        receiver_context=context,
        mediate=mediate,
        catalog_generation=catalog,
        knowledge_generation=knowledge,
    )


class TestPlanCacheBasics:
    def test_miss_then_hit(self):
        cache = BoundedCache(capacity=4)
        assert cache.get(key()) is None
        cache.put(key(), "plan")
        assert cache.get(key()) == "plan"
        stats = cache.snapshot()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedCache(capacity=0)

    def test_lru_eviction_drops_least_recently_used(self):
        cache = BoundedCache(capacity=2)
        cache.put(key("a"), 1)
        cache.put(key("b"), 2)
        assert cache.get(key("a")) == 1  # refresh "a"
        cache.put(key("c"), 3)           # evicts "b"
        assert cache.get(key("b")) is None
        assert cache.get(key("a")) == 1
        assert cache.get(key("c")) == 3
        assert cache.statistics.evictions == 1


class TestGenerationKeys:
    def test_generations_separate_entries(self):
        cache = BoundedCache(capacity=8)
        cache.put(key(catalog=1), "old")
        assert cache.get(key(catalog=2)) is None
        cache.put(key(catalog=2), "new")
        assert cache.get(key(catalog=1)) == "old"
        assert cache.get(key(catalog=2)) == "new"

    def test_mediate_flag_and_context_separate_entries(self):
        cache = BoundedCache(capacity=8)
        cache.put(key(mediate=True), "mediated")
        cache.put(key(mediate=False), "naive")
        cache.put(key(context="other"), "other-context")
        assert cache.get(key(mediate=True)) == "mediated"
        assert cache.get(key(mediate=False)) == "naive"
        assert cache.get(key(context="other")) == "other-context"

    def test_prune_drops_unreachable_generations(self):
        cache = BoundedCache(capacity=8)
        cache.put(key("a", catalog=1, knowledge=5), "stale")
        cache.put(key("b", catalog=2, knowledge=5), "current")
        dropped = cache.drop(lambda stored: stored.catalog_generation != 2
                             or stored.knowledge_generation != 5)
        assert dropped == ["stale"]
        assert len(cache) == 1
        assert cache.get(key("b", catalog=2, knowledge=5)) == "current"

    def test_clear_empties_the_cache(self):
        cache = BoundedCache(capacity=8)
        cache.put(key("a"), 1)
        cache.put(key("b"), 2)
        assert cache.drop() == [1, 2]
        assert len(cache) == 0
        assert cache.statistics.invalidations == 2
