"""The pipeline's compile cache: a ``BoundedCache`` keyed by statement shape
whose entries record their generations (LRU behaviour, statistics, pruning)."""

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


def shape(fingerprint="f", context="c", mediate=True):
    return (fingerprint, context, mediate)


class TestPlanCacheBasics:
    def test_miss_then_hit(self):
        cache = BoundedCache(capacity=4)
        assert cache.get(shape()) is None
        cache.put(shape(), "plan")
        assert cache.get(shape()) == "plan"
        stats = cache.snapshot()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedCache(capacity=0)

    def test_lru_eviction_drops_least_recently_used(self):
        cache = BoundedCache(capacity=2)
        cache.put(shape("a"), 1)
        cache.put(shape("b"), 2)
        assert cache.get(shape("a")) == 1  # refresh "a"
        cache.put(shape("c"), 3)           # evicts "b"
        assert cache.get(shape("b")) is None
        assert cache.get(shape("a")) == 1
        assert cache.get(shape("c")) == 3
        assert cache.statistics.evictions == 1


class TestShapeKeys:
    """One entry per statement shape ``(fingerprint, context, mediate)``;
    the stored plan's key records the generations it was compiled against."""

    def test_a_recompile_replaces_its_shape_entry(self):
        cache = BoundedCache(capacity=8)
        cache.put(shape(), key(catalog=1))
        cache.put(shape(), key(catalog=2))
        assert len(cache) == 1
        assert cache.get(shape()).catalog_generation == 2

    def test_mediate_flag_and_context_separate_entries(self):
        cache = BoundedCache(capacity=8)
        cache.put(shape(mediate=True), "mediated")
        cache.put(shape(mediate=False), "naive")
        cache.put(shape(context="other"), "other-context")
        assert cache.get(shape(mediate=True)) == "mediated"
        assert cache.get(shape(mediate=False)) == "naive"
        assert cache.get(shape(context="other")) == "other-context"

    def test_prune_drops_entries_of_past_generations(self):
        cache = BoundedCache(capacity=8)
        cache.put(shape("a"), key("a", catalog=1, knowledge=5))
        cache.put(shape("b"), key("b", catalog=2, knowledge=5))
        stale = {shape(stored.fingerprint) for stored in cache.values()
                 if (stored.catalog_generation, stored.knowledge_generation) != (2, 5)}
        dropped = cache.drop(stale.__contains__)
        assert [stored.fingerprint for stored in dropped] == ["a"]
        assert len(cache) == 1
        assert cache.get(shape("b")).fingerprint == "b"

    def test_clear_empties_the_cache(self):
        cache = BoundedCache(capacity=8)
        cache.put(shape("a"), 1)
        cache.put(shape("b"), 2)
        assert cache.drop() == [1, 2]
        assert len(cache) == 0
        assert cache.statistics.invalidations == 2
