"""``BoundedCache`` against a reference model, over generated operation
sequences.

The model is a plain recency-ordered list of keys plus a dict of values, with
its own counters.  After every step the cache and the model agree on
contents (in recency order), on what ``put`` evicted and on every counter;
``peek`` never changes what the next ``put`` evicts, and every lookup is
exactly one hit or one miss.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.cache import BoundedCache

KEYS = st.sampled_from("abcdef")

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("get_many"), st.lists(KEYS, max_size=4)),
        st.tuples(st.just("peek"), KEYS),
        st.tuples(st.just("put"), KEYS),
        st.tuples(st.just("pop"), KEYS),
        st.tuples(st.just("drop"), st.frozensets(KEYS, max_size=3)),
        st.tuples(st.just("drop_all")),
    ),
    max_size=40,
)


class Model:
    """What the cache must do, written the slow and obvious way."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []  # least recently used first
        self.values = {}
        self.counters = dict(hits=0, misses=0, puts=0, evictions=0,
                             invalidations=0)
        self.lookups = 0

    def _touch(self, key):
        self.order.remove(key)
        self.order.append(key)

    def get(self, key):
        self.lookups += 1
        if key not in self.values:
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        self._touch(key)
        return self.values[key]

    def get_many(self, keys):
        found = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                found[key] = value
        return found

    def peek(self, key):
        return self.values.get(key)

    def put(self, key, value):
        if key in self.values:
            self.order.remove(key)
        self.order.append(key)
        self.values[key] = value
        evicted = []
        while len(self.order) > self.capacity:
            evicted.append(self.values.pop(self.order.pop(0)))
        self.counters["puts"] += 1
        self.counters["evictions"] += len(evicted)
        return evicted

    def pop(self, key):
        if key not in self.values:
            return None
        self.order.remove(key)
        self.counters["invalidations"] += 1
        return self.values.pop(key)

    def drop(self, predicate):
        doomed = [key for key in self.order if predicate(key)]
        for key in doomed:
            self.order.remove(key)
        self.counters["invalidations"] += len(doomed)
        return [self.values.pop(key) for key in doomed]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), OPERATIONS)
def test_bounded_cache_matches_the_model(capacity, operations):
    cache, model = BoundedCache(capacity), Model(capacity)
    for step, operation in enumerate(operations):
        name, *arguments = operation
        if name == "put":
            value = (arguments[0], step)
            assert cache.put(arguments[0], value) == model.put(arguments[0], value)
        elif name == "drop":
            doomed = arguments[0]
            assert (cache.drop(lambda key: key in doomed)
                    == model.drop(lambda key: key in doomed))
        elif name == "drop_all":
            assert cache.drop() == model.drop(lambda key: True)
        else:
            assert (getattr(cache, name)(arguments[0])
                    == getattr(model, name)(arguments[0]))

        # Contents in recency order: the next put's victim is the first.
        assert cache.values() == [model.values[key] for key in model.order]
        assert len(cache) == len(model.order)
        assert all((key in cache) == (key in model.values) for key in "abcdef")
        snapshot = cache.snapshot()
        assert snapshot["hits"] + snapshot["misses"] == model.lookups
        assert snapshot["entries"] == len(cache)
        assert snapshot["capacity"] == capacity
        assert {field: snapshot[field] for field in model.counters} == model.counters


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.lists(KEYS, min_size=1, max_size=8), KEYS, KEYS)
def test_peek_never_changes_the_next_eviction(capacity, filled, peeked, added):
    """Two caches filled alike, one peeked at: the next ``put`` evicts the
    same entries from both."""
    plain, peeked_at = BoundedCache(capacity), BoundedCache(capacity)
    for step, key in enumerate(filled):
        plain.put(key, step)
        peeked_at.put(key, step)
    peeked_at.peek(peeked)
    assert peeked_at.put(added, "new") == plain.put(added, "new")
    assert peeked_at.values() == plain.values()
