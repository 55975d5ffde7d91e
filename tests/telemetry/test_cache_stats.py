"""The one cache layer: the :class:`Cache` policy and the named-cache registry."""

import sys
import threading

from repro.math.ntt import get_plan
from repro.math.primes import ntt_primes
from repro.telemetry.stats import (
    Cache,
    CacheStats,
    all_cache_sizes,
    all_cache_stats,
    clear_caches,
)


class TestCacheStats:
    def test_hit_rate_math(self):
        stats = CacheStats(hits=3, misses=1, evictions=2)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_is_independent(self):
        stats = CacheStats(hits=1)
        snap = stats.snapshot()
        stats.hits = 99
        assert snap.hits == 1

    def test_as_dict_shape(self):
        d = CacheStats(hits=1, misses=1).as_dict()
        assert d == {"hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5}


def _join_all(threads, timeout=30.0):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "a worker thread hung"


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(maxsize=4)
        built = []
        first = cache.get_or_build("a", lambda: built.append(1) or "A")
        second = cache.get_or_build("a", lambda: built.append(1) or "B")
        assert first == second == "A"
        assert built == [1]
        assert cache.stats == CacheStats(hits=1, misses=1)
        assert "a" in cache and len(cache) == 1

    def test_none_is_a_cacheable_value(self):
        cache = Cache(maxsize=4)
        cache.get_or_build("a", lambda: None)
        assert cache.get_or_build("a", lambda: "rebuilt") is None
        assert cache.stats.hits == 1

    def test_lru_order(self):
        cache = Cache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # a read refreshes "a"
        cache.get_or_build("c", lambda: 3)  # evicts "b", the LRU entry
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_maxsize_zero_stores_nothing(self):
        cache = Cache(maxsize=0)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 2
        assert len(cache) == 0
        assert cache.stats == CacheStats(hits=0, misses=2)

    def test_clear_resets_entries_and_counters(self):
        cache = Cache(maxsize=1)
        for key in "aab":
            cache.get_or_build(key, lambda: key)
        assert cache.stats == CacheStats(hits=1, misses=2, evictions=1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == CacheStats()

    def test_stats_snapshots_are_independent(self):
        cache = Cache(maxsize=4)
        snap = cache.stats
        cache.get_or_build("a", lambda: 1)
        assert snap == CacheStats()
        assert cache.stats.misses == 1

    def test_build_may_reenter_the_cache(self):
        cache = Cache(maxsize=4)
        outer = cache.get_or_build(
            "outer", lambda: cache.get_or_build("inner", lambda: 1) + 1
        )
        assert outer == 2 and "inner" in cache and "outer" in cache

    def test_first_insert_wins_under_concurrent_misses(self):
        cache = Cache(maxsize=4)
        n = 8
        barrier = threading.Barrier(n, timeout=30)
        got = [None] * n

        def build():
            barrier.wait()  # every lane misses before any lane inserts
            return object()

        def lane(i):
            got[i] = cache.get_or_build("k", build)

        _join_all([threading.Thread(target=lane, args=(i,)) for i in range(n)])
        assert got[0] is not None
        assert all(value is got[0] for value in got)
        assert len(cache) == 1
        assert cache.stats == CacheStats(hits=0, misses=n)

    def test_concurrent_lookups_lose_no_update(self):
        cache = Cache(maxsize=8)
        lanes, ops = 16, 2000
        wrong = []

        def lane(seed):
            for i in range(ops):
                key = (seed * 7 + i) % 24
                if cache.get_or_build(key, lambda: key * 2) != key * 2:
                    wrong.append(key)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _join_all([threading.Thread(target=lane, args=(s,)) for s in range(lanes)])
        finally:
            sys.setswitchinterval(previous)
        stats = cache.stats
        assert not wrong
        assert stats.lookups == lanes * ops
        assert len(cache) == 8
        assert stats.evictions <= stats.misses - len(cache)


class TestDirectory:
    def test_process_surfaces_register_on_import(self):
        # importing the owning modules is enough -- no explicit wiring
        import repro.ckks.keyswitch.plan  # noqa: F401  (op_plans)
        import repro.core.trace_cache  # noqa: F401  (trace_cache)
        import repro.math.ntt  # noqa: F401  (ntt_plans, ntt_stacks)

        names = set(all_cache_sizes())
        for expected in ("ntt_plans", "ntt_stacks", "op_plans", "trace_cache"):
            assert expected in names
        assert set(all_cache_stats()) == names

    def test_unnamed_caches_stay_unregistered(self):
        before = all_cache_sizes()
        Cache(maxsize=4).get_or_build("a", lambda: 1)
        assert all_cache_sizes() == before

    def test_clear_caches_empties_every_named_cache(self):
        degree = 8
        get_plan(degree, ntt_primes(20, degree, 1)[0])
        assert all_cache_sizes()["ntt_plans"] >= 1
        clear_caches()
        assert set(all_cache_sizes().values()) == {0}
        assert all(s == CacheStats() for s in all_cache_stats().values())
