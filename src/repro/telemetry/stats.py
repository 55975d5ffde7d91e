"""One cache layer for every process-wide memo.

Every long-lived memo in the process -- NTT plans and stacks, modulus
stacks, BConv tables, automorphism maps, Barrett constants, key-switch op
plans, modeled traces, kernel costs, tuned configurations, single-GPU
reference times and kernel-span descriptors -- is a :class:`Cache`: LRU,
bounded, and counted in one :class:`CacheStats` vocabulary.  A cache
constructed with a name registers itself here, so observability consumers
(the metrics registry, :class:`ServingReport`, the ``repro metrics`` CLI)
enumerate every cache through :func:`all_cache_stats` without knowing
which subsystem owns which, and :func:`clear_caches` empties all of them
for cold-cache measurements.

This module sits below every other layer (stdlib only), so ``math`` --
which cannot import ``core`` -- and ``core`` both import it freely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache (trace, plan, op-plan...)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


#: name -> the live named cache.
_REGISTRY: Dict[str, "Cache"] = {}
_REGISTRY_LOCK = threading.Lock()


class Cache:
    """A thread-safe memo of built values, evicting least recently used.

    ``maxsize=0`` stores nothing: every lookup misses and builds, the
    uncached mode the benchmarks time against.  The lock guards only the
    bookkeeping and ``build()`` runs unlocked, so ``build`` may look up
    (and fill) the same cache, and no caller waits behind another's build.
    Concurrent misses on one key may each build; the first insert wins and
    every caller gets the winning value.

    A cache constructed with a `name` registers itself process-wide,
    replacing any earlier cache of that name.
    """

    def __init__(self, name: Optional[str] = None, maxsize: int = 1024):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = 0
        if name is not None:
            with _REGISTRY_LOCK:
                _REGISTRY[name] = self

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The cached value for `key`, built by ``build()`` on a miss."""
        entries = self._entries
        with self._lock:
            try:
                entries.move_to_end(key)  # the hit test: KeyError on a miss
            except KeyError:
                self._misses += 1
            else:
                self._hits += 1
                return entries[key]
        value = build()
        with self._lock:
            if key in entries:
                return entries[key]  # a concurrent build landed first
            if self.maxsize > 0:
                entries[key] = value
                if len(entries) > self.maxsize:
                    entries.popitem(last=False)
                    self._evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return CacheStats(self._hits, self._misses, self._evictions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


def _named_caches() -> Dict[str, Cache]:
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def all_cache_stats() -> Dict[str, CacheStats]:
    """Point-in-time counters of every named cache, by name."""
    return {name: cache.stats for name, cache in _named_caches().items()}


def all_cache_sizes() -> Dict[str, int]:
    """Resident entry counts of every named cache, by name."""
    return {name: len(cache) for name, cache in _named_caches().items()}


def clear_caches() -> None:
    """Empty every named cache and reset its counters (cold measurements)."""
    for cache in _named_caches().values():
        cache.clear()
