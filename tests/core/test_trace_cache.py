"""Tests for the trace cache, its pipeline wiring, and the profiling layer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_application
from repro.core import (
    GLOBAL_TRACE_CACHE,
    HEONGPU_CONFIG,
    NEO_CONFIG,
    TENSORFHE_CONFIG,
    NeoContext,
    OperationPipeline,
    TraceCache,
    profile_application,
)
from repro.core.profiling import chrome_trace_json
from repro.ckks.params import get_set
from repro.gpu.trace import ExecutionTrace
from repro.gpu.kernels import KernelCost

#: (config, parameter set) pairs covering every paper system model.
CONFIG_SETS = [
    (NEO_CONFIG, "C"),
    (NEO_CONFIG, "D"),
    (TENSORFHE_CONFIG.with_overrides(keyswitch="hybrid"), "A"),
    (TENSORFHE_CONFIG.with_overrides(keyswitch="hybrid"), "B"),
    (HEONGPU_CONFIG, "E"),
]

OPS = ("hmult", "hrotate", "pmult", "hadd", "padd", "rescale", "keyswitch")


class TestTraceCache:
    def test_miss_then_hit(self):
        cache = TraceCache(maxsize=4)
        trace = ExecutionTrace().add(KernelCost("k", cuda_flops=1.0))
        built = []

        def build():
            built.append(1)
            return trace

        first = cache.get_or_build(("a",), build)
        second = cache.get_or_build(("a",), build)
        assert len(built) == 1
        assert first is second
        assert first.is_frozen
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = TraceCache(maxsize=2)
        mk = lambda n: (lambda: ExecutionTrace().add(KernelCost(n, cuda_flops=1.0)))
        cache.get_or_build(("a",), mk("a"))
        cache.get_or_build(("b",), mk("b"))
        cache.get_or_build(("a",), mk("a"))  # refresh "a"
        cache.get_or_build(("c",), mk("c"))  # evicts "b", the LRU entry
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert cache.stats.evictions == 1

    def test_maxsize_zero_disables_storage(self):
        cache = TraceCache(maxsize=0)
        mk = lambda: ExecutionTrace().add(KernelCost("k", cuda_flops=1.0))
        cache.get_or_build(("a",), mk)
        cache.get_or_build(("a",), mk)
        assert len(cache) == 0
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_clear_resets(self):
        cache = TraceCache(maxsize=4)
        cache.get_or_build(("a",), lambda: ExecutionTrace())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_frozen_trace_rejects_mutation(self):
        cache = TraceCache(maxsize=4)
        got = cache.get_or_build(
            ("a",), lambda: ExecutionTrace().add(KernelCost("k", cuda_flops=1.0))
        )
        with pytest.raises(AttributeError):
            got.add(KernelCost("x"))
        # Deriving new traces from a frozen one still works.
        assert len(got.merged(got)) == 2
        assert len(got.scaled(2.0)) == 1

    def test_frozen_equals_mutable_and_hashes(self):
        mutable = ExecutionTrace().add(KernelCost("k", cuda_flops=1.0))
        frozen = mutable.frozen()
        assert frozen == mutable
        assert hash(frozen) == hash(mutable)
        assert frozen.frozen() is frozen


class TestPipelineCaching:
    def test_repeated_operation_trace_hits(self):
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        before = ctx.cache_stats()
        first = ctx.operation_trace("hmult", 35)
        second = ctx.operation_trace("hmult", 35)
        after = ctx.cache_stats()
        assert first is second
        assert after.hits >= before.hits + 1

    def test_repeated_operation_time_us_hits(self):
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        t1 = ctx.operation_time_us("hmult", 35)
        hits_after_first = ctx.cache_stats().hits
        t2 = ctx.operation_time_us("hmult", 35)
        assert ctx.cache_stats().hits > hits_after_first
        assert t1 == t2

    def test_repeated_application_time_hits(self):
        app = get_application("packbootstrap")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        t1 = ctx.application_time(app)
        stats = ctx.cache_stats()
        t2 = ctx.application_time(app)
        after = ctx.cache_stats()
        assert t1 == t2
        assert after.hits > stats.hits
        assert after.misses == stats.misses  # second pass builds nothing

    def test_application_time_matches_app_time_s(self):
        app = get_application("resnet20")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        assert ctx.application_time(app) == app.time_s(ctx)

    def test_contexts_share_default_cache(self):
        a = NeoContext("C", config=NEO_CONFIG)
        b = NeoContext("C", config=NEO_CONFIG)
        assert a.trace_cache is b.trace_cache is GLOBAL_TRACE_CACHE
        assert a.operation_trace("hmult", 30) is b.operation_trace("hmult", 30)

    def test_distinct_batches_do_not_alias(self):
        cache = TraceCache()
        small = NeoContext("C", config=NEO_CONFIG, batch=8, trace_cache=cache)
        large = NeoContext("C", config=NEO_CONFIG, batch=128, trace_cache=cache)
        assert small.operation_trace("hmult", 35) != large.operation_trace("hmult", 35)

    def test_unknown_operation_raises_value_error(self):
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        with pytest.raises(ValueError, match="unknown operation"):
            ctx.operation_trace("nosuchop", 35)

    def test_builder_keyerror_is_not_misreported(self, monkeypatch):
        """Regression: a KeyError from inside a trace builder used to be
        swallowed and re-raised as 'unknown operation'."""
        pipeline = OperationPipeline(get_set("C"), NEO_CONFIG, cache=TraceCache())

        def broken(level):
            raise KeyError("missing twiddle table")

        monkeypatch.setattr(pipeline, "hmult_trace", broken)
        with pytest.raises(KeyError, match="missing twiddle table"):
            pipeline.operation_trace("hmult", 35)

    @pytest.mark.parametrize("config,set_name", CONFIG_SETS)
    @pytest.mark.parametrize("op", OPS)
    def test_cached_identical_to_uncached(self, config, set_name, op):
        """The cached path returns byte-identical traces and times."""
        cached = NeoContext(set_name, config=config, trace_cache=TraceCache())
        uncached = NeoContext(
            set_name, config=config, trace_cache=TraceCache(maxsize=0)
        )
        for level in (5, 20, 35):
            fresh = cached.pipeline.build_operation_trace(op, level)
            via_cache = cached.operation_trace(op, level)
            assert via_cache == fresh
            assert tuple(via_cache.events) == tuple(fresh.events)
            assert cached.operation_time_us(op, level) == uncached.operation_time_us(
                op, level
            )

    @settings(max_examples=30, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=len(CONFIG_SETS) - 1),
        op=st.sampled_from(OPS),
        level=st.integers(min_value=2, max_value=35),
        repeats=st.integers(min_value=2, max_value=4),
    )
    def test_property_cache_is_transparent(self, index, op, level, repeats):
        """Any (config, op, level): N cached queries == uncached construction."""
        config, set_name = CONFIG_SETS[index]
        cached = NeoContext(set_name, config=config, trace_cache=TraceCache())
        uncached = NeoContext(
            set_name, config=config, trace_cache=TraceCache(maxsize=0)
        )
        reference = uncached.operation_time_us(op, level)
        for _ in range(repeats):
            assert cached.operation_time_us(op, level) == reference
        stats = cached.cache_stats()
        assert stats.misses <= 1 and stats.hits == repeats - 1

    @pytest.mark.parametrize("config,set_name", CONFIG_SETS[:3])
    def test_schedule_time_matches_seed_semantics(self, config, set_name):
        """The single-pass schedule runner equals the old merge-based one."""
        ctx = NeoContext(set_name, config=config, trace_cache=TraceCache())
        schedule = {35: {"hmult": 2, "hrotate": 3}, 20: {"rescale": 1, "hadd": 0}}
        total = ExecutionTrace()
        for level, ops in schedule.items():
            for op_name, count in ops.items():
                if count <= 0:
                    continue
                total = total.merged(
                    ctx.pipeline.build_operation_trace(op_name, level).scaled(count)
                )
        old = total.overlapped_time_s(ctx.device, ctx.config.streams)
        assert ctx.schedule_time_s(schedule) == old


class TestProfiling:
    def test_profile_application_shape(self):
        app = get_application("packbootstrap")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        profile = profile_application(ctx, app)
        assert profile.app == "packbootstrap"
        assert profile.params == "C"
        assert 0 < profile.total_s <= profile.serial_s
        # Per-op serial attribution sums to the full serial time.
        assert sum(op.serial_s for op in profile.per_op.values()) == pytest.approx(
            profile.serial_s, rel=1e-9
        )
        assert sum(profile.per_kernel.values()) == pytest.approx(
            profile.serial_s, rel=1e-9
        )
        # NTT dominates KeySwitch-heavy workloads (the paper's Fig. 13 shape).
        assert {"ntt", "intt"} <= set(profile.per_kernel)
        report = profile.format()
        assert "per-operation" in report and "trace cache" in report

    def test_profile_counts_match_schedule(self):
        app = get_application("helr")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        profile = profile_application(ctx, app)
        schedule = app.schedule(ctx.params)
        for op_name, op in profile.per_op.items():
            expected = sum(ops.get(op_name, 0) for ops in schedule.values())
            assert op.calls == expected

    def test_chrome_trace_export(self):
        app = get_application("packbootstrap")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        trace = ctx.application_trace(app)
        payload = json.loads(chrome_trace_json(ctx, trace))
        assert len(payload["traceEvents"]) == len(trace)
        assert {"name", "ph", "ts", "dur", "tid"} <= set(payload["traceEvents"][0])
