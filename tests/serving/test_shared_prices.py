"""Serving models built without a trace cache share price records.

A default :class:`~repro.serving.server.NeoServiceModel` keeps traces in
its own cache but takes every batch price it misses there from
``GLOBAL_TRACE_CACHE``, under the key :meth:`NeoContext.schedule_price`
builds.  These tests pin what that may and may not change: a warm server
builds no trace and schedules exactly as a cold one, a model handed its
own cache never touches the shared one, and models that differ in
anything the price depends on never see each other's records.
"""

from dataclasses import replace

import pytest

from repro.apps import get_application
from repro.ckks.params import get_set
from repro.core import GLOBAL_TRACE_CACHE, NEO_CONFIG, NeoContext, TraceCache
from repro.core.autotuner import default_tuning_store
from repro.core.pipeline import OperationPipeline
from repro.gpu import A100, H100
from repro.serving import Fleet, Server, parse_workload_spec, synthesize_arrivals
from repro.telemetry.stats import clear_caches


def _server(**kwargs):
    defaults = dict(params="C", policy="bucketed", max_batch=16, max_wait_s=20.0, lanes=2)
    defaults.update(kwargs)
    return Server(**defaults)


def _drain(server):
    server.submit_many(synthesize_arrivals(parse_workload_spec("smoke"), seed=0))
    return server.drain()


@pytest.fixture()
def builds(monkeypatch):
    """Every ``build_operation_trace`` call made while the test runs."""
    calls = []
    build = OperationPipeline.build_operation_trace

    def counting(pipeline, name, level):
        calls.append((name, level))
        return build(pipeline, name, level)

    monkeypatch.setattr(OperationPipeline, "build_operation_trace", counting)
    return calls


def _shared_state():
    return GLOBAL_TRACE_CACHE.stats.as_dict(), len(GLOBAL_TRACE_CACHE)


class TestWarmServers:
    def test_second_default_server_builds_no_trace(self, builds):
        clear_caches()
        first = _drain(_server())
        assert builds, "a cold process builds the traces it prices"
        builds.clear()
        second = _drain(_server())
        assert builds == []
        assert second.fingerprint() == first.fingerprint()
        # Its own cache still holds one record per priced shape, so a
        # replay of the same trace hits it.
        assert second.cache.misses == len({(b.app, b.executed_size) for b in second.batches})
        assert _drain(_server()).fingerprint() == first.fingerprint()

    def test_clear_caches_between_drains_changes_nothing(self):
        first = _drain(_server())
        clear_caches()
        assert _drain(_server()).fingerprint() == first.fingerprint()

    def test_fleet_without_a_cache_takes_shared_prices(self, builds):
        clear_caches()
        first = _drain(Fleet(gpus=2, max_batch=16))
        builds.clear()
        assert _drain(Fleet(gpus=2, max_batch=16)).fingerprint() == first.fingerprint()
        assert builds == []


class TestHandedCaches:
    @pytest.mark.parametrize("maxsize", [1024, 0])
    def test_server_with_its_own_cache_never_touches_the_shared_one(self, maxsize):
        before = _shared_state()
        report = _drain(_server(trace_cache=TraceCache(maxsize=maxsize)))
        assert report.served == 20
        assert _shared_state() == before

    @pytest.mark.parametrize("maxsize", [1024, 0])
    def test_fleet_with_its_own_cache_never_touches_the_shared_one(self, maxsize):
        before = _shared_state()
        _drain(Fleet(gpus=2, max_batch=16, trace_cache=TraceCache(maxsize=maxsize)))
        assert _shared_state() == before


#: Models that differ in params, pipeline config, device, streams (via
#: lanes) or autotune.
VARIANTS = [
    dict(params="C"),
    dict(params="G"),
    dict(params="C", config=replace(NEO_CONFIG, fused=False)),
    dict(params="C", device=H100),
    dict(params="C", lanes=1),
    dict(params="C", autotune=True),
]
SHAPES = [("helr", 4), ("packbootstrap", 8)]


def _cold_price(variant, app, size, streams):
    """The price of one shape from a fresh context with a fresh cache."""
    params = get_set(variant["params"])
    device = variant.get("device", A100)
    config = variant.get("config", NEO_CONFIG)
    if variant.get("autotune"):
        device = device.hier()
        best = default_tuning_store().get_or_tune(
            app, params=params, device=device, budget="quick",
            trace_cache=TraceCache(),
        ).best
        params, config = best.parameter_set(params), best.pipeline_config(config)
    ctx = NeoContext(params, device=device, config=config, batch=size,
                     trace_cache=TraceCache())
    return ctx.application_price(get_application(app), streams).overlapped_s


def test_models_that_differ_never_share_a_price():
    clear_caches()
    prices = {}
    for variant in VARIANTS:
        server = _server(**variant)
        for app, size in SHAPES:
            got = server.model.service_time_s(app, size, server.streams_per_lane)
            assert got == _cold_price(variant, app, size, server.streams_per_lane)
            prices.setdefault((app, size), set()).add(got)
    # Every variant prices every shape differently, so a record shared
    # across variants would have shown above.
    assert all(len(seen) == len(VARIANTS) for seen in prices.values())
