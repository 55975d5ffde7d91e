"""Unified telemetry: metrics registry, span tracing, FHE health meters.

The always-on observability layer the serving / fleet / autotuning
roadmap items report through:

* :mod:`repro.telemetry.registry` -- labelled counters, gauges and
  fixed-bucket histograms with JSON-snapshot and Prometheus-text
  exporters; near-zero cost while disabled.
* :mod:`repro.telemetry.tracing` -- request-scoped span traces (simulated
  *and* wall clock) exported as Chrome-trace JSON and JSONL.
* :mod:`repro.telemetry.stats` -- the one bounded LRU :class:`Cache` every
  process-wide memo is built on, its :class:`CacheStats` counters, and the
  registry of named caches (:func:`all_cache_stats`, :func:`clear_caches`).
* :mod:`repro.telemetry.fhe` -- noise-budget / level / scale-drift meters
  over the CKKS evaluator and analytic serving schedules.

``fhe`` (which reaches into :mod:`repro.ckks`) loads lazily so that ckks
modules can import the stdlib-only telemetry layers without a cycle.
"""

from __future__ import annotations

from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_telemetry,
    enable_telemetry,
    global_registry,
    telemetry_enabled,
)
from .stats import Cache, CacheStats, all_cache_sizes, all_cache_stats, clear_caches
from .tracing import (
    Span,
    SpanNode,
    Tracer,
    activate_tracer,
    active_tracer,
    deactivate_tracer,
    span,
)

_LAZY = {
    "FheMeter": "fhe",
    "FheWarning": "fhe",
    "TrajectoryPoint": "fhe",
    "ModeledNoisePoint": "fhe",
    "modeled_noise_trajectory": "fhe",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "Cache",
    "CacheStats",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanNode",
    "Tracer",
    "activate_tracer",
    "active_tracer",
    "all_cache_sizes",
    "all_cache_stats",
    "clear_caches",
    "deactivate_tracer",
    "disable_telemetry",
    "enable_telemetry",
    "global_registry",
    "span",
    "telemetry_enabled",
    # lazy (repro.telemetry.fhe)
    "FheMeter",
    "FheWarning",
    "TrajectoryPoint",
    "ModeledNoisePoint",
    "modeled_noise_trajectory",
]
