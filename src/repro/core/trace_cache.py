"""Keyed LRU cache of execution traces and their prices.

Trace construction is deterministic: the same (parameter set, pipeline
config, batch, operation, level) always yields the same event list, yet the
model layer used to rebuild it on every timing query -- an application
schedule re-derives the identical KeySwitch trace hundreds of times.  GPU
FHE libraries avoid exactly this by precomputing execution plans once and
replaying them (Cheddar's kernel plans, TensorFHE's batched kernel reuse);
this module is the model-side mirror of that idea.

Keys must be fully value-based: :class:`~repro.ckks.params.ParameterSet`
and :class:`~repro.core.pipeline.PipelineConfig` are frozen dataclasses, so
two pipelines built from equal inputs share cached traces even across
contexts.  The device is deliberately *not* part of a trace key -- traces
describe resource demands, and devices only enter when a trace is timed.

Beside the traces the same cache holds what timing them produced:
:meth:`~repro.core.neo_context.NeoContext.schedule_price` stores one
:class:`~repro.gpu.trace.TracePrice` per (params, config, batch,
``"price"``, device, streams, schedule), so a schedule shape is priced once
per cache (``maxsize=0`` re-prices on every call).  A serving model built
without a cache keeps its traces in a private one and asks
:data:`GLOBAL_TRACE_CACHE` for every price that private cache misses,
under the same key: across the servers of one process a shape is priced
once, while only the small price records -- never the traces -- outlive a
server.

Cached traces are returned ``frozen()`` (tuple-backed event lists), so a
cache hit can be handed to many callers without aliasing hazards.
:class:`TraceCache` is a :class:`~repro.telemetry.stats.Cache`; the shared
:data:`GLOBAL_TRACE_CACHE` is the named ``trace_cache``, while the caches
a serving model or a tuning sweep creates for itself stay unnamed.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Tuple

from ..gpu.trace import ExecutionTrace
from ..telemetry.stats import Cache, CacheStats

#: A fully value-based cache key: (params, config, batch, operation, level),
#: or (params, config, batch, "price", device, streams, schedule).
TraceKey = Tuple[Hashable, ...]

__all__ = ["CacheStats", "TraceCache", "TraceKey", "GLOBAL_TRACE_CACHE"]


class TraceCache(Cache):
    """An LRU-bounded map from :data:`TraceKey` to frozen traces and prices.

    ``maxsize=0`` disables storage entirely (every lookup misses and the
    freshly built value is returned uncached) -- the benchmarks use this to
    time the uncached construction path against the cached one.
    """

    def get_or_build(self, key: TraceKey, build: Callable[[], Any]) -> Any:
        """The cached value for `key`, built (and stored) on a miss.

        Traces are stored ``frozen()``; any other value (a price record)
        is stored as built.
        """

        def build_frozen():
            value = build()
            return value.frozen() if isinstance(value, ExecutionTrace) else value

        return super().get_or_build(key, build_frozen)


#: Process-wide default cache shared by every pipeline that is not handed
#: its own.  Keys are fully value-based, so sharing across parameter sets,
#: configs and batch sizes is safe by construction.
GLOBAL_TRACE_CACHE = TraceCache("trace_cache", maxsize=4096)
