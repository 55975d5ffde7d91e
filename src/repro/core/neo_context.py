"""NeoContext: the front door of the performance model.

Ties together a parameter set (Table 4), a device model (A100), and a
pipeline configuration, and answers the questions the evaluation section
asks: how long does an operation take, what is a kernel's throughput, how
long does an application run, and how does each optimisation step move the
needle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..ckks.params import ParameterSet, get_set
from ..gpu.device import A100, DeviceSpec
from ..gpu.kernels import KernelCost
from ..gpu.trace import ExecutionTrace, TracePrice, price
from .bconv_matmul import bconv_cost
from .ip_matmul import ip_cost
from .pipeline import NEO_CONFIG, OperationPipeline, PipelineConfig
from .radix16_ntt import ntt_cost
from .trace_cache import CacheStats, TraceCache

#: Operation mix of one generic application "level step" -- used by the
#: app schedules in :mod:`repro.apps` (they provide their own mixes too).
DEFAULT_OPERATIONS = ("hmult", "hrotate", "pmult", "hadd", "padd", "rescale")


class NeoContext:
    """Performance context for one (parameter set, device, config) triple."""

    def __init__(
        self,
        params: ParameterSet | str,
        device: DeviceSpec = A100,
        config: PipelineConfig = NEO_CONFIG,
        batch: Optional[int] = None,
        trace_cache: Optional[TraceCache] = None,
    ):
        self.params = get_set(params) if isinstance(params, str) else params
        self.config = config
        self.pipeline = OperationPipeline(
            self.params, config, batch=batch, cache=trace_cache
        )
        self.batch = self.pipeline.batch
        #: The device as handed in, before batch derating (siblings re-derate).
        self.base_device = device
        # Small batches leave the GPU under-occupied (Fig. 17): the context
        # sees a derated device.
        self.device = device.derated_for_batch(self.batch)

    def with_batch(self, batch: int) -> "NeoContext":
        """A sibling context at a different BatchSize, sharing the trace cache.

        The serving layer sizes dynamic batches at admission time; siblings
        share one keyed cache, so a batch shape that has been timed before
        costs nothing to time again.
        """
        if batch == self.batch:
            return self
        return NeoContext(
            self.params,
            device=self.base_device,
            config=self.config,
            batch=batch,
            trace_cache=self.pipeline.cache,
        )

    # -- operations ---------------------------------------------------------------

    def operation_trace(self, name: str, level: Optional[int] = None) -> ExecutionTrace:
        level = self.params.max_level if level is None else level
        return self.pipeline.operation_trace(name, level)

    def operation_time_us(
        self, name: str, level: Optional[int] = None, per_ciphertext: bool = True
    ) -> float:
        """Wall time of one operation, microseconds.

        With ``per_ciphertext=True`` (the paper's Table 6 convention) the
        batched kernel time is amortised over the ``BatchSize`` ciphertexts
        it processes.
        """
        trace = self.operation_trace(name, level)
        time = trace.overlapped_time_s(self.device, self.config.streams) * 1e6
        return time / self.batch if per_ciphertext else time

    def keyswitch_time_us(self, level: Optional[int] = None) -> float:
        return self.operation_time_us("keyswitch", level)

    def operation_table_us(self, level: Optional[int] = None) -> Dict[str, float]:
        """Table-6-style row: time of each primitive operation."""
        return {
            op: self.operation_time_us(op, level) for op in DEFAULT_OPERATIONS
        }

    # -- kernels -------------------------------------------------------------------

    def kernel_time_s(self, kernel: str, level: Optional[int] = None) -> float:
        """Time of one standalone kernel invocation at `level`.

        The kernel *definition* is fixed by the parameter set (so that
        throughput ratios across implementations are apples-to-apples,
        as in Table 7): NTT transforms one batch of one limb; BConv raises
        one digit (``alpha -> l + 1`` limbs, the Hybrid Mod Up conversion);
        IP performs one Hybrid external product.  Only the *implementation*
        (element-wise vs GEMM, component mapping) comes from the config.
        """
        level = self.params.max_level if level is None else level
        p = self.params
        cfg = self.config
        if kernel == "ntt":
            cost = ntt_cost(
                p.degree,
                batch_limbs=self.batch,
                wordsize=p.wordsize,
                style=cfg.ntt_style,
                component=cfg.ntt_component,
            )
        elif kernel == "bconv":
            cost = bconv_cost(
                p.alpha,
                level + 1,
                self.batch,
                p.degree,
                p.wordsize,
                style=cfg.bconv_style,
                component=cfg.bconv_component,
                fused=cfg.fused,
            )
        elif kernel == "ip":
            beta = p.beta(level)
            extended = level + 1 + p.alpha
            cost = ip_cost(
                beta,
                2,
                extended,
                self.batch,
                p.degree,
                p.wordsize,
                style=cfg.ip_style,
                component="cuda",  # Hybrid IP: K too small for the TCU
                fused=cfg.fused,
                pair_factor=1,
            )
        else:
            raise ValueError(f"unknown kernel {kernel!r}")
        return ExecutionTrace().add(cost).overlapped_time_s(
            self.device, self.config.streams
        )

    def kernel_throughput(self, kernel: str, level: Optional[int] = None) -> float:
        """Invocations per second (Table 7 units)."""
        return 1.0 / self.kernel_time_s(kernel, level)

    # -- applications --------------------------------------------------------------

    def schedule_trace(self, schedule: Mapping[str, Mapping[str, int]]) -> ExecutionTrace:
        """Assemble an application schedule into one trace, cache-aware.

        Per-op traces come from the trace cache (built at most once per
        (op, level)) and the combined trace is assembled in a single pass --
        no quadratic re-merging of event lists.
        """
        events: List[KernelCost] = []
        for level, ops in schedule.items():
            level = int(level)
            for op, count in ops.items():
                if count <= 0:
                    continue
                events.extend(
                    self.pipeline.scaled_operation_trace(op, level, count).events
                )
        return ExecutionTrace(events)

    def schedule_price(
        self,
        schedule: Mapping[str, Mapping[str, int]],
        streams: Optional[int] = None,
        shared: Optional[TraceCache] = None,
    ) -> TracePrice:
        """The :class:`~repro.gpu.trace.TracePrice` of a schedule, priced once.

        The record is memoised in this context's trace cache under
        (params, config, batch, ``"price"``, device, streams, schedule):
        the device is the batch-derated one, and the schedule part keeps
        the schedule's insertion order and drops counts <= 0, exactly as
        :meth:`schedule_trace` assembles events -- event order decides the
        float sums.  ``streams`` defaults to the config's.

        On a miss, a `shared` cache is asked for the record under the same
        key before anything is built; the schedule's traces are built into
        this context's cache only when that lookup misses too, and only
        the record is stored in `shared`.
        """
        streams = self.config.streams if streams is None else streams
        cells = tuple(
            (int(level), tuple((op, count) for op, count in ops.items() if count > 0))
            for level, ops in schedule.items()
        )
        key = (self.params, self.config, self.batch, "price", self.device, streams, cells)

        def build() -> TracePrice:
            return price(self.schedule_trace(schedule), self.device, streams)

        if shared is not None:
            return self.pipeline.cache.get_or_build(
                key, lambda: shared.get_or_build(key, build)
            )
        return self.pipeline.cache.get_or_build(key, build)

    def schedule_time_s(self, schedule: Mapping[str, Mapping[str, int]]) -> float:
        """Run an application schedule: ``{level: {operation: count}}``.

        Levels may be strings or ints; counts are numbers of batched
        operations at that level.
        """
        return self.schedule_price(schedule).overlapped_s

    def application_trace(self, app) -> ExecutionTrace:
        """The full trace of one application (anything with ``.schedule``)."""
        return self.schedule_trace(app.schedule(self.params))

    def application_price(self, app, streams: Optional[int] = None) -> TracePrice:
        """The memoised :meth:`schedule_price` of one application's schedule."""
        return self.schedule_price(app.schedule(self.params), streams)

    def application_time(self, app, per_ciphertext: bool = True) -> float:
        """End-to-end application time, seconds.

        With ``per_ciphertext=True`` (the Table 5 convention, matching the
        apps' own ``time_s``) the batched time is amortised over the
        ``BatchSize`` ciphertexts processed together.
        """
        time = self.schedule_time_s(app.schedule(self.params))
        return time / self.batch if per_ciphertext else time

    # -- observability -------------------------------------------------------------

    @property
    def trace_cache(self) -> TraceCache:
        """The trace cache backing this context's pipeline."""
        return self.pipeline.cache

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the backing trace cache."""
        return self.pipeline.cache.stats

    def __repr__(self) -> str:
        return (
            f"NeoContext(set={self.params.name}, device={self.device.name!r}, "
            f"ks={self.config.keyswitch}, batch={self.batch})"
        )
