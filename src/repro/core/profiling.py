"""Profiling layer: per-op / per-kernel time aggregation over cached traces.

Answers "where does an application's time go?" for any context (Neo or a
baseline): how often each primitive operation runs and what it costs, which
kernels dominate, how well the multi-stream overlap works, and how the
trace cache behaved while assembling the profile.  The heavy lifting rides
on the trace cache -- profiling an application costs one trace build per
distinct (operation, level) pair, everything else is aggregation.

The timeline can also be exported in the Chrome ``chrome://tracing`` JSON
format through the discrete-event :class:`~repro.core.streams.StreamScheduler`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis.reporting import format_table
from ..gpu.trace import ExecutionTrace, TracePrice, price
from .neo_context import NeoContext
from .streams import ScheduledKernel, ScheduleResult, StreamScheduler
from .trace_cache import CacheStats


@dataclass(frozen=True)
class OpProfile:
    """Aggregate cost of one primitive operation across a schedule."""

    name: str
    calls: int
    serial_s: float
    launches: float
    bytes: float

    @property
    def serial_per_call_s(self) -> float:
        return self.serial_s / self.calls if self.calls else 0.0


@dataclass
class ApplicationProfile:
    """The full profile of one application on one context."""

    app: str
    system: str
    params: str
    batch: int
    streams: int
    #: Overlapped (multi-stream) end-to-end time of one batched run.
    total_s: float
    #: Single-stream (back-to-back) time; total_s / serial_s is the overlap win.
    serial_s: float
    per_op: Dict[str, OpProfile] = field(default_factory=dict)
    #: Kernel name -> serial seconds across the whole schedule.
    per_kernel: Dict[str, float] = field(default_factory=dict)
    per_kernel_bytes: Dict[str, float] = field(default_factory=dict)
    kernel_events: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: The pricing record ``total_s``/``serial_s``/``per_kernel`` come from.
    price: Optional[TracePrice] = None

    @property
    def per_ciphertext_s(self) -> float:
        return self.total_s / self.batch if self.batch else self.total_s

    def format(self, top: int = 12) -> str:
        """A printable multi-table report (per-op, per-kernel, cache)."""
        lines = [
            f"profile: {self.app} on {self.system} "
            f"(set {self.params}, batch {self.batch}, {self.streams} streams)",
            f"  total (overlapped) : {self.total_s:.4f} s"
            f"  [{self.per_ciphertext_s * 1e3:.3f} ms/ciphertext]",
            f"  serial             : {self.serial_s:.4f} s"
            f"  (overlap win {self.serial_s / self.total_s:.2f}x)"
            if self.total_s
            else "  serial             : 0 s",
            f"  kernel events      : {self.kernel_events}",
        ]
        if self.price is not None:
            p = self.price
            lines.append(
                f"  binding            : {p.binding}  (cuda {p.cuda_s:.4f} s, "
                f"tcu {p.tcu_s:.4f} s, memory {p.memory_s:.4f} s, "
                f"launch {p.launch_s:.4f} s)"
            )
        lines.append("")
        op_rows = [
            [
                op.name,
                op.calls,
                f"{op.serial_s:.4f}",
                f"{op.serial_per_call_s * 1e6:.1f}",
                f"{100 * op.serial_s / self.serial_s:.1f}%" if self.serial_s else "-",
            ]
            for op in sorted(
                self.per_op.values(), key=lambda o: o.serial_s, reverse=True
            )
        ]
        lines.append(
            format_table(
                ["operation", "calls", "serial s", "us/call", "share"],
                op_rows,
                title="per-operation (serial attribution)",
            )
        )
        lines.append("")
        kernel_rows = [
            [
                name,
                f"{secs:.4f}",
                f"{100 * secs / self.serial_s:.1f}%" if self.serial_s else "-",
                f"{self.per_kernel_bytes.get(name, 0.0) / 2**30:.2f}",
            ]
            for name, secs in sorted(
                self.per_kernel.items(), key=lambda kv: kv[1], reverse=True
            )[:top]
        ]
        lines.append(
            format_table(
                ["kernel", "serial s", "share", "GiB moved"],
                kernel_rows,
                title=f"per-kernel (top {min(top, len(self.per_kernel))})",
            )
        )
        lines.append("")
        lines.append(
            "trace cache: "
            f"{self.cache.hits} hits / {self.cache.misses} misses "
            f"({100 * self.cache.hit_rate:.1f}% hit rate, "
            f"{self.cache.evictions} evictions)"
        )
        return "\n".join(lines)


def profile_schedule(
    ctx: NeoContext, schedule: Mapping[int, Mapping[str, int]], app_name: str = "schedule"
) -> ApplicationProfile:
    """Profile an explicit ``{level: {op: count}}`` schedule on `ctx`."""
    per_op: Dict[str, List[float]] = {}
    for level, ops in schedule.items():
        level = int(level)
        for op, count in ops.items():
            if count <= 0:
                continue
            trace = ctx.pipeline.operation_trace(op, level)
            serial = trace.serial_time_s(ctx.device) * count
            launches = sum(e.launches for e in trace.events) * count
            moved = trace.total_bytes() * count
            slot = per_op.setdefault(op, [0, 0.0, 0.0, 0.0])
            slot[0] += count
            slot[1] += serial
            slot[2] += launches
            slot[3] += moved

    full = ctx.schedule_trace(schedule)
    record = price(full, ctx.device, ctx.config.streams)
    return ApplicationProfile(
        app=app_name,
        system=type(ctx).__name__,
        params=ctx.params.name,
        batch=ctx.batch,
        streams=ctx.config.streams,
        total_s=record.overlapped_s,
        serial_s=record.serial_s,
        per_op={
            name: OpProfile(name, int(c), s, l, b)
            for name, (c, s, l, b) in per_op.items()
        },
        per_kernel={row.name: row.serial_s for row in record.kernels},
        per_kernel_bytes={row.name: row.bytes for row in record.kernels},
        kernel_events=len(full),
        cache=ctx.cache_stats(),
        price=record,
    )


def profile_application(ctx: NeoContext, app) -> ApplicationProfile:
    """Profile one application (anything exposing ``.schedule``/``.name``)."""
    return profile_schedule(
        ctx, app.schedule(ctx.params), app_name=getattr(app, "name", type(app).__name__)
    )


def chrome_trace_json(ctx: NeoContext, trace: ExecutionTrace) -> str:
    """Simulate `trace` on `ctx`'s device/streams and export Chrome JSON."""
    scheduler = StreamScheduler(ctx.device, max(1, ctx.config.streams))
    return scheduler.run(trace).to_chrome_trace()


# ---------------------------------------------------------------------------
# Serving-layer metrics (latency distributions, timeline export)
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: deterministic, no interpolation.

    ``q`` is in percent (50 for the median).  The nearest-rank definition
    always returns an observed value, so percentile reports are reproducible
    bit for bit across runs -- the serving determinism tests rely on it.

    Edge cases (audited; regression tests in ``tests/core``):

    * ``q`` outside ``[0, 100]`` raises **before** the empty-input check,
      so an invalid quantile never silently returns 0 on an empty sample.
    * An empty sample returns 0.0 for any valid ``q``.
    * ``q=0`` is the minimum, ``q=100`` the maximum (both observed values).
    * A single sample returns that sample for every valid ``q``.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_percentiles(latencies: Sequence[float]) -> Dict[str, float]:
    """The standard serving summary of a latency sample: P50/P95/P99 + tails."""
    return {
        "p50": percentile(latencies, 50),
        "p95": percentile(latencies, 95),
        "p99": percentile(latencies, 99),
        "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "max": max(latencies, default=0.0),
    }


def timeline_schedule_result(timeline: Sequence[ScheduledKernel]) -> ScheduleResult:
    """Wrap any :class:`ScheduledKernel` timeline as a :class:`ScheduleResult`.

    The serving layer places whole dynamic *batches* (rather than kernels)
    on its lanes; wrapping them in the same result type gives Chrome-trace
    export and fingerprinting for free.
    """
    busy: Dict[str, float] = defaultdict(float)
    for k in timeline:
        busy[k.resource] += k.duration_s
    makespan = max((k.end_s for k in timeline), default=0.0)
    return ScheduleResult(makespan, list(timeline), dict(busy))
