"""The request server: simulated-clock continuous batching over the Neo model.

:class:`Server` admits a stream of FHE jobs (``submit``), forms dynamic
batches through :class:`~repro.serving.batcher.ContinuousBatcher`, and
replays the whole arrival trace on a simulated clock (``drain``), placing
each batch on the first free *lane*.  Lanes are disjoint groups of CUDA
streams: the device's ``config.streams`` streams are partitioned evenly,
so each batch's service time is its trace's overlapped time under its
lane's stream share (the Section 4.6 multi-stream model), and batches on
different lanes run concurrently -- exactly the TCU/CUDA-core overlap the
paper exploits *within* a batch, lifted across batches.

Everything is deterministic: the same submitted trace always yields the
same schedule, and :meth:`ServingReport.fingerprint` hashes the timeline so
replays can assert bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..analysis.reporting import format_table
from ..apps import get_application
from ..core.neo_context import NeoContext
from ..core.pipeline import NEO_CONFIG, PipelineConfig
from ..core.profiling import latency_percentiles, timeline_schedule_result
from ..core.streams import ScheduledKernel, StreamScheduler
from ..core.trace_cache import GLOBAL_TRACE_CACHE, CacheStats, TraceCache
from ..gpu.device import A100, DeviceSpec
from ..telemetry.registry import MetricsRegistry, global_registry
from ..telemetry.stats import Cache, all_cache_stats
from ..telemetry.tracing import Tracer, active_tracer
from .batcher import Batch, ContinuousBatcher
from .overload import ADMITTED, REJECTED, SHED, AdmissionController, OverloadPolicy
from .policies import AdmissionPolicy, get_policy
from .queue import RequestQueue
from .request import Request, RequestRecord

#: Executed-BatchSize histogram boundaries (powers of two up to Table 5's
#: largest modelled batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Queue-depth histogram boundaries (requests waiting).
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Per-batch kernel spans recorded per request trace; everything beyond is
#: summarised in the batch span's ``kernels``/``kernels_traced`` attributes.
MAX_KERNEL_SPANS = 64

#: Process-wide kernel-span descriptor cache.  The simulated kernel
#: placement is a pure function of (params, config, device, app, size,
#: streams), so fresh Server instances share already-simulated shapes --
#: keeps first-drain telemetry cost flat across servers.
_SPAN_DESCRIPTORS = Cache("span_descriptors", maxsize=1024)


class NeoServiceModel:
    """Times dynamic batches on the analytic device model.

    One root :class:`NeoContext` owns the trace cache; per-batch-size
    sibling contexts share it, so a (app, BatchSize) shape is built at most
    once, and priced at most once per stream count, per server lifetime:
    every repeat is one cache hit.

    A model built without a ``trace_cache`` owns a private one and takes
    the prices it misses there from the process-wide
    :data:`~repro.core.trace_cache.GLOBAL_TRACE_CACHE`, so a warm process
    prices each shape once across servers; it builds traces (into its own
    cache) only for shapes no server has priced yet.  Only the small
    price records are shared, never the traces.  A model handed a
    ``trace_cache`` keeps to it and never reads the shared one.

    With ``autotune=True`` the model prices under the hierarchical memory
    model and, per application, runs (or fetches from the shared
    :class:`~repro.core.autotuner.TuningStore`) a quick-budget
    :func:`~repro.core.autotuner.tune_app` search; batches of that app are
    then timed under the tuned parameters and pipeline configuration.
    """

    def __init__(
        self,
        params: str = "C",
        config: PipelineConfig = NEO_CONFIG,
        trace_cache: Optional[TraceCache] = None,
        device: DeviceSpec = A100,
        autotune: bool = False,
    ):
        if autotune:
            device = device.hier()
        self._shared_prices = GLOBAL_TRACE_CACHE if trace_cache is None else None
        # ``is not None``, not ``or``: TraceCache defines __len__, so an
        # empty (still-cold) cache is falsy and ``or`` would discard it.
        self._root = NeoContext(
            params,
            device=device,
            config=config,
            batch=1,
            trace_cache=trace_cache if trace_cache is not None else TraceCache(),
        )
        self._config = config
        self._device = device
        self._autotune = autotune
        self._tuned_roots: Dict[str, NeoContext] = {}
        self._tuned_choices: Dict[str, object] = {}
        self._apps: Dict[str, object] = {}
        self._shapes: Dict[Tuple[str, int], Tuple[NeoContext, object]] = {}

    def _app(self, app: str):
        if app not in self._apps:
            self._apps[app] = get_application(app)
        return self._apps[app]

    def _root_for(self, app: str) -> NeoContext:
        """The (possibly tuned) batch=1 root context for one application."""
        if not self._autotune:
            return self._root
        if app not in self._tuned_roots:
            from ..core.autotuner import default_tuning_store

            report = default_tuning_store().get_or_tune(
                app,
                params=self._root.params,
                device=self._device,
                budget="quick",
                trace_cache=self._root.trace_cache,
            )
            best = report.best
            self._tuned_choices[app] = best
            self._tuned_roots[app] = NeoContext(
                best.parameter_set(self._root.params),
                device=self._device,
                config=best.pipeline_config(self._config),
                batch=1,
                trace_cache=self._root.trace_cache,
            )
        return self._tuned_roots[app]

    def _shape(self, app: str, size: int) -> Tuple[NeoContext, object]:
        """The batch context and app schedule of one shape, made once per model."""
        shape = self._shapes.get((app, size))
        if shape is None:
            ctx = self._root_for(app).with_batch(size)
            shape = self._shapes[app, size] = (ctx, self._app(app).schedule(ctx.params))
        return shape

    def tuned_summary(self) -> Dict[str, str]:
        """``{app: tuned-config label}`` for every app tuned so far."""
        return {
            app: choice.label() for app, choice in self._tuned_choices.items()
        }

    def service_time_s(self, app: str, size: int, streams: int) -> float:
        """Wall time of one `app` batch of `size` ciphertexts on `streams`.

        Priced once per (app, size, streams) shape: the record is memoised
        in the server's trace cache (:meth:`NeoContext.schedule_price`), or
        taken from the shared cache when another model priced it first.
        """
        ctx, schedule = self._shape(app, size)
        return ctx.schedule_price(schedule, streams, self._shared_prices).overlapped_s

    def batch_trace(self, app: str, size: int):
        """Frozen execution trace of one `app` batch of `size` ciphertexts.

        The fleet layer feeds this to the multi-GPU cost model; the trace
        comes out of the shared cache, so multi-device timing never
        rebuilds a shape the single-device path already priced.
        """
        ctx, schedule = self._shape(app, size)
        return ctx.schedule_trace(schedule).frozen()

    def batch_device(self, size: int):
        """The batch-derated device a batch of `size` executes on."""
        return self._root.with_batch(size).device

    def cache_stats(self) -> CacheStats:
        return self._root.cache_stats()

    def batch_spans(self, app: str, size: int, streams: int) -> tuple:
        """Relative kernel spans of one `app` batch: the per-op path.

        Returns ``(descriptors, total_kernels)`` where each descriptor is
        ``(name, resource, stream, rel_start_s, rel_end_s)`` relative to the
        batch start, for the first :data:`MAX_KERNEL_SPANS` kernels.  The
        discrete-event stream schedule is simulated once per (app, size,
        streams) shape and rescaled onto the analytic service time, so
        batch sub-spans land inside the batch span exactly.
        """
        root = self._root_for(app)

        def build() -> tuple:
            ctx, schedule = self._shape(app, size)
            trace = ctx.schedule_trace(schedule)
            result = StreamScheduler(ctx.device, streams).run(trace)
            service = ctx.schedule_price(
                schedule, streams, self._shared_prices
            ).overlapped_s
            scale = service / result.makespan_s if result.makespan_s > 0 else 1.0
            descriptors = tuple(
                (k.name, k.resource, k.stream, k.start_s * scale, k.end_s * scale)
                for k in result.timeline[:MAX_KERNEL_SPANS]
            )
            return (descriptors, len(result.timeline))

        return _SPAN_DESCRIPTORS.get_or_build(
            (root.params, root.config, root.device, app, size, streams), build
        )

    def noise_trajectory(self, app: str):
        """Modeled noise-budget series of one `app` run (per schedule level)."""
        from ..telemetry.fhe import modeled_noise_trajectory

        return modeled_noise_trajectory(
            self._root.params, self._app(app).schedule(self._root.params)
        )


class FixedServiceModel:
    """Test double: service time from a user-supplied function."""

    def __init__(self, time_fn: Callable[[str, int], float]):
        self._time_fn = time_fn

    def service_time_s(self, app: str, size: int, streams: int) -> float:
        return self._time_fn(app, size)

    def cache_stats(self) -> CacheStats:
        return CacheStats()


@dataclass
class ServingReport:
    """Everything one ``drain`` produced: records, batches, metrics."""

    records: List[RequestRecord] = field(default_factory=list)
    batches: List[Batch] = field(default_factory=list)
    lanes: int = 1
    streams_per_lane: int = 1
    makespan_s: float = 0.0
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0
    #: Requests dropped by overload policy (pressure shedding + priority
    #: evictions), by hard necessity (queue full / tenant quota), and by
    #: explicit mid-drain cancellation.  Empty without an overload policy.
    shed: List[Request] = field(default_factory=list)
    rejected: List[Request] = field(default_factory=list)
    cancelled: List[Request] = field(default_factory=list)
    #: The admission controller's conserved ledger (offered / admitted /
    #: shed / rejected plus per-reason counts); empty without a policy.
    admission: Dict[str, int] = field(default_factory=dict)
    #: Admission-queue capacity bound in force (``None`` = unbounded).
    queue_capacity: Optional[int] = None
    #: Peak queue fill fraction in [0, 1] (0.0 for unbounded queues).
    peak_pressure: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    #: Every registered cache surface (trace cache, NTT plan/stack caches,
    #: op-plan cache, ...) as ``{name: {hits, misses, evictions, hit_rate}}``
    #: -- the unified view :mod:`repro.telemetry.stats` keeps per process.
    caches: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-app tuned configuration labels the service model chose (empty
    #: unless the server was built with ``autotune=True``).
    tuned: Dict[str, str] = field(default_factory=dict)

    # -- headline metrics ---------------------------------------------------------

    @property
    def served(self) -> int:
        return len(self.records)

    @property
    def ciphertexts(self) -> int:
        return sum(r.request.size for r in self.records)

    @property
    def throughput_rps(self) -> float:
        """Requests per simulated second over the makespan."""
        return self.served / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def throughput_cts(self) -> float:
        """Ciphertexts per simulated second over the makespan."""
        return self.ciphertexts / self.makespan_s if self.makespan_s > 0 else 0.0

    def latencies_s(self) -> List[float]:
        return [r.latency_s for r in self.records]

    def latency_summary(self) -> Dict[str, float]:
        return latency_percentiles(self.latencies_s())

    @property
    def slo_violations(self) -> int:
        return sum(1 for r in self.records if not r.slo_met)

    @property
    def slo_attainment(self) -> float:
        return 1.0 - self.slo_violations / self.served if self.served else 1.0

    # -- overload accounting ------------------------------------------------------

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)

    @property
    def cancelled_count(self) -> int:
        return len(self.cancelled)

    @property
    def offered(self) -> int:
        """Requests submitted: served + shed + rejected + cancelled."""
        return (
            self.served + self.shed_count + self.rejected_count
            + self.cancelled_count
        )

    def per_tier(self) -> Dict[str, Dict[str, float]]:
        """Per-service-tier outcome table: served/shed/rejected, P95, SLO.

        Attainment is over *admitted-and-served* requests -- the number an
        overloaded server is graded on once shedding is policy, not
        failure.
        """
        tiers: Dict[str, Dict[str, float]] = {}

        def slot(tier: str) -> Dict[str, float]:
            return tiers.setdefault(
                tier,
                {"served": 0, "shed": 0, "rejected": 0, "cancelled": 0,
                 "p95_s": 0.0, "slo_attainment": 1.0},
            )

        by_tier: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            by_tier.setdefault(record.request.tier, []).append(record)
        for tier, records in by_tier.items():
            entry = slot(tier)
            entry["served"] = len(records)
            entry["p95_s"] = latency_percentiles(
                [r.latency_s for r in records]
            )["p95"]
            entry["slo_attainment"] = (
                sum(1 for r in records if r.slo_met) / len(records)
            )
        for bucket, name in (
            (self.shed, "shed"), (self.rejected, "rejected"),
            (self.cancelled, "cancelled"),
        ):
            for request in bucket:
                slot(request.tier)[name] += 1
        return dict(sorted(tiers.items()))

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.total_size for b in self.batches) / len(self.batches)

    def batch_size_histogram(self) -> Dict[int, int]:
        """Executed BatchSize -> number of batches (sorted by size)."""
        hist: Dict[int, int] = {}
        for b in self.batches:
            hist[b.executed_size] = hist.get(b.executed_size, 0) + 1
        return dict(sorted(hist.items()))

    # -- timeline -----------------------------------------------------------------

    def timeline(self) -> List[ScheduledKernel]:
        """One :class:`ScheduledKernel` block per dispatched batch."""
        spans: Dict[int, RequestRecord] = {}
        for record in self.records:
            spans.setdefault(record.batch_id, record)
        blocks = []
        for batch in self.batches:
            span = spans[batch.bid]
            blocks.append(
                ScheduledKernel(
                    name=f"{batch.app} x{batch.total_size} (b{batch.executed_size})",
                    stream=span.lane,
                    resource=batch.app,
                    start_s=span.start_s,
                    end_s=span.finish_s,
                )
            )
        return blocks

    def to_chrome_trace(self) -> str:
        """The serving timeline in Chrome ``chrome://tracing`` JSON."""
        return timeline_schedule_result(self.timeline()).to_chrome_trace()

    def fingerprint(self) -> str:
        """SHA-256 of the batch timeline; equal across identical replays."""
        return timeline_schedule_result(self.timeline()).fingerprint()

    # -- reporting ----------------------------------------------------------------

    def _overload_lines(self) -> List[str]:
        """The drop line and per-tier table; empty when nothing could drop."""
        if self.offered == self.served and self.queue_capacity is None:
            return []
        cap = (
            f"capacity {self.queue_capacity}"
            if self.queue_capacity is not None
            else "unbounded"
        )
        lines = [
            f"  overload   : {self.shed_count} shed, "
            f"{self.rejected_count} rejected, "
            f"{self.cancelled_count} cancelled of {self.offered} offered "
            f"({cap}, peak pressure {100 * self.peak_pressure:.0f}%)"
        ]
        tiers = self.per_tier()
        if len(tiers) > 1:
            rows = [
                [
                    tier,
                    int(entry["served"]),
                    int(entry["shed"]),
                    int(entry["rejected"]),
                    f"{entry['p95_s']:.1f}",
                    f"{100 * entry['slo_attainment']:.1f}%",
                ]
                for tier, entry in tiers.items()
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["tier", "served", "shed", "rejected", "P95 s",
                     "SLO attainment"],
                    rows,
                    title="per-tier outcomes",
                )
            )
        return lines

    def format(self) -> str:
        """A printable throughput / latency / batching report."""
        lat = self.latency_summary()
        lines = [
            f"served {self.served} requests ({self.ciphertexts} ciphertexts) "
            f"in {self.makespan_s:.1f} simulated s "
            f"on {self.lanes} lane(s) x {self.streams_per_lane} stream(s)",
            f"  throughput : {self.throughput_rps:.3f} req/s"
            f"  ({self.throughput_cts:.3f} ct/s)",
            f"  latency    : P50 {lat['p50']:.1f} s, P95 {lat['p95']:.1f} s, "
            f"P99 {lat['p99']:.1f} s, max {lat['max']:.1f} s",
            f"  SLO        : {self.slo_violations} violations "
            f"({100 * self.slo_attainment:.1f}% attainment)",
            f"  queue      : mean depth {self.mean_queue_depth:.1f}, "
            f"peak {self.max_queue_depth}",
            f"  batches    : {len(self.batches)} formed, "
            f"mean fill {self.mean_batch_size():.1f} cts",
            *self._overload_lines(),
            "",
        ]
        per_app: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            per_app.setdefault(record.request.app, []).append(record)
        rows = []
        for app in sorted(per_app):
            records = per_app[app]
            app_lat = latency_percentiles([r.latency_s for r in records])
            rows.append(
                [
                    app,
                    len(records),
                    f"{app_lat['p50']:.1f}",
                    f"{app_lat['p95']:.1f}",
                    f"{app_lat['p99']:.1f}",
                    sum(1 for r in records if not r.slo_met),
                ]
            )
        lines.append(
            format_table(
                ["application", "requests", "P50 s", "P95 s", "P99 s", "SLO miss"],
                rows,
                title="per-application latency",
            )
        )
        hist = self.batch_size_histogram()
        if hist:
            lines.append("")
            lines.append(
                format_table(
                    ["BatchSize", "batches"],
                    [[size, count] for size, count in hist.items()],
                    title="dynamic batch sizes",
                )
            )
        lines.append("")
        lines.append(
            "trace cache: "
            f"{self.cache.hits} hits / {self.cache.misses} misses "
            f"({100 * self.cache.hit_rate:.1f}% hit rate)"
        )
        if self.caches:
            rows = [
                [
                    name,
                    int(c.get("hits", 0)),
                    int(c.get("misses", 0)),
                    int(c.get("evictions", 0)),
                    f"{100 * c.get('hit_rate', 0.0):.1f}%",
                ]
                for name, c in sorted(self.caches.items())
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["cache", "hits", "misses", "evictions", "hit rate"],
                    rows,
                    title="cache surfaces",
                )
            )
        if self.tuned:
            lines.append("")
            lines.append(
                format_table(
                    ["app", "tuned configuration"],
                    [[app, label] for app, label in sorted(self.tuned.items())],
                    title="autotuned configurations",
                )
            )
        return "\n".join(lines)


def record_drain_gauges(
    registry: MetricsRegistry, report: ServingReport, overloaded: bool
) -> None:
    """Set the ``serving_*`` gauges of one whole drain, the queue-pressure
    peak only when `overloaded`.  A fleet sets them again from its merged
    report, so they describe the fleet rather than its last group."""
    registry.gauge(
        "serving_queue_depth_peak", "Peak admission-queue depth",
    ).set(report.max_queue_depth)
    registry.gauge(
        "serving_queue_depth_mean", "Time-weighted mean queue depth",
    ).set(report.mean_queue_depth)
    registry.gauge(
        "serving_makespan_seconds", "Simulated makespan of the last drain",
    ).set(report.makespan_s)
    registry.gauge(
        "serving_slo_attainment", "Fraction of requests meeting their SLO",
    ).set(report.slo_attainment)
    if overloaded:
        registry.gauge(
            "serving_queue_pressure_peak",
            "Peak admission-queue fill fraction in [0, 1]",
        ).set(report.peak_pressure)


@dataclass(frozen=True)
class ServerStats:
    """Point-in-time server counters (live between submit and drain)."""

    submitted: int
    served: int
    pending: int
    batches: int


class Server:
    """A dynamic-batching FHE request server over the Neo device model.

    Args:
        params: Table 4 parameter set (or a ``ParameterSet``).
        config: pipeline configuration; its ``streams`` are split across lanes.
        policy: admission policy name or instance (fifo / edf / bucketed).
        max_batch: dynamic-batch capacity, ciphertexts.
        max_wait_s: continuous-batching window, simulated seconds.
        lanes: concurrent batch slots (each gets ``streams // lanes`` streams).
        model: service-time model; defaults to :class:`NeoServiceModel`.
        overload: admission-control policy (bounded queue, load shedding,
            priority eviction, tenant quotas); ``None`` keeps the
            pre-overload behaviour -- every submitted request is queued.
        tracer: span sink for per-request traces.  ``None`` falls back to
            the process-wide :func:`~repro.telemetry.tracing.active_tracer`
            at drain time (still ``None`` -> no spans, no cost).
    """

    def __init__(
        self,
        params: str = "C",
        config: PipelineConfig = NEO_CONFIG,
        policy: Union[str, AdmissionPolicy] = "fifo",
        max_batch: int = 64,
        max_wait_s: float = 30.0,
        lanes: int = 2,
        model=None,
        trace_cache: Optional[TraceCache] = None,
        overload: Optional[OverloadPolicy] = None,
        tracer: Optional[Tracer] = None,
        device: DeviceSpec = A100,
        autotune: bool = False,
    ):
        if lanes < 1:
            raise ValueError(f"need at least one lane, got {lanes}")
        self.policy = get_policy(policy)
        self.batcher = ContinuousBatcher(self.policy, max_batch, max_wait_s)
        self.lanes = lanes
        self.streams_per_lane = max(1, config.streams // lanes)
        self.model = model or NeoServiceModel(
            params, config, trace_cache, device=device, autotune=autotune
        )
        self.overload = overload
        self.tracer = tracer
        self._submitted: List[Request] = []
        self._rids: Set[int] = set()
        self._cancels: Dict[int, float] = {}
        self._next_rid = 0
        #: Submissions the last drain settled (its report's ``offered``).
        self._settled = 0
        self._last_report: Optional[ServingReport] = None
        #: JSONable constructor arguments for snapshot/replay capture
        #: (:mod:`repro.serving.replay`); the pipeline config is assumed
        #: to be the default ``NEO_CONFIG`` on replay.
        self.snapshot_config: Dict[str, object] = {
            "params": params if isinstance(params, str)
            else getattr(params, "name", "C"),
            "policy": self.policy.name,
            "max_batch": max_batch,
            "max_wait_s": max_wait_s,
            "lanes": lanes,
            "overload": overload.to_jsonable() if overload else None,
        }

    # -- admission ----------------------------------------------------------------

    def submit(
        self,
        request: Optional[Request] = None,
        *,
        app: Optional[str] = None,
        size: int = 1,
        arrival_s: float = 0.0,
        slo_s: float = 0.0,
        tenant: str = "default",
        priority: int = 1,
    ) -> Request:
        """Enqueue one request (an instance, or fields to build one).

        Raises ``ValueError`` when the request's id was already submitted:
        the queue cancels and removes requests by id.
        """
        if request is None:
            if app is None:
                raise ValueError("submit needs a Request or an app name")
            request = Request(
                rid=self._next_rid,
                app=app,
                size=size,
                arrival_s=arrival_s,
                slo_s=slo_s,
                tenant=tenant,
                priority=priority,
            )
        if request.rid in self._rids:
            raise ValueError(f"request id {request.rid} was already submitted")
        self._rids.add(request.rid)
        self._next_rid = max(self._next_rid, request.rid) + 1
        self._submitted.append(request)
        return request

    def submit_many(self, requests: Iterable[Request]) -> int:
        count = 0
        for request in requests:
            self.submit(request)
            count += 1
        return count

    def clear_submissions(self) -> None:
        """Forget every submitted request; scheduled cancels stay."""
        self._submitted.clear()
        self._rids.clear()
        self._next_rid = 0
        self._settled = 0

    def cancel(self, rid: int, at_s: float) -> None:
        """Schedule a cancellation of request `rid` at simulated `at_s`.

        A cancel that lands while the request is still queued removes it
        (reported under ``cancelled``); once its batch has dispatched the
        cancel is too late and the request completes normally.  The
        earliest cancel wins when the same rid is cancelled twice.
        """
        if at_s < 0:
            raise ValueError(f"cancel time must be >= 0, got {at_s}")
        current = self._cancels.get(rid)
        self._cancels[rid] = at_s if current is None else min(current, at_s)

    def stats(self) -> ServerStats:
        """Submission counters and the last drain's outcome.

        ``pending`` counts submissions no drain has settled yet: a drain
        settles every request it is offered, as served, shed, rejected or
        cancelled, and :meth:`clear_submissions` forgets the rest.
        """
        report = self._last_report
        return ServerStats(
            submitted=len(self._submitted),
            served=report.served if report else 0,
            pending=len(self._submitted) - self._settled,
            batches=len(report.batches) if report else 0,
        )

    @property
    def last_report(self) -> Optional[ServingReport]:
        return self._last_report

    # -- simulation ---------------------------------------------------------------

    def drain(self) -> ServingReport:
        """Replay every submitted request to completion; return the report.

        The loop advances the simulated clock to the next decision point
        (an arrival, a lane becoming free, a batching window expiring, or
        a scheduled cancellation), admits due arrivals through the
        overload controller (when configured), and dispatches whatever
        batch the batcher deems ready onto the earliest-free lane.  No
        randomness anywhere: the schedule is a pure function of the
        submitted trace plus any scheduled cancels.
        """
        arrivals = sorted(self._submitted, key=lambda r: (r.arrival_s, r.rid))
        capacity = self.overload.queue_capacity if self.overload else None
        controller = (
            AdmissionController(self.overload) if self.overload else None
        )
        queue = RequestQueue(capacity=capacity, policy=self.policy)
        lane_free = [0.0] * self.lanes
        records: List[RequestRecord] = []
        batches: List[Batch] = []
        shed: List[Request] = []
        rejected: List[Request] = []
        cancelled: List[Request] = []
        index, total = 0, len(arrivals)
        now = 0.0
        next_bid = 0

        cancel_events = sorted(
            (at_s, rid) for rid, at_s in self._cancels.items()
        )
        cindex = 0
        infinity = float("inf")

        def admit(request: Request) -> None:
            """Route one due arrival: cancel-before-arrival, then policy."""
            cancel_at = self._cancels.get(request.rid)
            if cancel_at is not None and cancel_at <= request.arrival_s:
                # Cancelled before it ever reached the queue; the later
                # cancel event pops nothing and is a no-op.
                cancelled.append(request)
                return
            if controller is None:
                queue.push(request, request.arrival_s)
                return
            decision = controller.admit(request, queue, request.arrival_s)
            if decision.outcome == SHED:
                shed.append(request)
            elif decision.outcome == REJECTED:
                rejected.append(request)
            elif decision.victim is not None:
                shed.append(decision.victim)

        def advance_events(current: float) -> None:
            """Apply due arrivals and cancels interleaved in event order.

            The clock can jump (busy lanes, window sleeps); replaying the
            skipped-over events in their own time order keeps the queue's
            depth samples monotone and the schedule independent of how
            far each jump happened to land.
            """
            nonlocal index, cindex
            while True:
                arrival_t = (
                    arrivals[index].arrival_s if index < total else infinity
                )
                cancel_t = (
                    cancel_events[cindex][0]
                    if cindex < len(cancel_events)
                    else infinity
                )
                if arrival_t <= current and arrival_t <= cancel_t:
                    admit(arrivals[index])
                    index += 1
                elif cancel_t <= current:
                    at_s, rid = cancel_events[cindex]
                    cindex += 1
                    victim = queue.pop_rid(rid, at_s)
                    if victim is not None:
                        cancelled.append(victim)
                else:
                    return

        while index < total or queue:
            if not queue:
                now = max(now, arrivals[index].arrival_s)
            advance_events(now)
            if not queue:
                continue

            lane = min(range(self.lanes), key=lane_free.__getitem__)
            if lane_free[lane] > now:
                # Every lane is busy: run the clock to the first free slot
                # (admitting anything that arrives on the way).
                now = lane_free[lane]
                continue

            draining = index >= total
            take, window_deadline = self.batcher.candidate(queue, now, draining)
            if take is None:
                # The head batch is still filling: sleep until its window
                # expires, the next arrival tops it up, or a cancellation
                # changes the queue's composition.
                next_arrival = (
                    arrivals[index].arrival_s if index < total else infinity
                )
                next_cancel = (
                    cancel_events[cindex][0]
                    if cindex < len(cancel_events)
                    else infinity
                )
                now = min(window_deadline, next_arrival, next_cancel)
                continue

            total_size = sum(r.size for r in take)
            executed = self.policy.executed_size(total_size)
            app = take[0].app
            service_at = getattr(self.model, "service_time_at", None)
            if service_at is not None:
                service = service_at(
                    app, executed, self.streams_per_lane, now
                )
            else:
                service = self.model.service_time_s(
                    app, executed, self.streams_per_lane
                )
            start = now
            finish = start + service
            lane_free[lane] = finish
            queue.remove(take, now)
            batch = Batch(
                bid=next_bid,
                app=app,
                requests=tuple(take),
                executed_size=executed,
                formed_s=now,
            )
            next_bid += 1
            batches.append(batch)
            records.extend(
                RequestRecord(
                    request=r,
                    batch_id=batch.bid,
                    lane=lane,
                    batch_size=executed,
                    dispatch_s=now,
                    start_s=start,
                    finish_s=finish,
                )
                for r in take
            )

        accounted = len(records) + len(shed) + len(rejected) + len(cancelled)
        if accounted != total:
            raise RuntimeError(
                "serving conservation violated: "
                f"{len(records)} served + {len(shed)} shed + "
                f"{len(rejected)} rejected + {len(cancelled)} cancelled "
                f"!= {total} offered"
            )

        caches = {
            name: stats.as_dict() for name, stats in all_cache_stats().items()
        }
        # The serving run's trace cache is the model's own instance, not the
        # process-global one the registry tracks -- report the live one.
        caches["trace_cache"] = self.model.cache_stats().as_dict()
        report = ServingReport(
            records=records,
            batches=batches,
            lanes=self.lanes,
            streams_per_lane=self.streams_per_lane,
            makespan_s=max((r.finish_s for r in records), default=0.0),
            mean_queue_depth=queue.mean_depth(),
            max_queue_depth=queue.max_depth(),
            shed=shed,
            rejected=rejected,
            cancelled=cancelled,
            admission=controller.ledger.as_dict() if controller else {},
            queue_capacity=queue.capacity,
            peak_pressure=controller.peak_pressure if controller else 0.0,
            cache=self.model.cache_stats(),
            caches=caches,
            tuned=(
                self.model.tuned_summary()
                if hasattr(self.model, "tuned_summary")
                else {}
            ),
        )
        self._last_report = report
        self._settled = total
        self._emit_telemetry(report, queue)
        return report

    # -- telemetry ----------------------------------------------------------------

    def _emit_telemetry(self, report: ServingReport, queue: RequestQueue) -> None:
        """Spans and metrics for one drain; no-ops unless enabled/active."""
        tracer = self.tracer if self.tracer is not None else active_tracer()
        if tracer is not None:
            self._record_spans(tracer, report)
        registry = global_registry()
        if registry.enabled:
            self._record_metrics(registry, report, queue)

    def _record_spans(self, tracer: Tracer, report: ServingReport) -> None:
        """One trace per request plus one kernel trace per batch *shape*.

        Every batch of the same (app, executed BatchSize) shape replays the
        identical simulated kernel schedule, so per-kernel spans are
        recorded once per shape under a ``shape-<app>-b<size>`` trace
        (timestamps relative to batch start) and linked from each request's
        batch span via its ``kernel_trace`` attribute -- an OpenTelemetry-
        style span link.  Per-request cost stays at three spans while the
        full queue -> batch -> op -> kernel path remains reconstructable
        (``repro trace`` splices the linked kernel trace back in).
        """
        span_model = getattr(self.model, "batch_spans", None)
        shapes: Dict[tuple, tuple] = {}

        def kernel_trace(app: str, size: int) -> tuple:
            key = (app, size)
            cached = shapes.get(key)
            if cached is None:
                descriptors, total = span_model(
                    app, size, self.streams_per_lane
                )
                tid = f"shape-{app}-b{size}"
                root = tracer.record_span(
                    tid, "batch_kernels", 0.0,
                    max((d[4] for d in descriptors), default=0.0),
                    category="kernel", app=app, executed_size=size,
                    kernels=total, kernels_traced=len(descriptors),
                )
                for name, resource, stream, rel_start, rel_end in descriptors:
                    tracer.record_span(
                        tid, name, rel_start, rel_end,
                        parent_id=root.span_id, category="kernel",
                        resource=resource, stream=stream,
                    )
                cached = (tid, total, len(descriptors))
                shapes[key] = cached
            return cached

        for record in report.records:
            request = record.request
            tid = request.trace_id
            root = tracer.record_span(
                tid, "request", request.arrival_s, record.finish_s,
                category="serving", app=request.app, rid=request.rid,
                size=request.size, lane=record.lane, slo_met=record.slo_met,
            )
            tracer.record_span(
                tid, "queue_wait", request.arrival_s, record.start_s,
                parent_id=root.span_id, category="serving",
            )
            link, total_kernels, traced = "", 0, 0
            if span_model is not None:
                link, total_kernels, traced = kernel_trace(
                    request.app, record.batch_size
                )
            tracer.record_span(
                tid, "batch", record.start_s, record.finish_s,
                parent_id=root.span_id, category="serving",
                bid=record.batch_id, executed_size=record.batch_size,
                app=request.app, kernels=total_kernels,
                kernels_traced=traced, kernel_trace=link,
            )

    def _record_metrics(
        self, registry: MetricsRegistry, report: ServingReport,
        queue: RequestQueue,
    ) -> None:
        requests_total = registry.counter(
            "serving_requests_total", "Requests served, by application",
            labelnames=("app",),
        )
        latency_hist = registry.histogram(
            "serving_latency_seconds",
            "Arrival-to-completion latency, simulated seconds",
            labelnames=("app",),
        )
        wait_hist = registry.histogram(
            "serving_queue_wait_seconds",
            "Admission-queue wait before the batch started",
        )
        # Pre-aggregate per-app counters and batch the histogram observes:
        # cell resolution and locking, not the arithmetic, is the
        # per-record cost, so pay it once per series rather than per value.
        latencies_by_app: Dict[str, List[float]] = {}
        waits: List[float] = []
        for record in report.records:
            app = record.request.app
            values = latencies_by_app.get(app)
            if values is None:
                values = latencies_by_app[app] = []
            values.append(record.latency_s)
            waits.append(record.queue_wait_s)
        for app, values in latencies_by_app.items():
            latency_hist.labels(app=app).observe_many(values)
        wait_hist.observe_many(waits)
        for app, values in latencies_by_app.items():
            requests_total.labels(app=app).inc(len(values))

        batches_total = registry.counter(
            "serving_batches_total", "Dynamic batches formed, by application",
            labelnames=("app",),
        )
        batch_hist = registry.histogram(
            "serving_batch_size", "Executed BatchSize per dynamic batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        batches_by_app: Dict[str, int] = {}
        for batch in report.batches:
            batches_by_app[batch.app] = batches_by_app.get(batch.app, 0) + 1
        batch_hist.observe_many([b.executed_size for b in report.batches])
        for app, count in batches_by_app.items():
            batches_total.labels(app=app).inc(count)

        depth_hist = registry.histogram(
            "serving_queue_depth", "Queue depth at every queue mutation",
            buckets=QUEUE_DEPTH_BUCKETS,
        )
        depth_hist.observe_many([depth for _, depth in queue.depth_samples()])
        overloaded = self.overload is not None or report.offered != report.served
        record_drain_gauges(registry, report, overloaded)

        if overloaded:
            shed_total = registry.counter(
                "serving_requests_shed_total",
                "Requests shed by overload policy, by service tier",
                labelnames=("tier",),
            )
            rejected_total = registry.counter(
                "serving_requests_rejected_total",
                "Requests rejected (queue full / tenant quota), by tier",
                labelnames=("tier",),
            )
            cancelled_total = registry.counter(
                "serving_requests_cancelled_total",
                "Requests cancelled while queued, by service tier",
                labelnames=("tier",),
            )
            for bucket, counter in (
                (report.shed, shed_total),
                (report.rejected, rejected_total),
                (report.cancelled, cancelled_total),
            ):
                by_tier: Dict[str, int] = {}
                for request in bucket:
                    by_tier[request.tier] = by_tier.get(request.tier, 0) + 1
                for tier, count in by_tier.items():
                    counter.labels(tier=tier).inc(count)

        hits = registry.gauge(
            "cache_hits", "Cache hits, per cache surface", labelnames=("cache",)
        )
        misses = registry.gauge(
            "cache_misses", "Cache misses, per cache surface",
            labelnames=("cache",),
        )
        hit_rate = registry.gauge(
            "cache_hit_rate", "Hit rate in [0, 1], per cache surface",
            labelnames=("cache",),
        )
        for name, stats in report.caches.items():
            hits.labels(cache=name).set(stats.get("hits", 0))
            misses.labels(cache=name).set(stats.get("misses", 0))
            hit_rate.labels(cache=name).set(stats.get("hit_rate", 0.0))

        noise_fn = getattr(self.model, "noise_trajectory", None)
        if noise_fn is not None:
            budget = registry.gauge(
                "fhe_noise_budget_bits_modeled",
                "Modeled remaining noise budget per app and schedule level",
                labelnames=("app", "level"),
            )
            for app in sorted({r.request.app for r in report.records}):
                for point in noise_fn(app):
                    budget.labels(app=app, level=str(point.level)).set(
                        point.budget_bits
                    )
