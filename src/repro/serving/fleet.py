"""Fleet-scale serving: route requests across N modeled GPUs.

One modeled A100 tops out around three requests per second on the mixed
workload -- a "millions of users" arrival stream provably blows through any
single device's SLO.  The fleet layer scales the serving stack out:

* **Evaluation-key placement** (:func:`plan_key_placement`): each
  application's evaluation-key set (relinearisation + Galois keys) is either
  *replicated* on every device group (HBM-heavy, any group serves any app)
  or *sharded* across groups (HBM-light, routing constrained to the groups
  holding the keys).  Placement models per-GPU HBM residency and the
  one-time interconnect broadcast that distributes the keys.
* **Cluster routing** (:class:`Fleet`): requests are routed at arrival to
  the *eligible* device group (key residency) with the least outstanding
  backlog -- earliest expected availability, the queue-depth-weighted
  join-shortest-queue rule.  Routing is deterministic: ties break by group
  id, and the whole schedule is a pure function of the submitted trace.
* **Per-device continuous batching**: each group runs the existing
  :class:`~repro.serving.server.Server` (admission queue, continuous
  batcher, multi-stream lanes) under one shared simulated clock; all
  groups share one trace cache so a batch shape is timed at most once
  fleet-wide.
* **Tensor parallelism** (``tensor_parallel > 1``): groups of that many
  GPUs serve each batch together through
  :class:`~repro.gpu.multi_gpu.MultiGpuModel` -- compute shards, the
  exchange stages (BConv digit exchange, NTT all-to-all) pay modeled
  NVLink/PCIe bytes, and evaluation keys shard limb-wise across the group
  (cutting per-GPU HBM residency by the group size).

The fleet-level :class:`FleetReport` is a ``ServingReport`` over the
groups' merged records (so ``per_tier()`` and the shed/rejected counts work
on fleets) plus per-device utilization, queue depths and interconnect bytes
per kernel class, exported through the telemetry registry and tracer
(``repro serve --gpus N``, ``repro metrics --gpus N``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..analysis.memory_footprint import (
    ciphertext_bytes,
    hybrid_evk_bytes,
    klss_evk_bytes,
)
from ..analysis.reporting import format_table
from ..ckks.params import ParameterSet, get_set
from ..core.pipeline import NEO_CONFIG, PipelineConfig
from ..core.streams import ScheduledKernel
from ..core.trace_cache import TraceCache
from ..gpu.device import A100, DeviceSpec
from ..gpu.multi_gpu import NVLINK3, Interconnect, MultiGpuModel
from ..gpu.trace import ExecutionTrace
from ..telemetry.registry import MetricsRegistry, global_registry
from ..telemetry.tracing import Tracer, active_tracer
from .overload import OverloadPolicy
from .policies import AdmissionPolicy
from .request import Request
from .server import NeoServiceModel, Server, ServingReport, record_drain_gauges

#: Modeled Galois-key counts per application: the rotation sets their
#: schedules hoist (bootstrap needs the CoeffToSlot/SlotToCoeff ladder,
#: HELR a handful of in-iteration rotations, ResNet the conv/pool shifts).
GALOIS_KEY_COUNTS: Dict[str, int] = {
    "helr": 12,
    "packbootstrap": 44,
    "bootstrap": 44,
    "resnet20": 48,
    "resnet32": 48,
    "resnet56": 48,
}

#: Galois keys assumed for applications not in the table.
DEFAULT_GALOIS_KEYS = 32

#: Key-placement policies accepted by :class:`Fleet`.
PLACEMENT_POLICIES = ("replicate", "shard")


def app_key_bytes(params: ParameterSet, app: str) -> int:
    """Modeled evaluation-key bytes one application keeps resident.

    One relinearisation key plus the app's Galois-key set, each the size of
    one key-switching key under the parameter set's method (KLSS keys when
    the set carries KLSS parameters, Hybrid otherwise).
    """
    evk = (
        klss_evk_bytes(params) if params.klss is not None else hybrid_evk_bytes(params)
    )
    return (1 + GALOIS_KEY_COUNTS.get(app.lower(), DEFAULT_GALOIS_KEYS)) * evk


@dataclass(frozen=True)
class KeyPlacementPlan:
    """Where each application's evaluation keys live across device groups."""

    policy: str
    groups: int
    #: app -> sorted group ids holding that app's key set.
    devices_by_app: Dict[str, Tuple[int, ...]]
    #: app -> modeled bytes of its resident key set (per full copy).
    key_bytes_by_app: Dict[str, int]

    def devices_for(self, app: str) -> Tuple[int, ...]:
        """Group ids eligible to serve `app` (holding its keys)."""
        try:
            return self.devices_by_app[app.lower()]
        except KeyError:
            raise ValueError(
                f"no key placement for application {app!r}; "
                f"placed: {', '.join(sorted(self.devices_by_app))}"
            ) from None

    def group_key_bytes(self, group: int) -> int:
        """Modeled key bytes resident on one device group."""
        return sum(
            size
            for app, size in self.key_bytes_by_app.items()
            if group in self.devices_by_app[app]
        )

    def broadcast_bytes(self) -> int:
        """One-time interconnect bytes to distribute every key copy.

        The key material originates on one source device; every additional
        resident copy crosses the interconnect once.
        """
        return sum(
            size * (len(self.devices_by_app[app]) - 1)
            for app, size in self.key_bytes_by_app.items()
        )


def plan_key_placement(
    apps: Sequence[str],
    groups: int,
    params: ParameterSet,
    policy: str = "replicate",
) -> KeyPlacementPlan:
    """Assign each application's key set to device groups.

    ``replicate`` puts every key set on every group; ``shard`` partitions
    the key sets round-robin so each group holds roughly ``1/len(apps)`` of
    the key bytes (apps get ``groups // len(apps)`` copies when groups
    outnumber apps, one copy otherwise).  Deterministic: apps are placed in
    sorted order.
    """
    if policy not in PLACEMENT_POLICIES:
        raise ValueError(
            f"unknown placement policy {policy!r}; "
            f"choose from {', '.join(PLACEMENT_POLICIES)}"
        )
    if groups < 1:
        raise ValueError("need at least one device group")
    names = sorted({a.lower() for a in apps})
    if not names:
        raise ValueError("key placement needs at least one application")
    devices: Dict[str, Tuple[int, ...]] = {}
    if policy == "replicate" or groups == 1:
        full = tuple(range(groups))
        devices = {app: full for app in names}
    else:
        copies = max(1, groups // len(names))
        for i, app in enumerate(names):
            devices[app] = tuple(
                sorted({(i * copies + j) % groups for j in range(copies)})
            )
    return KeyPlacementPlan(
        policy=policy,
        groups=groups,
        devices_by_app=devices,
        key_bytes_by_app={app: app_key_bytes(params, app) for app in names},
    )


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-pressure autoscaling with hysteresis and cooldown.

    The planner walks fixed windows of offered demand, tracks a
    utilization proxy (demand plus carried backlog over fleet capacity),
    and only acts after `up_windows` consecutively hot or `down_windows`
    consecutively cold windows -- classic hysteresis, so one bursty
    window never flaps the fleet.  Every action starts a
    `cooldown_windows`-long hold.
    """

    min_gpus: int = 1
    max_gpus: int = 16
    window_s: float = 120.0
    scale_up_utilization: float = 0.85
    scale_down_utilization: float = 0.30
    up_windows: int = 2
    down_windows: int = 3
    cooldown_windows: int = 2
    step: int = 1

    def __post_init__(self):
        if not 1 <= self.min_gpus <= self.max_gpus:
            raise ValueError(
                f"need 1 <= min_gpus <= max_gpus, got "
                f"[{self.min_gpus}, {self.max_gpus}]"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if not 0 < self.scale_down_utilization < self.scale_up_utilization:
            raise ValueError(
                "need 0 < scale_down_utilization < scale_up_utilization, got "
                f"{self.scale_down_utilization} / {self.scale_up_utilization}"
            )
        if min(self.up_windows, self.down_windows, self.step) < 1:
            raise ValueError("up_windows, down_windows, step must be >= 1")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be >= 0")


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaling window's verdict."""

    at_s: float
    action: str  # "up" | "down" | "hold"
    gpus: int  # fleet size in force after this window's decision
    utilization: float
    reason: str


@dataclass
class AutoscaleTrace:
    """The full windowed autoscale plan for one offered-load timeline."""

    policy: AutoscalePolicy
    start_gpus: int
    decisions: List[ScaleDecision] = field(default_factory=list)

    @property
    def final_gpus(self) -> int:
        return self.decisions[-1].gpus if self.decisions else self.start_gpus

    @property
    def peak_gpus(self) -> int:
        return max(
            (d.gpus for d in self.decisions), default=self.start_gpus
        )

    @property
    def scale_ups(self) -> int:
        return sum(1 for d in self.decisions if d.action == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for d in self.decisions if d.action == "down")

    def format(self) -> str:
        rows = [
            [
                f"{d.at_s:.0f}",
                f"{100 * d.utilization:.0f}%",
                d.action,
                d.gpus,
                d.reason,
            ]
            for d in self.decisions
        ]
        header = (
            f"autoscale: {self.start_gpus} -> {self.final_gpus} GPU(s) "
            f"(peak {self.peak_gpus}; {self.scale_ups} up / "
            f"{self.scale_downs} down over {len(self.decisions)} windows)"
        )
        return header + "\n" + format_table(
            ["window start s", "util", "action", "gpus", "reason"],
            rows,
            title="scaling decisions",
        )


def plan_autoscale(
    demand_windows: Sequence[float],
    policy: AutoscalePolicy,
    start_gpus: int,
    capacity_per_gpu_s: float,
) -> AutoscaleTrace:
    """Walk windowed demand and emit hysteresis-damped scaling decisions.

    ``demand_windows[i]`` is the service-seconds of work offered in window
    `i`; each GPU retires `capacity_per_gpu_s` service-seconds per window.
    Unserved demand carries over as backlog, so a burst keeps pressure on
    until the (possibly grown) fleet works it off -- the signal a
    queue-depth autoscaler actually sees.
    """
    if capacity_per_gpu_s <= 0:
        raise ValueError(
            f"capacity_per_gpu_s must be > 0, got {capacity_per_gpu_s}"
        )
    gpus = min(max(start_gpus, policy.min_gpus), policy.max_gpus)
    trace = AutoscaleTrace(policy=policy, start_gpus=gpus)
    backlog = 0.0
    hot = cold = cooldown = 0
    for i, demand in enumerate(demand_windows):
        at_s = i * policy.window_s
        capacity = gpus * capacity_per_gpu_s
        load = demand + backlog
        utilization = load / capacity if capacity > 0 else float("inf")
        backlog = max(0.0, load - capacity)
        action, reason = "hold", "within band"
        if cooldown > 0:
            cooldown -= 1
            reason = "cooldown"
        elif utilization >= policy.scale_up_utilization:
            hot, cold = hot + 1, 0
            if hot >= policy.up_windows:
                if gpus < policy.max_gpus:
                    gpus = min(policy.max_gpus, gpus + policy.step)
                    action = "up"
                    reason = f"hot {hot} windows"
                    cooldown = policy.cooldown_windows
                    hot = 0
                else:
                    reason = "hot, at max_gpus"
            else:
                reason = f"hot {hot}/{policy.up_windows}"
        elif utilization <= policy.scale_down_utilization:
            cold, hot = cold + 1, 0
            if cold >= policy.down_windows:
                if gpus > policy.min_gpus:
                    gpus = max(policy.min_gpus, gpus - policy.step)
                    action = "down"
                    reason = f"cold {cold} windows"
                    cooldown = policy.cooldown_windows
                    cold = 0
                else:
                    reason = "cold, at min_gpus"
            else:
                reason = f"cold {cold}/{policy.down_windows}"
        else:
            hot = cold = 0
        trace.decisions.append(
            ScaleDecision(
                at_s=at_s,
                action=action,
                gpus=gpus,
                utilization=utilization,
                reason=reason,
            )
        )
    return trace


class MultiGpuServiceModel:
    """Times dynamic batches on a tensor-parallel group of modeled GPUs.

    Wraps the single-device :class:`NeoServiceModel`: each batch's trace is
    timed by :class:`~repro.gpu.multi_gpu.MultiGpuModel` (compute shards
    across the group, exchange stages pay interconnect bytes), and the
    per-kernel exchange traffic of any executed shape is exposed for the
    fleet report's interconnect accounting.
    """

    def __init__(self, base: NeoServiceModel, multi: MultiGpuModel):
        self.base = base
        self.multi = multi
        self._traces: Dict[Tuple[str, int], ExecutionTrace] = {}
        self._exchange: Dict[Tuple[str, int], Dict[str, float]] = {}
        self._models: Dict[DeviceSpec, MultiGpuModel] = {multi.device: multi}

    def _trace(self, app: str, size: int) -> ExecutionTrace:
        key = (app, size)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = self.base.batch_trace(app, size)
        return trace

    def _model_for(self, size: int) -> MultiGpuModel:
        # Small batches under-occupy each member GPU exactly as they do a
        # single device, so the group model runs on the batch-derated spec.
        device = self.base.batch_device(size)
        model = self._models.get(device)
        if model is None:
            model = self._models[device] = MultiGpuModel(
                self.multi.gpus,
                device=device,
                interconnect=self.multi.interconnect,
                overlap=self.multi.overlap,
            )
        return model

    def service_time_s(self, app: str, size: int, streams: int) -> float:
        return self._model_for(size).time_s(self._trace(app, size), streams)

    def exchange_bytes_for(self, app: str, size: int) -> Dict[str, float]:
        """Interconnect bytes per kernel class of one (app, size) batch."""
        key = (app, size)
        table = self._exchange.get(key)
        if table is None:
            table = self._exchange[key] = self.multi.exchange_bytes_by_kernel(
                self._trace(app, size)
            )
        return table

    def cache_stats(self):
        return self.base.cache_stats()

    def noise_trajectory(self, app: str):
        return self.base.noise_trajectory(app)


@dataclass
class DeviceReport:
    """One device group's slice of a fleet drain."""

    gpu: int
    report: ServingReport
    #: Busy-lane fraction over the fleet makespan (0..1).
    utilization: float
    #: Modeled evaluation-key bytes resident on each GPU of the group.
    hbm_key_bytes: int
    #: Key residency as a fraction of the GPU's HBM capacity.
    hbm_fraction: float


@dataclass
class FleetReport(ServingReport):
    """One fleet drain: a :class:`ServingReport` over the merged records.

    :meth:`Fleet.drain` fills the inherited fields once with fleet-wide
    values; ``lanes`` and ``streams_per_lane`` are per group.
    """

    gpus: int = 1
    tensor_parallel: int = 1
    interconnect: str = ""
    placement: Optional[KeyPlacementPlan] = None
    devices: List[DeviceReport] = field(default_factory=list)
    #: Interconnect bytes per kernel class, summed over every executed
    #: batch (all zero at ``tensor_parallel=1``: data-parallel groups
    #: never exchange shards mid-kernel).
    exchange_bytes_by_kernel: Dict[str, float] = field(default_factory=dict)
    #: One-time key-distribution traffic (placement broadcast).
    key_broadcast_bytes: int = 0
    #: Host-link traffic: every request's ciphertexts in and results out.
    ingress_bytes: float = 0.0

    @property
    def groups(self) -> int:
        return len(self.devices)

    @property
    def exchange_bytes(self) -> float:
        return sum(self.exchange_bytes_by_kernel.values())

    @property
    def interconnect_bytes(self) -> float:
        """All modeled inter-GPU traffic: shard exchange + key broadcast."""
        return self.exchange_bytes + self.key_broadcast_bytes

    # -- timeline -----------------------------------------------------------------

    def timeline(self) -> List[ScheduledKernel]:
        """Merged batch timeline; streams are globally numbered per group."""
        blocks: List[ScheduledKernel] = []
        for device in self.devices:
            lanes = device.report.lanes
            for block in device.report.timeline():
                blocks.append(
                    ScheduledKernel(
                        name=f"gpu{device.gpu}:{block.name}",
                        stream=device.gpu * lanes + block.stream,
                        resource=block.resource,
                        start_s=block.start_s,
                        end_s=block.end_s,
                    )
                )
        blocks.sort(key=lambda b: (b.start_s, b.stream, b.name))
        return blocks

    def fingerprint(self) -> str:
        """SHA-256 over routing + every device timeline; replay-stable."""
        digest = hashlib.sha256()
        for device in self.devices:
            rids = ",".join(
                str(r.request.rid)
                for r in sorted(
                    device.report.records, key=lambda r: r.request.rid
                )
            )
            digest.update(
                f"gpu{device.gpu}|{device.report.fingerprint()}|{rids}\n".encode()
            )
        return digest.hexdigest()

    # -- reporting ----------------------------------------------------------------

    def format(self) -> str:
        """A printable fleet report: headline, per-device, interconnect."""
        lat = self.latency_summary()
        tp = (
            f" x {self.tensor_parallel} tensor-parallel"
            if self.tensor_parallel > 1
            else ""
        )
        lines = [
            f"fleet of {self.gpus} GPU(s) ({self.groups} group(s){tp}, "
            f"{self.interconnect}, keys "
            f"{'replicated' if self.placement.policy == 'replicate' else 'sharded'}): "
            f"served {self.served} requests in {self.makespan_s:.1f} simulated s",
            f"  throughput : {self.throughput_rps:.3f} req/s",
            f"  latency    : P50 {lat['p50']:.1f} s, P95 {lat['p95']:.1f} s, "
            f"P99 {lat['p99']:.1f} s, max {lat['max']:.1f} s",
            f"  SLO        : {self.slo_violations} violations "
            f"({100 * self.slo_attainment:.1f}% attainment)",
            *self._overload_lines(),
            "",
        ]
        rows = []
        for device in self.devices:
            report = device.report
            dlat = report.latency_summary()
            rows.append(
                [
                    f"gpu{device.gpu}",
                    report.served,
                    f"{100 * device.utilization:.0f}%",
                    f"{report.mean_queue_depth:.1f}",
                    report.max_queue_depth,
                    f"{dlat['p95']:.1f}",
                    report.slo_violations,
                    f"{device.hbm_key_bytes / 2**30:.1f} "
                    f"({100 * device.hbm_fraction:.0f}%)",
                ]
            )
        lines.append(
            format_table(
                [
                    "device", "served", "util", "mean depth", "peak depth",
                    "P95 s", "SLO miss", "keys GiB (HBM)",
                ],
                rows,
                title="per-device",
            )
        )
        lines.append("")
        inter_rows = [
            [name, f"{size / 2**30:.2f}"]
            for name, size in sorted(self.exchange_bytes_by_kernel.items())
        ]
        inter_rows.append(
            ["key broadcast", f"{self.key_broadcast_bytes / 2**30:.2f}"]
        )
        inter_rows.append(["host ingress", f"{self.ingress_bytes / 2**30:.2f}"])
        lines.append(
            format_table(
                ["traffic class", "GiB"],
                inter_rows,
                title="interconnect traffic",
            )
        )
        return "\n".join(lines)


class Fleet:
    """A cluster of modeled GPU servers behind one deterministic router.

    Args:
        gpus: modeled devices in the fleet.
        params: Table 4 parameter set (or a ``ParameterSet``).
        config: per-device pipeline configuration (lanes split its streams).
        policy: admission policy per device server.
        max_batch / max_wait_s / lanes: continuous-batching knobs per device.
        placement: evaluation-key placement, ``replicate`` or ``shard``.
        device / interconnect: hardware models.
        tensor_parallel: GPUs ganged per serving group (must divide `gpus`);
            groups > 1 GPU run each batch through the multi-GPU cost model
            and shard evaluation keys limb-wise across members.
        tracer: span sink; ``None`` falls back to the active tracer.
    """

    def __init__(
        self,
        gpus: int = 4,
        params: Union[str, ParameterSet] = "C",
        config: PipelineConfig = NEO_CONFIG,
        policy: Union[str, AdmissionPolicy] = "bucketed",
        max_batch: int = 64,
        max_wait_s: float = 30.0,
        lanes: int = 2,
        placement: str = "replicate",
        device: DeviceSpec = A100,
        interconnect: Interconnect = NVLINK3,
        tensor_parallel: int = 1,
        trace_cache: Optional[TraceCache] = None,
        overload: Optional[OverloadPolicy] = None,
        tracer: Optional[Tracer] = None,
        autotune: bool = False,
    ):
        if gpus < 1:
            raise ValueError(f"need at least one GPU, got {gpus}")
        if tensor_parallel < 1:
            raise ValueError(
                f"tensor_parallel must be >= 1, got {tensor_parallel}"
            )
        if gpus % tensor_parallel:
            raise ValueError(
                f"tensor_parallel {tensor_parallel} must divide gpus {gpus}"
            )
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {placement!r}; "
                f"choose from {', '.join(PLACEMENT_POLICIES)}"
            )
        self.gpus = gpus
        self.tensor_parallel = tensor_parallel
        self.groups = gpus // tensor_parallel
        self.params = get_set(params) if isinstance(params, str) else params
        self.config = config
        self.lanes = lanes
        self.placement_policy = placement
        self.device = device
        self.interconnect = interconnect
        self.overload = overload
        self.tracer = tracer

        base = NeoServiceModel(
            self.params, config, trace_cache, device=device, autotune=autotune
        )
        if tensor_parallel > 1:
            self._multi = MultiGpuModel(
                tensor_parallel, device=device, interconnect=interconnect
            )
            self._model: object = MultiGpuServiceModel(base, self._multi)
        else:
            self._multi = None
            self._model = base
        self.servers = [
            Server(
                params=self.params,
                config=config,
                policy=policy,
                max_batch=max_batch,
                max_wait_s=max_wait_s,
                lanes=lanes,
                model=self._model,
                overload=overload,
                tracer=tracer,
            )
            for _ in range(self.groups)
        ]
        self.streams_per_lane = self.servers[0].streams_per_lane
        self._submitted: List[Request] = []
        self._rids: Set[int] = set()
        self._estimates: Dict[Tuple[str, int], float] = {}
        self._last_report: Optional[FleetReport] = None

    # -- admission ----------------------------------------------------------------

    def submit(self, request: Request) -> Request:
        """Accept one request; ``ValueError`` if its id was already submitted."""
        if request.rid in self._rids:
            raise ValueError(f"request id {request.rid} was already submitted")
        self._rids.add(request.rid)
        self._submitted.append(request)
        return request

    def submit_many(self, requests: Iterable[Request]) -> int:
        count = 0
        for request in requests:
            self.submit(request)
            count += 1
        return count

    @property
    def last_report(self) -> Optional[FleetReport]:
        return self._last_report

    # -- routing ------------------------------------------------------------------

    def _service_estimate(self, app: str, size: int) -> float:
        """Single-request service estimate for routing and autoscaling."""
        key = (app, size)
        est = self._estimates.get(key)
        if est is None:
            est = self._estimates[key] = self._model.service_time_s(
                app, size, self.streams_per_lane
            )
        return est

    def route(
        self, requests: Sequence[Request], placement: KeyPlacementPlan
    ) -> Dict[int, List[Request]]:
        """Assign arrival-ordered requests to groups, deterministically.

        Each request goes to the eligible group (key residency) whose
        estimated backlog clears earliest at the request's arrival --
        join-shortest-queue weighted by outstanding service time.  Ties
        break by group id, so the assignment is a pure function of the
        arrival trace.
        """
        est_free = [0.0] * self.groups
        assignment: Dict[int, List[Request]] = {g: [] for g in range(self.groups)}
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        for request in ordered:
            eligible = placement.devices_for(request.app)
            group = min(
                eligible, key=lambda g: (max(est_free[g], request.arrival_s), g)
            )
            est_free[group] = max(est_free[group], request.arrival_s) + (
                self._service_estimate(request.app, request.size) / self.lanes
            )
            assignment[group].append(request)
        return assignment

    # -- autoscaling --------------------------------------------------------------

    def plan_autoscale(
        self, policy: Optional[AutoscalePolicy] = None
    ) -> AutoscaleTrace:
        """A hysteresis-damped scaling plan for the submitted trace.

        Offered demand is bucketed into `policy.window_s` windows of
        estimated service-seconds (the same estimates the router uses);
        each GPU contributes ``lanes * window_s`` service-seconds per
        window.  The plan is advisory -- a deterministic what-if over the
        trace, not a mid-drain topology change -- and feeds the capacity
        decision for the *next* drain.
        """
        policy = policy or AutoscalePolicy()
        horizon = max(
            (r.arrival_s for r in self._submitted), default=0.0
        )
        windows = [0.0] * (int(horizon // policy.window_s) + 1)
        for request in self._submitted:
            windows[int(request.arrival_s // policy.window_s)] += (
                self._service_estimate(request.app, request.size)
            )
        return plan_autoscale(
            windows,
            policy,
            start_gpus=self.groups,
            capacity_per_gpu_s=self.lanes * policy.window_s,
        )

    # -- simulation ---------------------------------------------------------------

    def drain(self) -> FleetReport:
        """Route and replay every submitted request; return the fleet report.

        Each drain re-routes the whole submitted trace onto emptied group
        servers, so draining twice gives the same report.
        """
        apps = sorted({r.app for r in self._submitted}) or ["packbootstrap"]
        placement = plan_key_placement(
            apps, self.groups, self.params, self.placement_policy
        )
        assignment = self.route(self._submitted, placement)
        reports: List[ServingReport] = []
        for group, server in enumerate(self.servers):
            server.clear_submissions()
            server.submit_many(assignment[group])
            reports.append(server.drain())

        makespan = max((r.makespan_s for r in reports), default=0.0)
        devices: List[DeviceReport] = []
        hbm_bytes = self.device.memory_gib * 2**30
        for group, report in enumerate(reports):
            busy = sum(
                span.duration_s for span in report.timeline()
            )
            util = (
                busy / (self.lanes * makespan) if makespan > 0 else 0.0
            )
            # Tensor-parallel groups shard the key set limb-wise across
            # their members: per-GPU residency divides by the group size.
            per_gpu_keys = placement.group_key_bytes(group) // self.tensor_parallel
            devices.append(
                DeviceReport(
                    gpu=group,
                    report=report,
                    utilization=min(1.0, util),
                    hbm_key_bytes=per_gpu_keys,
                    hbm_fraction=per_gpu_keys / hbm_bytes,
                )
            )

        batches = [b for report in reports for b in report.batches]
        exchange: Dict[str, float] = {}
        if self._multi is not None:
            for batch in batches:
                table = self._model.exchange_bytes_for(
                    batch.app, batch.executed_size
                )
                for name, size in table.items():
                    exchange[name] = exchange.get(name, 0.0) + size

        ingress = sum(
            2 * r.size * ciphertext_bytes(self.params) for r in self._submitted
        )
        # Ordered by (finish_s, rid) in two stable passes: attribute keys
        # build no per-record tuple for the collector to track.
        records = [r for report in reports for r in report.records]
        records.sort(key=attrgetter("request.rid"))
        records.sort(key=attrgetter("finish_s"))
        admission: Dict[str, int] = {}
        for report in reports:
            for key, count in report.admission.items():
                admission[key] = admission.get(key, 0) + count
        # The groups share one service model, so the last group's cache
        # counters already cover the whole drain.
        last = reports[-1]
        fleet_report = FleetReport(
            records=records,
            batches=batches,
            lanes=self.lanes,
            streams_per_lane=self.streams_per_lane,
            makespan_s=makespan,
            mean_queue_depth=(
                sum(r.mean_queue_depth for r in reports) / len(reports)
            ),
            max_queue_depth=max(r.max_queue_depth for r in reports),
            shed=[q for report in reports for q in report.shed],
            rejected=[q for report in reports for q in report.rejected],
            cancelled=[q for report in reports for q in report.cancelled],
            admission=admission,
            queue_capacity=last.queue_capacity,
            peak_pressure=max(r.peak_pressure for r in reports),
            cache=last.cache,
            caches=last.caches,
            tuned=last.tuned,
            gpus=self.gpus,
            tensor_parallel=self.tensor_parallel,
            interconnect=self.interconnect.name,
            placement=placement,
            devices=devices,
            exchange_bytes_by_kernel=exchange,
            key_broadcast_bytes=placement.broadcast_bytes(),
            ingress_bytes=float(ingress),
        )
        self._last_report = fleet_report
        self._emit_telemetry(fleet_report)
        return fleet_report

    # -- telemetry ----------------------------------------------------------------

    def _emit_telemetry(self, report: FleetReport) -> None:
        tracer = self.tracer if self.tracer is not None else active_tracer()
        if tracer is not None:
            self._record_spans(tracer, report)
        registry = global_registry()
        if registry.enabled:
            self._record_metrics(registry, report)

    def _record_spans(self, tracer: Tracer, report: FleetReport) -> None:
        """One ``fleet`` trace: the drain span plus one span per group.

        Per-request spans are recorded by each device server's own drain
        (same tracer), so the queue -> batch -> kernel path stays intact;
        the fleet trace adds the routing/utilization overview on top.
        """
        root = tracer.record_span(
            "fleet", "fleet_drain", 0.0, report.makespan_s,
            category="fleet", gpus=report.gpus,
            tensor_parallel=report.tensor_parallel,
            placement=report.placement.policy, served=report.served,
        )
        for device in report.devices:
            tracer.record_span(
                "fleet", f"gpu-{device.gpu}", 0.0,
                device.report.makespan_s, parent_id=root.span_id,
                category="fleet", served=device.report.served,
                utilization=round(device.utilization, 4),
                peak_queue_depth=device.report.max_queue_depth,
            )

    def _record_metrics(
        self, registry: MetricsRegistry, report: FleetReport
    ) -> None:
        served = registry.counter(
            "fleet_requests_total", "Requests served, by device group",
            labelnames=("gpu",),
        )
        util = registry.gauge(
            "fleet_device_utilization",
            "Busy-lane fraction per device group over the fleet makespan",
            labelnames=("gpu",),
        )
        depth = registry.gauge(
            "fleet_queue_depth_peak", "Peak queue depth per device group",
            labelnames=("gpu",),
        )
        hbm = registry.gauge(
            "fleet_hbm_key_bytes",
            "Modeled evaluation-key bytes resident per GPU",
            labelnames=("gpu",),
        )
        for device in report.devices:
            gpu = str(device.gpu)
            served.labels(gpu=gpu).inc(device.report.served)
            util.labels(gpu=gpu).set(device.utilization)
            depth.labels(gpu=gpu).set(device.report.max_queue_depth)
            hbm.labels(gpu=gpu).set(device.hbm_key_bytes)
        exchange = registry.counter(
            "fleet_interconnect_bytes_total",
            "Modeled interconnect bytes, by kernel class",
            labelnames=("kernel",),
        )
        for name, size in report.exchange_bytes_by_kernel.items():
            if size:
                exchange.labels(kernel=name).inc(size)
        registry.gauge(
            "fleet_key_broadcast_bytes",
            "One-time key-distribution interconnect bytes",
        ).set(report.key_broadcast_bytes)
        registry.gauge(
            "fleet_ingress_bytes", "Host-link ciphertext ingress/egress bytes"
        ).set(report.ingress_bytes)
        registry.gauge(
            "fleet_gpus", "Modeled GPUs in the fleet"
        ).set(report.gpus)
        registry.gauge(
            "fleet_throughput_rps", "Fleet requests per simulated second"
        ).set(report.throughput_rps)
        registry.gauge(
            "fleet_slo_attainment", "Fleet-wide SLO attainment"
        ).set(report.slo_attainment)
        registry.gauge(
            "fleet_makespan_seconds", "Simulated makespan of the fleet drain"
        ).set(report.makespan_s)
        record_drain_gauges(
            registry, report,
            self.overload is not None or report.offered != report.served,
        )
