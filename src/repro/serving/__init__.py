"""Dynamic-batching request serving over the Neo device model.

Turns "one application, one batch" into "a stream of concurrent requests":
jobs are admitted with per-request batch sizes and latency SLOs, folded
into dynamic batches by continuous batching with a bounded wait window,
and scheduled onto multi-stream lanes of the analytic A100 model.  The
overload layer (:mod:`repro.serving.overload`) bounds the admission queue
and sheds load by service tier; :mod:`repro.serving.replay` captures and
byte-identically replays traffic timelines; and
:mod:`repro.serving.async_frontend` puts a wall-clock asyncio ingest with
backpressure in front of the same scheduler; it loads (with asyncio) on
first use of one of its names.  See ``python -m repro serve --workload
mixed`` for the CLI front end.
"""

from .batcher import Batch, ContinuousBatcher
from .faults import (
    BurstFault,
    CancelFault,
    FaultPlan,
    FaultyServiceModel,
    SlowDeviceFault,
)
from .fleet import (
    GALOIS_KEY_COUNTS,
    PLACEMENT_POLICIES,
    AutoscalePolicy,
    AutoscaleTrace,
    DeviceReport,
    Fleet,
    FleetReport,
    KeyPlacementPlan,
    MultiGpuServiceModel,
    ScaleDecision,
    app_key_bytes,
    plan_autoscale,
    plan_key_placement,
)
from .overload import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionController,
    AdmissionDecision,
    AdmissionLedger,
    OverloadPolicy,
)
from .policies import (
    POLICIES,
    AdmissionPolicy,
    EarliestDeadlinePolicy,
    FifoPolicy,
    PriorityPolicy,
    SizeBucketedPolicy,
    get_policy,
    next_power_of_two,
)
from .queue import QueueFull, RequestQueue
from .replay import (
    SnapshotError,
    TimelineSnapshot,
    capture_timeline,
    replay_timeline,
)
from .request import (
    DEFAULT_SLO_S,
    TIER_PRIORITIES,
    Request,
    RequestRecord,
    default_slo_s,
    tier_name,
    tier_priority,
)
from .server import (
    FixedServiceModel,
    NeoServiceModel,
    Server,
    ServerStats,
    ServingReport,
)
from .workload import (
    WORKLOAD_PRESETS,
    WorkloadPhase,
    parse_workload_spec,
    synthesize_arrivals,
)

__all__ = [
    "ADMITTED",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionLedger",
    "AdmissionPolicy",
    "AsyncFrontEnd",
    "AutoscalePolicy",
    "AutoscaleTrace",
    "Batch",
    "BurstFault",
    "CancelFault",
    "ContinuousBatcher",
    "DEFAULT_SLO_S",
    "DeviceReport",
    "EarliestDeadlinePolicy",
    "FaultPlan",
    "FaultyServiceModel",
    "FifoPolicy",
    "FixedServiceModel",
    "Fleet",
    "FleetReport",
    "FrontEndClosed",
    "GALOIS_KEY_COUNTS",
    "KeyPlacementPlan",
    "MultiGpuServiceModel",
    "NeoServiceModel",
    "OverloadPolicy",
    "PLACEMENT_POLICIES",
    "POLICIES",
    "PriorityPolicy",
    "QueueFull",
    "REJECTED",
    "Request",
    "RequestQueue",
    "RequestRecord",
    "SHED",
    "ScaleDecision",
    "Server",
    "ServerStats",
    "ServingReport",
    "SizeBucketedPolicy",
    "SlowDeviceFault",
    "SnapshotError",
    "TIER_PRIORITIES",
    "TimelineSnapshot",
    "WORKLOAD_PRESETS",
    "WorkloadPhase",
    "app_key_bytes",
    "capture_timeline",
    "default_slo_s",
    "get_policy",
    "next_power_of_two",
    "parse_workload_spec",
    "plan_autoscale",
    "plan_key_placement",
    "replay_timeline",
    "run_wall_clock",
    "serve_replay",
    "synthesize_arrivals",
    "tier_name",
    "tier_priority",
]

#: Names served by :mod:`.async_frontend`, imported on first access.
_ASYNC_FRONTEND = frozenset(
    ("AsyncFrontEnd", "FrontEndClosed", "run_wall_clock", "serve_replay")
)


def __getattr__(name: str):
    if name in _ASYNC_FRONTEND:
        from . import async_frontend

        return getattr(async_frontend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
