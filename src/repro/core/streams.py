"""Discrete-event multi-stream scheduler (Section 4.6).

Neo partitions kernels across CUDA streams so that when tensor-core work
in one stream stalls, CUDA-core work from another stream fills the idle
cycles.  :func:`repro.gpu.trace.price` models this with an analytic
per-resource bound; this module *simulates* it: kernels are assigned to
streams, streams issue in order, and each kernel occupies its dominant
execution resource (CUDA cores, tensor cores, or DRAM bandwidth)
exclusively for its duration.

The simulated makespan always lies between the analytic lower bound and
the serial time (the test-suite asserts it), and the timeline can be
exported in the Chrome ``chrome://tracing`` JSON format for inspection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass, field
from typing import Dict, List

from ..gpu.device import DeviceSpec
from ..gpu.kernels import KernelCost
from ..gpu.trace import ExecutionTrace


@dataclass(frozen=True)
class ScheduledKernel:
    """One kernel's placement in the simulated timeline."""

    name: str
    stream: int
    resource: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class ScheduleResult:
    """Outcome of a simulation run."""

    makespan_s: float
    timeline: List[ScheduledKernel] = field(default_factory=list)
    resource_busy_s: Dict[str, float] = field(default_factory=dict)

    def utilisation(self) -> Dict[str, float]:
        """Busy fraction of each resource over the makespan."""
        if self.makespan_s <= 0:
            return {r: 0.0 for r in self.resource_busy_s}
        return {
            r: busy / self.makespan_s for r, busy in self.resource_busy_s.items()
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical timeline.

        Two runs with identical inputs produce identical fingerprints
        (floats serialise through ``repr``, which round-trips exactly);
        the serving determinism tests compare these across replays.
        """
        payload = json.dumps([astuple(k) for k in self.timeline])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_chrome_trace(self) -> str:
        """The timeline as a Chrome tracing JSON string."""
        events = []
        for k in self.timeline:
            events.append(
                {
                    "name": k.name,
                    "cat": k.resource,
                    "ph": "X",
                    "ts": k.start_s * 1e6,
                    "dur": k.duration_s * 1e6,
                    "pid": 0,
                    "tid": k.stream,
                }
            )
        return json.dumps({"traceEvents": events})


class StreamScheduler:
    """Simulates issuing a trace across `streams` CUDA streams."""

    RESOURCES = ("cuda", "tcu", "memory")

    def __init__(self, device: DeviceSpec, streams: int = 8):
        if streams < 1:
            raise ValueError("need at least one stream")
        self.device = device
        self.streams = streams

    def _classify(self, cost: KernelCost) -> tuple:
        """(dominant resource, duration) of one kernel.

        Raises :class:`~repro.gpu.kernels.DeviceCapabilityError`, as pricing
        does, for tensor-core work on a device without that tensor core.
        """
        cuda, fp64, int8, memory = cost.roofline(self.device)[:4]
        launch = cost.launches * self.device.kernel_launch_us * 1e-6
        times = {"cuda": cuda, "tcu": fp64 + int8, "memory": memory}
        resource = max(times, key=times.get)
        duration = max(times.values()) + launch
        return resource, max(duration, 1e-12)

    def run(self, trace: ExecutionTrace) -> ScheduleResult:
        """Simulate `trace` with round-robin stream assignment."""
        stream_free = [0.0] * self.streams
        resource_free = {r: 0.0 for r in self.RESOURCES}
        busy = {r: 0.0 for r in self.RESOURCES}
        timeline: List[ScheduledKernel] = []
        for index, cost in enumerate(trace.events):
            stream = index % self.streams
            resource, duration = self._classify(cost)
            start = max(stream_free[stream], resource_free[resource])
            end = start + duration
            stream_free[stream] = end
            resource_free[resource] = end
            busy[resource] += duration
            timeline.append(
                ScheduledKernel(cost.name, stream, resource, start, end)
            )
        makespan = max((k.end_s for k in timeline), default=0.0)
        return ScheduleResult(makespan, timeline, busy)

    def makespan_s(self, trace: ExecutionTrace) -> float:
        return self.run(trace).makespan_s
