"""Fault injection for the serving layer: bursts, slow devices, cancels.

A :class:`FaultPlan` is a declarative bundle of adverse events applied to
a :class:`~repro.serving.server.Server` *before* its drain:

* :class:`BurstFault` -- a thundering herd: `count` simultaneous arrivals
  of one application at one instant (the arrival pattern load shedding
  exists for).
* :class:`SlowDeviceFault` -- a degraded device window: every batch that
  *starts* inside ``[start_s, end_s)`` takes ``factor`` times its modelled
  service time (straggler GPUs, thermal throttling, a noisy neighbour).
* :class:`CancelFault` -- mid-drain cancellations of specific request ids
  at a simulated instant (clients hanging up while queued).

Faults stay inside the simulated clock, so every chaotic run is exactly
reproducible: the chaos suite (:mod:`tests.serving.test_fault_injection`)
drives randomised plans from a seeded RNG and asserts the server's
invariants -- no deadlock, no lost or duplicated requests, monotone batch
clocks -- hold under all of them.

Slow devices work through the server's time-aware service hook: the
server prefers ``model.service_time_at(app, size, streams, now)`` over
the stationary ``service_time_s`` when a model provides it, which is what
:class:`FaultyServiceModel` does while delegating everything else to the
wrapped model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..core.trace_cache import CacheStats
from .request import Request
from .server import Server


@dataclass(frozen=True)
class BurstFault:
    """`count` simultaneous arrivals of one app at ``at_s``."""

    at_s: float
    app: str
    count: int
    size: int = 1
    slo_s: float = 0.0
    tenant: str = "burst"
    priority: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"burst count must be >= 1, got {self.count}")
        if self.at_s < 0:
            raise ValueError(f"burst time must be >= 0, got {self.at_s}")


@dataclass(frozen=True)
class SlowDeviceFault:
    """Batches starting in ``[start_s, end_s)`` run ``factor`` x slower."""

    start_s: float
    end_s: float
    factor: float = 4.0

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError(
                f"need end_s > start_s, got [{self.start_s}, {self.end_s})"
            )
        if self.factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {self.factor}")

    def applies(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class CancelFault:
    """Cancel the given request ids at simulated ``at_s``."""

    at_s: float
    rids: Tuple[int, ...]

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError(f"cancel time must be >= 0, got {self.at_s}")
        object.__setattr__(self, "rids", tuple(self.rids))


class FaultyServiceModel:
    """Wraps a service model with slow-device windows.

    Provides the server's preferred ``service_time_at`` hook: the batch's
    *start* instant decides whether a slowdown window applies (a batch
    started on a healthy device finishes at healthy speed -- the windows
    model device degradation, not preemption).
    """

    def __init__(self, base, slowdowns: Sequence[SlowDeviceFault] = ()):
        self._base = base
        self._slowdowns = tuple(slowdowns)

    def factor_at(self, now: float) -> float:
        """The combined slowdown multiplier in force at ``now``."""
        factor = 1.0
        for fault in self._slowdowns:
            if fault.applies(now):
                factor *= fault.factor
        return factor

    def service_time_s(self, app: str, size: int, streams: int) -> float:
        return self._base.service_time_s(app, size, streams)

    def service_time_at(
        self, app: str, size: int, streams: int, now: float
    ) -> float:
        return self._base.service_time_s(app, size, streams) * self.factor_at(
            now
        )

    def cache_stats(self) -> CacheStats:
        return self._base.cache_stats()

    def __getattr__(self, name):
        # batch_trace / batch_spans / noise_trajectory etc. pass through so
        # telemetry and the fleet layer see the wrapped model unchanged.
        return getattr(self._base, name)


@dataclass
class FaultPlan:
    """A reproducible bundle of faults applied to one server."""

    bursts: List[BurstFault] = field(default_factory=list)
    slowdowns: List[SlowDeviceFault] = field(default_factory=list)
    cancels: List[CancelFault] = field(default_factory=list)

    def burst_requests(self, server: Server) -> List[Request]:
        """Submit every burst's arrivals; returns the created requests."""
        created: List[Request] = []
        for burst in sorted(self.bursts, key=lambda b: b.at_s):
            for _ in range(burst.count):
                created.append(
                    server.submit(
                        app=burst.app,
                        size=burst.size,
                        arrival_s=burst.at_s,
                        slo_s=burst.slo_s,
                        tenant=burst.tenant,
                        priority=burst.priority,
                    )
                )
        return created

    def apply(self, server: Server) -> List[Request]:
        """Arm every fault on `server`; returns burst-injected requests.

        Bursts are submitted, cancels registered, and -- when slowdown
        windows exist -- the server's model is wrapped in a
        :class:`FaultyServiceModel`.  Call before ``drain``.
        """
        created = self.burst_requests(server)
        for fault in self.cancels:
            for rid in fault.rids:
                server.cancel(rid, fault.at_s)
        if self.slowdowns and not isinstance(
            server.model, FaultyServiceModel
        ):
            server.model = FaultyServiceModel(server.model, self.slowdowns)
        elif self.slowdowns:
            server.model = FaultyServiceModel(
                server.model._base,
                tuple(server.model._slowdowns) + tuple(self.slowdowns),
            )
        return created
