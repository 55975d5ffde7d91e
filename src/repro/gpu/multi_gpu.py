"""Multi-GPU scaling model with a plan-aware interconnect cost model.

The paper's related work cites HE-Booster's multi-GPU parallelisation with
fine-grained data partitioning, and Cheddar / Theodosian both argue that
off-chip data movement is the first-order cost of FHE acceleration.  This
module extends the single-device cost model to ``G`` devices under *limb
sharding*: each GPU owns ``1/G`` of the RNS limbs of every resident
polynomial, so compute and HBM traffic divide evenly, and only the stages
whose dataflow mixes limbs ever touch the interconnect.

Which stages exchange shards follows from the op plans, not from a uniform
assumption:

* **BConv** (Mod Up / Mod Down / Recover Limbs, Algorithm 2) computes every
  output limb from *all* input limbs -- each GPU produces partial sums for
  every output shard and reduce-scatters them, moving ``(G-1)/G`` of the
  output across the links (the ModUp digit exchange).
* **NTT / INTT** in four-step or radix-16 GEMM form transposes the working
  set between GEMM stages; with sharded operands the transpose is an
  all-to-all that moves ``(G-1)/G`` of the data once per transform.
* **IP**, automorphisms and all element-wise kernels (ModMul, ModAdd,
  Rescale, Mod Down fix-up) are limb-local: after the digit exchange each
  GPU holds exactly the limbs it reads, and evaluation keys are resident
  (replicated, or sharded limb-aligned), so no bytes cross the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .device import A100, DeviceSpec
from .trace import ExecutionTrace


@dataclass(frozen=True)
class Interconnect:
    """GPU-to-GPU link (per-GPU aggregate bandwidth)."""

    name: str
    bandwidth_gbs: float
    latency_us: float

    @property
    def bytes_per_s(self) -> float:
        return self.bandwidth_gbs * 1e9


#: Third-generation NVLink, as on A100 systems (600 GB/s aggregate).
NVLINK3 = Interconnect(name="NVLink3", bandwidth_gbs=600.0, latency_us=5.0)

#: PCIe 4.0 x16 fallback.
PCIE4 = Interconnect(name="PCIe4 x16", bandwidth_gbs=32.0, latency_us=15.0)

#: Kernel classes whose dataflow mixes limbs and therefore exchanges shards
#: under limb partitioning.  Everything else is limb-local.
EXCHANGE_KERNELS = frozenset({"ntt", "intt", "bconv"})


def single_gpu_time_s(
    trace: ExecutionTrace, device: DeviceSpec = A100, streams: int = 8
) -> float:
    """Single-device reference time of `trace`."""
    return trace.overlapped_time_s(device, streams)


class MultiGpuModel:
    """Time a trace across `gpus` limb-sharded devices.

    Model: compute and local memory traffic divide evenly across GPUs.
    Interconnect traffic is priced per kernel from the op plans: only the
    transpose-like exchange stages (NTT four-step / radix-16 all-to-all,
    BConv reduce-scatter) move ``(G-1)/G`` of their working set across the
    links, plus one synchronisation latency per exchanging kernel launch.

    Communication overlaps with compute only partially: the makespan is the
    longer of the two plus ``(1 - overlap)`` of the shorter (``overlap``
    defaults to 0.5 -- half the shorter side is hidden).
    """

    def __init__(
        self,
        gpus: int,
        device: DeviceSpec = A100,
        interconnect: Interconnect = NVLINK3,
        overlap: float = 0.5,
    ):
        if gpus < 1:
            raise ValueError("need at least one GPU")
        if not 0.0 <= overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {overlap}")
        self.gpus = gpus
        self.device = device
        self.interconnect = interconnect
        self.overlap = overlap

    # -- interconnect traffic -----------------------------------------------------

    def _event_exchange_bytes(self, event) -> float:
        """Total link bytes (summed over all GPUs) one kernel exchanges."""
        if self.gpus == 1 or event.name.lower() not in EXCHANGE_KERNELS:
            return 0.0
        # The all-to-all / reduce-scatter moves the kernel's output working
        # set once; bytes_written is that working set (for the NTT it equals
        # the input: the transform is in place size-wise).
        return event.bytes_written * ((self.gpus - 1) / self.gpus)

    def exchange_bytes_by_kernel(self, trace: ExecutionTrace) -> Dict[str, float]:
        """Total interconnect bytes per kernel name (zero for local stages)."""
        table: Dict[str, float] = {}
        for event in trace.events:
            name = event.name.lower()
            table[name] = table.get(name, 0.0) + self._event_exchange_bytes(event)
        return table

    def exchange_bytes(self, trace: ExecutionTrace) -> float:
        """Total interconnect bytes of `trace` summed over all GPUs."""
        return sum(self.exchange_bytes_by_kernel(trace).values())

    def _sync_launches(self, trace: ExecutionTrace) -> float:
        """Kernel launches that carry an interconnect synchronisation."""
        return sum(
            e.launches
            for e in trace.events
            if e.name.lower() in EXCHANGE_KERNELS
        )

    def comm_time_s(self, trace: ExecutionTrace) -> float:
        """Wall time of the interconnect phase of `trace`.

        All GPUs exchange concurrently over their own links, so the wall
        time is the per-GPU share of the traffic over the per-GPU link
        bandwidth, plus one link latency per synchronising launch.
        """
        if self.gpus == 1:
            return 0.0
        per_gpu_bytes = self.exchange_bytes(trace) / self.gpus
        return (
            per_gpu_bytes / self.interconnect.bytes_per_s
            + self._sync_launches(trace) * self.interconnect.latency_us * 1e-6
        )

    # -- timing -------------------------------------------------------------------

    def time_s(self, trace: ExecutionTrace, streams: int = 8) -> float:
        """Wall time of `trace` on the multi-GPU system."""
        if self.gpus == 1:
            return single_gpu_time_s(trace, self.device, streams)
        shard = trace.scaled(1.0 / self.gpus)
        compute = shard.overlapped_time_s(self.device, streams)
        comm = self.comm_time_s(trace)
        longer, shorter = max(compute, comm), min(compute, comm)
        return longer + (1.0 - self.overlap) * shorter

    def speedup(self, trace: ExecutionTrace, streams: int = 8) -> float:
        """Speedup of `gpus` devices over one."""
        single = single_gpu_time_s(trace, self.device, streams)
        return single / self.time_s(trace, streams)

    def scaling_efficiency(self, trace: ExecutionTrace, streams: int = 8) -> float:
        """``speedup / gpus`` -- 1.0 is perfect linear scaling."""
        return self.speedup(trace, streams) / self.gpus
