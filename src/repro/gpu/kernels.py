"""Analytic kernel cost model (roofline + launch overhead).

Every Neo / baseline kernel reports a :class:`KernelCost`: how many FLOPs it
places on each compute component, how many bytes it moves through global
memory, and how many kernel launches it needs.  Time on a device follows a
roofline: ``launches * launch_us + max(compute_time, memory_time)``, with
the compute side serialised across components *within* one kernel (streams
overlap components across kernels -- see :mod:`repro.gpu.trace`).
:meth:`KernelCost.roofline` prices those terms in one place; ``time_s``,
the trace pass :func:`repro.gpu.trace.price` and the stream scheduler all
start from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from ..telemetry.stats import Cache
from .device import DeviceSpec
from .memory_model import TrafficProfile, extra_launches, hier_memory_time_s
from .fragments import (
    FP64_FRAGMENT,
    FragmentShape,
    best_int8_fragment,
    fragment_ops,
)
from .tensorcore import plan_fp64_split, plan_int8_split

#: FP64-equivalent instruction cost of one modular multiply-accumulate on
#: CUDA cores: wide integer mul.lo/mul.hi pairs plus Barrett/Montgomery
#: reduction come to roughly a dozen issue slots per 36-60-bit MAC.
CUDA_MODMUL_FLOPS = 12.0

#: FP64-equivalent cost of one element-wise split/merge/reorder step.
ELEMENTWISE_FLOPS = 2.0

#: Effective cap on redundant global-memory re-reads.  The paper's traffic
#: analysis (Figs. 2/15) counts every logical re-read; in the *time* model
#: the L2 cache absorbs part of that redundancy, so the DRAM amplification
#: of a poor-reuse kernel saturates around this factor.
CACHE_REREAD_CAP = 8.0


class DeviceCapabilityError(ValueError):
    """A kernel needs an execution unit the device does not have.

    A ``ValueError``, so config searches that prune infeasible points with
    ``except ValueError`` (the autotuner) keep working.
    """


#: Bytes of one stored polynomial coefficient (64-bit words for WordSize > 32).
def word_bytes(wordsize: int) -> int:
    """Storage bytes per coefficient for a given WordSize."""
    if wordsize <= 0:
        raise ValueError("wordsize must be positive")
    return 4 if wordsize <= 32 else 8


@dataclass(frozen=True)
class KernelCost:
    """Resource usage of one GPU kernel (or a fused group of kernels)."""

    name: str
    cuda_flops: float = 0.0
    tcu_fp64_flops: float = 0.0
    tcu_int8_ops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    #: Kernel launches.  Fractional values model launch overhead amortised
    #: over fractional repetitions (``scaled``); a true no-op carries 0.
    launches: float = 1
    #: Optional reuse profile for the hierarchical memory model.  ``None``
    #: means a streaming kernel (no redundant traffic beyond the recorded
    #: bytes).  Ignored entirely by devices with ``memory_model="flat"``,
    #: so the default pricing is bit-identical to the pre-hierarchy model.
    traffic: Optional[TrafficProfile] = None

    # -- timing ----------------------------------------------------------------

    def roofline(self, device: DeviceSpec) -> Tuple[float, ...]:
        """The roofline terms and time of this kernel on `device`.

        ``(cuda_s, tcu_fp64_s, tcu_int8_s, memory_s, launches, time_s)``:
        seconds on each compute component and on global memory, the launch
        count, and the kernel's time ``launches * launch_us + max(compute,
        memory)``, the compute side serialised as CUDA, then FP64, then
        INT8.  Devices with ``memory_model="hier"`` split the traffic across
        the L2/HBM tiers from the kernel's :class:`TrafficProfile` and add
        its tiled-execution launches; flat devices (the default) price the
        recorded bytes at HBM bandwidth.  Tensor-core work on a device
        without that tensor core raises :class:`DeviceCapabilityError`.
        """
        cuda = fp64 = int8 = 0.0
        if self.cuda_flops:
            cuda = self.cuda_flops / device.cuda_fp64_flops
        if self.tcu_fp64_flops:
            rate = device.tcu_fp64_flops
            if rate == 0:
                raise DeviceCapabilityError(f"{device.name} has no FP64 tensor cores")
            fp64 = self.tcu_fp64_flops / rate
        if self.tcu_int8_ops:
            rate = device.tcu_int8_ops
            if rate == 0:
                raise DeviceCapabilityError(f"{device.name} has no INT8 tensor cores")
            int8 = self.tcu_int8_ops / rate
        compulsory = self.bytes_read + self.bytes_written
        if device.memory_model == "hier":
            memory = hier_memory_time_s(compulsory, self.traffic, device)
            launches = self.launches + extra_launches(self.traffic)
        else:
            memory = compulsory / device.memory_bytes_per_s
            launches = self.launches
        time = launches * device.kernel_launch_us * 1e-6 + max(cuda + fp64 + int8, memory)
        return cuda, fp64, int8, memory, launches, time

    def compute_time_s(self, device: DeviceSpec) -> float:
        """Serialised compute time over all components, seconds."""
        cuda, fp64, int8 = self.roofline(device)[:3]
        return cuda + fp64 + int8

    def memory_time_s(self, device: DeviceSpec) -> float:
        """Global-memory transfer time, seconds (flat or ``hier``)."""
        return self.roofline(device)[3]

    def effective_launches(self, device: DeviceSpec) -> float:
        """Launches including tiled-execution launches under ``hier``."""
        return self.roofline(device)[4]

    def time_s(self, device: DeviceSpec) -> float:
        """Roofline execution time on `device`, seconds."""
        return self.roofline(device)[5]

    def time_us(self, device: DeviceSpec) -> float:
        return self.time_s(device) * 1e6

    # -- algebra -----------------------------------------------------------------

    def scaled(self, factor: float, name: Optional[str] = None) -> "KernelCost":
        """The cost of running this kernel `factor` times.

        Launches scale linearly (no rounding, no floor): a zero-launch
        placeholder stays launch-free, and ``scaled(a).scaled(b)`` equals
        ``scaled(a * b)`` exactly.
        """
        return KernelCost(
            name=name or self.name,
            cuda_flops=self.cuda_flops * factor,
            tcu_fp64_flops=self.tcu_fp64_flops * factor,
            tcu_int8_ops=self.tcu_int8_ops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            launches=self.launches * factor,
            traffic=self.traffic.scaled(factor) if self.traffic else None,
        )

    def merged(self, other: "KernelCost", name: Optional[str] = None) -> "KernelCost":
        """Back-to-back execution of two kernels (launches add)."""
        if self.traffic is not None:
            traffic = self.traffic.merged(other.traffic)
        else:
            traffic = other.traffic
        return KernelCost(
            name=name or f"{self.name}+{other.name}",
            cuda_flops=self.cuda_flops + other.cuda_flops,
            tcu_fp64_flops=self.tcu_fp64_flops + other.tcu_fp64_flops,
            tcu_int8_ops=self.tcu_int8_ops + other.tcu_int8_ops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            launches=self.launches + other.launches,
            traffic=traffic,
        )

    def fused_with(self, other: "KernelCost", saved_bytes: float, name: Optional[str] = None) -> "KernelCost":
        """Kernel fusion (Section 4.6): one launch, intermediates stay in
        shared memory so `saved_bytes` of global traffic disappear."""
        merged = self.merged(other, name=name)
        saved = min(saved_bytes, merged.bytes_read + merged.bytes_written)
        read_saved = min(saved / 2, merged.bytes_read)
        write_saved = min(saved - read_saved, merged.bytes_written)
        return replace(
            merged,
            name=name or f"fused({self.name},{other.name})",
            bytes_read=merged.bytes_read - read_saved,
            bytes_written=merged.bytes_written - write_saved,
            launches=1,
        )


#: Shared memo of the kernel-cost functions (``ntt_cost``, ``bconv_cost``,
#: ``ip_cost``): autotuner sweeps and cold model runs revisit the same
#: shapes thousands of times, and a frozen :class:`KernelCost` is safe to
#: hand to every caller.
KERNEL_COSTS = Cache("kernel_costs", maxsize=3 * 4096)


def memoised_cost(cost_fn: Callable[..., KernelCost]) -> Callable[..., KernelCost]:
    """Memoise a pure kernel-cost function in :data:`KERNEL_COSTS`, keyed on
    its name and arguments."""
    name = cost_fn.__name__

    @functools.wraps(cost_fn)
    def cached(*args, **kwargs) -> KernelCost:
        return KERNEL_COSTS.get_or_build(
            (name, args, tuple(kwargs.items())), lambda: cost_fn(*args, **kwargs)
        )

    return cached


def zero_cost(name: str) -> KernelCost:
    """A named kernel with no resource usage (placeholder for no-ops)."""
    return KernelCost(name=name, launches=0)


# ---------------------------------------------------------------------------
# GEMM cost builders
# ---------------------------------------------------------------------------


def gemm_cost_cuda(
    name: str, m: int, n: int, k: int, wordsize: int, include_io: bool = True
) -> KernelCost:
    """Modular GEMM executed on CUDA cores (one modmul-add per MAC)."""
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=m * n * k * CUDA_MODMUL_FLOPS,
        bytes_read=(m * k + k * n) * wb if include_io else 0.0,
        bytes_written=m * n * wb if include_io else 0.0,
    )


def gemm_cost_tcu_fp64(
    name: str, m: int, n: int, k: int, wordsize: int, include_io: bool = True
) -> KernelCost:
    """Modular GEMM on FP64 tensor cores via bit-sliced plane products.

    Includes the CUDA-core split/merge work (Step 1 / postprocessing of
    Fig. 11) and the padded-fragment waste of the 8x8x4 shape.
    """
    plan = plan_fp64_split(wordsize, wordsize, k)
    frags = fragment_ops(m, n, k, FP64_FRAGMENT)
    tcu_flops = frags * FP64_FRAGMENT.flops * plan.products
    split_elems = plan.a_planes * m * k + plan.b_planes * k * n
    merge_elems = plan.products * m * n + m * n  # weighted adds + reduction
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=(split_elems + merge_elems) * ELEMENTWISE_FLOPS,
        tcu_fp64_flops=tcu_flops,
        bytes_read=(m * k + k * n) * wb if include_io else 0.0,
        bytes_written=m * n * wb if include_io else 0.0,
    )


def gemm_cost_tcu_int8(
    name: str,
    m: int,
    n: int,
    k: int,
    wordsize: int,
    shape: Optional[FragmentShape] = None,
    include_io: bool = True,
) -> KernelCost:
    """Modular GEMM on INT8 tensor cores (TensorFHE's Booth-split scheme)."""
    plan = plan_int8_split(wordsize, wordsize)
    if shape is None:
        shape = best_int8_fragment(m, n, k)
    frags = fragment_ops(m, n, k, shape)
    int8_ops = frags * shape.flops * plan.products
    split_elems = plan.a_planes * m * k + plan.b_planes * k * n
    merge_elems = plan.products * m * n + m * n
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=(split_elems + merge_elems) * ELEMENTWISE_FLOPS,
        tcu_int8_ops=int8_ops,
        bytes_read=(m * k + k * n) * wb if include_io else 0.0,
        bytes_written=m * n * wb if include_io else 0.0,
    )


def elementwise_cost(
    name: str,
    elements: float,
    wordsize: int,
    flops_per_element: float = CUDA_MODMUL_FLOPS,
    reads_per_element: float = 2.0,
    writes_per_element: float = 1.0,
) -> KernelCost:
    """An element-wise CUDA-core kernel (ModMUL / ModADD / AUTO / reorder)."""
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=elements * flops_per_element,
        bytes_read=elements * reads_per_element * wb,
        bytes_written=elements * writes_per_element * wb,
    )
