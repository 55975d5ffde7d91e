"""Cost model of the radix-16 ("ten-step") NTT (Section 4.4, Fig. 9).

The four-step NTT splits an ``N``-point transform into GEMMs with
``sqrt(N) x sqrt(N)`` twiddle matrices; Neo decomposes once more so every
GEMM is ``16 x 16`` -- a perfect fit for the FP64 fragments (two ``8x8x4``
tiles per dimension, no padding) and an 8x reduction in GEMM MACs at
``N = 2**16`` (``2**22`` vs ``2**25``).

This module is the analytic side: :func:`radix16_factors` is the stage
split the model prices, :func:`ntt_gemm_macs` counts its MACs, and
:func:`ntt_cost` times butterfly, four-step and radix-16 transforms; the
pipelines price every NTT with it.  The functional transform is
:class:`repro.math.ntt.NttStack`, whose multi-step engine
(:class:`repro.math.ntt.GemmSteps`) runs the same ``16 x 16 x 16 x 16``
factorisation at ``N = 2**16`` as exact float64 GEMMs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..gpu.memory_model import ntt_traffic
from ..gpu.kernels import (
    ELEMENTWISE_FLOPS,
    KernelCost,
    elementwise_cost,
    gemm_cost_cuda,
    gemm_cost_tcu_fp64,
    gemm_cost_tcu_int8,
    memoised_cost,
    word_bytes,
)


def radix16_factors(degree: int) -> List[int]:
    """Decompose `degree` into radix-16 stages (last stage may be smaller).

    ``2**16 -> [16, 16, 16, 16]``; ``2**10 -> [16, 16, 4]``.
    """
    if degree < 2 or degree & (degree - 1):
        raise ValueError(f"degree must be a power of two >= 2, got {degree}")
    factors: List[int] = []
    remaining = degree
    while remaining > 1:
        stage = min(16, remaining)
        factors.append(stage)
        remaining //= stage
    return factors


def ntt_gemm_macs(degree: int, factors: Sequence[int]) -> int:
    """GEMM multiply-accumulates of one transform under a factorisation.

    Stage ``i`` with radix ``f_i`` performs ``N / f_i`` GEMV-like products of
    an ``f_i x f_i`` twiddle matrix: ``N * f_i`` MACs.  For ``N = 2**16``:
    four-step (256, 256) -> ``2**25``; radix-16 -> ``2**22`` (the paper's
    ``1/8`` claim).
    """
    return sum(degree * f for f in factors)


#: Butterfly stages one shared-memory pass covers (2**10-point tiles): a
#: transform wider than this round-trips its intermediate between passes.
BUTTERFLY_SMEM_STAGES = 10


@memoised_cost
def ntt_cost(
    degree: int,
    batch_limbs: int,
    wordsize: int,
    style: str = "radix16",
    component: str = "tcu_fp64",
    inverse: bool = False,
    tile_polys: Optional[int] = None,
) -> KernelCost:
    """Cost of transforming `batch_limbs` polynomials of `degree`.

    Pure function of its scalar arguments, memoised process-wide (the
    autotuner sweeps revisit the same shapes thousands of times; the
    returned :class:`KernelCost` is frozen so sharing is safe).

    Args:
        batch_limbs: number of (limb, batch) polynomials transformed together.
        style: ``"butterfly"`` (classic CUDA-core O(N log N) transform),
            ``"four_step"`` or ``"radix16"`` (GEMM decompositions).
        component: execution unit for the GEMM stages (ignored for
            ``"butterfly"``, which always runs on CUDA cores).
        tile_polys: polynomials chunked through all stages per launch group
            (the hierarchy model's inter-stage working set; ``None`` runs
            the whole batch per stage).  Flat-memory devices ignore it.
    """
    if style == "butterfly":
        wb = word_bytes(wordsize)
        elements = batch_limbs * degree
        stages = degree.bit_length() - 1
        passes = max(1, -(-stages // BUTTERFLY_SMEM_STAGES))
        return KernelCost(
            name="intt" if inverse else "ntt",
            # one modmul + add/sub per butterfly, N/2 butterflies per stage
            cuda_flops=elements / 2 * stages * 10.0,
            bytes_read=elements * wb,
            bytes_written=elements * wb,
            launches=1,
            traffic=ntt_traffic(
                elements, wb, passes, degree, batch_limbs, tile_polys=tile_polys
            ),
        )
    if style == "four_step":
        half = 1 << ((degree.bit_length() - 1) // 2)
        factors = [half, degree // half]
    elif style == "radix16":
        factors = radix16_factors(degree)
    else:
        raise ValueError(f"unknown NTT style {style!r}")
    wb = word_bytes(wordsize)
    builders = {
        "cuda": gemm_cost_cuda,
        "tcu_fp64": gemm_cost_tcu_fp64,
        "tcu_int8": gemm_cost_tcu_int8,
    }
    try:
        builder = builders[component]
    except KeyError:
        raise ValueError(f"unknown component {component!r}")
    name = "intt" if inverse else "ntt"
    total = KernelCost(name=name, launches=0)
    for radix in factors:
        stage = builder(
            name,
            m=batch_limbs * degree // radix,
            n=radix,
            k=radix,
            wordsize=wordsize,
            include_io=False,
        )
        total = KernelCost(
            name=name,
            cuda_flops=total.cuda_flops + stage.cuda_flops,
            tcu_fp64_flops=total.tcu_fp64_flops + stage.tcu_fp64_flops,
            tcu_int8_ops=total.tcu_int8_ops + stage.tcu_int8_ops,
            launches=total.launches,
        )
    elements = batch_limbs * degree
    # Twist ("Mul & Trans"), transposes and modular reductions between
    # stages run on CUDA cores; each stage touches every element once.
    between = elementwise_cost(
        name,
        elements * len(factors),
        wordsize,
        flops_per_element=8.0 + ELEMENTWISE_FLOPS,
        reads_per_element=0.0,
        writes_per_element=0.0,
    )
    return KernelCost(
        name=name,
        cuda_flops=total.cuda_flops + between.cuda_flops,
        tcu_fp64_flops=total.tcu_fp64_flops,
        tcu_int8_ops=total.tcu_int8_ops,
        # Fused stages: one read of the limbs in, one write out.
        bytes_read=elements * wb,
        bytes_written=elements * wb,
        launches=1,
        # The hierarchy model additionally sees the inter-stage round trips
        # ((stages - 1) intermediates), resident wherever the chunked
        # working set fits.
        traffic=ntt_traffic(
            elements, wb, len(factors), degree, batch_limbs, tile_polys
        ),
    )
