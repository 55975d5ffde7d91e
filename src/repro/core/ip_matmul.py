"""Cost model of the inner product (IP) as a GEMM (Algorithm 4 + Figs. 7/8).

The KLSS inner product multiply-accumulates ``beta`` ciphertext digit limbs
against ``beta~ x beta`` evaluation-key limbs, per auxiliary prime and per
coefficient.  The original formulation re-reads each ciphertext coefficient
``beta~`` times; Neo reorders both tensors so the work becomes ``N * alpha'``
independent ``BS x beta x beta~`` GEMMs with full data reuse.

When the valid proportion of the padded FP64 fragments falls below 80% the
GEMM runs on CUDA cores instead (Section 4.5.3) -- :mod:`repro.core.mapping`
implements that policy; :func:`ip_cost` prices both variants, and the
pipelines price every IP with it.

The functional kernel is :meth:`repro.math.modstack.ModulusStack.lazy_mul_sum`,
which the key-switch plans call: it folds the digit axis of the broadcast
``(L, ..., N)`` limb and key stacks in place, with one reduction per
accumulator chunk, so no reorder copy is made.
"""

from __future__ import annotations

from typing import Optional

from ..gpu.memory_model import ip_traffic
from ..gpu.kernels import (
    CACHE_REREAD_CAP,
    ELEMENTWISE_FLOPS,
    KernelCost,
    elementwise_cost,
    gemm_cost_cuda,
    gemm_cost_tcu_fp64,
    gemm_cost_tcu_int8,
    memoised_cost,
    word_bytes,
)


# ---------------------------------------------------------------------------
# Analytic cost
# ---------------------------------------------------------------------------


@memoised_cost
def ip_cost(
    beta: int,
    beta_tilde: int,
    alpha_prime: int,
    batch: int,
    n: int,
    wordsize: int,
    style: str = "gemm",
    component: str = "tcu_fp64",
    fused: bool = True,
    pair_factor: int = 2,
    batch_tile: Optional[int] = None,
) -> KernelCost:
    """Cost of one full IP over a batch.

    Pure function of its scalar arguments, memoised process-wide (frozen
    result, safe to share; the autotuner sweeps hit the same shapes often).

    Args:
        pair_factor: 2 for the KLSS IP (the ``(b, a)`` evk pairs double the
            work); 1 when ``beta_tilde`` itself already enumerates the output
            components (the Hybrid external product uses ``beta_tilde = 2``).
        batch_tile: ciphertexts per kernel tile.  Tiling re-streams the
            evaluation key once per tile (the hierarchy model charges it to
            L2 or DRAM depending on the key's footprint); ``None`` reads
            the key once.
    """
    wb = word_bytes(wordsize)
    limb_elements = beta * alpha_prime * batch * n
    evk_elements = beta_tilde * beta * alpha_prime * n
    out_elements = beta_tilde * alpha_prime * batch * n
    if style == "elementwise":
        # Algorithm 3: the IP is "constructed using the ModMUL kernel" --
        # one kernel launch per (i, j) evk pair, so each ciphertext
        # coefficient is re-read beta~ times (capped by cache) and the
        # accumulators round-trip through global memory between launches
        # (the overhead kernel fusion removes, Section 4.6).
        limb_reread = min(beta_tilde, CACHE_REREAD_CAP)
        acc_roundtrips = max(beta - 1, 0)  # re-read + re-write per extra step
        return KernelCost(
            name="ip",
            cuda_flops=pair_factor * limb_elements * beta_tilde * 8.0,
            bytes_read=pair_factor
            * (limb_elements * limb_reread + evk_elements + acc_roundtrips * out_elements)
            * wb,
            bytes_written=pair_factor
            * (1 + acc_roundtrips)
            * out_elements
            * wb,
            launches=beta_tilde * beta,
            # Hierarchy view: the uncapped tail of the per-pair limb
            # re-reads, resident only if the limb tensor fits.
            traffic=ip_traffic(
                0.0,
                pair_factor * limb_elements * wb,
                beta_tilde,
                limb_reread,
                batch,
                batch_tile=None,
            ),
        )
    if style != "gemm":
        raise ValueError(f"unknown IP style {style!r}")
    m, n_dim, k_dim = batch * n * alpha_prime, beta_tilde, beta
    builders = {
        "cuda": gemm_cost_cuda,
        "tcu_fp64": gemm_cost_tcu_fp64,
        "tcu_int8": gemm_cost_tcu_int8,
    }
    try:
        gemm = builders[component]("ip", m, n_dim, k_dim, wordsize, include_io=False)
    except KeyError:
        raise ValueError(f"unknown component {component!r}")
    gemm = gemm.scaled(pair_factor, name="ip")
    reorder = elementwise_cost(
        "ip",
        pair_factor * (limb_elements + out_elements) + evk_elements,
        wordsize,
        flops_per_element=ELEMENTWISE_FLOPS,
        reads_per_element=1.0,
        writes_per_element=1.0,
    )
    staged = gemm.merged(reorder, name="ip")
    traffic = ip_traffic(
        evk_elements * wb, limb_elements * wb, 0.0, 0.0, batch, batch_tile
    )
    if fused:
        return KernelCost(
            name="ip",
            cuda_flops=staged.cuda_flops,
            tcu_fp64_flops=staged.tcu_fp64_flops,
            tcu_int8_ops=staged.tcu_int8_ops,
            bytes_read=(pair_factor * limb_elements + evk_elements) * wb,
            bytes_written=pair_factor * out_elements * wb,
            launches=1,
            traffic=traffic,
        )
    return staged
