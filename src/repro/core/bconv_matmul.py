"""Cost model of BConv as matrix multiplication (Algorithm 2 + Fig. 6).

The original BConv (Algorithm 1) reads every input coefficient ``alpha'``
times.  Neo instead multiplies each limb by its ``q_hat_inv`` factor,
reorders to ``(N, BS, alpha)``, and runs one ``(BS*N) x alpha' x alpha``
GEMM against the constant matrix ``B[i, j] = q_hat_i mod p_j`` -- with the
plane products mapped onto the FP64 tensor cores.

:func:`bconv_cost` is the analytic cost of both algorithms on the modeled
GPU; the pipelines price every BConv with it.  The functional kernel is
:meth:`repro.math.modstack.ModulusStack.bconv_matmul`, which the key-switch
plans and :func:`repro.math.rns.bconv_approx` call: one lazily reduced GEMM
that contracts the source-limb axis of the ``(alpha, ..., N)`` stack in
place against :func:`repro.math.rns.bconv_weights`, so no reorder copy is
made.
"""

from __future__ import annotations

from typing import Optional

from ..gpu.memory_model import bconv_traffic
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
def bconv_cost(
    alpha: int,
    alpha_out: int,
    batch: int,
    n: int,
    wordsize: int,
    style: str = "gemm",
    component: str = "tcu_fp64",
    fused: bool = True,
    batch_tile: Optional[int] = None,
) -> KernelCost:
    """Cost of one BConv over a full batch.

    Pure function of its scalar arguments, memoised process-wide (frozen
    result, safe to share; the autotuner sweeps hit the same shapes often).

    Args:
        style: ``"elementwise"`` (Algorithm 1) or ``"gemm"`` (Algorithm 2).
        component: GEMM execution unit (``cuda`` / ``tcu_fp64`` / ``tcu_int8``);
            ignored for the element-wise style.
        fused: fold pre/post-processing into the GEMM kernel (Section 4.6),
            keeping intermediates in shared memory.
        batch_tile: ciphertexts processed per kernel tile (the hierarchy
            model's working-set knob; ``None`` runs the whole batch).
    """
    wb = word_bytes(wordsize)
    elements_in = alpha * batch * n
    elements_out = alpha_out * batch * n
    if style == "elementwise":
        # Every input coefficient is logically read once per output level
        # (poor reuse, Algorithm 1); DRAM amplification saturates at the
        # cache cap in the time model.
        reread = min(alpha_out, CACHE_REREAD_CAP)
        return KernelCost(
            name="bconv",
            cuda_flops=elements_in * alpha_out * 8.0,
            bytes_read=elements_in * reread * wb,
            bytes_written=elements_out * wb,
            # The hierarchy model sees the *uncapped* tail of the logical
            # re-reads; it hits L2 only if the (tiled) input stays resident.
            traffic=bconv_traffic(
                elements_in, alpha_out, reread, wb, batch, batch_tile
            ),
        )
    if style != "gemm":
        raise ValueError(f"unknown BConv style {style!r}")
    m, n_dim, k_dim = batch * n, alpha_out, alpha
    builders = {
        "cuda": gemm_cost_cuda,
        "tcu_fp64": gemm_cost_tcu_fp64,
        "tcu_int8": gemm_cost_tcu_int8,
    }
    try:
        gemm = builders[component]("bconv", m, n_dim, k_dim, wordsize, include_io=False)
    except KeyError:
        raise ValueError(f"unknown component {component!r}")
    pre = elementwise_cost(
        "bconv",
        elements_in,
        wordsize,
        flops_per_element=8.0 + ELEMENTWISE_FLOPS,  # scalar mul + reorder
        reads_per_element=1.0,
        writes_per_element=1.0,
    )
    post = elementwise_cost(
        "bconv",
        elements_out,
        wordsize,
        flops_per_element=8.0 + ELEMENTWISE_FLOPS,  # reduce + reorder
        reads_per_element=1.0,
        writes_per_element=1.0,
    )
    staged = pre.merged(gemm).merged(post, name="bconv")
    # Constant conversion matrix B[i, j] = q_hat_i mod p_j: re-streamed
    # once per batch tile; its footprint is what must stay resident.
    matrix_bytes = alpha * alpha_out * wb
    traffic = bconv_traffic(
        elements_in, 0.0, 0.0, wb, batch, batch_tile, matrix_bytes=matrix_bytes
    )
    if fused:
        # Intermediates (reordered input, raw GEMM output) stay on-chip:
        # only the true input and output touch global memory.
        return KernelCost(
            name="bconv",
            cuda_flops=staged.cuda_flops,
            tcu_fp64_flops=staged.tcu_fp64_flops,
            tcu_int8_ops=staged.tcu_int8_ops,
            bytes_read=elements_in * wb,
            bytes_written=elements_out * wb,
            launches=1,
            traffic=traffic,
        )
    return staged
