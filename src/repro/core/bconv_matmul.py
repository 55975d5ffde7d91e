"""BConv as matrix multiplication (the paper's Algorithm 2 + Fig. 6).

The original BConv (Algorithm 1) reads every input coefficient ``alpha'``
times.  Neo instead multiplies each limb by its ``q_hat_inv`` factor,
reorders to ``(N, BS, alpha)``, and runs one ``(BS*N) x alpha' x alpha``
GEMM against the constant matrix ``B[i, j] = q_hat_i mod p_j`` -- with the
plane products mapped onto the FP64 tensor cores.

Both a bit-exact functional path (:meth:`NeoBConv.run`) and an analytic
cost path (:func:`bconv_cost`) are provided.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

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
from ..math import modarith
from ..math.rns import RnsBasis, bconv_matrix
from . import layout


class NeoBConv:
    """The GEMM-form BConv kernel between two RNS bases."""

    def __init__(self, from_basis: RnsBasis, to_basis: RnsBasis, gemm: Optional[Callable] = None):
        """Args:
            from_basis: source basis (``alpha`` limbs).
            to_basis: target basis (``alpha'`` limbs).
            gemm: optional ``gemm(a, b) -> exact integer matrix`` hook; by
                default exact integer matmul stands in for the TCU.  The
                GEMM must be *exact* (no modular reduction) because each
                output column is reduced by a different prime afterwards.
        """
        self.from_basis = from_basis
        self.to_basis = to_basis
        self._gemm = gemm if gemm is not None else self._integer_gemm
        self._matrix = bconv_matrix(from_basis, to_basis)  # (alpha, alpha')
        # Per-target uint64 columns of B (column j is reduced mod p_j, so
        # each fits a machine word whenever p_j does).
        self._native_cols = (
            [self._matrix[:, j].astype(np.uint64) for j in range(len(to_basis))]
            if all(modarith.uses_native_backend(p) for p in to_basis.moduli)
            else None
        )

    @staticmethod
    def _integer_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a.astype(object) @ b.astype(object)

    def run(self, tensor: np.ndarray) -> np.ndarray:
        """Convert a ``(alpha, BS, N)`` limb tensor to ``(alpha', BS, N)``.

        Semantics match :func:`repro.math.rns.bconv_approx` applied to every
        ``(batch, coefficient)`` column -- the test-suite asserts it.
        """
        alpha, batch, n = self._check_input(tensor)
        native = (
            tensor.dtype != object
            and self._native_cols is not None
            and all(
                modarith.uses_native_backend(q) for q in self.from_basis.moduli
            )
        )
        # Step 1: scalar multiplication by q_hat_inv_i (per input limb).
        scaled = np.empty(tensor.shape, dtype=np.uint64 if native else object)
        for i, (q, inv) in enumerate(
            zip(self.from_basis.moduli, self.from_basis.q_hat_inv)
        ):
            scaled[i] = modarith.scalar_mul_mod(
                modarith.asarray_mod(tensor[i], q), inv, q
            )
        # Step 1b: data reorder (alpha, BS, N) -> (N, BS, alpha).
        reordered = layout.bconv_forward(scaled)
        flat = reordered.reshape(n * batch, alpha)
        if native and self._gemm is NeoBConv._integer_gemm:
            # Steps 2+3 fused in uint64: each output column reduces by its
            # own prime, so run one Barrett-reduced GEMV per target limb --
            # the same residues the exact GEMM + merge produces, with no
            # bignum round trip.
            out_cols = [
                modarith.matmul_mod(flat, col, p)
                for col, p in zip(self._native_cols, self.to_basis.moduli)
            ]
            stacked = np.stack(out_cols, axis=1).reshape(
                n, batch, len(self.to_basis)
            )
            return layout.bconv_backward(stacked)
        # Step 2: one big GEMM (BS*N, alpha) @ (alpha, alpha'), exact integers.
        product = self._gemm(flat, self._matrix)
        # Step 3: per-column modular reduction (CUDA-core merge step).
        out_cols = []
        for j, p in enumerate(self.to_basis.moduli):
            out_cols.append(modarith.asarray_mod(np.asarray(product[:, j]), p))
        stacked = np.stack(out_cols, axis=1).reshape(n, batch, len(self.to_basis))
        # Step 4: reorder back to limb-contiguous (alpha', BS, N).
        return layout.bconv_backward(stacked)

    def _check_input(self, tensor: np.ndarray):
        if tensor.ndim != 3:
            raise ValueError(f"expected (alpha, BS, N) tensor, got {tensor.shape}")
        alpha, batch, n = tensor.shape
        if alpha != len(self.from_basis):
            raise ValueError(
                f"tensor has {alpha} limbs but basis has {len(self.from_basis)}"
            )
        return alpha, batch, n


def reference_bconv(tensor: np.ndarray, from_basis: RnsBasis, to_basis: RnsBasis) -> np.ndarray:
    """Algorithm 1 (original element-wise BConv) on a limb tensor."""
    from ..math.rns import bconv_approx

    alpha, batch, n = tensor.shape
    flat = [tensor[i].reshape(batch * n) for i in range(alpha)]
    out = bconv_approx(flat, from_basis, to_basis)
    return np.stack([np.asarray(limb).reshape(batch, n) for limb in out])


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
