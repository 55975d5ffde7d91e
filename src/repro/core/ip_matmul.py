"""Inner Product (IP) as matrix multiplication (Algorithm 4 + Figs. 7/8).

The KLSS inner product multiply-accumulates ``beta`` ciphertext digit limbs
against ``beta~ x beta`` evaluation-key limbs, per auxiliary prime and per
coefficient.  The original formulation re-reads each ciphertext coefficient
``beta~`` times; Neo reorders both tensors so the work becomes ``N * alpha'``
independent ``BS x beta x beta~`` GEMMs with full data reuse.

When the valid proportion of the padded FP64 fragments falls below 80% the
GEMM runs on CUDA cores instead (Section 4.5.3) -- :mod:`repro.core.mapping`
implements that policy; here both cost variants are exposed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

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
from ..math import modarith
from . import layout


class NeoInnerProduct:
    """The GEMM-form IP kernel over the auxiliary basis ``T``."""

    def __init__(self, t_moduli: Sequence[int], gemm: Optional[Callable] = None):
        """Args:
            t_moduli: the ``alpha'`` auxiliary primes, indexing axis 1 of the
                input tensors.
            gemm: optional ``gemm(a, b, q) -> reduced matrix`` hook (e.g.
                :func:`repro.gpu.tensorcore.fp64_gemm_mod` partially applied);
                defaults to exact integer GEMM with reduction.
        """
        self.t_moduli = tuple(int(t) for t in t_moduli)
        self._gemm = gemm if gemm is not None else modarith.matmul_mod

    def run(self, limbs: np.ndarray, evk: np.ndarray) -> np.ndarray:
        """Compute the inner product.

        Args:
            limbs: ``(beta, alpha', BS, N)`` ciphertext digit limbs.
            evk: ``(beta~, beta, alpha', N)`` evaluation-key limbs.

        Returns:
            ``(beta~, alpha', BS, N)`` accumulated limbs, reduced mod ``t_k``.
        """
        beta, alpha_p, batch, n = self._check(limbs, evk)
        beta_tilde = evk.shape[0]
        c_re = layout.ip_limbs_forward(limbs)  # (N, alpha', BS, beta)
        k_re = layout.ip_evk_forward(evk)  # (N, alpha', beta, beta~)
        native = (
            limbs.dtype != object
            and evk.dtype != object
            and self._gemm is modarith.matmul_mod
            and all(modarith.uses_native_backend(t) for t in self.t_moduli)
        )
        out = np.empty(
            (n, alpha_p, batch, beta_tilde),
            dtype=np.uint64 if native else object,
        )
        for k, t in enumerate(self.t_moduli):
            if native:
                # All N per-coefficient GEMMs for this auxiliary prime run
                # as one stacked (N, BS, beta) @ (N, beta, beta~) Barrett
                # GEMM -- a single launch in the paper's execution model.
                out[:, k] = modarith.matmul_mod(c_re[:, k], k_re[:, k], t)
                continue
            # One (N*BS) x beta~ x beta GEMM per auxiliary prime.
            a = c_re[:, k].reshape(n * batch, beta)
            b_blocks = k_re[:, k]  # (N, beta, beta~)
            for l in range(n):
                block = self._gemm(
                    a[l * batch : (l + 1) * batch], b_blocks[l], t
                )
                out[l, k] = np.asarray(block, dtype=out.dtype)
        return layout.ip_limbs_backward(out)

    def _check(self, limbs: np.ndarray, evk: np.ndarray):
        if limbs.ndim != 4 or evk.ndim != 4:
            raise ValueError("limbs must be rank-4 (beta, alpha', BS, N); evk rank-4")
        beta, alpha_p, batch, n = limbs.shape
        beta_tilde, beta_e, alpha_e, n_e = evk.shape
        if (beta_e, alpha_e, n_e) != (beta, alpha_p, n):
            raise ValueError(
                f"evk shape {evk.shape} inconsistent with limbs {limbs.shape}"
            )
        if alpha_p != len(self.t_moduli):
            raise ValueError(
                f"tensor has {alpha_p} aux limbs, kernel built for {len(self.t_moduli)}"
            )
        return beta, alpha_p, batch, n


def reference_inner_product(
    limbs: np.ndarray, evk: np.ndarray, t_moduli: Sequence[int]
) -> np.ndarray:
    """Algorithm 3: the original element-wise multiply-accumulate IP."""
    beta, alpha_p, batch, n = limbs.shape
    beta_tilde = evk.shape[0]
    out = np.zeros((beta_tilde, alpha_p, batch, n), dtype=object)
    for i in range(beta_tilde):
        for j in range(beta):
            for k in range(alpha_p):
                t = int(t_moduli[k])
                for b in range(batch):
                    out[i, k, b] = (
                        out[i, k, b] + limbs[j, k, b].astype(object) * evk[i, j, k]
                    ) % t
    return out


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
