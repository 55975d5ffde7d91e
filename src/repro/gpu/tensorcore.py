"""Numerical emulation of tensor-core GEMMs on wide modular integers.

The paper's key numerical device (Section 3.4): an FP64 tensor core offers
53 bits of exact integer precision, so a 36-bit modular GEMM can be computed
exactly with only **3** FP64 plane products (B split into 12-bit planes) and
a 48-bit GEMM with **4** (both operands split into 24-bit halves) -- versus
25 and 36 INT8 plane products ("Booth complexity").

This module *executes* both strategies with numpy (``float64`` matmuls for
the FP64 path, small-integer matmuls for the INT8 path), asserting the
no-overflow invariants, so the claim is checked rather than assumed.  The
same plane counts feed the analytic cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..math import modarith

#: Mantissa precision of IEEE-754 binary64.
FP64_PRECISION_BITS = 53

#: Accumulator width of the INT8 tensor-core pipeline.
INT8_ACCUMULATOR_BITS = 31  # signed int32


class PrecisionOverflowError(RuntimeError):
    """Raised when a plane product would exceed the component's precision."""


@dataclass(frozen=True)
class SplitPlan:
    """How to decompose a wide-integer GEMM into narrow plane products.

    ``a_planes x b_planes`` plane GEMMs are required; operand A planes hold
    ``a_bits`` bits each and operand B planes ``b_bits`` bits each.
    """

    a_planes: int
    b_planes: int
    a_bits: int
    b_bits: int

    @property
    def products(self) -> int:
        """Number of plane GEMMs ("Booth complexity" in the paper)."""
        return self.a_planes * self.b_planes


def plan_fp64_split(wordsize_a: int, wordsize_b: int, k_dim: int) -> SplitPlan:
    """Cheapest exact FP64 decomposition of a ``wordsize``-bit GEMM.

    Finds the plane counts minimising ``a_planes * b_planes`` such that every
    accumulated dot product stays below ``2**53``:
    ``(2**a_bits - 1) * (2**b_bits - 1) * k_dim < 2**53``.

    Reproduces the paper's Section 3.4 arithmetic: 36-bit at K=16 -> 1x3
    planes (3 products); 48-bit at K=16 -> 2x2 planes (4 products).

    Ties go to the smaller ``(a_planes, b_planes)``.  The search stops once
    ``a_planes`` reaches the best product count: every later candidate has
    at least that many products, and a tie keeps the earlier plan.
    """
    if min(wordsize_a, wordsize_b, k_dim) < 1:
        raise ValueError("wordsizes and k_dim must be positive")
    limit = 1 << FP64_PRECISION_BITS
    best: Optional[Tuple[int, int, int, int]] = None
    best_products = wordsize_a * wordsize_b + 1  # above every candidate's
    for a_planes in range(1, wordsize_a + 1):
        if a_planes >= best_products:
            break
        a_bits = -(-wordsize_a // a_planes)
        a_bound = ((1 << a_bits) - 1) * k_dim
        for b_planes in range(1, wordsize_b + 1):
            b_bits = -(-wordsize_b // b_planes)
            if a_bound * ((1 << b_bits) - 1) < limit:
                if a_planes * b_planes < best_products:
                    best_products = a_planes * b_planes
                    best = (a_planes, b_planes, a_bits, b_bits)
                break  # more b_planes only increases the product count
    if best is None:
        raise PrecisionOverflowError(
            f"no FP64 split exists for {wordsize_a}x{wordsize_b}-bit GEMM at K={k_dim}"
        )
    return SplitPlan(*best)


def plan_int8_split(wordsize_a: int, wordsize_b: int) -> SplitPlan:
    """INT8 decomposition: both operands in 8-bit planes (TensorFHE's scheme)."""
    if min(wordsize_a, wordsize_b) < 1:
        raise ValueError("wordsizes must be positive")
    a_planes = -(-wordsize_a // 8)
    b_planes = -(-wordsize_b // 8)
    return SplitPlan(a_planes, b_planes, 8, 8)


def _split_matrix(matrix: np.ndarray, plane_bits: int, plane_count: int) -> List[np.ndarray]:
    """Bit-slice an integer matrix into `plane_count` planes, low bits first."""
    values = np.asarray(matrix, dtype=object)
    mask = (1 << plane_bits) - 1
    return [((values >> (i * plane_bits)) & mask) for i in range(plane_count)]


def fp64_gemm_mod(
    a: np.ndarray, b: np.ndarray, modulus: int, plan: Optional[SplitPlan] = None
) -> np.ndarray:
    """Exact modular GEMM through FP64 plane products (TCU FP64 emulation).

    ``a`` is ``M x K``, ``b`` is ``K x N``; entries must be reduced modulo
    `modulus`.  Each plane product runs as a genuine ``float64`` matmul --
    the same arithmetic the A100's FP64 tensor core performs -- and an
    assertion guards the ``< 2**53`` exactness invariant.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    k_dim = a.shape[1]
    if b.shape[0] != k_dim:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    wordsize = max(int(modulus).bit_length(), 1)
    if plan is None:
        plan = plan_fp64_split(wordsize, wordsize, k_dim)
    bound = ((1 << plan.a_bits) - 1) * ((1 << plan.b_bits) - 1) * k_dim
    if bound >= 1 << FP64_PRECISION_BITS:
        raise PrecisionOverflowError(
            f"plan {plan} cannot hold K={k_dim} accumulation in FP64"
        )
    a_planes = _split_matrix(a, plan.a_bits, plan.a_planes)
    b_planes = _split_matrix(b, plan.b_bits, plan.b_planes)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for i, a_plane in enumerate(a_planes):
        a_f = a_plane.astype(np.float64)
        for j, b_plane in enumerate(b_planes):
            partial = a_f @ b_plane.astype(np.float64)
            if partial.size and partial.max() >= float(1 << FP64_PRECISION_BITS):
                raise PrecisionOverflowError("FP64 plane product overflowed 2**53")
            weight = 1 << (i * plan.a_bits + j * plan.b_bits)
            # The merge (weight-and-add, modular reduction) runs on CUDA cores
            # in Neo; here it is exact integer arithmetic.
            acc = (acc + partial.astype(np.int64).astype(object) * weight) % modulus
    return modarith.asarray_mod(acc, modulus)


def int8_gemm_mod(
    a: np.ndarray, b: np.ndarray, modulus: int, plan: Optional[SplitPlan] = None
) -> np.ndarray:
    """Exact modular GEMM through INT8 plane products (TensorFHE's scheme).

    Emulates the INT8 tensor-core path: 8-bit planes of both operands,
    int32 accumulation (overflow-checked), cross-product recombination.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    k_dim = a.shape[1]
    if b.shape[0] != k_dim:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    wordsize = max(int(modulus).bit_length(), 1)
    if plan is None:
        plan = plan_int8_split(wordsize, wordsize)
    if 255 * 255 * k_dim >= 1 << INT8_ACCUMULATOR_BITS:
        raise PrecisionOverflowError(
            f"K={k_dim} would overflow the int32 accumulator of the INT8 path"
        )
    a_planes = _split_matrix(a, plan.a_bits, plan.a_planes)
    b_planes = _split_matrix(b, plan.b_bits, plan.b_planes)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for i, a_plane in enumerate(a_planes):
        a_i = a_plane.astype(np.int64)
        for j, b_plane in enumerate(b_planes):
            partial = a_i @ b_plane.astype(np.int64)
            if partial.size and partial.max() >= 1 << INT8_ACCUMULATOR_BITS:
                raise PrecisionOverflowError("INT8 accumulation overflowed int32")
            weight = 1 << ((i + j) * 8)
            acc = (acc + partial.astype(object) * weight) % modulus
    return modarith.asarray_mod(acc, modulus)


def reference_gemm_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Ground-truth modular GEMM (exact integer arithmetic)."""
    return modarith.matmul_mod(
        modarith.asarray_mod(a, modulus), modarith.asarray_mod(b, modulus), modulus
    )


def make_tcu_gemm(modulus: int, plan: Optional[SplitPlan] = None):
    """A ``gemm(a, b, q)``-shaped hook running on the FP64 TCU emulation.

    Suitable for injection into :func:`repro.math.ntt.multi_step_ntt`, which
    is exactly how Neo's radix-16 NTT runs its butterflies on tensor cores.
    """

    def gemm(a, b, q):
        if q != modulus:
            raise ValueError("gemm hook built for a different modulus")
        return fp64_gemm_mod(a, b, q, plan=plan)

    return gemm
