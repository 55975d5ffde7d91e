"""Homomorphic linear transforms via the diagonal (BSGS) method.

CoeffToSlot / SlotToCoeff in bootstrapping, and any slot-space matrix
multiplication, reduce to::

    (M z)_i = sum_d  diag_d(M)_i * z_{i+d}

i.e. a sum of rotated ciphertexts weighted by plaintext diagonals.  The
baby-step/giant-step arrangement cuts the rotation count from ``#diags``
to roughly ``2 * sqrt(#diags)``:

    M z = sum_g rot( sum_b  rot^{-g*n1}(diag_{g*n1+b}) * rot^b(z), g*n1 )

This module turns a complex ``slots x slots`` matrix into encoded diagonal
plaintexts and applies it to a ciphertext with an :class:`Evaluator`.

:meth:`LinearTransform.apply` compiles the transform into a
:class:`LinearTransformPlan`: baby rotations off ONE hoisted ModUp via
:func:`~repro.ckks.keyswitch.plan.hoisted_gemm_rotations`, all ``(g, b)``
plaintext products and the inner sums as one NTT-domain lazily-reduced
einsum, giant rotations as one
:func:`~repro.ckks.keyswitch.plan.gemm_rotation_batch`, and the final
Rescale folded into the accumulation epilogue
(:meth:`~repro.math.modstack.ModulusStack.divide_exact_drop`).  It is
checked bit for bit against :func:`repro.ckks.reference.linear_transform`,
which applies the same BSGS schedule term by term.

Encoded diagonal plaintexts are cached per ``(level, scale)`` -- the
bootstrap pipeline applies the same transform at the same level on every
invocation, and re-encoding hundreds of identical diagonals dominated its
profile before the cache.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..math import modarith
from ..math.modstack import ModulusStack
from ..math.ntt import get_stack
from ..math.polynomial import RnsPolynomial
from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .evaluator import Evaluator
from .keys import rotation_galois_power
from .keyswitch import plan as _ksplan


def matrix_diagonals(matrix: np.ndarray, tol: float = 0.0) -> Dict[int, np.ndarray]:
    """Extract the (generalised) diagonals of a square matrix.

    ``diag_d[i] = M[i, (i + d) mod n]``; diagonals whose max magnitude is
    at or below `tol` are dropped (sparse transforms like the DFT factors
    have few nonzero diagonals).
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    diagonals = {}
    for d in range(n):
        diag = np.array([matrix[i, (i + d) % n] for i in range(n)])
        if np.abs(diag).max() > tol:
            diagonals[d] = diag
    return diagonals


class LinearTransformPlan:
    """One transform compiled for a ``(level, method, key set)``.

    Holds the hoisted baby-rotation plan, the giant-step batch plan (both
    served from the shared op-plan LRU), and the NTT-form diagonal tensor
    ``(L_Q, G, B, N)`` pre-encoded at plan build -- everything
    :meth:`LinearTransform.apply` would otherwise recompute per call.
    """

    def __init__(self, lt: "LinearTransform", evaluator: Evaluator, level: int):
        if level < 1:
            raise ValueError(
                "a linear transform consumes one level; "
                f"cannot apply at level {level}"
            )
        params = evaluator.params
        method = evaluator.method
        if evaluator.galois_keys is None:
            raise ValueError("no Galois keys configured")
        self.params = params
        self.method = method
        self.level = level
        self.q_basis = params.q_basis(level)
        self.mq = ModulusStack.for_moduli(self.q_basis.moduli)
        self.ntt = get_stack(params.degree, self.q_basis.moduli)

        self.baby_steps = sorted({b for plan in lt._plan.values() for b in plan})
        self.bmap = {b: i for i, b in enumerate(self.baby_steps)}
        self.live_babies = [b for b in self.baby_steps if b % lt.slots != 0]
        self.giants = sorted(lt._plan)
        self.live_giants = [g for g in self.giants if (g * lt.baby) % lt.slots != 0]

        gk = evaluator.galois_keys
        self.hoist: Optional[_ksplan.HoistedRotationPlan] = None
        if self.live_babies:
            powers = tuple(
                rotation_galois_power(b, params.degree) for b in self.live_babies
            )
            self.hoist = _ksplan.get_hoisted_rotation_plan(
                gk, powers, params, level, method
            )
        self.giant_batch: Optional[_ksplan.HoistedRotationPlan] = None
        if self.live_giants:
            powers = tuple(
                rotation_galois_power(g * lt.baby, params.degree)
                for g in self.live_giants
            )
            self.giant_batch = _ksplan.get_rotation_batch_plan(
                gk, powers, params, level, method
            )

        # Diagonal plaintexts, encoded once per level and stacked into one
        # NTT-domain tensor; absent (g, b) slots stay exact zeros, which
        # contribute exact-zero products to the inner einsum (bit-identical
        # to skipping those terms).
        pts = lt._encoded_diagonals(level)
        self.pt_scale = next(iter(pts.values())).scale
        ptt = self.mq.zeros(
            (len(self.giants), len(self.baby_steps), params.degree)
        )
        for gi, g in enumerate(self.giants):
            for b in lt._plan[g]:
                ptt[:, gi, self.bmap[b]] = (
                    pts[(g, b)].poly.keep_limbs(level + 1).to_ntt().stack
                )
        self.pt_tensor = ptt

        # Fused-rescale epilogue constants.
        self.drop_modulus = self.q_basis.moduli[level]
        self.keep_basis = self.q_basis.subbasis(0, level)
        self.mkeep = ModulusStack.for_moduli(self.keep_basis.moduli)

    # -- memory-hierarchy view ------------------------------------------------

    def operand_bytes(self):
        """Footprints of the constants one BSGS application re-reads: the
        diagonal plaintext tensor plus the hoisted/giant key stacks."""
        operands = {"pt_tensor": float(self.pt_tensor.size) * 8.0}
        if self.hoist is not None:
            for name, nbytes in self.hoist.operand_bytes().items():
                operands[f"hoist.{name}"] = nbytes
        if self.giant_batch is not None:
            operands["giant.evk"] = float(self.giant_batch.evk.size) * 8.0
        return operands

    def traffic_report(self, device, batch: int = 1):
        """Where each transform constant's batch reuse lands on `device`."""
        return _ksplan.operand_traffic_report(
            self.operand_bytes(), device, batch
        )

    def run(self, ct: Ciphertext) -> Ciphertext:
        """Apply the compiled transform (one level consumed)."""
        params = self.params
        degree = params.degree
        # -- babies: identity slot(s) + one hoisted GEMM batch -------------
        bab = np.empty(
            (len(self.q_basis), 2, len(self.baby_steps), degree),
            dtype=self.mq.dtype,
        )
        for b in self.baby_steps:
            if b not in self.live_babies:
                bab[:, 0, self.bmap[b]] = ct.c0.from_ntt().stack
                bab[:, 1, self.bmap[b]] = ct.c1.from_ntt().stack
        if self.hoist is not None:
            pairs = _ksplan.hoisted_gemm_rotations(ct.c0, ct.c1, self.hoist)
            for b, (p0, p1) in zip(self.live_babies, pairs):
                bab[:, 0, self.bmap[b]] = p0.stack
                bab[:, 1, self.bmap[b]] = p1.stack

        # -- all (g, b) products and inner sums: one NTT-domain einsum -----
        f = self.ntt.forward(bab)  # (L, 2, B, N)
        inner = self.mq.lazy_mul_sum(
            f[:, :, None], self.pt_tensor[:, None], axis=3
        )  # (L, 2, G, N)
        inner = self.ntt.inverse(inner)

        # -- giants: identity slice(s) + one batched rotation key switch ---
        acc: Optional[np.ndarray] = None
        for gi, g in enumerate(self.giants):
            if g not in self.live_giants:
                sl = inner[:, :, gi]
                acc = sl.copy() if acc is None else self.mq.add(acc, sl)
        if self.giant_batch is not None:
            idxs = [self.giants.index(g) for g in self.live_giants]
            out = _ksplan.gemm_rotation_batch(
                np.ascontiguousarray(inner[:, 0, idxs]),
                np.ascontiguousarray(inner[:, 1, idxs]),
                self.giant_batch,
            )  # (L, 2, k, N)
            for i in range(len(self.live_giants)):
                sl = out[:, :, i]
                acc = sl.copy() if acc is None else self.mq.add(acc, sl)

        # -- fused Rescale epilogue ----------------------------------------
        scaled = self.mkeep.divide_exact_drop(
            acc[: self.level], acc[self.level], self.drop_modulus
        )
        c0 = RnsPolynomial._wrap(
            degree, self.keep_basis, np.ascontiguousarray(scaled[:, 0]), False
        )
        c1 = RnsPolynomial._wrap(
            degree, self.keep_basis, np.ascontiguousarray(scaled[:, 1]), False
        )
        return Ciphertext(
            c0, c1, (ct.scale * self.pt_scale) / self.drop_modulus, params
        )


class LinearTransform:
    """A slots-space matrix, preprocessed for homomorphic application.

    Args:
        encoder: the CKKS encoder (defines slot count and scales).
        matrix: ``slots x slots`` complex matrix.
        bsgs_ratio: giant-step size is ``~sqrt(#diags * bsgs_ratio)``.

    Consumes one multiplicative level per application (a single Rescale).
    """

    def __init__(
        self,
        encoder: CkksEncoder,
        matrix: np.ndarray,
        bsgs_ratio: float = 1.0,
    ):
        self.encoder = encoder
        self.slots = encoder.slots
        diagonals = matrix_diagonals(matrix)
        if not diagonals:
            raise ValueError("matrix has no nonzero diagonals")
        self.diagonal_indices = sorted(diagonals)
        self.baby = max(1, round(math.sqrt(len(diagonals) * bsgs_ratio)))
        #: plan[g][b] = plaintext diagonal for rotation g*baby + b (pre-rotated).
        self._plan: Dict[int, Dict[int, np.ndarray]] = {}
        for d, diag in diagonals.items():
            g, b = divmod(d, self.baby)
            # Pre-rotate the diagonal so the giant-step rotation commutes.
            self._plan.setdefault(g, {})[b] = np.roll(diag, g * self.baby)
        #: Encoded diagonals keyed by (level, scale) -- see _encoded_diagonals.
        self._pt_cache: Dict[Tuple[int, Optional[float]], Dict[Tuple[int, int], Plaintext]] = {}
        #: Compiled plans keyed by (level, method, backend, key tokens).
        self._plans: Dict[tuple, LinearTransformPlan] = {}

    def required_rotations(self) -> List[int]:
        """Slot rotations whose Galois keys must exist before `apply`."""
        steps = {b for plan in self._plan.values() for b in plan if b}
        steps |= {g * self.baby for g in self._plan if g}
        return sorted(steps)

    def _encoded_diagonals(
        self, level: int, scale: Optional[float] = None
    ) -> Dict[Tuple[int, int], Plaintext]:
        """Every diagonal encoded at (`level`, `scale`), cached.

        Compiled plans and the reference applier draw from this cache, so
        a second application at the same level performs zero re-encodes.
        """
        key = (level, scale)
        cached = self._pt_cache.get(key)
        if cached is None:
            cached = {}
            for g, plan in sorted(self._plan.items()):
                for b, diag in sorted(plan.items()):
                    if scale is None:
                        cached[(g, b)] = self.encoder.encode(diag, level=level)
                    else:
                        cached[(g, b)] = self.encoder.encode(
                            diag, level=level, scale=scale
                        )
            self._pt_cache[key] = cached
        return cached

    def _compiled(self, evaluator: Evaluator, level: int) -> LinearTransformPlan:
        tokens = tuple(
            evaluator.galois_keys.get(rotation_galois_power(s, evaluator.params.degree)).cache_token
            for s in self.required_rotations()
        ) if evaluator.galois_keys is not None else ()
        key = (
            level,
            evaluator.method,
            evaluator.params.fingerprint(),
            tokens,
            modarith._BARRETT_ENABLED,
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = LinearTransformPlan(self, evaluator, level)
            self._plans[key] = plan
        return plan

    def apply(self, evaluator: Evaluator, ct: Ciphertext) -> Ciphertext:
        """Homomorphically compute ``M z`` (one level consumed) through the
        compiled :class:`LinearTransformPlan`."""
        if ct.c2 is not None:
            raise ValueError("linear transform requires a relinearised ciphertext")
        return self._compiled(evaluator, ct.level).run(ct)


def identity_transform(encoder: CkksEncoder) -> LinearTransform:
    """The identity matrix as a transform (useful for tests)."""
    return LinearTransform(encoder, np.eye(encoder.slots, dtype=np.complex128))


def rotation_keys_for(
    transforms: List[LinearTransform],
) -> List[int]:
    """Union of rotation steps a set of transforms requires."""
    steps = set()
    for transform in transforms:
        steps.update(transform.required_rotations())
    return sorted(steps)
