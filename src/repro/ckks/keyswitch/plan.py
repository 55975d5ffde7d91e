"""GEMM-form key-switch engine: per-level plans and batched kernels.

Neo's Algorithms 2 and 4 recast the two hot loops of key switching --
BConv and the Inner Product -- as data-reusing matrix multiplications.
This module is the functional-backend implementation of that idea:

* :class:`KeySwitchPlan` precomputes, once per ``(key, params, level,
  method, backend)``, everything a per-digit pipeline recomputes per
  call: the gadget-decomposed evk stacked into one NTT-domain tensor, the
  BConv conversion matrices (with zero-padded short digits so every digit
  rides the same GEMM), the ModDown inverses, and the KLSS Recover-Limbs
  constants.  The key exists once, as the ``evk`` tensor: the per-digit
  polynomials the reference pipeline reads (``key_pairs``,
  ``KlssLevelKey.digit_pairs``) are views of it.
* :func:`gemm_keyswitch` runs the whole pipeline on the contiguous limb
  stack: one batched BConv matmul for ModUp (Algorithm 2), then one
  epilogue shared with the rotation batches -- one
  :class:`~repro.math.ntt.NttStack` call over all digits, one
  lazy-reduction multiply-accumulate for the IP (Algorithm 4 -- 128-bit
  accumulation via :meth:`~repro.math.modstack.ModulusStack.lazy_mul_sum`),
  one batched INTT, and a native Recover Limbs / ModDown.  Outputs are
  bit-identical to the per-digit reference pipeline of
  :mod:`repro.ckks.reference` -- every step computes the same exact value
  modulo each limb.

Plans live in a bounded LRU cache keyed by the *params fingerprint* plus
the key's identity token -- never stashed on the key object itself, so a
key reused under sibling :class:`~repro.ckks.params.CkksParameters` can
not pick up stale digits.  The lock is held only around the LRU
bookkeeping; plan construction runs unlocked (concurrent misses may build
twice, first insert wins).
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Tuple

import numpy as np

from ...gpu.memory_model import TrafficProfile, classify_traffic
from ...math import modarith
from ...math.modstack import ModulusStack
from ...math.ntt import get_stack
from ...math.polynomial import RnsPolynomial, automorphism_gather_maps
from ...math.rns import RnsBasis
from ...telemetry.stats import Cache
from ...telemetry.tracing import span as _span
from ..params import CkksParameters

_U64 = np.uint64

#: Float margin around the 0.5 rounding boundary of the Recover-Limbs
#: overflow estimate; coefficients inside it re-run exactly on Python
#: integers.  The float error is below ``L_T * 2**-52``, orders of
#: magnitude smaller than this margin, so the fallback only fires on
#: genuinely knife-edge sums (and keeps the result exact when it does).
_RECOVER_DANGER_MARGIN = 2.0 ** -26


class KlssBoundError(ValueError):
    """Raised when the auxiliary modulus cannot hold the IP exactly (Eq. 4)."""


def _modeled_nbytes(arr: np.ndarray) -> float:
    """Modeled GPU footprint of a constant tensor: one machine word per
    residue (object-dtype arrays hold Python ints host-side, but the
    accelerator would store 64-bit words)."""
    return float(arr.size) * 8.0


def operand_traffic_report(
    operands: Dict[str, float], device, batch: int = 1
) -> Dict[str, Dict[str, object]]:
    """Classify per-operand reuse traffic against a device hierarchy.

    Each operand is re-referenced once per ciphertext of a batch; the
    first reference is compulsory, the remaining ``batch - 1`` are reuse
    that lands in shared memory, L2, or spills back to DRAM depending on
    the operand's footprint (:func:`repro.gpu.memory_model.classify_traffic`).
    """
    report: Dict[str, Dict[str, float]] = {}
    for name, nbytes in operands.items():
        split = classify_traffic(
            nbytes,
            TrafficProfile(
                reuse_bytes=nbytes * max(0, batch - 1),
                working_set_bytes=nbytes,
            ),
            device,
        )
        report[name] = {
            "bytes": nbytes,
            "hbm_bytes": split.hbm_bytes,
            "l2_bytes": split.l2_bytes,
            "captured_bytes": split.captured_bytes,
            "placement": split.placement,
        }
    return report


def _pair_views(
    evk: np.ndarray, basis: RnsBasis
) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
    """Per-digit NTT-domain ``(b, a)`` views of an ``(L, 2, digits, N)`` key."""
    degree = evk.shape[-1]
    return [
        (
            RnsPolynomial._wrap(degree, basis, evk[:, 0, j], True),
            RnsPolynomial._wrap(degree, basis, evk[:, 1, j], True),
        )
        for j in range(evk.shape[2])
    ]


class KlssLevelKey:
    """The evk of one level, gadget-decomposed into the auxiliary basis.

    Holds no key material of its own: it reads the plan's
    ``(L_T, beta~, 2, beta, N)`` ``evk`` tensor.
    """

    def __init__(
        self,
        t_basis: RnsBasis,
        evk: np.ndarray,
        gadget_factors: List[int],
        pq_basis: RnsBasis,
    ):
        self.t_basis = t_basis
        self._evk = evk
        #: ``gadget_factors[i] = G_hat_i = PQ_l / G_i`` (exact integers).
        self.gadget_factors = gadget_factors
        self.pq_basis = pq_basis

    @property
    def digit_pairs(self) -> List[List[Tuple[RnsPolynomial, RnsPolynomial]]]:
        """``digit_pairs[i][j]`` = digit ``i`` of evk pair ``j``, over ``R_T``
        (NTT): views of the ``evk`` tensor."""
        return [
            _pair_views(self._evk[:, i], self.t_basis)
            for i in range(self.beta_tilde)
        ]

    @property
    def beta_tilde(self) -> int:
        return self._evk.shape[1]


def _limb_groups(n_limbs: int, alpha_tilde: int) -> List[Tuple[int, int]]:
    """Half-open limb ranges of the ``alpha~``-sized gadget groups."""
    return [
        (start, min(start + alpha_tilde, n_limbs))
        for start in range(0, n_limbs, alpha_tilde)
    ]


def _check_ip_bound(params: CkksParameters, level: int, t_basis: RnsBasis):
    """Assert the Eq. 4 correctness bound: ``T > 2 * N * beta * B * B~``."""
    pq_moduli = params.pq_basis(level).moduli
    alpha = params.alpha
    beta = params.beta(level)
    digit_bound = 0
    for j in range(beta):
        start, stop = params.digit_range(j, level)
        group = reduce(lambda a, b: a * b, params.moduli[start:stop], 1)
        digit_bound = max(digit_bound, group)
    b_bound = (alpha + 1) * digit_bound  # Mod Up overflow slack included
    groups = _limb_groups(len(pq_moduli), params.klss.alpha_tilde)
    key_digit_bound = max(
        reduce(lambda a, b: a * b, pq_moduli[start:stop], 1) for start, stop in groups
    )
    required = 2 * params.degree * beta * b_bound * key_digit_bound
    if t_basis.product <= required:
        raise KlssBoundError(
            f"auxiliary modulus T (~2^{t_basis.product.bit_length()}) too small: "
            f"Eq. 4 needs > 2^{required.bit_length()} at level {level}"
        )


def restrict_to_pq(
    poly: RnsPolynomial, params: CkksParameters, level: int
) -> RnsPolynomial:
    """Restrict a top-level ``PQ_L`` polynomial to the level-``l`` ``PQ`` basis."""
    top = params.max_level
    q_limbs = poly.limbs[: level + 1]
    p_limbs = poly.limbs[top + 1 : top + 1 + len(params.special_primes)]
    return RnsPolynomial(
        poly.degree, params.pq_basis(level), q_limbs + p_limbs, poly.is_ntt
    )


def _extract_digit(
    poly: RnsPolynomial,
    group_basis: RnsBasis,
    inv_factor: int,
    start: int,
    stop: int,
    t_basis: RnsBasis,
) -> List[np.ndarray]:
    """Digit ``[v * G_hat^{-1}]_{G}`` of coefficient-form `poly`, lifted
    exactly into ``R_T``: one coefficient limb per modulus of `t_basis`."""
    group_value = group_basis.compose(poly.limbs[start:stop])
    digit = (group_value * inv_factor) % group_basis.product
    return t_basis.decompose(digit)


def _weight_array(rows, native: bool) -> np.ndarray:
    """Nested python-int weights as a backend-typed numpy array."""
    arr = np.array(rows, dtype=object)
    return arr.astype(_U64) if native else arr


class KeySwitchPlan:
    """Everything one ``(key, params, level, method)`` key switch reuses.

    Built once and cached; holds only *constants* (weight tensors, scalar
    lists, the stacked evk) -- the engines below are pure functions of the
    plan plus the input polynomial, so a plan can serve concurrent lanes
    without locking.  ``target`` is the stack ModUp raises into and the IP
    runs over: ``PQ`` for hybrid, the auxiliary ``T`` for KLSS.
    """

    def __init__(
        self, method: str, params: CkksParameters, level: int, ksk
    ):
        if method not in ("hybrid", "klss"):
            raise ValueError(f"unknown key-switch method {method!r}")
        self.method = method
        self.params = params
        self.level = level
        self.degree = params.degree
        self.q_basis = params.q_basis(level)
        self.pq_basis = params.pq_basis(level)
        self.p_basis = params.p_basis()
        self.q_mstack = ModulusStack.for_moduli(self.q_basis.moduli)
        self.pq_mstack = ModulusStack.for_moduli(self.pq_basis.moduli)
        self.p_mstack = ModulusStack.for_moduli(self.p_basis.moduli)
        self.alpha = params.alpha
        self.beta = params.beta(level)
        if self.beta > len(ksk.pairs):
            raise ValueError(
                f"key has {len(ksk.pairs)} digits but level {level} "
                f"needs {self.beta}"
            )
        self.max_source_modulus = max(self.q_basis.moduli)
        self.max_special_modulus = max(self.p_basis.moduli)

        # -- ModUp: per-limb digit scaling + padded conversion tensor ------
        group_bases = []
        modup_scalars: List[int] = []
        for j in range(self.beta):
            start, stop = params.digit_range(j, level)
            gb = RnsBasis(params.moduli[start:stop])
            group_bases.append(gb)
            modup_scalars.extend(gb.q_hat_inv)
        self.group_bases = group_bases
        self.modup_scalars = modup_scalars
        #: Rows of zero-padding that complete the last (short) digit, so
        #: the limb stack reshapes to a uniform ``(beta, alpha, ..., N)``.
        self.pad_rows = self.beta * self.alpha - (level + 1)

        if method == "hybrid":
            self._build_hybrid(ksk)
        else:
            self._build_klss(ksk)

        # -- ModDown: P -> Q conversion plus cached 1/P residues -----------
        self.moddown_scalars = list(self.p_basis.q_hat_inv)
        self.moddown_weights = _weight_array(
            [
                [p_hat % q for p_hat in self.p_basis.q_hat]
                for q in self.q_basis.moduli
            ],
            self.q_mstack.native,
        )
        self.p_inv_scalars = [
            modarith.inv_mod(params.special_product % q, q)
            for q in self.q_basis.moduli
        ]

    # -- builders ------------------------------------------------------------

    def _modup_weights(self, target_moduli: Tuple[int, ...], native: bool):
        """``(L_target, beta, alpha)`` conversion tensor, short digits padded.

        Routing a digit's *own* limbs through the full-target matmul is
        bit-identical to copying them verbatim: for ``q_k`` inside digit
        ``j``, every cross term carries the factor ``q_k`` and the own term
        reduces to ``x_k``, so the own-limb output is exactly the input
        residue -- one uniform GEMM covers own and foreign limbs alike.
        """
        w = np.zeros((len(target_moduli), self.beta, self.alpha), dtype=object)
        for j, gb in enumerate(self.group_bases):
            for a, q_hat in enumerate(gb.q_hat):
                for t, p in enumerate(target_moduli):
                    w[t, j, a] = q_hat % p
        return w.astype(_U64) if native else w

    def _build_hybrid(self, ksk):
        pq = self.pq_basis
        self.target = self.pq_mstack
        self.modup_weights = self._modup_weights(pq.moduli, self.pq_mstack.native)
        coeffs = np.empty(
            (len(pq), 2, self.beta, self.degree), dtype=self.pq_mstack.dtype
        )
        for j, pair in enumerate(ksk.pairs[: self.beta]):
            for c, poly in enumerate(pair):
                coeffs[:, c, j] = restrict_to_pq(poly, self.params, self.level).stack
        #: ``(L_PQ, 2, beta, N)``: digit ``j`` of each evk polynomial (NTT),
        #: transformed in one call from the coefficient-form key pairs.
        self.evk = get_stack(self.degree, pq.moduli).forward(coeffs)

    @property
    def key_pairs(self) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """Per-digit NTT ``(b, a)`` pairs of a hybrid plan, read by the
        reference key switch: views of :attr:`evk`."""
        if self.method != "hybrid":
            raise AttributeError("a KLSS plan's key digits are klss_key.digit_pairs")
        return _pair_views(self.evk, self.pq_basis)

    def _build_klss(self, ksk):
        params, level = self.params, self.level
        if params.klss is None:
            raise ValueError("parameters carry no KLSS configuration")
        alpha_prime, beta, beta_tilde = params.klss_dims(level)
        t_basis = params.aux_basis.subbasis(0, alpha_prime)
        _check_ip_bound(params, level, t_basis)
        self.t_basis = t_basis
        self.target = ModulusStack.for_moduli(t_basis.moduli)
        self.beta_tilde = beta_tilde
        self.max_aux_modulus = max(t_basis.moduli)
        self.modup_weights = self._modup_weights(
            t_basis.moduli, self.target.native
        )

        pq = self.pq_basis
        groups = _limb_groups(len(pq.moduli), params.klss.alpha_tilde)
        pq_product = pq.product
        gadget_factors: List[int] = []
        group_data = []
        for start, stop in groups:
            group_basis = RnsBasis(pq.moduli[start:stop])
            g_hat = pq_product // group_basis.product
            inv = modarith.inv_mod(g_hat % group_basis.product, group_basis.product)
            gadget_factors.append(g_hat)
            group_data.append((group_basis, inv, start, stop))

        restricted = [
            (
                restrict_to_pq(b, params, level),
                restrict_to_pq(a, params, level),
            )
            for b, a in ksk.pairs[:beta]
        ]
        coeffs = np.empty(
            (len(t_basis), beta_tilde, 2, beta, self.degree),
            dtype=self.target.dtype,
        )
        for i, (group_basis, inv, start, stop) in enumerate(group_data):
            for j, pair in enumerate(restricted):
                for c, poly in enumerate(pair):
                    coeffs[:, i, c, j] = _extract_digit(
                        poly, group_basis, inv, start, stop, t_basis
                    )
        #: ``(L_T, beta~, 2, beta, N)``: gadget digit ``i`` of digit ``j``
        #: of each evk polynomial, lifted into ``R_T`` and transformed in
        #: one call (NTT).
        self.evk = get_stack(self.degree, t_basis.moduli).forward(coeffs)
        self.klss_key = KlssLevelKey(t_basis, self.evk, gadget_factors, pq)

        # -- Recover Limbs constants (Step 5) --------------------------------
        # x_i = S_i - v_i*T with S_i = sum_k y'_ik * T_hat_k, so the gadget
        # recombination sum_i x_i * G_hat_i mod p_j folds into ONE GEMM over
        # (i, k) with weights G_hat_i * T_hat_k mod p_j, minus a small
        # correction GEMM over i with weights G_hat_i * T mod p_j.
        self.t_scalars = list(t_basis.q_hat_inv)
        self.t_hat = list(t_basis.q_hat)
        self.t_product = t_basis.product
        self.t_half = t_basis.product // 2
        self.t_inv_float = np.array(
            [1.0 / t for t in t_basis.moduli], dtype=np.float64
        )
        native = self.pq_mstack.native
        self.recover_weights = _weight_array(
            [
                [
                    (g_hat * t_hat) % p
                    for g_hat in gadget_factors
                    for t_hat in t_basis.q_hat
                ]
                for p in pq.moduli
            ],
            native,
        )
        self.recover_t_weights = _weight_array(
            [[(g_hat * t_basis.product) % p for g_hat in gadget_factors] for p in pq.moduli],
            native,
        )

    # -- memory-hierarchy view ------------------------------------------------

    def operand_bytes(self) -> Dict[str, float]:
        """Modeled footprints of the constants this plan re-reads per call."""
        operands = {
            "evk": _modeled_nbytes(self.evk),
            "modup_weights": _modeled_nbytes(self.modup_weights),
            "moddown_weights": _modeled_nbytes(self.moddown_weights),
        }
        if self.method == "klss":
            operands["recover_weights"] = _modeled_nbytes(self.recover_weights)
            operands["recover_t_weights"] = _modeled_nbytes(
                self.recover_t_weights
            )
        return operands

    def traffic_report(self, device, batch: int = 1) -> Dict[str, Dict[str, object]]:
        """Where each plan constant's batch reuse lands on `device`.

        The evaluation key dominates: whether its re-reads across a batch
        are L2 hits or DRAM spills is exactly what the autotuner's
        ``batch_tile`` axis trades against elementwise working sets.
        """
        return operand_traffic_report(self.operand_bytes(), device, batch)


# ---------------------------------------------------------------------------
# The GEMM engines
# ---------------------------------------------------------------------------


def _group_digits(scaled: np.ndarray, plan: KeySwitchPlan) -> np.ndarray:
    """Reshape the scaled ``(L_Q, ..., N)`` stack to ``(beta, alpha, ..., N)``.

    Digits are contiguous limb ranges of equal width except possibly the
    last; zero rows pad it so every digit rides the same batched matmul
    (zero-weight columns keep the padding inert).
    """
    if plan.pad_rows:
        pad = np.zeros((plan.pad_rows,) + scaled.shape[1:], dtype=scaled.dtype)
        scaled = np.concatenate([scaled, pad], axis=0)
    return scaled.reshape((plan.beta, plan.alpha) + scaled.shape[1:])


def _mod_down_stack(acc: np.ndarray, plan: KeySwitchPlan) -> np.ndarray:
    """ModDown of a coefficient-form ``(L_PQ, 2, ..., N)`` stack to ``L_Q``."""
    q_count = plan.level + 1
    q_part = acc[:q_count]
    p_part = acc[q_count:]
    scaled_p = plan.p_mstack.scalar_mul(p_part, plan.moddown_scalars)
    conv = plan.q_mstack.bconv_matmul(
        scaled_p, plan.moddown_weights, operand_bound=plan.max_special_modulus
    )
    diff = plan.q_mstack.sub(q_part, conv)
    return plan.q_mstack.scalar_mul(diff, plan.p_inv_scalars)


def _split_pair(
    out: np.ndarray, plan: KeySwitchPlan
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    p0 = RnsPolynomial._wrap(
        plan.degree, plan.q_basis, np.ascontiguousarray(out[:, 0]), False
    )
    p1 = RnsPolynomial._wrap(
        plan.degree, plan.q_basis, np.ascontiguousarray(out[:, 1]), False
    )
    return p0, p1


def _overflow_counts(y: np.ndarray, plan: KeySwitchPlan) -> np.ndarray:
    """The CRT overflow-plus-sign count ``v_i = round(sum_k y'_ik / t_k)``.

    ``S_i = v_i*T + x_i`` with ``|x_i| < T/2`` (Eq. 4), so ``v_i`` is the
    nearest integer of ``S_i / T = sum_k y'_ik / t_k`` -- computed in
    float64 (error ``< L_T * 2**-52``), with coefficients inside the
    rounding danger zone re-derived exactly on Python integers.  This keeps
    Recover Limbs native while staying bit-identical to the bignum
    ``compose_signed`` path always, not just with high probability.
    """
    yf = y.astype(np.float64)
    col = plan.t_inv_float.reshape((len(plan.t_basis),) + (1,) * (y.ndim - 1))
    s = (yf * col).sum(axis=0)
    frac = s - np.floor(s)
    v = np.rint(s).astype(np.int64)
    danger = np.abs(frac - 0.5) < _RECOVER_DANGER_MARGIN
    if danger.any():
        t_hat = plan.t_hat
        for idx in np.argwhere(danger):
            idx = tuple(idx)
            s_val = sum(
                int(y[(k,) + idx]) * t_hat[k] for k in range(len(t_hat))
            )
            v[idx] = s_val // plan.t_product + (
                1 if s_val % plan.t_product > plan.t_half else 0
            )
    if plan.pq_mstack.native:
        return v.astype(_U64)
    return v.astype(object)


def _recover_limbs(acc: np.ndarray, plan: KeySwitchPlan) -> np.ndarray:
    """Steps 5 of KLSS: exact signed base conversion + gadget recombination.

    One GEMM over the ``(beta~, L_T)`` fold axis against precomputed
    ``G_hat_i * T_hat_k mod p_j`` weights, minus the ``v_i * (G_hat_i * T)``
    correction -- no object-dtype CRT compose on the hot path.
    """
    y = plan.target.scalar_mul(acc, plan.t_scalars)  # y'_ik, (L_T, b~, 2, ..., N)
    v = _overflow_counts(y, plan)  # (b~, 2, ..., N)
    l_t = len(plan.t_basis)
    moved = np.ascontiguousarray(np.moveaxis(y, 0, 1))  # (b~, L_T, 2, ..., N)
    flat = moved.reshape((plan.beta_tilde * l_t,) + y.shape[2:])
    big = plan.pq_mstack.bconv_matmul(
        flat, plan.recover_weights, operand_bound=plan.max_aux_modulus
    )
    corr = plan.pq_mstack.bconv_matmul(v, plan.recover_t_weights)
    return plan.pq_mstack.sub(big, corr)


def gemm_keyswitch(
    poly: RnsPolynomial, plan: KeySwitchPlan
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    """Key switch `poly` through the plan's batched GEMM pipeline.

    Bit-identical to :func:`repro.ckks.reference.keyswitch`: ModUp sums
    the same scaled residues modulo each target limb, the NTT is exact, the
    lazy IP computes the exact sum, and Recover Limbs/ModDown compute the
    same exact values.
    """
    with _span("keyswitch.gemm", category="keyswitch",
               method=plan.method, level=plan.level):
        return _gemm_keyswitch_inner(poly, plan)


def _gemm_keyswitch_inner(
    poly: RnsPolynomial, plan: KeySwitchPlan
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    raised = _modup_stack(poly.from_ntt().stack, plan)  # (L, beta, batch..., N)
    n_batch = raised.ndim - 3
    evk = plan.evk.reshape(plan.evk.shape[:-1] + (1,) * n_batch + (plan.degree,))
    out = _inner_product(raised, evk, plan, digit_axis=1)  # (L_Q, 2, batch..., N)
    return _split_pair(out, plan)


def _inner_product(
    raised: np.ndarray, evk: np.ndarray, plan: KeySwitchPlan, digit_axis: int
) -> np.ndarray:
    """The one key-switch epilogue: NTT, lazy IP, INTT, Recover, ModDown.

    `raised` is the ModUp'd ``(L, ...)`` stack over ``plan.target`` with
    its digits on `digit_axis`; `evk` carries the key axes -- ``(2,)``
    hybrid, ``(beta~, 2)`` KLSS -- right after the limb axis, then axes
    that broadcast against the rest of `raised`.  Returns the
    ``(L_Q, 2, ..., N)`` key-switched stack in coefficient form.  Exact
    sums modulo each limb at every step, so the result is bit-identical to
    the per-digit reference key switch.
    """
    ntt = get_stack(plan.degree, plan.target.moduli)
    f = ntt.forward(raised)
    key_axes = evk.ndim - f.ndim
    f = f[(slice(None),) + (None,) * key_axes]
    acc = plan.target.lazy_mul_sum(evk, f, axis=digit_axis + key_axes)
    acc = ntt.inverse(acc)  # (L, [beta~,] 2, ..., N)
    if plan.method == "klss":
        acc = _recover_limbs(acc, plan)  # (L_PQ, 2, ..., N)
    return _mod_down_stack(acc, plan)


# ---------------------------------------------------------------------------
# Rotation op-plans: hoisted batches and giant-step batches
# ---------------------------------------------------------------------------


class HoistedRotationPlan:
    """k rotations compiled to one plan: gather maps + stacked key tensor.

    Generalises :class:`KeySwitchPlan` from one evk to a *batch* of Galois
    keys: the per-key plans (served from the shared LRU, so repeated
    rotations reuse their restrictions) contribute their stacked evk
    tensors, which are concatenated along a new rotation axis ``k``.  The
    k automorphism permutations become one ``(k, N)`` gather-index matrix
    plus a negation mask, so the engines below run every rotation of a
    batch through the same BConv GEMM, NTT, and lazily-reduced IP einsum.

    Used in two dataflows:

    * :func:`hoisted_gemm_rotations` -- ONE shared ModUp of one
      ciphertext, then all k automorphisms applied to the raised digits
      (Halevi-Shoup hoisting: decomposition and ModUp are
      coefficient-wise, hence commute with the automorphism).
    * :func:`gemm_rotation_batch` -- k *different* polynomials, each
      rotated by its own step and key-switched in one batched pipeline
      (the BSGS giant steps).
    """

    def __init__(
        self,
        galois_keys,
        powers: Tuple[int, ...],
        params: CkksParameters,
        level: int,
        method: str,
    ):
        if not powers:
            raise ValueError("a rotation plan needs at least one Galois power")
        per_key = [
            get_keyswitch_plan(galois_keys.get(p), params, level, method)
            for p in powers
        ]
        #: ModUp / ModDown / Recover constants are key-independent, so any
        #: member plan serves as the shared front/back end.
        self.ks = per_key[0]
        self.powers = tuple(powers)
        degree = params.degree
        src = np.empty((len(powers), degree), dtype=np.int64)
        neg = np.empty((len(powers), degree), dtype=bool)
        for i, power in enumerate(powers):
            src[i], neg[i] = automorphism_gather_maps(power, degree)
        self.src = src
        self.negmask = neg
        #: The k keys on an axis before the digit axis: ``(L_PQ, 2, k,
        #: beta, N)`` hybrid, ``(L_T, beta~, 2, k, beta, N)`` KLSS.
        self.evk = np.stack([kp.evk for kp in per_key], axis=-3)

    def __len__(self) -> int:
        return len(self.powers)

    def operand_bytes(self) -> Dict[str, float]:
        """Footprints including the k-stacked key and the gather maps."""
        operands = self.ks.operand_bytes()
        operands["evk"] = _modeled_nbytes(self.evk)  # k keys, not one
        operands["gather_maps"] = _modeled_nbytes(self.src) + float(
            self.negmask.size  # 1 byte per bool
        )
        return operands

    def traffic_report(self, device, batch: int = 1) -> Dict[str, Dict[str, object]]:
        """Placement of the batched-rotation constants on `device`."""
        return operand_traffic_report(self.operand_bytes(), device, batch)


def _gather_rotations(
    stack: np.ndarray, rplan: HoistedRotationPlan, mstack: ModulusStack
) -> np.ndarray:
    """All k automorphisms of one ``(L, ..., N)`` stack as a single gather."""
    rot = stack[..., rplan.src]  # (L, ..., k, N)
    return np.where(rplan.negmask, mstack.neg(rot), rot)


def _gather_itemwise(
    stack: np.ndarray, rplan: HoistedRotationPlan, mstack: ModulusStack
) -> np.ndarray:
    """Automorphism ``i`` applied to batch item ``i`` of a ``(L, k, N)`` stack."""
    rot = np.take_along_axis(stack, rplan.src[None, ...], axis=-1)
    return np.where(rplan.negmask, mstack.neg(rot), rot)


def _modup_stack(stack: np.ndarray, plan: KeySwitchPlan) -> np.ndarray:
    """Batched ModUp of a coefficient ``(L_Q, ..., N)`` stack (Algorithm 2)."""
    scaled = plan.q_mstack.scalar_mul(stack, plan.modup_scalars)
    grouped = _group_digits(scaled, plan)  # (beta, alpha, ..., N)
    return plan.target.bconv_matmul(
        grouped, plan.modup_weights, operand_bound=plan.max_source_modulus
    )  # (L_target, beta, ..., N)


def hoisted_gemm_rotations(
    c0: RnsPolynomial, c1: RnsPolynomial, hplan: HoistedRotationPlan
) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
    """All k rotations of ``(c0, c1)`` off ONE shared ModUp (plan form).

    The hoisted dataflow: decompose + ModUp once, then every rotation is
    a gathered permutation of the raised digits, one slice of the batched
    IP, and one slice of the batched ModDown.  Bit-identical to the
    hoisted form of :func:`repro.ckks.reference.keyswitch`: the gather
    applies the same signed permutation, BConv/IP/ModDown compute the same
    exact sums modulo each limb, and NTT-domain accumulation commutes with
    the (linear) NTT.
    """
    plan = hplan.ks
    with _span("keyswitch.hoisted_rotations", category="keyswitch",
               method=plan.method, level=plan.level, rotations=len(hplan)):
        return _hoisted_gemm_rotations_inner(c0, c1, hplan)


def _hoisted_gemm_rotations_inner(
    c0: RnsPolynomial, c1: RnsPolynomial, hplan: HoistedRotationPlan
) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
    plan = hplan.ks
    raised = _modup_stack(c1.from_ntt().stack, plan)  # (L, beta, N)
    rot = _gather_rotations(raised, hplan, plan.target)  # (L, beta, k, N)
    rot = np.ascontiguousarray(np.swapaxes(rot, 1, 2))  # (L, k, beta, N)
    out = _inner_product(rot, hplan.evk, plan, digit_axis=2)  # (L_Q, 2, k, N)

    rot0 = _gather_rotations(c0.from_ntt().stack, hplan, plan.q_mstack)
    b_out = plan.q_mstack.add(rot0, out[:, 0])  # (L_Q, k, N)
    results = []
    for i in range(len(hplan)):
        p0 = RnsPolynomial._wrap(
            plan.degree, plan.q_basis, np.ascontiguousarray(b_out[:, i]), False
        )
        p1 = RnsPolynomial._wrap(
            plan.degree, plan.q_basis, np.ascontiguousarray(out[:, 1, i]), False
        )
        results.append((p0, p1))
    return results


def gemm_rotation_batch(
    c0_stack: np.ndarray, c1_stack: np.ndarray, rplan: HoistedRotationPlan
) -> np.ndarray:
    """Rotate item ``i`` of a ``(L_Q, k, N)`` pair batch by power ``i``.

    The BSGS giant step: k *different* inner sums, each rotated by its
    own step -- automorphism first (itemwise gather), then one batched
    ModUp + IP + ModDown across the whole batch.  Returns the
    ``(L_Q, 2, k, N)`` rotated ciphertext stack (c0 component already
    recombined).  Bit-identical to k sequential ``Evaluator.rotate``
    calls under the same key-switch method family.
    """
    plan = rplan.ks
    rot1 = _gather_itemwise(c1_stack, rplan, plan.q_mstack)  # (L_Q, k, N)
    raised = _modup_stack(rot1, plan)  # (L, beta, k, N)
    raised = np.ascontiguousarray(np.swapaxes(raised, 1, 2))  # (L, k, beta, N)
    out = _inner_product(raised, rplan.evk, plan, digit_axis=2)  # (L_Q, 2, k, N)
    rot0 = _gather_itemwise(c0_stack, rplan, plan.q_mstack)
    out[:, 0] = plan.q_mstack.add(rot0, out[:, 0])
    return out


# ---------------------------------------------------------------------------
# The plan cache (params fingerprint + key token, LRU, lock only on books)
# ---------------------------------------------------------------------------

_OP_PLANS = Cache("op_plans", maxsize=64)


def get_keyswitch_plan(
    ksk, params: CkksParameters, level: int, method: str
) -> KeySwitchPlan:
    """The cached :class:`KeySwitchPlan` for ``(ksk, params, level, method)``.

    Keyed by the params *fingerprint* plus the key's ``cache_token`` (and
    the backend policy), never by attributes stashed on the key -- a key
    reused under different :class:`CkksParameters` gets a fresh plan
    instead of silently stale digits.  Plan construction runs outside the
    cache lock.
    """
    key = (
        params.fingerprint(),
        ksk.cache_token,
        level,
        method,
        modarith._BARRETT_ENABLED,
    )
    return _OP_PLANS.get_or_build(
        key, lambda: KeySwitchPlan(method, params, level, ksk)
    )


def _rotation_plan_key(
    tag: str, galois_keys, powers, params: CkksParameters, level: int, method: str
):
    tokens = tuple(galois_keys.get(p).cache_token for p in powers)
    return (
        tag,
        params.fingerprint(),
        tokens,
        level,
        method,
        tuple(powers),
        modarith._BARRETT_ENABLED,
    )


def get_hoisted_rotation_plan(
    galois_keys, powers, params: CkksParameters, level: int, method: str
) -> HoistedRotationPlan:
    """The cached :class:`HoistedRotationPlan` for a batch of Galois powers.

    Keyed by the params fingerprint plus every member key's identity
    token, so the stacked evk tensor can never outlive a key swap; the
    per-key :class:`KeySwitchPlan` lookups inside the builder hit the
    same LRU, so a rotation batch that shares keys with earlier calls
    reuses their restrictions instead of re-stacking.
    """
    key = _rotation_plan_key("hoist", galois_keys, powers, params, level, method)
    return _OP_PLANS.get_or_build(
        key,
        lambda: HoistedRotationPlan(galois_keys, tuple(powers), params, level, method),
    )


def get_rotation_batch_plan(
    galois_keys, powers, params: CkksParameters, level: int, method: str
) -> HoistedRotationPlan:
    """The cached :class:`HoistedRotationPlan` of a giant-step batch, under
    a key of its own (a batch and a hoisted plan never share an entry)."""
    key = _rotation_plan_key("rotbatch", galois_keys, powers, params, level, method)
    return _OP_PLANS.get_or_build(
        key,
        lambda: HoistedRotationPlan(galois_keys, tuple(powers), params, level, method),
    )

