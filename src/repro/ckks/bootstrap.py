"""Functional CKKS bootstrapping: ModRaise -> CtS -> EvalMod -> StC.

A working (reduced-parameter) implementation of the PackBootstrap pipeline
the paper benchmarks:

1. **ModRaise** -- reinterpret a level-0 ciphertext over the full chain;
   it now decrypts to ``m + q0 * I`` for a small integer polynomial ``I``
   (bounded by the secret's Hamming weight).
2. **CoeffToSlot** -- homomorphic inverse embedding: four linear
   transforms + a conjugation move the *coefficients* (divided by ``q0``)
   into the slots of two ciphertexts, the lo and hi halves.  The four run
   as two stacked transforms, one per input (the ciphertext and its
   conjugate), each holding that input's lo and hi matrices.
3. **EvalMod** -- a Chebyshev approximation of ``sin(2*pi*u)/(2*pi)``
   removes the integer part ``I`` slot-wise.  Both halves run as one
   batched ``(L, 2, N)`` ciphertext, so EvalMod runs once per bootstrap,
   as ``PackBootstrap.schedule`` prices it.
4. **SlotToCoeff** -- the forward embedding returns the cleaned
   coefficients to coefficient positions, recovering an encryption of the
   original message at a *higher* level.  It stays two transforms: a
   batched input would need batched hoisting.

The implementation is exact CKKS (no shortcuts through the secret key);
precision at demo parameters is limited by the degree-``eval_degree``
sine approximation, which is why bootstrappable deployments use sparse
secrets (`KeyGenerator.secret_key(hamming_weight=...)`) -- they keep
``|I|`` small so a modest polynomial degree suffices.

Every stage rides the evaluator's key-switch method (``"hybrid"`` or
``"klss"``): CoeffToSlot and SlotToCoeff run through compiled
:class:`~repro.ckks.linear_transform.LinearTransformPlan` objects (hoisted
baby rotations, batched giant steps, rescale folded into the accumulation
epilogue) and EvalMod's Paterson-Stockmeyer chunks replay cached
constants.  Batching changes no limb: each batch item runs the same exact
arithmetic as alone.  Golden limb digests of every stage pin the output
(``tests/fixtures/golden_bootstrap_digests.json``).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .batched import stack_ciphertexts, unstack_ciphertext
from .ciphertext import Ciphertext
from .encoder import CkksEncoder
from .evaluator import Evaluator
from .linear_transform import LinearTransform, rotation_keys_for
from .params import CkksParameters
from .poly_eval import PolynomialEvaluator, chebyshev_coefficients
from ..math.polynomial import RnsPolynomial
from ..telemetry.tracing import span as _span


class Bootstrapper:
    """Precomputed transforms and polynomials for bootstrapping.

    Args:
        params: parameter set; ``q0 / scale`` should be a small factor
            (it multiplies the final error).
        encoder: the CKKS encoder.
        evaluator: must carry a relinearisation key and Galois keys for
            :meth:`required_rotations` plus conjugation.
        eval_degree: degree of the sine approximation.
        overflow_bound: bound on ``|I|`` (defaults to Hamming weight + 1
            worth of margin; pass ``hamming_weight + 1`` of the secret).
    """

    def __init__(
        self,
        params: CkksParameters,
        encoder: CkksEncoder,
        evaluator: Evaluator,
        eval_degree: int = 15,
        overflow_bound: float = 1.0,
    ):
        self.params = params
        self.encoder = encoder
        self.evaluator = evaluator
        self.poly_eval = PolynomialEvaluator(encoder, evaluator)
        self.q0 = params.moduli[0]
        self.message_ratio = params.scale / self.q0  # |m|-part of u
        self.domain = overflow_bound + 2 * self.message_ratio + 0.25
        self.sine_coeffs = chebyshev_coefficients(
            lambda u: math.sin(2 * math.pi * u) / (2 * math.pi),
            eval_degree,
            self.domain,
        )
        self._build_transforms()

    # -- precomputation ---------------------------------------------------------

    def _build_transforms(self):
        """Embedding matrices split into lo/hi coefficient halves."""
        n = self.params.degree
        slots = self.params.slots
        encoder = self.encoder
        slot_bins, _ = encoder._slot_bins()
        two_n = 2 * n
        # Root of slot j: zeta**e_j with e_j = 2*bin + 1.
        roots = np.exp(1j * np.pi * (2 * slot_bins + 1) / n)
        powers = roots[:, None] ** np.arange(n)[None, :]
        e0, e1 = powers[:, :slots], powers[:, slots:]
        # [z; conj(z)] = M [c_lo; c_hi]  =>  [c_lo; c_hi] = inv(M) [z; conj z]
        m = np.block([[e0, e1], [np.conj(e0), np.conj(e1)]])
        p = np.linalg.inv(m)
        f = self.params.scale / self.q0  # Delta / q0
        #: (stack on ct, stack on conj(ct)); item 0 of each feeds c_lo's
        #: slots and item 1 c_hi's.
        self._cts = (
            LinearTransform(
                encoder, f * np.stack([p[:slots, :slots], p[slots:, :slots]])
            ),
            LinearTransform(
                encoder, f * np.stack([p[:slots, slots:], p[slots:, slots:]])
            ),
        )
        g = self.q0 / self.params.scale  # q0 / Delta
        self._stc = (
            LinearTransform(encoder, g * e0),
            LinearTransform(encoder, g * e1),
        )

    def required_rotations(self) -> List[int]:
        """Rotation steps the Galois keys must cover (plus conjugation)."""
        return rotation_keys_for([*self._cts, *self._stc])

    # -- pipeline stages -----------------------------------------------------------

    def mod_raise(
        self, ct: Ciphertext, target_level: Optional[int] = None
    ) -> Ciphertext:
        """Reinterpret a level-0 ciphertext over the level-`target` chain."""
        if ct.level != 0:
            raise ValueError("ModRaise expects a level-0 ciphertext")
        target_level = self.params.max_level if target_level is None else target_level
        if not 1 <= target_level <= self.params.max_level:
            raise ValueError(
                f"target_level must be in [1, {self.params.max_level}], "
                f"got {target_level}"
            )
        basis = self.params.q_basis(target_level)

        def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
            centered = poly.from_ntt().basis.compose_signed(poly.from_ntt().limbs)
            return RnsPolynomial.from_int_coeffs(centered, poly.degree, basis)

        return Ciphertext(
            raise_poly(ct.c0), raise_poly(ct.c1), ct.scale, self.params
        )

    def coeff_to_slot(self, ct: Ciphertext):
        """Slots of the two outputs hold ``(c_i + q0*I_i) / q0``.

        One stacked transform per input computes both halves from one set
        of baby rotations; the two stacked results add into the pair.
        """
        ev = self.evaluator
        lt_z, lt_conj = self._cts
        pair = ev.add(lt_z.apply(ev, ct), lt_conj.apply(ev, ev.conjugate(ct)))
        u_lo, u_hi = unstack_ciphertext(pair)
        return u_lo, u_hi

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Remove the integer part: ``u -> sin(2 pi u) / (2 pi) ~ u - I``.

        A batched ciphertext (both CoeffToSlot halves) runs every step
        once for all its items.
        """
        return self.poly_eval.evaluate(ct, self.sine_coeffs)

    def slot_to_coeff(self, ct_lo: Ciphertext, ct_hi: Ciphertext) -> Ciphertext:
        """Return cleaned coefficients to coefficient positions."""
        ev = self.evaluator
        level = min(ct_lo.level, ct_hi.level)
        ct_lo = ev.mod_switch_to_level(ct_lo, level)
        ct_hi = ev.mod_switch_to_level(ct_hi, level)
        return ev.add(
            self._stc[0].apply(ev, ct_lo), self._stc[1].apply(ev, ct_hi)
        )

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """The full pipeline: a level-0 ciphertext comes back refreshed."""
        with _span("bootstrap", category="bootstrap", method=self.evaluator.method):
            with _span("bootstrap.mod_raise", category="bootstrap"):
                raised = self.mod_raise(ct)
            with _span("bootstrap.coeff_to_slot", category="bootstrap"):
                u_lo, u_hi = self.coeff_to_slot(raised)
            with _span("bootstrap.eval_mod", category="bootstrap"):
                w_lo, w_hi = unstack_ciphertext(
                    self.eval_mod(stack_ciphertexts([u_lo, u_hi]))
                )
            with _span("bootstrap.slot_to_coeff", category="bootstrap"):
                refreshed = self.slot_to_coeff(w_lo, w_hi)
        if refreshed.level <= 0:
            raise ValueError(
                "bootstrapping consumed the whole chain; raise max_level"
            )
        return refreshed
