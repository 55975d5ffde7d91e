"""Hybrid (Han-Ki dnum) key switching.

The classic GPU pipeline the paper compares against (Fig. 5, left path):

1. **Digit decomposition** -- split the input into ``beta`` digits of
   ``alpha`` limbs each.
2. **Mod Up** -- BConv each digit from its group basis to the full ``PQ``
   basis (approximate conversion; the small ``u * Q_j`` slack is absorbed
   by the special modulus).
3. **NTT** over ``PQ``, **Inner Product** with the evk digit pairs,
   **INTT**.
4. **Mod Down** -- divide by ``P`` and return to the ciphertext basis.

:func:`keyswitch` runs the GEMM-form engine of :mod:`.plan` (batched
BConv matmul + lazy-reduction IP, Neo Algorithms 2 and 4).
:func:`mod_up` and :func:`mod_down` are the per-digit ModUp / ModDown of
the reference pipeline in :mod:`repro.ckks.reference`, which checks the
engine bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

from ...math import modarith
from ...math.polynomial import RnsPolynomial
from ...math.rns import RnsBasis, bconv_approx
from ..keys import KeySwitchKey
from ..params import CkksParameters
from . import plan as _plan
from .plan import restrict_to_pq  # noqa: F401  (re-exported)


def decompose_digits(
    poly: RnsPolynomial, params: CkksParameters
) -> List[RnsPolynomial]:
    """Split `poly` (coefficient form, level-``l`` basis) into digits.

    Digit ``j`` is simply the limbs of group ``j`` -- its residues *are*
    the RNS representation of ``poly mod Q_j``.
    """
    poly = poly.from_ntt()
    level = len(poly.basis) - 1
    digits = []
    for j in range(params.beta(level)):
        start, stop = params.digit_range(j, level)
        basis = RnsBasis(poly.basis.moduli[start:stop])
        digits.append(
            RnsPolynomial(poly.degree, basis, poly.limbs[start:stop], is_ntt=False)
        )
    return digits


def mod_up(
    digit: RnsPolynomial,
    digit_index: int,
    params: CkksParameters,
    level: int,
) -> RnsPolynomial:
    """Raise one digit to the ``PQ`` basis (paper's Mod Up / BConv step).

    Limbs belonging to the digit's own group are copied verbatim; all other
    limbs come from the approximate base conversion, so the limbs jointly
    represent ``c_j + u * Q_j`` for some ``0 <= u < alpha``.
    """
    pq = params.pq_basis(level)
    start, stop = params.digit_range(digit_index, level)
    own = dict(zip(range(start, stop), digit.limbs))
    other_moduli = [
        q for idx, q in enumerate(pq.moduli) if not start <= idx < stop
    ]
    converted = bconv_approx(digit.limbs, digit.basis, RnsBasis(other_moduli))
    converted_iter = iter(converted)
    limbs = []
    for idx in range(len(pq.moduli)):
        if start <= idx < stop:
            limbs.append(own[idx])
        else:
            limbs.append(next(converted_iter))
    return RnsPolynomial(digit.degree, pq, limbs, is_ntt=False)


def mod_down(
    poly: RnsPolynomial,
    params: CkksParameters,
    level: int,
) -> RnsPolynomial:
    """Divide by ``P`` and drop the special limbs (paper's Mod Down)."""
    poly = poly.from_ntt()
    q_basis = params.q_basis(level)
    p_basis = params.p_basis()
    q_count = level + 1
    q_limbs = poly.limbs[:q_count]
    p_limbs = poly.limbs[q_count:]
    converted = bconv_approx(p_limbs, p_basis, q_basis)
    limbs = []
    for limb, conv, q in zip(q_limbs, converted, q_basis.moduli):
        p_inv = modarith.inv_mod(params.special_product % q, q)
        limbs.append(
            modarith.scalar_mul_mod(modarith.sub_mod(limb, conv, q), p_inv, q)
        )
    return RnsPolynomial(poly.degree, q_basis, limbs, is_ntt=False)


def keyswitch(
    poly: RnsPolynomial, ksk: KeySwitchKey, params: CkksParameters
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    """Switch `poly` (a coefficient of ``s'``) to the key ``s``.

    Returns ``(p0, p1)`` over the ciphertext basis such that
    ``p0 + p1 * s ~ poly * s'`` (up to key-switching noise).  Runs the
    batched GEMM pipeline.
    """
    level = len(poly.basis) - 1
    ks_plan = _plan.get_keyswitch_plan(ksk, params, level, "hybrid")
    return _plan.gemm_keyswitch(poly, ks_plan)
