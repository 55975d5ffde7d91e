"""The reference key switch: the textbook per-digit pipeline.

Every GEMM path of :mod:`repro.ckks.keyswitch.plan` -- the key switch,
hoisted rotations and compiled BSGS transforms -- is checked bit for bit
against this module, and against nothing else.  It runs one digit at a
time through the plain polynomial API:

1. :func:`~repro.ckks.keyswitch.hybrid.decompose_digits`, then
   :func:`~repro.ckks.keyswitch.hybrid.mod_up` into ``PQ`` (hybrid) or
   :func:`~repro.math.rns.bconv_approx` into ``T`` (KLSS);
2. for a hoisted rotation, the automorphism on the raised digits;
3. per digit ``to_ntt``, ``multiply`` and ``add`` against the evk, then
   ``from_ntt``;
4. KLSS Recover Limbs as exact Python-int CRT recomposition times the
   gadget factors ``G_hat_i``;
5. :func:`~repro.ckks.keyswitch.hybrid.mod_down`.

Key material comes from the shared plan cache.  Slow by design: only the
tests call it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..math.polynomial import RnsPolynomial
from ..math.rns import bconv_approx
from .batched import stack_ciphertexts
from .ciphertext import Ciphertext
from .keys import GaloisKeys, KeySwitchKey, rotation_galois_power
from .keyswitch import hybrid
from .keyswitch.plan import get_keyswitch_plan
from .params import CkksParameters


def keyswitch(
    poly: RnsPolynomial,
    ksk: KeySwitchKey,
    params: CkksParameters,
    method: str,
    galois_power: Optional[int] = None,
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    """Key switch `poly` digit by digit; ``method`` is hybrid or klss.

    With `galois_power`, the automorphism is applied to the raised digits
    (the hoisted form): `poly` is then the *unrotated* ``c1``.
    """
    level = len(poly.basis) - 1
    ks_plan = get_keyswitch_plan(ksk, params, level, method)
    digits = hybrid.decompose_digits(poly, params)
    if method == "hybrid":
        raised = [hybrid.mod_up(d, j, params, level) for j, d in enumerate(digits)]
        key_rows = [ks_plan.key_pairs]
    else:
        t_basis = ks_plan.klss_key.t_basis
        raised = [
            RnsPolynomial(
                d.degree, t_basis, bconv_approx(d.limbs, d.basis, t_basis)
            )
            for d in digits
        ]
        key_rows = ks_plan.klss_key.digit_pairs
    if galois_power is not None:
        raised = [r.automorphism(galois_power) for r in raised]
    raised = [r.to_ntt() for r in raised]

    sums = []  # one (b, a) inner product per evk row
    basis = raised[0].basis
    for row in key_rows:
        acc_b = RnsPolynomial.zero(poly.degree, basis, is_ntt=True)
        acc_a = RnsPolynomial.zero(poly.degree, basis, is_ntt=True)
        for digit, (b, a) in zip(raised, row):
            acc_b = acc_b.add(digit.multiply(b))
            acc_a = acc_a.add(digit.multiply(a))
        sums.append((acc_b.from_ntt(), acc_a.from_ntt()))

    if method == "hybrid":
        b, a = sums[0]
    else:  # Recover Limbs: exact CRT from R_T back into R_PQ
        key = ks_plan.klss_key

        def recover(k: int) -> RnsPolynomial:
            total = sum(
                key.t_basis.compose_signed(pair[k].limbs) * g_hat
                for pair, g_hat in zip(sums, key.gadget_factors)
            )
            pq = key.pq_basis
            return RnsPolynomial(poly.degree, pq, pq.decompose(total))

        b, a = recover(0), recover(1)
    return hybrid.mod_down(b, params, level), hybrid.mod_down(a, params, level)


def rotate(
    ct: Ciphertext, steps: int, galois_keys: GaloisKeys, method: str,
    hoisted: bool = False,
) -> Ciphertext:
    """Rotate the slots of `ct` by `steps` through :func:`keyswitch`.

    ``hoisted=True`` rotates the raised digits, as hoisted rotations do;
    otherwise ``c1`` is rotated first, as ``Evaluator.rotate`` does.
    """
    params = ct.params
    if steps % params.slots == 0:
        return ct
    power = rotation_galois_power(steps, params.degree)
    key = galois_keys.get(power)
    if hoisted:
        p0, p1 = keyswitch(ct.c1, key, params, method, galois_power=power)
    else:
        p0, p1 = keyswitch(ct.c1.automorphism(power), key, params, method)
    return Ciphertext(ct.c0.automorphism(power).add(p0), p1, ct.scale, params)


def linear_transform(lt, evaluator, ct: Ciphertext) -> Ciphertext:
    """BSGS ``M z`` for a :class:`~repro.ckks.linear_transform.LinearTransform`.

    Babies are hoisted reference rotations of `ct` and giants plain ones,
    as in the compiled plan; every product, sum and the final Rescale is
    an `evaluator` call.  A stacked transform runs matrix by matrix over
    the shared babies, and its outputs are stacked as the plan's are.
    """
    method, keys = evaluator.method, evaluator.galois_keys
    pts = lt._encoded_diagonals(ct.level)
    babies = {
        b: rotate(ct, b, keys, method, hoisted=True)
        for b in {b for plan in lt._plan.values() for b in plan}
    }
    outputs = []
    for m in range(lt.count):
        outer = None
        for g, plan in sorted(lt._plan.items()):
            inner = None
            for b in sorted(plan):
                term = evaluator.multiply_plain(babies[b], pts[(g, b)][m])
                inner = term if inner is None else evaluator.add(inner, term)
            inner = rotate(inner, g * lt.baby, keys, method)
            outer = inner if outer is None else evaluator.add(outer, inner)
        outputs.append(evaluator.rescale(outer))
    return stack_ciphertexts(outputs) if lt.stacked else outputs[0]
