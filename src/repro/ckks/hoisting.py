"""Hoisted rotations: share one ModUp across many rotations.

Rotating the same ciphertext by several steps -- the inner loop of every
BSGS linear transform -- naively repeats the full KeySwitch per step.  The
hoisting trick (Halevi-Shoup) exploits that digit decomposition and ModUp
act coefficient-wise, hence commute with the Galois automorphism::

    digits(tau_k(c1)) = tau_k(digits(c1))

so the expensive decompose + ModUp runs **once**, and each rotation only
pays the automorphism permutation, the inner product against its own key,
and ModDown.

:func:`hoisted_rotations` runs the op-plan compiler of
:mod:`.keyswitch.plan`: one BConv GEMM raises the digits, all k
automorphisms run as a single gathered fancy index, and all k inner
products fold into one batched lazily-reduced einsum against the stacked
Galois-key tensor.  It is checked bit for bit against the hoisted form of
:func:`repro.ckks.reference.keyswitch`.

Note the *hoisted* form is NOT bit-identical to the non-hoisted
``Evaluator.rotate``: the approximate ModUp slack ``u * Q_j`` transforms
differently under the automorphism's sign flips, so hoisting changes the
(correctness-irrelevant) noise bits.  Differential tests therefore pit
hoisted rotations against the hoisted reference, never hoisted against
non-hoisted.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .ciphertext import Ciphertext
from .keys import GaloisKeys, rotation_galois_power
from .keyswitch import plan as _plan
from .params import CkksParameters


def hoisted_rotations(
    ct: Ciphertext,
    steps: Sequence[int],
    galois_keys: GaloisKeys,
    params: CkksParameters,
    method: str = "hybrid",
) -> Dict[int, Ciphertext]:
    """Rotate `ct` by every step with one shared ModUp.

    Runs the op-plan compiler: one BConv GEMM, gathered automorphisms,
    one batched IP einsum.  `method` is ``"hybrid"`` or ``"klss"``.  Steps
    that are multiples of the slot count short-circuit to the input
    ciphertext (identity automorphism -- no key switch, no Galois key).
    """
    if ct.c2 is not None:
        raise ValueError("hoisting requires a relinearised ciphertext")
    unique = list(dict.fromkeys(steps))
    result: Dict[int, Ciphertext] = {}
    live = [s for s in unique if s % params.slots != 0]
    for s in unique:
        if s % params.slots == 0:
            result[s] = ct
    if live:
        powers = tuple(rotation_galois_power(s, params.degree) for s in live)
        hplan = _plan.get_hoisted_rotation_plan(
            galois_keys, powers, params, ct.level, method
        )
        pairs = _plan.hoisted_gemm_rotations(ct.c0, ct.c1, hplan)
        for s, (p0, p1) in zip(live, pairs):
            result[s] = Ciphertext(p0, p1, ct.scale, params)
    return result


def hoisting_modup_savings(beta: int, rotations: int) -> float:
    """Fraction of ModUp work saved versus naive per-rotation KeySwitch.

    Naive: ``rotations * beta`` digit conversions; hoisted: ``beta``.
    """
    if rotations < 1:
        raise ValueError("need at least one rotation")
    return 1.0 - 1.0 / rotations
