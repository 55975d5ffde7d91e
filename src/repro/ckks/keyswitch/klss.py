"""KLSS key switching (Kim-Lee-Seo-Song, CRYPTO'23) -- Section 2.2.

The six-step pipeline of the paper's Fig. 5:

1. **Mod Up** -- BConv each of the ``beta`` ciphertext digits from its
   ``alpha``-limb group basis into the auxiliary basis ``T`` (``alpha'``
   limbs of ``WordSize_T`` bits).  Because ``T`` far exceeds the digit
   bound, the limbs of ``T`` represent the digit *exactly* as an integer.
2. **NTT** over ``R_T``.
3. **IP** -- multiply-accumulate against ``beta~ x beta`` evk digit pairs.
   The evk digits are the RNS gadget decomposition (groups of ``alpha~``
   limbs of the ``PQ`` chain) of the *hybrid* evk -- KLSS is a key
   decomposition technique, so the key material is shared.
4. **INTT** over ``R_T``.
5. **Recover Limbs** -- the accumulated integers are below ``T/2`` in
   magnitude (Eq. 4), so an exact signed base conversion brings each of
   the ``beta~`` groups back to ``R_PQ``, where they are recombined with
   the gadget factors ``G_hat_i``.
6. **Mod Down** -- divide by ``P`` (shared with the hybrid back-end).

:func:`keyswitch` runs the GEMM-form engine of :mod:`.plan` (one batched
BConv matmul for ModUp, one lazy-reduction einsum for the IP, one native
Recover Limbs).  :mod:`repro.ckks.reference` checks it bit for bit
against the per-digit pipeline with an object-dtype CRT recomposition.
"""

from __future__ import annotations

from typing import Tuple

from ...math.polynomial import RnsPolynomial
from ..keys import KeySwitchKey
from ..params import CkksParameters
from . import plan as _plan
from .plan import (  # noqa: F401  (re-exported under their historical names)
    KlssBoundError,
    KlssLevelKey as _KlssLevelKey,
    _check_ip_bound,
    _extract_digit,
    _limb_groups,
)


def decompose_key(
    ksk: KeySwitchKey, params: CkksParameters, level: int
) -> _KlssLevelKey:
    """Gadget-decompose the hybrid evk for use at `level` (cached).

    Served from the shared key-switch plan cache, keyed by the params
    fingerprint and the key's identity token -- never stashed on the key
    object, so a key reused under a sibling :class:`CkksParameters` (e.g.
    a different ``alpha~``) gets a fresh decomposition instead of a stale
    one.
    """
    if params.klss is None:
        raise ValueError("parameters carry no KLSS configuration")
    return _plan.get_keyswitch_plan(ksk, params, level, "klss").klss_key


def keyswitch(
    poly: RnsPolynomial, ksk: KeySwitchKey, params: CkksParameters
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    """KLSS key switch of `poly`; same contract as :func:`hybrid.keyswitch`.

    Runs the batched GEMM pipeline.
    """
    level = len(poly.basis) - 1
    if params.klss is None:
        raise ValueError("parameters carry no KLSS configuration")
    ks_plan = _plan.get_keyswitch_plan(ksk, params, level, "klss")
    return _plan.gemm_keyswitch(poly, ks_plan)
