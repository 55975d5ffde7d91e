"""The CKKS evaluator: HADD, PADD, HMULT, PMULT, HROTATE, Rescale, DS.

All primitive operations of Section 2.1, with key switching delegated to a
pluggable back-end (``"hybrid"`` or ``"klss"``) -- the axis the paper's
ablation (Fig. 14, first step) turns.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Optional, Tuple

from ..math.polynomial import RnsPolynomial
from .ciphertext import Ciphertext
from .encoder import Plaintext
from .keys import (
    GaloisKeys,
    KeySwitchKey,
    conjugation_galois_power,
    rotation_galois_power,
)
from .keyswitch import hybrid as hybrid_ks
from .keyswitch import klss as klss_ks
from .params import CkksParameters

#: Relative scale mismatch tolerated by additive operations.  Rescaling
#: divides by a prime that only approximates the scale (q_i ~ Delta), so
#: scales drift by ~|q_i - Delta| / Delta per level; treating drifted
#: scales as equal introduces the same relative error in sums, which is
#: the standard approximate-scale convention (decode always uses the
#: exactly tracked float scale).
_SCALE_RTOL = 5e-2

#: Key-switch back-ends, both run by the GEMM-form engine of
#: :mod:`.keyswitch.plan`.
KEYSWITCH_METHODS = ("hybrid", "klss")


class Evaluator:
    """Homomorphic operations over CKKS ciphertexts.

    Args:
        params: the parameter set.
        relin_key: key for ``s**2 -> s`` (required by :meth:`multiply`).
        galois_keys: rotation/conjugation keys (required by :meth:`rotate`).
        method: key-switching back-end, ``"hybrid"`` or ``"klss"``.
        observer: optional telemetry hook (e.g.
            :class:`~repro.telemetry.fhe.FheMeter`); after every operation
            its ``after_op(name, inputs, output)`` is called with the input
            and output ciphertexts.  ``None`` (the default) costs a single
            ``is not None`` test per operation.
    """

    def __init__(
        self,
        params: CkksParameters,
        relin_key: Optional[KeySwitchKey] = None,
        galois_keys: Optional[GaloisKeys] = None,
        method: str = "hybrid",
        observer=None,
    ):
        if method not in KEYSWITCH_METHODS:
            raise ValueError(f"method must be one of {KEYSWITCH_METHODS}")
        if method == "klss" and params.klss is None:
            raise ValueError("KLSS method requires parameters with a KlssConfig")
        self.params = params
        self.relin_key = relin_key
        self.galois_keys = galois_keys
        self.method = method
        self.observer = observer

    def _observe(self, op: str, inputs, output: Ciphertext) -> Ciphertext:
        if self.observer is not None:
            self.observer.after_op(op, inputs, output)
        return output

    # -- key switching dispatch ----------------------------------------------------

    def _keyswitch(
        self, poly: RnsPolynomial, ksk: KeySwitchKey
    ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        if self.method == "klss":
            return klss_ks.keyswitch(poly, ksk, self.params)
        return hybrid_ks.keyswitch(poly, ksk, self.params)

    # -- level/scale alignment -------------------------------------------------------

    def mod_switch_to_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop limbs down to `level` without rescaling (exact on slots)."""
        if level > ct.level:
            raise ValueError(f"cannot raise level {ct.level} -> {level}")
        if level == ct.level:
            return ct
        count = level + 1
        return Ciphertext(
            ct.c0.keep_limbs(count),
            ct.c1.keep_limbs(count),
            ct.scale,
            ct.params,
            None if ct.c2 is None else ct.c2.keep_limbs(count),
        )

    def _align(self, ct0: Ciphertext, ct1: Ciphertext) -> Tuple[Ciphertext, Ciphertext]:
        level = min(ct0.level, ct1.level)
        ct0 = self.mod_switch_to_level(ct0, level)
        ct1 = self.mod_switch_to_level(ct1, level)
        gap = abs(ct0.scale - ct1.scale)
        top = max(ct0.scale, ct1.scale)
        if gap > _SCALE_RTOL * top:
            raise ValueError(
                f"scale mismatch: 2^{math.log2(ct0.scale):.2f} vs "
                f"2^{math.log2(ct1.scale):.2f} (relative gap {gap / top:.2%} > "
                f"{_SCALE_RTOL:.0%}); rescale first"
            )
        return ct0, ct1

    @staticmethod
    def _require_relinearised(ct: Ciphertext, op: str):
        if ct.c2 is not None:
            raise ValueError(f"{op} requires a relinearised ciphertext")

    # -- additive ops ------------------------------------------------------------------

    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """HADD: ciphertext + ciphertext."""
        self._require_relinearised(ct0, "add")
        self._require_relinearised(ct1, "add")
        ct0, ct1 = self._align(ct0, ct1)
        out = Ciphertext(
            ct0.c0.add(ct1.c0), ct0.c1.add(ct1.c1), ct0.scale, ct0.params
        )
        return self._observe("add", (ct0, ct1), out)

    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        self._require_relinearised(ct0, "sub")
        self._require_relinearised(ct1, "sub")
        ct0, ct1 = self._align(ct0, ct1)
        out = Ciphertext(
            ct0.c0.sub(ct1.c0), ct0.c1.sub(ct1.c1), ct0.scale, ct0.params
        )
        return self._observe("sub", (ct0, ct1), out)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        out = Ciphertext(
            ct.c0.negate(),
            ct.c1.negate(),
            ct.scale,
            ct.params,
            None if ct.c2 is None else ct.c2.negate(),
        )
        return self._observe("negate", (ct,), out)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PADD: plaintext + ciphertext (noise-free, no key material)."""
        pt_poly = self._plain_at_level(pt, ct.level, ct.scale)
        out = Ciphertext(ct.c0.add(pt_poly), ct.c1, ct.scale, ct.params, ct.c2)
        return self._observe("add_plain", (ct,), out)

    def sub_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        pt_poly = self._plain_at_level(pt, ct.level, ct.scale)
        out = Ciphertext(ct.c0.sub(pt_poly), ct.c1, ct.scale, ct.params, ct.c2)
        return self._observe("sub_plain", (ct,), out)

    def _plain_at_level(
        self, pt: Plaintext, level: int, expected_scale: float
    ) -> RnsPolynomial:
        if abs(pt.scale - expected_scale) > _SCALE_RTOL * max(pt.scale, expected_scale):
            raise ValueError("plaintext scale does not match ciphertext scale")
        if pt.level < level:
            raise ValueError("plaintext encoded at a lower level than ciphertext")
        return pt.poly.keep_limbs(level + 1)

    # -- multiplicative ops ---------------------------------------------------------------

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PMULT: plaintext * ciphertext (no KeySwitch; Section 2.1).

        A constant plaintext (:attr:`Plaintext.is_constant`) multiplies
        each limb by its residue there: the negacyclic product by a
        constant polynomial is exactly that scalar product, so no NTT runs.
        """
        self._require_relinearised(ct, "multiply_plain")
        if pt.level < ct.level:
            raise ValueError("plaintext encoded at a lower level than ciphertext")
        pt_poly = pt.poly.keep_limbs(ct.level + 1)
        if pt.is_constant:
            residues = pt_poly.stack[:, 0]
            c0 = ct.c0.from_ntt().multiply_scalar_per_limb(residues)
            c1 = ct.c1.from_ntt().multiply_scalar_per_limb(residues)
        else:
            pt_poly = pt_poly.to_ntt()
            c0 = ct.c0.to_ntt().multiply(pt_poly).from_ntt()
            c1 = ct.c1.to_ntt().multiply(pt_poly).from_ntt()
        out = Ciphertext(c0, c1, ct.scale * pt.scale, ct.params)
        return self._observe("multiply_plain", (ct,), out)

    def multiply(
        self, ct0: Ciphertext, ct1: Ciphertext, relinearise: bool = True
    ) -> Ciphertext:
        """HMULT: ciphertext * ciphertext with optional relinearisation."""
        self._require_relinearised(ct0, "multiply")
        self._require_relinearised(ct1, "multiply")
        level = min(ct0.level, ct1.level)
        ct0 = self.mod_switch_to_level(ct0, level)
        ct1 = self.mod_switch_to_level(ct1, level)
        a0, a1 = ct0.c0.to_ntt(), ct0.c1.to_ntt()
        # A square (``square``, the power-of-two steps of ``powers``) is
        # transformed once.
        b0, b1 = (a0, a1) if ct1 is ct0 else (ct1.c0.to_ntt(), ct1.c1.to_ntt())
        d0 = a0.multiply(b0).from_ntt()
        d1 = a0.multiply(b1).add(a1.multiply(b0)).from_ntt()
        d2 = a1.multiply(b1).from_ntt()
        product = Ciphertext(d0, d1, ct0.scale * ct1.scale, ct0.params, c2=d2)
        self._observe("multiply", (ct0, ct1), product)
        if relinearise:
            product = self.relinearise(product)
        return product

    def square(self, ct: Ciphertext, relinearise: bool = True) -> Ciphertext:
        return self.multiply(ct, ct, relinearise=relinearise)

    def relinearise(self, ct: Ciphertext) -> Ciphertext:
        """Fold the ``s**2`` component back into ``(c0, c1)`` via KeySwitch."""
        if ct.c2 is None:
            return ct
        if self.relin_key is None:
            raise ValueError("no relinearisation key configured")
        p0, p1 = self._keyswitch(ct.c2, self.relin_key)
        out = Ciphertext(
            ct.c0.add(p0), ct.c1.add(p1), ct.scale, ct.params
        )
        return self._observe("relinearise", (ct,), out)

    # -- rotations ------------------------------------------------------------------------

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """HROTATE: cyclically rotate the slot vector by `steps`."""
        self._require_relinearised(ct, "rotate")
        if self.galois_keys is None:
            raise ValueError("no Galois keys configured")
        power = rotation_galois_power(steps, self.params.degree)
        return self._observe("rotate", (ct,), self._apply_galois(ct, power))

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate every slot."""
        self._require_relinearised(ct, "conjugate")
        if self.galois_keys is None:
            raise ValueError("no Galois keys configured")
        out = self._apply_galois(ct, conjugation_galois_power(self.params.degree))
        return self._observe("conjugate", (ct,), out)

    def _apply_galois(self, ct: Ciphertext, power: int) -> Ciphertext:
        key = self.galois_keys.get(power)
        rotated_c0 = ct.c0.automorphism(power)
        rotated_c1 = ct.c1.automorphism(power)
        p0, p1 = self._keyswitch(rotated_c1, key)
        return Ciphertext(rotated_c0.add(p0), p1, ct.scale, ct.params)

    def rotate_many(self, ct: Ciphertext, steps) -> dict:
        """All requested rotations off ONE shared (hoisted) ModUp.

        Runs the op-plan compiler's batched engine.  Note the hoisted
        dataflow is not bit-identical to per-step :meth:`rotate` (the
        approximate-ModUp slack transforms differently), but both decrypt
        to the same slots.
        """
        self._require_relinearised(ct, "rotate_many")
        if self.galois_keys is None:
            raise ValueError("no Galois keys configured")
        from .hoisting import hoisted_rotations

        return hoisted_rotations(
            ct, steps, self.galois_keys, self.params, method=self.method
        )

    # -- rescaling --------------------------------------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last prime and drop one level (Section 2.1)."""
        return self._observe("rescale", (ct,), self._drop_scaled(ct, 1))

    def rescale_raw(self, ct: Ciphertext) -> Ciphertext:
        """Rescale without requiring relinearisation (alias kept for clarity)."""
        return self._observe("rescale", (ct,), self._drop_scaled(ct, 1))

    def double_rescale(self, ct: Ciphertext) -> Ciphertext:
        """DS: divide by the last *two* primes, dropping two levels.

        Used during Bootstrapping at small WordSize (Section 2.1, DS).
        """
        return self._observe("double_rescale", (ct,), self._drop_scaled(ct, 2))

    def _drop_scaled(self, ct: Ciphertext, count: int) -> Ciphertext:
        level = ct.level
        if level < count:
            raise ValueError(f"cannot drop {count} levels from level {level}")
        moduli = ct.c0.basis.moduli
        dropped = moduli[level + 1 - count : level + 1]
        drop_product = reduce(lambda a, b: a * b, dropped, 1)
        c0 = self._exact_divide_drop(ct.c0, count, drop_product)
        c1 = self._exact_divide_drop(ct.c1, count, drop_product)
        c2 = (
            None
            if ct.c2 is None
            else self._exact_divide_drop(ct.c2, count, drop_product)
        )
        return Ciphertext(c0, c1, ct.scale / drop_product, ct.params, c2=c2)

    def _exact_divide_drop(
        self, poly: RnsPolynomial, count: int, drop_product: int
    ) -> RnsPolynomial:
        """Round-divide a polynomial by the product of its last `count` limbs.

        The whole correction runs as stack arithmetic: dropping one limb
        (the common Rescale) never leaves machine words, and the bignum CRT
        compose only runs when several limbs are dropped at once.  The kept
        basis is the parameters' cached :meth:`~CkksParameters.q_basis`, so
        a rescale builds no basis.
        """
        poly = poly.from_ntt()
        keep = len(poly.basis) - count
        keep_basis = self.params.q_basis(keep - 1)
        if poly.basis.moduli[:keep] != keep_basis.moduli:
            raise ValueError(
                "rescale needs a polynomial over a prefix of the ciphertext "
                f"chain; got {poly.basis!r}"
            )
        from ..math.modstack import ModulusStack

        if count == 1:
            # A single dropped limb IS the tail value -- no CRT compose.
            tail_value = poly.limbs[keep]
        else:
            tail_basis = poly.basis.subbasis(keep, len(poly.basis))
            tail_value = tail_basis.compose(poly.limbs[keep:])
        mstack = ModulusStack.for_moduli(keep_basis.moduli)
        scaled = mstack.divide_exact_drop(poly.stack[:keep], tail_value, drop_product)
        return RnsPolynomial._wrap(poly.degree, keep_basis, scaled, False)
