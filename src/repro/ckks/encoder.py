"""CKKS encoder: packing complex vectors into ring plaintexts.

Implements the canonical-embedding encoding of Cheon-Kim-Kim-Song: a vector
of ``N/2`` complex *slots* is mapped to a real polynomial that evaluates to
those values (times the scale) at the primitive ``2N``-th roots of unity
``zeta**(5**j)``.  The evaluation/interpolation runs in ``O(N log N)``
through a twisted FFT rather than a Vandermonde solve.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..math.polynomial import RnsPolynomial
from ..math.rns import RnsBasis
from .params import CkksParameters


class Plaintext:
    """An encoded message: an integer polynomial plus its scale.

    ``is_constant`` is True only when the encoder saw every coefficient but
    the first round to zero: the polynomial is then the constant
    ``poly.stack[:, 0]``, and a PMULT by it is a scalar product per limb.
    """

    __slots__ = ("poly", "scale", "is_constant")

    def __init__(self, poly: RnsPolynomial, scale: float, is_constant: bool = False):
        self.poly = poly
        self.scale = scale
        self.is_constant = is_constant

    @property
    def level(self) -> int:
        return len(self.poly.basis) - 1

    def __repr__(self) -> str:
        return f"Plaintext(level={self.level}, scale=2^{np.log2(self.scale):.1f})"


class CkksEncoder:
    """Encode/decode between complex slot vectors and ring plaintexts."""

    def __init__(self, params: CkksParameters):
        self.params = params
        self.degree = params.degree
        self.slots = params.slots
        self._index_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._twist = np.exp(1j * np.pi * np.arange(self.degree) / self.degree)

    # -- slot/FFT-bin bookkeeping -------------------------------------------------

    def _slot_bins(self) -> Tuple[np.ndarray, np.ndarray]:
        """FFT bin indices of slot roots and of their conjugate roots.

        Slot ``j`` lives at root ``zeta**e_j`` with ``e_j = 5**j mod 2N``;
        the twisted FFT places the evaluation at the odd exponent
        ``2k + 1`` into bin ``k``.
        """
        cached = self._index_cache.get(self.degree)
        if cached is not None:
            return cached
        two_n = 2 * self.degree
        exponents = np.empty(self.slots, dtype=np.int64)
        e = 1
        for j in range(self.slots):
            exponents[j] = e
            e = e * 5 % two_n
        slot_bins = (exponents - 1) // 2
        conj_bins = (two_n - exponents - 1) // 2
        self._index_cache[self.degree] = (slot_bins, conj_bins)
        return slot_bins, conj_bins

    # -- float-level embedding ------------------------------------------------------

    def embed(self, values: np.ndarray, scale: Optional[float] = None) -> np.ndarray:
        """Inverse canonical embedding: slots -> scaled integer coefficients."""
        scale = self.params.scale if scale is None else scale
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1 or len(values) > self.slots:
            raise ValueError(f"expected <= {self.slots} slot values")
        if len(values) < self.slots:
            values = np.pad(values, (0, self.slots - len(values)))
        slot_bins, conj_bins = self._slot_bins()
        spectrum = np.zeros(self.degree, dtype=np.complex128)
        spectrum[slot_bins] = values
        spectrum[conj_bins] = np.conj(values)
        # evaluations[k] = m(zeta**(2k+1)) = N * ifft(coeffs * twist)[k]
        # => coeffs = fft(spectrum / N) / twist  (times N/N bookkeeping)
        twisted = np.fft.fft(spectrum) / self.degree
        coeffs = twisted / self._twist
        scaled = np.round(coeffs.real * scale)
        if np.all(np.abs(scaled) < float(2**62)):
            # Machine-word coefficients decompose natively per limb.
            return scaled.astype(np.int64)
        return np.array([int(v) for v in scaled], dtype=object)

    def project(self, coeffs: np.ndarray, scale: float) -> np.ndarray:
        """Canonical embedding: integer coefficients -> complex slots."""
        coeffs = np.asarray(coeffs, dtype=object)
        if coeffs.shape != (self.degree,):
            raise ValueError(f"expected {self.degree} coefficients")
        floats = coeffs.astype(np.float64)
        evaluations = np.fft.ifft(floats * self._twist) * self.degree
        slot_bins, _ = self._slot_bins()
        return evaluations[slot_bins] / scale

    # -- ring-level encode/decode -----------------------------------------------------

    def encode(self, values, level: Optional[int] = None, scale: Optional[float] = None) -> Plaintext:
        """Encode complex values into a plaintext at `level` (default: top)."""
        level = self.params.max_level if level is None else level
        scale = self.params.scale if scale is None else scale
        coeffs = self.embed(np.atleast_1d(np.asarray(values)), scale)
        basis = self.params.q_basis(level)
        poly = RnsPolynomial.from_int_coeffs(coeffs, self.degree, basis)
        return Plaintext(poly, scale, is_constant=not np.any(coeffs[1:]))

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        """Decode a plaintext back to its complex slot values."""
        coeffs = plaintext.poly.to_int_coeffs()
        return self.project(coeffs, plaintext.scale)

    def encode_constant(self, value: float, level: Optional[int] = None, scale: Optional[float] = None) -> Plaintext:
        """Encode a scalar broadcast across every slot."""
        return self.encode(np.full(self.slots, value, dtype=np.complex128), level, scale)
