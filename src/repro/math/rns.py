"""Residue Number System (RNS) bases and base conversion (BConv).

The CKKS modulus chain ``Q = q_0 ... q_L``, the special modulus ``P`` and the
KLSS auxiliary modulus ``T`` are all RNS bases.  ``BConv`` is the paper's
central memory-bound kernel (Algorithm 1/2): it maps the residues of a value
from one basis to another.

Two conversions are provided:

* :func:`bconv_approx` -- the standard full-RNS conversion of Cheon et al.
  [SAC'18], which returns ``x + u*Q`` for a small overflow ``0 <= u < len(Q)``.
  This is the kernel whose dataflow Neo optimises; the slack is absorbed by
  the noise budget in ModUp/ModDown.
* :func:`bconv_exact` -- exact conversion through CRT recomposition, used
  where overflow would corrupt the result (KLSS Recover Limbs) and as the
  ground truth in tests.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import modarith
from ..telemetry.stats import Cache
from .modstack import ModulusStack


class RnsBasis:
    """An ordered set of pairwise-coprime prime moduli with CRT tables."""

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(int(q) for q in moduli)
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be distinct")
        if not moduli:
            raise ValueError("RNS basis needs at least one modulus")
        self.moduli: Tuple[int, ...] = moduli
        self.product: int = reduce(lambda a, b: a * b, moduli, 1)
        #: ``q_hat_i = Q / q_i`` as exact integers.
        self.q_hat: Tuple[int, ...] = tuple(self.product // q for q in moduli)
        #: ``q_hat_i^{-1} mod q_i``.
        self.q_hat_inv: Tuple[int, ...] = tuple(
            modarith.inv_mod(h % q, q) for h, q in zip(self.q_hat, moduli)
        )
        #: ``(start, stop)`` -> the sub-basis :meth:`subbasis` built for it.
        self._subbases: Dict[Tuple[int, int], "RnsBasis"] = {}

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other) -> bool:
        return isinstance(other, RnsBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.moduli]
        return f"RnsBasis({len(self.moduli)} limbs, {min(bits)}-{max(bits)} bits)"

    def subbasis(self, start: int, stop: int) -> "RnsBasis":
        """The basis formed by moduli ``[start:stop]``.

        Built once per ``(start, stop)`` and kept on this basis: a level
        drop (:meth:`~repro.math.polynomial.RnsPolynomial.keep_limbs`)
        then rebuilds no CRT tables.
        """
        key = (start, stop)
        sub = self._subbases.get(key)
        if sub is None:
            sub = self._subbases[key] = RnsBasis(self.moduli[start:stop])
        return sub

    def decompose(self, values) -> List[np.ndarray]:
        """Split integer array `values` into one residue array per limb.

        Machine-word integer inputs reduce natively per limb; only inputs
        that genuinely exceed 64 bits route through Python integers.
        """
        arr = np.asarray(values)
        return [modarith.asarray_mod(arr, q) for q in self.moduli]

    def compose(self, limbs: Sequence[np.ndarray]) -> np.ndarray:
        """CRT-recompose residue arrays into integers in ``[0, product)``."""
        if len(limbs) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} limb arrays, got {len(limbs)}"
            )
        acc = np.zeros(np.asarray(limbs[0]).shape, dtype=object)
        for limb, q, q_hat, q_hat_inv in zip(
            limbs, self.moduli, self.q_hat, self.q_hat_inv
        ):
            partial = (np.asarray(limb, dtype=object) * q_hat_inv) % q
            acc += partial * q_hat
        return acc % self.product

    def compose_signed(self, limbs: Sequence[np.ndarray]) -> np.ndarray:
        """CRT-recompose into centred integers in ``(-product/2, product/2]``."""
        return modarith.to_signed(self.compose(limbs), self.product)


#: (from moduli, to moduli) -> the BConv matrix ``B[j, i] = q_hat_i mod p_j``
#: as an ``(Lt, Lf)`` uint64 table.
_BCONV_TABLES = Cache("bconv_tables", maxsize=256)


def _bconv_table(from_basis: RnsBasis, to_basis: RnsBasis) -> np.ndarray:
    return _BCONV_TABLES.get_or_build(
        (from_basis.moduli, to_basis.moduli),
        lambda: np.array(
            [[q_hat % p for q_hat in from_basis.q_hat] for p in to_basis.moduli],
            dtype=np.uint64,
        ),
    )


def bconv_approx(
    limbs: Sequence[np.ndarray], from_basis: RnsBasis, to_basis: RnsBasis
) -> List[np.ndarray]:
    """Approximate RNS base conversion (the paper's Algorithm 1 semantics).

    For input residues of ``x`` (with ``0 <= x < Q``), the output residues
    represent ``x + u*Q`` modulo each target limb, where ``0 <= u < len(Q)``.
    Every input coefficient participates in ``len(to_basis)`` scalar
    multiply-accumulates -- the poor-data-reuse pattern Neo rewrites as GEMM.

    When every modulus on both sides is native the whole conversion stays
    on ``uint64``: the scaled residues stack into an ``(Lf, ..., N)`` tensor
    and one lazily-reduced GEMM against the BConv matrix converts it.
    """
    scaled, native = _scaled_residues(limbs, from_basis, to_basis)
    if native:
        return _bconv_approx_native(np.stack(scaled), from_basis, to_basis)
    return _bconv_approx_object(scaled, from_basis, to_basis)


def _scaled_residues(
    limbs: Sequence[np.ndarray], from_basis: RnsBasis, to_basis: RnsBasis
):
    """``y_i = [x_i * q_hat_inv_i]_{q_i}`` plus the native-backend verdict."""
    if len(limbs) != len(from_basis):
        raise ValueError("limb count does not match source basis")
    scaled = [
        modarith.scalar_mul_mod(modarith.asarray_mod(limb, q), q_hat_inv, q)
        for limb, q, q_hat_inv in zip(limbs, from_basis.moduli, from_basis.q_hat_inv)
    ]
    native = all(
        modarith.uses_native_backend(q)
        for q in from_basis.moduli + to_basis.moduli
    ) and all(np.asarray(y).dtype != object for y in scaled)
    return scaled, native


def _bconv_approx_object(
    scaled: List[np.ndarray], from_basis: RnsBasis, to_basis: RnsBasis
) -> List[np.ndarray]:
    """Exact object-dtype fallback for non-native moduli."""
    out: List[np.ndarray] = []
    scaled = [np.asarray(y, dtype=object) for y in scaled]
    for p in to_basis.moduli:
        acc = np.zeros(scaled[0].shape, dtype=object)
        for y, q_hat in zip(scaled, from_basis.q_hat):
            acc = (acc + y * (q_hat % p)) % p
        out.append(modarith.asarray_mod(acc, p))
    return out


def _bconv_approx_native(
    scaled: np.ndarray, from_basis: RnsBasis, to_basis: RnsBasis
) -> List[np.ndarray]:
    """The all-``uint64`` BConv over a stacked ``(Lf, ..., N)`` tensor.

    One lazy-reduced GEMM against the precomputed conversion matrix
    (:meth:`~repro.math.modstack.ModulusStack.bconv_matmul`, the paper's
    Algorithm 2): the exact sum of scaled residues modulo each target.
    """
    weights = _bconv_table(from_basis, to_basis)
    mstack = ModulusStack.for_moduli(to_basis.moduli)
    out = mstack.bconv_matmul(
        scaled, weights, operand_bound=max(from_basis.moduli)
    )
    return list(out)


def bconv_weights(from_basis: RnsBasis, to_basis: RnsBasis) -> np.ndarray:
    """The reduced conversion matrix ``W[j, i] = q_hat_i mod p_j``.

    Shaped ``(len(to), len(from))`` in the target backend's dtype, ready to
    feed :meth:`~repro.math.modstack.ModulusStack.bconv_matmul` (the GEMM
    operand of Algorithm 2).  Native targets reuse the cached uint64 table.
    """
    if all(modarith.uses_native_backend(p) for p in to_basis.moduli):
        return _bconv_table(from_basis, to_basis)
    return np.array(
        [[q_hat % p for q_hat in from_basis.q_hat] for p in to_basis.moduli],
        dtype=object,
    )


def bconv_exact(
    limbs: Sequence[np.ndarray], from_basis: RnsBasis, to_basis: RnsBasis
) -> List[np.ndarray]:
    """Exact base conversion of the value ``x in [0, from_basis.product)``."""
    values = from_basis.compose(limbs)
    return to_basis.decompose(values)


def bconv_matrix(from_basis: RnsBasis, to_basis: RnsBasis) -> np.ndarray:
    """The ``len(from) x len(to)`` matrix ``B[i, j] = q_hat_i mod p_j``.

    This is matrix ``B`` of the paper's Algorithm 2: after the per-limb
    scalar multiplication by ``q_hat_inv_i``, BConv is exactly a GEMM with
    this constant matrix (modulo each output prime).  The exact object
    form is what the Algorithm 1 == Algorithm 2 test multiplies by; the
    functional kernel reads the reduced :func:`bconv_weights` instead, and
    ``bench/layers.py`` attributes this function to ``math.rns`` by name.
    """
    rows = []
    for q_hat in from_basis.q_hat:
        rows.append([q_hat % p for p in to_basis.moduli])
    return np.array(rows, dtype=object)


def overflow_bound(from_basis: RnsBasis) -> int:
    """Upper bound (exclusive) on the ``u`` overflow of :func:`bconv_approx`."""
    return len(from_basis)
