"""Negacyclic ring polynomials in RNS (double-CRT) representation.

Elements of ``R_Q = Z_Q[X] / (X^N + 1)`` are stored as ONE contiguous
limb-stacked array of shape ``(num_limbs, ..., N)`` -- the double-CRT
layout every GPU FHE library keeps resident in device memory.  All ring
arithmetic runs through :class:`~repro.math.modstack.ModulusStack` as a
single vectorised expression over the whole stack, and NTT conversions go
through :class:`~repro.math.ntt.NttStack`, so no Python-level per-limb
loop survives on the hot path.  ``poly.limbs`` is retained as a list of
per-limb views for callers that slice the basis (ModUp digits, level
drops, serialization).
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from . import modarith
from .modstack import ModulusStack
from .ntt import get_plan, get_stack, is_power_of_two
from .rns import RnsBasis
from ..telemetry.stats import Cache


def negacyclic_multiply_schoolbook(a, b, degree: int, modulus: int) -> np.ndarray:
    """O(N^2) reference product in ``Z_q[X]/(X^N + 1)``."""
    a = modarith.asarray_mod(a, modulus).astype(object)
    b = modarith.asarray_mod(b, modulus).astype(object)
    out = np.zeros(degree, dtype=object)
    for i in range(degree):
        if a[i] == 0:
            continue
        for j in range(degree):
            k = i + j
            term = a[i] * b[j]
            if k < degree:
                out[k] += term
            else:
                out[k - degree] -= term
    return modarith.asarray_mod(out % modulus, modulus)


def negacyclic_multiply(a, b, degree: int, modulus: int) -> np.ndarray:
    """NTT-based product in ``Z_q[X]/(X^N + 1)``."""
    plan = get_plan(degree, modulus)
    fa = plan.forward(a)
    fb = plan.forward(b)
    return plan.inverse(modarith.mul_mod(fa, fb, modulus))


#: (galois power, degree[, "gather"]) -> the scatter or gather index maps.
_AUTOMORPHISMS = Cache("automorphisms", maxsize=256)


def _automorphism_tables(galois_power: int, degree: int):
    """(destination index, sign) tables of ``X -> X**galois_power``.

    Coefficient ``i`` lands at ``dest[i]`` with sign ``sign[i]`` -- the AUTO
    kernel is a signed permutation, which is why the paper maps it to CUDA
    cores as pure data movement (Fig. 4).
    """
    return _AUTOMORPHISMS.get_or_build(
        (galois_power, degree), lambda: _scatter_tables(galois_power, degree)
    )


def _scatter_tables(galois_power: int, degree: int):
    two_n = 2 * degree
    exponents = (np.arange(degree, dtype=np.int64) * galois_power) % two_n
    wraps = exponents >= degree
    dest = np.where(wraps, exponents - degree, exponents)
    sign = np.where(wraps, -1, 1).astype(np.int64)
    return dest, sign


def automorphism_gather_maps(galois_power: int, degree: int):
    """Gather-form ``(source index, negate mask)`` of ``X -> X**galois_power``.

    The scatter tables of :func:`_automorphism_tables` say coefficient
    ``i`` lands at ``dest[i]`` with ``sign[i]``; the inverse view reads
    ``out[j] = sign[src[j]] * in[src[j]]`` with ``src[dest[i]] = i``.  A
    gather lets k automorphisms of the same limb stack run as ONE fancy
    index with a ``(k, N)`` index matrix -- the op-plan compiler's AUTO
    step -- instead of k scatters.  Bit-identical to the scatter form:
    both move the same residues to the same places with the same signs.
    """
    return _AUTOMORPHISMS.get_or_build(
        (galois_power, degree, "gather"),
        lambda: _gather_maps(galois_power, degree),
    )


def _gather_maps(galois_power: int, degree: int):
    dest, sign = _automorphism_tables(galois_power, degree)
    src = np.empty(degree, dtype=np.int64)
    src[dest] = np.arange(degree, dtype=np.int64)
    negate = sign[src] < 0
    return src, negate


def automorphism(coeffs: np.ndarray, galois_power: int, degree: int, modulus: int) -> np.ndarray:
    """Apply ``X -> X**galois_power`` in coefficient form (AUTO kernel).

    ``galois_power`` must be odd so the map is a ring automorphism of
    ``Z_q[X]/(X^N + 1)``.  HROTATE uses powers ``5**r mod 2N``; conjugation
    uses ``2N - 1``.  Vectorises over leading (batch) axes.
    """
    if galois_power % 2 == 0:
        raise ValueError("Galois power must be odd")
    coeffs = modarith.asarray_mod(coeffs, modulus)
    dest, sign = _automorphism_tables(galois_power, degree)
    signed = np.where(sign < 0, modarith.neg_mod(coeffs, modulus), coeffs)
    out = modarith.zeros_mod(coeffs.shape, modulus)
    out[..., dest] = signed
    return out


class RnsPolynomial:
    """A ring element held as one limb-stacked residue tensor.

    Attributes:
        degree: ring degree ``N``.
        basis: the RNS basis of the limbs.
        is_ntt: True when the limbs are in evaluation (NTT) form.

    The backing store is ``stack``, a ``(num_limbs, ..., N)`` array whose
    dtype is ``uint64`` whenever every basis modulus sits on a native
    backend (all paper word sizes) and ``object`` otherwise.  Leading axes
    between the limb axis and the coefficient axis, when present, are a
    ciphertext batch (the paper's BatchSize dimension) and every operation
    vectorises over them.  ``limbs`` exposes per-limb *views* of the stack
    for basis-surgery callers; the views alias the stack, they do not copy.
    """

    __slots__ = ("degree", "basis", "_stack", "is_ntt")

    def __init__(
        self,
        degree: int,
        basis: RnsBasis,
        limbs: Union[np.ndarray, Sequence[np.ndarray]],
        is_ntt: bool = False,
    ):
        if not is_power_of_two(degree):
            raise ValueError(f"degree must be a power of two, got {degree}")
        self.degree = degree
        self.basis = basis
        mstack = ModulusStack.for_moduli(basis.moduli)
        if isinstance(limbs, np.ndarray) and limbs.ndim >= 2:
            if limbs.shape[0] != len(basis):
                raise ValueError(
                    f"expected {len(basis)} limbs, got {limbs.shape[0]}"
                )
            stack = mstack.reduce(limbs)
        else:
            limbs = list(limbs)
            if len(limbs) != len(basis):
                raise ValueError(f"expected {len(basis)} limbs, got {len(limbs)}")
            shapes = {np.asarray(limb).shape for limb in limbs}
            if len(shapes) != 1:
                raise ValueError(f"limb shapes differ: {sorted(shapes)}")
            stack = mstack.stack_limbs(limbs)
        if stack.shape[-1] != degree:
            raise ValueError(
                f"limb shape {stack.shape[1:]} incompatible with degree {degree}"
            )
        self._stack = stack
        self.is_ntt = is_ntt

    @classmethod
    def _wrap(
        cls, degree: int, basis: RnsBasis, stack: np.ndarray, is_ntt: bool
    ) -> "RnsPolynomial":
        """Internal constructor for already-reduced stacks (no re-reduction)."""
        poly = object.__new__(cls)
        poly.degree = degree
        poly.basis = basis
        poly._stack = stack
        poly.is_ntt = is_ntt
        return poly

    @property
    def stack(self) -> np.ndarray:
        """The backing ``(num_limbs, ..., N)`` residue tensor (do not mutate)."""
        return self._stack

    @property
    def limbs(self) -> List[np.ndarray]:
        """Per-limb views of the stack (row ``i`` is the mod-``q_i`` residue)."""
        return list(self._stack)

    @property
    def batch_shape(self):
        """Leading (batch) axes of the limbs; ``()`` for a single element."""
        return self._stack.shape[1:-1]

    def _mstack(self) -> ModulusStack:
        return ModulusStack.for_moduli(self.basis.moduli)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(
        cls,
        degree: int,
        basis: RnsBasis,
        is_ntt: bool = False,
        batch_shape: tuple = (),
    ) -> "RnsPolynomial":
        mstack = ModulusStack.for_moduli(basis.moduli)
        stack = mstack.zeros(tuple(batch_shape) + (degree,))
        return cls._wrap(degree, basis, stack, is_ntt)

    @classmethod
    def from_int_coeffs(cls, coeffs, degree: int, basis: RnsBasis) -> "RnsPolynomial":
        """Build from (possibly signed) integer coefficients.

        :meth:`RnsBasis.decompose` already reduces every limb, so the stack
        is wrapped as is instead of being reduced a second time.
        """
        arr = np.asarray(coeffs)
        if arr.shape[-1] != degree:
            raise ValueError(
                f"coefficient shape {arr.shape} incompatible with degree {degree}"
            )
        return cls._wrap(degree, basis, np.stack(basis.decompose(arr)), False)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial._wrap(
            self.degree, self.basis, self._stack.copy(), self.is_ntt
        )

    # -- representation changes ---------------------------------------------

    def to_ntt(self) -> "RnsPolynomial":
        if self.is_ntt:
            return self
        transformed = get_stack(self.degree, self.basis.moduli).forward(self._stack)
        return RnsPolynomial._wrap(self.degree, self.basis, transformed, is_ntt=True)

    def from_ntt(self) -> "RnsPolynomial":
        if not self.is_ntt:
            return self
        transformed = get_stack(self.degree, self.basis.moduli).inverse(self._stack)
        return RnsPolynomial._wrap(self.degree, self.basis, transformed, is_ntt=False)

    def to_int_coeffs(self) -> np.ndarray:
        """CRT-recompose to centred integer coefficients (coefficient form)."""
        poly = self.from_ntt()
        return poly.basis.compose_signed(poly.limbs)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial"):
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("operands live in different rings")
        if self.is_ntt != other.is_ntt:
            raise ValueError("operands are in different domains (NTT vs coeff)")

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        stack = self._mstack().add(self._stack, other._stack)
        return RnsPolynomial._wrap(self.degree, self.basis, stack, self.is_ntt)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        stack = self._mstack().sub(self._stack, other._stack)
        return RnsPolynomial._wrap(self.degree, self.basis, stack, self.is_ntt)

    def negate(self) -> "RnsPolynomial":
        stack = self._mstack().neg(self._stack)
        return RnsPolynomial._wrap(self.degree, self.basis, stack, self.is_ntt)

    def multiply(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Ring product; converts to NTT form if necessary (ModMUL kernel)."""
        if self.is_ntt and other.is_ntt:
            self._check_compatible(other)
            stack = self._mstack().mul(self._stack, other._stack)
            return RnsPolynomial._wrap(self.degree, self.basis, stack, True)
        return self.to_ntt().multiply(other.to_ntt())

    def multiply_scalar(self, scalar: int) -> "RnsPolynomial":
        """Multiply by a Python integer (reduced per limb)."""
        stack = self._mstack().broadcast_scalar_mul(self._stack, scalar)
        return RnsPolynomial._wrap(self.degree, self.basis, stack, self.is_ntt)

    def multiply_scalar_per_limb(self, scalars: Sequence[int]) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (used by Rescale/ModDown)."""
        stack = self._mstack().scalar_mul(self._stack, list(scalars))
        return RnsPolynomial._wrap(self.degree, self.basis, stack, self.is_ntt)

    def automorphism(self, galois_power: int) -> "RnsPolynomial":
        """Apply ``X -> X**galois_power`` (requires coefficient form).

        One signed permutation moves the whole limb stack: the (dest, sign)
        tables depend only on ``(galois_power, N)``, so every limb and batch
        row rides the same fancy-index scatter.
        """
        if galois_power % 2 == 0:
            raise ValueError("Galois power must be odd")
        poly = self.from_ntt()
        dest, sign = _automorphism_tables(galois_power, self.degree)
        source = poly._stack
        signed = np.where(sign < 0, poly._mstack().neg(source), source)
        out = np.empty_like(source)
        out[..., dest] = signed
        return RnsPolynomial._wrap(self.degree, self.basis, out, is_ntt=False)

    # -- basis surgery --------------------------------------------------------

    def keep_limbs(self, count: int) -> "RnsPolynomial":
        """Restrict to the first `count` limbs (level drop)."""
        if not 0 < count <= len(self.basis):
            raise ValueError(f"cannot keep {count} of {len(self.basis)} limbs")
        return RnsPolynomial._wrap(
            self.degree,
            self.basis.subbasis(0, count),
            self._stack[:count],
            self.is_ntt,
        )

    def __repr__(self) -> str:
        domain = "ntt" if self.is_ntt else "coeff"
        return (
            f"RnsPolynomial(N={self.degree}, limbs={len(self.basis)}, {domain})"
        )
