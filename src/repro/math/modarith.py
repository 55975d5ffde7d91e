"""Vectorised modular arithmetic with three interchangeable backends.

FHE word sizes in the Neo paper are 36-60 bits, whose products overflow
``numpy.uint64``.  Three backends are selected per modulus:

* **fast** -- ``numpy.uint64`` arrays for moduli below ``2**31``: every
  product of two reduced residues fits in 64 bits, so plain ``%`` works.
* **barrett** -- ``numpy.uint64`` arrays for moduli in ``[2**31, 2**62)``:
  the 128-bit products are formed with 32-bit limb splitting
  (:func:`mul128`, the ``mulhi``/``mullo`` decomposition) and reduced
  branchlessly with Barrett reduction; multiplications by precomputed
  constants (NTT twiddles, ``q_hat_inv`` factors) use Shoup's trick
  (:func:`shoup_mul_mod`).  This covers every NTT-friendly word size the
  paper uses (36/48/60-bit limbs, 61-bit special primes) without ever
  touching ``dtype=object``.  The Barrett multiply itself exists once, in
  :meth:`~repro.math.modstack.ModulusStack.mul`; :func:`mul_mod` runs it
  on a one-limb stack.
* **exact** -- ``dtype=object`` arrays of Python integers, valid for any
  modulus.  Kept as the reference oracle for moduli at or above ``2**62``
  and for the property tests that pin the Barrett backend bit-for-bit.

All functions accept and return numpy arrays and never mutate their inputs.
:func:`matmul_mod` and :func:`dot_mod` are the exact reference GEMM: they
multiply on Python integers for every modulus.  The :func:`object_backend`
context manager forces moduli at or above the fast bound onto the exact
backend -- used by the benchmarks to time the Barrett backend against the
oracle on identical inputs.
"""

from __future__ import annotations

import contextlib
from typing import Tuple

import numpy as np

#: Largest modulus for which the plain ``uint64`` path is safe: residues are
#: below ``2**31`` so products stay below ``2**62`` and sums below ``2**63``.
FAST_MODULUS_BOUND = 1 << 31

#: Largest modulus the Barrett ``uint64`` backend accepts: residues below
#: ``2**62`` keep the Barrett correction ``r < 3q`` representable.
BARRETT_MODULUS_BOUND = 1 << 62

#: When False, moduli >= ``FAST_MODULUS_BOUND`` fall back to the object
#: backend (see :func:`object_backend`).
_BARRETT_ENABLED = True

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


def uses_fast_backend(modulus: int) -> bool:
    """True when `modulus` qualifies for the plain ``uint64`` backend."""
    return 1 < modulus < FAST_MODULUS_BOUND


def uses_barrett_backend(modulus: int) -> bool:
    """True when `modulus` is served by the Barrett ``uint64`` backend."""
    return (
        _BARRETT_ENABLED
        and FAST_MODULUS_BOUND <= modulus < BARRETT_MODULUS_BOUND
    )


def uses_native_backend(modulus: int) -> bool:
    """True when residues mod `modulus` are stored as ``uint64`` (not object)."""
    return uses_fast_backend(modulus) or uses_barrett_backend(modulus)


def backend_kind(modulus: int) -> str:
    """``"fast"``, ``"barrett"`` or ``"object"`` for `modulus`."""
    if uses_fast_backend(modulus):
        return "fast"
    if uses_barrett_backend(modulus):
        return "barrett"
    return "object"


def backend_dtype(modulus: int):
    """Return the numpy dtype used to store residues modulo `modulus`."""
    return np.uint64 if uses_native_backend(modulus) else object


@contextlib.contextmanager
def object_backend():
    """Force every modulus >= ``2**31`` onto the exact object backend.

    Only the benchmarks and oracle-comparison tests should use this; plans
    and arrays built inside the context keep their object representation
    after it exits (:func:`backend_kind` is consulted at build time).
    """
    global _BARRETT_ENABLED
    previous = _BARRETT_ENABLED
    _BARRETT_ENABLED = False
    try:
        yield
    finally:
        _BARRETT_ENABLED = previous


# ---------------------------------------------------------------------------
# 64x64 -> 128-bit products via 32-bit limb splitting
# ---------------------------------------------------------------------------


def mul128(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of ``uint64`` arrays as ``(hi, lo)`` words.

    This is the numpy spelling of the ``mulhi``/``mullo`` pair every GPU
    modular-arithmetic kernel is built from: each operand splits into two
    32-bit limbs and the four partial products recombine with carries.
    """
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    hh = a_hi * b_hi
    # Carry column: bits 32..63 of the true product (fits: < 3 * 2**32).
    mid = (ll >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
    lo = (ll & _MASK32) | ((mid & _MASK32) << _SHIFT32)
    hi = hh + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product (``mulhi.u64``)."""
    return mul128(a, b)[0]


def shoup_precompute(w: int, modulus: int) -> int:
    """Shoup constant ``floor(w * 2**64 / q)`` for a fixed multiplicand."""
    return (int(w) << 64) // int(modulus)


def shoup_mul_mod(a: np.ndarray, w, w_shoup, q) -> np.ndarray:
    """``(a * w) mod q`` with per-twiddle precomputation (Shoup's trick).

    ``w`` must be reduced mod ``q`` and ``w_shoup = floor(w * 2**64 / q)``;
    both may be scalars or arrays broadcastable against ``a`` (the NTT
    passes whole twiddle columns).  One ``mulhi`` + two ``mullo`` + one
    conditional subtraction -- cheaper than full Barrett when the
    multiplicand is known in advance.  The subtraction wraps below zero,
    so the smaller of ``r`` and ``r - q`` is the residue.
    """
    quot = mulhi(a, w_shoup)
    r = a * w - quot * q  # mod 2**64; true remainder < 2q
    return np.minimum(r, r - q)


# ---------------------------------------------------------------------------
# Coercion helpers
# ---------------------------------------------------------------------------


def asarray_mod(values, modulus: int) -> np.ndarray:
    """Coerce `values` into a reduced residue array for `modulus`.

    Negative inputs are mapped into ``[0, modulus)``.  Integer numpy arrays
    headed for a ``uint64`` backend reduce natively -- no round trip through
    ``dtype=object`` on the hot coercion path.
    """
    if modulus <= 1:
        raise ValueError(f"modulus must be > 1, got {modulus}")
    arr = np.asarray(values)
    if uses_native_backend(modulus) and arr.dtype != object:
        if arr.dtype == np.uint64:
            return arr % np.uint64(modulus)
        if np.issubdtype(arr.dtype, np.signedinteger):
            # q < 2**62 fits int64; numpy's % returns non-negative residues.
            return (arr.astype(np.int64, copy=False) % np.int64(modulus)).astype(
                np.uint64
            )
        if np.issubdtype(arr.dtype, np.unsignedinteger) or arr.dtype == np.bool_:
            return arr.astype(np.uint64) % np.uint64(modulus)
    arr = np.asarray(values, dtype=object)
    reduced = np.mod(arr, modulus)
    if uses_native_backend(modulus):
        return reduced.astype(np.uint64)
    return reduced


def zeros_mod(shape, modulus: int) -> np.ndarray:
    """Return an all-zero residue array of the backend dtype for `modulus`."""
    if uses_native_backend(modulus):
        return np.zeros(shape, dtype=np.uint64)
    zero_filled = np.empty(shape, dtype=object)
    zero_filled[...] = 0
    return zero_filled


def _native_operand(a) -> np.ndarray:
    """View an already-reduced operand as ``uint64`` without copying."""
    arr = np.asarray(a)
    if arr.dtype == np.uint64:
        return arr
    if arr.dtype == object:
        return arr.astype(np.uint64)
    return arr.astype(np.uint64, copy=False)


# ---------------------------------------------------------------------------
# Element-wise ring operations
# ---------------------------------------------------------------------------


def add_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Element-wise ``(a + b) mod modulus`` for reduced inputs."""
    if uses_native_backend(modulus):
        q = np.uint64(modulus)
        s = _native_operand(a) + _native_operand(b)  # < 2**63, no overflow
        return np.where(s >= q, s - q, s)
    return (a + b) % modulus


def sub_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Element-wise ``(a - b) mod modulus`` for reduced inputs."""
    if uses_native_backend(modulus):
        q = np.uint64(modulus)
        s = _native_operand(a) + (q - _native_operand(b))
        return np.where(s >= q, s - q, s)
    return (a - b) % modulus


def neg_mod(a: np.ndarray, modulus: int) -> np.ndarray:
    """Element-wise ``(-a) mod modulus`` for reduced inputs."""
    if uses_native_backend(modulus):
        a = _native_operand(a)
        return np.where(a == 0, a, np.uint64(modulus) - a)
    return (-a) % modulus


def mul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Element-wise ``(a * b) mod modulus`` for reduced inputs.

    A native modulus runs the one-limb stack's multiply: one ``uint64``
    product below ``2**31``, Barrett above.
    """
    if uses_native_backend(modulus):
        from .modstack import ModulusStack  # modstack imports this module

        a, b = np.broadcast_arrays(_native_operand(a), _native_operand(b))
        return ModulusStack.for_moduli((modulus,)).mul(a, b).reshape(a.shape)
    return (a * b) % modulus


def scalar_mul_mod(a: np.ndarray, scalar: int, modulus: int) -> np.ndarray:
    """Element-wise ``(a * scalar) mod modulus`` with a Python-int scalar."""
    scalar = int(scalar) % modulus
    if uses_fast_backend(modulus):
        return (_native_operand(a) * np.uint64(scalar)) % np.uint64(modulus)
    if uses_barrett_backend(modulus):
        return shoup_mul_mod(
            _native_operand(a),
            np.uint64(scalar),
            np.uint64(shoup_precompute(scalar, modulus)),
            np.uint64(modulus),
        )
    return (a * scalar) % modulus


# ---------------------------------------------------------------------------
# Modular GEMM / GEMV
# ---------------------------------------------------------------------------


def dot_mod(matrix: np.ndarray, vector: np.ndarray, modulus: int) -> np.ndarray:
    """Matrix-vector product modulo `modulus` (exact, see :func:`matmul_mod`).

    `vector` may carry leading batch axes: ``(..., k)`` against ``(m, k)``.
    """
    return matmul_mod(matrix, np.asarray(vector)[..., None], modulus)[..., 0]


def matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Matrix product ``(a @ b) mod modulus`` computed exactly.

    Every modulus accumulates on exact Python integers, and a native
    modulus casts the reduced result back to ``uint64``.  This is the
    *reference* GEMM against which the tensor-core emulations and the NTT
    engines are checked (:func:`~repro.gpu.tensorcore.reference_gemm_mod`,
    :func:`~repro.math.ntt.natural_order_negacyclic`); ``bench/layers.py``
    attributes its time to ``math.modarith`` by name.
    """
    product = np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)
    reduced = product % modulus
    if uses_native_backend(modulus):
        return reduced.astype(np.uint64)
    return reduced


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def pow_mod(base: int, exponent: int, modulus: int) -> int:
    """Scalar modular exponentiation (thin wrapper over ``pow``)."""
    return pow(int(base), int(exponent), int(modulus))


def inv_mod(value: int, modulus: int) -> int:
    """Scalar modular inverse; raises ``ValueError`` if not invertible."""
    try:
        return pow(int(value), -1, int(modulus))
    except ValueError as exc:
        raise ValueError(f"{value} has no inverse modulo {modulus}") from exc


def to_signed(values: np.ndarray, modulus: int) -> np.ndarray:
    """Map residues into the centred interval ``(-modulus/2, modulus/2]``."""
    arr = np.asarray(values, dtype=object)
    half = modulus // 2
    return np.where(arr > half, arr - modulus, arr)


def from_signed(values, modulus: int) -> np.ndarray:
    """Inverse of :func:`to_signed`: map centred values back to residues."""
    return asarray_mod(values, modulus)
