"""Vectorised modular arithmetic with three interchangeable backends.

FHE word sizes in the Neo paper are 36-60 bits, whose products overflow
``numpy.uint64``.  Three backends are selected per modulus:

* **fast** -- ``numpy.uint64`` arrays for moduli below ``2**31``: every
  product of two reduced residues fits in 64 bits, so plain ``%`` works.
* **barrett** -- ``numpy.uint64`` arrays for moduli in ``[2**31, 2**62)``:
  the 128-bit products are formed with 32-bit limb splitting
  (``mulhi``/``mullo`` decomposition) and reduced branchlessly with Barrett
  reduction; multiplications by precomputed constants (NTT twiddles,
  ``q_hat_inv`` factors) use Shoup's trick instead.  This covers every
  NTT-friendly word size the paper uses (36/48/60-bit limbs, 61-bit
  special primes) without ever touching ``dtype=object``.
* **exact** -- ``dtype=object`` arrays of Python integers, valid for any
  modulus.  Kept as the reference oracle for moduli at or above ``2**62``
  and for the property tests that pin the Barrett backend bit-for-bit.

All functions accept and return numpy arrays and never mutate their inputs.
The :func:`object_backend` context manager forces moduli at or above the
fast bound onto the exact backend -- used by the benchmarks to time the
Barrett backend against the oracle on identical inputs.
"""

from __future__ import annotations

import contextlib
from typing import Tuple

import numpy as np

from ..telemetry.stats import Cache

#: Largest modulus for which the plain ``uint64`` path is safe: residues are
#: below ``2**31`` so products stay below ``2**62`` and sums below ``2**63``.
FAST_MODULUS_BOUND = 1 << 31

#: Largest modulus the Barrett ``uint64`` backend accepts: residues below
#: ``2**62`` keep ``4q`` inside 64 bits (chunked accumulation) and the
#: Barrett correction ``r < 3q`` representable.
BARRETT_MODULUS_BOUND = 1 << 62

#: When False, moduli >= ``FAST_MODULUS_BOUND`` fall back to the object
#: backend (see :func:`object_backend`).
_BARRETT_ENABLED = True

_U64 = np.uint64
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


def mulhi_op32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * b`` when ``a < 2**32`` (``b`` unrestricted).

    With one 32-bit operand the 128-bit product is ``a*b_hi * 2**32 +
    a*b_lo`` with both partials fitting ``uint64``, so the high word needs
    two multiplies instead of four -- the inner-loop win for fast-backend
    moduli (every residue is below ``2**31``).
    """
    lo = (b & _MASK32) * a
    return ((b >> _SHIFT32) * a + (lo >> _SHIFT32)) >> _SHIFT32


# ---------------------------------------------------------------------------
# Barrett reduction (per-modulus constants)
# ---------------------------------------------------------------------------

#: modulus -> (q, k-1, 64-(k-1), k+1, 64-(k+1), mu) as uint64 scalars, where
#: ``k = q.bit_length()`` and ``mu = floor(2**(2k) / q)``.
_BARRETT = Cache("barrett", maxsize=256)


def _barrett_constants(modulus: int) -> Tuple[np.uint64, ...]:
    return _BARRETT.get_or_build(modulus, lambda: _build_barrett_constants(modulus))


def _build_barrett_constants(modulus: int) -> Tuple[np.uint64, ...]:
    k = int(modulus).bit_length()
    mu = (1 << (2 * k)) // modulus
    return (
        np.uint64(modulus),
        np.uint64(k - 1),
        np.uint64(64 - (k - 1)),
        np.uint64(k + 1),
        np.uint64(64 - (k + 1)),
        np.uint64(mu),
    )


def barrett_mul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """``(a * b) mod modulus`` for reduced ``uint64`` inputs, ``q < 2**62``.

    Classic Barrett reduction (HAC 14.42 with ``b = 2``): the quotient
    estimate is off by at most 2, so two conditional subtractions finish
    the reduction -- branchless on a GPU and two ``np.where`` here.
    """
    q, s_lo, s_lo_c, s_hi, s_hi_c, mu = _barrett_constants(modulus)
    hi, lo = mul128(a, b)
    approx = (hi << s_lo_c) | (lo >> s_lo)  # x >> (k-1), fits 64 bits
    q2_hi, q2_lo = mul128(approx, mu)
    quot = (q2_hi << s_hi_c) | (q2_lo >> s_hi)  # estimate of x // q
    r = lo - quot * q  # mod 2**64; true remainder < 3q < 2**64
    r = np.where(r >= q, r - q, r)
    return np.where(r >= q, r - q, r)


def shoup_precompute(w: int, modulus: int) -> int:
    """Shoup constant ``floor(w * 2**64 / q)`` for a fixed multiplicand."""
    return (int(w) << 64) // int(modulus)


def shoup_mul_mod(a: np.ndarray, w, w_shoup, q, operand32: bool = False) -> np.ndarray:
    """``(a * w) mod q`` with per-twiddle precomputation (Shoup's trick).

    ``w`` must be reduced mod ``q`` and ``w_shoup = floor(w * 2**64 / q)``;
    both may be scalars or arrays broadcastable against ``a`` (the NTT
    passes whole twiddle columns).  One ``mulhi`` + two ``mullo`` + one
    conditional subtraction -- cheaper than full Barrett when the
    multiplicand is known in advance.  Pass ``operand32=True`` when every
    element of `a` is below ``2**32`` (fast-backend residues) to use the
    two-multiply :func:`mulhi_op32`.
    """
    quot = mulhi_op32(a, w_shoup) if operand32 else mulhi(a, w_shoup)
    r = a * w - quot * q  # mod 2**64; true remainder < 2q
    return np.where(r >= q, r - q, r)


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
    """Element-wise ``(a * b) mod modulus`` for reduced inputs."""
    if uses_fast_backend(modulus):
        return (_native_operand(a) * _native_operand(b)) % np.uint64(modulus)
    if uses_barrett_backend(modulus):
        return barrett_mul_mod(_native_operand(a), _native_operand(b), modulus)
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

#: How many reduced products can join a ``< q`` accumulator without
#: overflowing 64 bits: ``q + 3 * q <= 4 * (2**62 - 1) < 2**64``.
_ACC_CHUNK = 3


def _native_matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Stacked modular matmul over ``uint64`` without bignum round trips.

    ``a`` is ``(..., m, k)`` and ``b`` ``(..., k, n)`` with broadcastable
    leading axes.  Partial products are reduced (Barrett for wide moduli),
    then accumulated three at a time before folding back under ``q`` --
    the numpy analogue of register-blocked modular accumulation.
    """
    a = _native_operand(a)
    b = _native_operand(b)
    if a.ndim == 1 and b.ndim == 1:
        return _native_matmul_mod(a[None, :], b[:, None], modulus)[0, 0]
    if a.ndim == 1:
        return _native_matmul_mod(a[None, :], b, modulus)[..., 0, :]
    if b.ndim == 1:
        return _native_matmul_mod(a, b[:, None], modulus)[..., 0]
    k_dim = a.shape[-1]
    if b.shape[-2] != k_dim:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
    q = np.uint64(modulus)
    small = modulus < FAST_MODULUS_BOUND
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=np.uint64)
    for start in range(0, k_dim, _ACC_CHUNK):
        stop = min(start + _ACC_CHUNK, k_dim)
        blk_a = a[..., :, start:stop, None]  # (..., m, c, 1)
        blk_b = b[..., None, start:stop, :]  # (..., 1, c, n)
        if small:
            part = blk_a * blk_b  # < 2**62 each
        else:
            part = barrett_mul_mod(blk_a, blk_b, modulus)
        out = (out + part.sum(axis=-2, dtype=np.uint64)) % q
    return out


def dot_mod(matrix: np.ndarray, vector: np.ndarray, modulus: int) -> np.ndarray:
    """Matrix-vector product modulo `modulus` (exact in every backend)."""
    if uses_native_backend(modulus):
        m = np.asarray(matrix)
        v = np.asarray(vector)
        if m.dtype != object and v.dtype != object:
            return _native_matmul_mod(m, v[..., None], modulus)[..., 0]
    return (
        np.asarray(matrix, dtype=object) @ np.asarray(vector, dtype=object)
    ) % modulus


def matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Matrix product ``(a @ b) mod modulus`` computed exactly.

    Wide moduli below ``2**62`` run through the Barrett GEMM; anything
    larger (or object-dtype input) accumulates with exact Python integers.
    Either way the result is exact -- this is the *reference* GEMM against
    which the tensor-core emulations are checked.
    """
    if uses_native_backend(modulus):
        a_arr = np.asarray(a)
        b_arr = np.asarray(b)
        if a_arr.dtype != object and b_arr.dtype != object:
            return _native_matmul_mod(a_arr, b_arr, modulus)
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
