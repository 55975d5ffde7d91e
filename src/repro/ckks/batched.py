"""Batched ciphertexts: many messages through one set of kernel calls.

The paper's execution model processes ``BatchSize`` ciphertexts per kernel
launch (Section 6, Fig. 17).  Functionally, the whole library vectorises
over leading limb axes, so a "batched ciphertext" is simply a
:class:`~repro.ckks.ciphertext.Ciphertext` whose limbs have shape
``(B, N)`` -- every evaluator operation (including key switching) then
processes all ``B`` messages at once.

This module provides the packing/unpacking and the batched encode/encrypt/
decrypt round trip.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..math.polynomial import RnsPolynomial
from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .encryptor import Decryptor, Encryptor


def _stack_polys(polys: Sequence[RnsPolynomial]) -> RnsPolynomial:
    # Insert the batch axis right after the limb axis, keeping the native
    # residue dtype: (L, N) x B -> (L, B, N) in one copy.  The members are
    # reduced already, so the stack is wrapped, not reduced again.
    first = polys[0]
    stack = np.stack([p.stack for p in polys], axis=1)
    return RnsPolynomial._wrap(first.degree, first.basis, stack, first.is_ntt)


def _unstack_poly(poly: RnsPolynomial) -> List[RnsPolynomial]:
    batch = poly.batch_shape
    if len(batch) != 1:
        raise ValueError(f"expected one batch axis, got shape {batch}")
    return [
        RnsPolynomial._wrap(poly.degree, poly.basis, poly.stack[:, i], poly.is_ntt)
        for i in range(batch[0])
    ]


def stack_ciphertexts(cts: Sequence[Ciphertext]) -> Ciphertext:
    """Combine ciphertexts (same level/scale) into one batched ciphertext."""
    if not cts:
        raise ValueError("need at least one ciphertext")
    first = cts[0]
    for ct in cts[1:]:
        if ct.level != first.level:
            raise ValueError("all ciphertexts must share a level")
        if abs(ct.scale - first.scale) > 1e-3 * first.scale:
            raise ValueError("all ciphertexts must share a scale")
        if not ct.is_relinearised or not first.is_relinearised:
            raise ValueError("stacking requires relinearised ciphertexts")
    return Ciphertext(
        _stack_polys([ct.c0 for ct in cts]),
        _stack_polys([ct.c1 for ct in cts]),
        first.scale,
        first.params,
    )


def unstack_ciphertext(ct: Ciphertext) -> List[Ciphertext]:
    """Split a batched ciphertext back into individual ciphertexts."""
    c0s = _unstack_poly(ct.c0)
    c1s = _unstack_poly(ct.c1)
    return [
        Ciphertext(c0, c1, ct.scale, ct.params)
        for c0, c1 in zip(c0s, c1s)
    ]


def encode_batch(
    encoder: CkksEncoder,
    rows: np.ndarray,
    level: Optional[int] = None,
    scale: Optional[float] = None,
) -> List[Plaintext]:
    """Encode a ``(B, slots)`` value matrix into one plaintext per row."""
    rows = np.atleast_2d(np.asarray(rows))
    return [encoder.encode(row, level=level, scale=scale) for row in rows]


def encrypt_batch(
    encryptor: Encryptor,
    encoder: CkksEncoder,
    rows: np.ndarray,
    level: Optional[int] = None,
) -> Ciphertext:
    """Encrypt a ``(B, slots)`` value matrix into one batched ciphertext.

    Each row gets independent encryption randomness before stacking.
    """
    plaintexts = encode_batch(encoder, rows, level=level)
    return stack_ciphertexts([encryptor.encrypt(pt) for pt in plaintexts])


def decrypt_batch(
    decryptor: Decryptor, encoder: CkksEncoder, ct: Ciphertext
) -> np.ndarray:
    """Decrypt a batched ciphertext to a ``(B, slots)`` complex matrix."""
    plaintext = decryptor.decrypt(ct)
    coeffs = plaintext.poly.to_int_coeffs()  # (B, N) centred integers
    if coeffs.ndim == 1:
        return encoder.project(coeffs, plaintext.scale)[None, :]
    rows = [encoder.project(row, plaintext.scale) for row in coeffs]
    return np.stack(rows)


def batch_size(ct: Ciphertext) -> int:
    """Number of messages carried by a (possibly batched) ciphertext."""
    shape = ct.c0.batch_shape
    return int(np.prod(shape)) if shape else 1
