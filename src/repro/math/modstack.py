"""Limb-stacked modular arithmetic over a whole RNS basis at once.

The double-CRT layout stores one residue array per RNS limb; GPU FHE
libraries keep those limbs contiguous in a single ``(num_limbs, N)`` tensor
and run every element-wise kernel across the whole stack in one launch.
:class:`ModulusStack` is the numpy mirror of that idea: per-limb moduli,
Barrett constants and bit-width shifts are materialised as broadcastable
columns so that ``add/sub/neg/mul/scalar_mul`` over an ``(L, ..., N)``
stack are single vectorised expressions -- no Python-level per-limb loop.

When every modulus fits the native ``uint64`` backends the stack dtype is
``uint64``; a single limb at or above ``2**62`` demotes the whole stack to
the exact object backend (the reference oracle path).  A native stack
picks its multiply kernel once, from its moduli: one ``uint64`` product
``(a * b) % q`` when every modulus is below ``2**31`` (the ``fast``
backend's rule), Barrett and Shoup on every limb otherwise.

Every native reduction is one cheap pass.  A conditional subtraction
(``add``, ``sub``, ``neg``, ``reduce128``, Barrett's corrections) wraps
in unsigned arithmetic and keeps the smaller of ``s`` and ``s - q``.  A
``% q`` of a fresh product or sum against the ``(L, 1)`` modulus column
costs one hardware division per element, so on large limbs it runs limb
by limb against the scalar ``q_i`` instead (:data:`_LIMBWISE_MIN_SIZE`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import modarith
from ..telemetry.stats import Cache

_U64 = np.uint64

#: (moduli, backend policy) -> the shared :class:`ModulusStack`.
_MODSTACKS = Cache("modstacks", maxsize=256)

#: Elements per limb from which a ``uint64`` stack is reduced limb by limb,
#: as ``x - (x // q_i) * q_i``.  numpy divides by a scalar through libdivide
#: (``//``) but not in ``%``, and a broadcast ``% q_col`` is one hardware
#: division per element.  Below this size the per-limb loop's dispatch
#: costs more than it saves, so the stack keeps one broadcast ``%``
#: (``boot-n32``'s N=32 limbs).  A fresh ``a * b`` and its reduction, in
#: microseconds, median of 7, 25-bit primes (numpy 2.4, 2-core Xeon VM):
#:
#: ================  ===============  ===============  ============
#: stack             elements / limb  broadcast ``%``  limb by limb
#: ================  ===============  ===============  ============
#: ``(13, 32)``      32               5.8              57.4
#: ``(6, 512)``      512              21.4             39.4
#: ``(6, 1024)``     1024             39.1             44.2
#: ``(13, 32, 32)``  1024             79.6             87.0
#: ``(6, 2048)``     2048             72.8             44.8
#: ``(6, 4096)``     4096             143.8            84.9
#: ``(5, 8192)``     8192             220.0            115.4
#: ``(5, 8, 8192)``  65536            5390.0           1011.2
#: ================  ===============  ===============  ============
_LIMBWISE_MIN_SIZE = 2048


class ModulusStack:
    """Vectorised mod-arithmetic context for an ordered tuple of moduli.

    Arrays handled by a stack have shape ``(L, ..., N)``: leading limb axis,
    then optional batch axes, then the coefficient axis.  All per-limb
    constants broadcast from column vectors ``(L, 1, ..., 1)``.
    """

    def __init__(self, moduli: Sequence[int]):
        self.moduli: Tuple[int, ...] = tuple(int(q) for q in moduli)
        if not self.moduli:
            raise ValueError("a modulus stack needs at least one modulus")
        if any(q <= 1 for q in self.moduli):
            raise ValueError("all moduli must be > 1")
        self.native = all(modarith.uses_native_backend(q) for q in self.moduli)
        #: The multiply kernel, picked once from the moduli.  When every
        #: limb is on the fast backend (``q < 2**31``) the product of two
        #: residues fits one ``uint64`` word, so every multiply is
        #: ``(a * b) % q`` and the stack holds no Barrett or Shoup
        #: constants.  One wider limb puts every limb on Barrett.
        self._direct = self.native and all(
            modarith.uses_fast_backend(q) for q in self.moduli
        )
        self._q = np.array(self.moduli, dtype=self.dtype)
        #: dropped modulus -> its per-limb inverse as a :meth:`_multiplier`.
        self._drop_inverses: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        if self.native and not self._direct:
            bits = [q.bit_length() for q in self.moduli]
            self._s_lo = np.array([k - 1 for k in bits], dtype=_U64)
            self._s_lo_c = np.array([64 - (k - 1) for k in bits], dtype=_U64)
            self._s_hi = np.array([k + 1 for k in bits], dtype=_U64)
            self._s_hi_c = np.array([64 - (k + 1) for k in bits], dtype=_U64)
            self._mu = np.array(
                [(1 << (2 * k)) // q for k, q in zip(bits, self.moduli)],
                dtype=_U64,
            )
        if self.native:
            # Lazy-reduction constant: R = 2**64 mod q_i folds the high
            # word of a 128-bit accumulator.
            self._r64 = self._multiplier([1 << 64] * len(self.moduli))

    @classmethod
    def for_moduli(cls, moduli: Sequence[int]) -> "ModulusStack":
        """The cached stack for `moduli` under the current backend policy."""
        key = (tuple(int(q) for q in moduli), modarith._BARRETT_ENABLED)
        return _MODSTACKS.get_or_build(key, lambda: cls(key[0]))

    @property
    def dtype(self):
        return np.uint64 if self.native else object

    def __len__(self) -> int:
        return len(self.moduli)

    # -- shaping ------------------------------------------------------------

    def _col(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        """Reshape a per-limb ``(L,)`` constant to broadcast over `ndim` axes."""
        return arr.reshape((len(self.moduli),) + (1,) * (ndim - 1))

    @staticmethod
    def _align(a: np.ndarray, b: np.ndarray):
        """Insert batch axes after the limb axis so two stacks broadcast.

        Stacks are ``(L, batch..., N)``; numpy aligns trailing axes, so a
        rank difference means missing *batch* dims, which belong between
        the limb and coefficient axes rather than in front.
        """
        while a.ndim < b.ndim:
            a = np.expand_dims(a, 1)
        while b.ndim < a.ndim:
            b = np.expand_dims(b, 1)
        return a, b

    def q_col(self, ndim: int) -> np.ndarray:
        return self._col(self._q, ndim)

    # -- coercion -----------------------------------------------------------

    def stack_limbs(self, limbs: Sequence[np.ndarray]) -> np.ndarray:
        """Stack per-limb residue arrays into one reduced ``(L, ..., N)`` array."""
        if len(limbs) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} limb arrays, got {len(limbs)}"
            )
        reduced = [
            modarith.asarray_mod(limb, q) for limb, q in zip(limbs, self.moduli)
        ]
        if self.native:
            return np.stack(reduced)
        return np.stack([np.asarray(limb, dtype=object) for limb in reduced])

    def reduce(self, stack: np.ndarray) -> np.ndarray:
        """Reduce an integer stack limb-wise into ``[0, q_i)``."""
        stack = np.asarray(stack)
        if self.native and stack.dtype != object:
            if np.issubdtype(stack.dtype, np.signedinteger):
                q = self._col(self._q.astype(np.int64), stack.ndim)
                return (stack.astype(np.int64, copy=False) % q).astype(_U64)
            return self._reduce_native(stack.astype(_U64, copy=False), fresh=False)
        stack = np.asarray(stack, dtype=object)
        reduced = stack % self._col(self._q, stack.ndim)
        if self.native:
            return reduced.astype(_U64)
        return reduced

    def zeros(self, shape) -> np.ndarray:
        shape = (len(self.moduli),) + tuple(shape)
        if self.native:
            return np.zeros(shape, dtype=_U64)
        out = np.empty(shape, dtype=object)
        out[...] = 0
        return out

    def _reduce_native(self, x: np.ndarray, fresh: bool) -> np.ndarray:
        """``x mod q_i`` for a ``uint64`` stack; overwrites `x` if `fresh`.

        Limbs of at least :data:`_LIMBWISE_MIN_SIZE` elements are reduced
        in place, one limb at a time, as ``x - (x // q_i) * q_i``: three
        cheap passes against the scalar ``q_i`` instead of one division per
        element.  A stack that is not `fresh` (or whose limb axis still
        broadcasts) is copied first.  Smaller limbs take one broadcast
        ``%``, which allocates its result and leaves `x` alone.
        """
        limbs = len(self.moduli)
        if (
            x.ndim < 2
            or x.shape[0] not in (1, limbs)
            or x[0].size < _LIMBWISE_MIN_SIZE
        ):
            return x % self.q_col(x.ndim)
        if not fresh or x.shape[0] != limbs:
            x = np.broadcast_to(x, (limbs,) + x.shape[1:]).copy()
        quot = np.empty(x.shape[1:], dtype=_U64)
        for row, q in zip(x, self._q):
            np.floor_divide(row, q, out=quot)
            quot *= q
            row -= quot
        return x

    # -- element-wise ring operations ---------------------------------------
    #
    # Inputs are reduced, so a sum or difference is off by at most one q.
    # Unsigned arithmetic wraps the wrong candidate past 2**64 - q, so the
    # smaller of the two is the residue: exact for every native q < 2**62.

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._align(a, b)
        q = self._col(self._q, a.ndim)
        if self.native:
            s = a + b
            return np.minimum(s, s - q, out=s)
        return (a + b) % q

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = self._align(a, b)
        q = self._col(self._q, a.ndim)
        if self.native:
            s = a - b
            return np.minimum(s, s + q, out=s)
        return (a - b) % q

    def neg(self, a: np.ndarray) -> np.ndarray:
        q = self._col(self._q, a.ndim)
        if self.native:
            s = q - a
            return np.minimum(s, s - q, out=s)
        return (-a) % q

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product of two reduced stacks.

        One ``uint64`` product per element, reduced by the scalar-divisor
        rule of :meth:`_reduce_native`, when every modulus is on the fast
        backend; Barrett per limb on any other native stack; exact integers
        on an object stack.
        """
        a, b = self._align(a, b)
        if self._direct:
            return self._reduce_native(a * b, fresh=True)
        ndim = a.ndim
        q = self._col(self._q, ndim)
        if not self.native:
            return (a * b) % q
        hi, lo = modarith.mul128(a, b)
        approx = (hi << self._col(self._s_lo_c, ndim)) | (
            lo >> self._col(self._s_lo, ndim)
        )
        q2_hi, q2_lo = modarith.mul128(approx, self._col(self._mu, ndim))
        quot = (q2_hi << self._col(self._s_hi_c, ndim)) | (
            q2_lo >> self._col(self._s_hi, ndim)
        )
        r = lo - quot * q  # < 3q
        np.minimum(r, r - q, out=r)
        return np.minimum(r, r - q, out=r)

    def shoup_mul(
        self, a: np.ndarray, w: np.ndarray, w_shoup: np.ndarray
    ) -> np.ndarray:
        """Product against per-limb constant stacks (native only).

        Shoup's trick on a Barrett stack; a fast-backend stack ignores
        `w_shoup` and takes the direct ``(a * w) % q``.
        """
        a, w = self._align(a, w)
        if self._direct:
            return self._reduce_native(a * w, fresh=True)
        a, w_shoup = self._align(a, w_shoup)
        return modarith.shoup_mul_mod(a, w, w_shoup, self._col(self._q, a.ndim))

    def _multiplier(
        self, scalars: Sequence[int]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-limb constant ``(w, w_shoup)`` for Python-int `scalars`.

        ``w_shoup`` (Shoup's ``floor(w * 2**64 / q)``) exists only on a
        Barrett stack; every other stack multiplies directly.
        """
        w = [int(s) % q for s, q in zip(scalars, self.moduli)]
        w_shoup = None
        if self.native and not self._direct:
            w_shoup = np.array(
                [modarith.shoup_precompute(s, q) for s, q in zip(w, self.moduli)],
                dtype=_U64,
            )
        return np.array(w, dtype=self.dtype), w_shoup

    def _scale_limbs(
        self, a: np.ndarray, w: np.ndarray, w_shoup: Optional[np.ndarray]
    ) -> np.ndarray:
        """Multiply limb ``i`` of `a` by a :meth:`_multiplier` constant."""
        w_col = self._col(w, a.ndim)
        q = self._col(self._q, a.ndim)
        if w_shoup is not None:
            return modarith.shoup_mul_mod(a, w_col, self._col(w_shoup, a.ndim), q)
        if self.native:
            return self._reduce_native(a * w_col, fresh=True)
        return (a * w_col) % q

    def scalar_mul(self, a: np.ndarray, scalars: Sequence[int]) -> np.ndarray:
        """Multiply limb ``i`` by Python-int ``scalars[i]``."""
        if len(scalars) != len(self.moduli):
            raise ValueError("need one scalar per limb")
        return self._scale_limbs(a, *self._multiplier(scalars))

    def broadcast_scalar_mul(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every limb by the same Python integer (reduced per limb)."""
        return self.scalar_mul(a, [scalar] * len(self.moduli))

    # -- lazy-reduction GEMM kernels (Neo Algorithms 2 and 4) -----------------

    def lazy_max_terms(self, operand_bound: int = 0) -> int:
        """How many 128-bit products one lazy accumulator can absorb.

        Each term contributes at most ``hi_max + 1`` to the high word (its
        own high word plus a possible carry out of the low word), so the
        accumulator stays below ``2**64`` for
        ``floor((2**64 - 1) / (hi_max + 1))`` terms -- the slack-bit bound
        that plays the role of Algorithm 4's "valid proportion": it tells
        how far reduction can be deferred before the accumulator would
        wrap.  ``operand_bound`` (exclusive) bounds the *other* factor when
        it is not reduced by this stack's own moduli (BConv inputs arrive
        reduced by the source basis).
        """
        q_max = max(self.moduli)
        other = max(int(operand_bound), q_max)
        hi_max = ((q_max - 1) * (other - 1)) >> 64
        terms = ((1 << 64) - 1) // (hi_max + 1)
        if terms < 1:
            raise ValueError(
                f"no slack bits left for lazy accumulation (q_max={q_max}, "
                f"operand_bound={other}); reduce eagerly instead"
            )
        return terms

    def lazy_slack_bits(self, operand_bound: int = 0) -> int:
        """Bits of headroom per accumulated term (``log2`` of the term cap)."""
        return self.lazy_max_terms(operand_bound).bit_length() - 1

    def reduce128(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Reduce ``hi * 2**64 + lo`` limb-wise into ``[0, q_i)``.

        The single reduction that lazy accumulation defers to: fold the high
        word through ``R = 2**64 mod q`` (Shoup's trick on a Barrett stack),
        add the reduced low word, one conditional subtraction.
        """
        q = self._col(self._q, max(hi.ndim, lo.ndim))
        s = self._scale_limbs(
            self._reduce_native(hi, fresh=False), *self._r64
        ) + self._reduce_native(lo, fresh=False)
        return np.minimum(s, s - q, out=s)

    def lazy_mul_sum(
        self, a: np.ndarray, b: np.ndarray, axis: int, operand_bound: int = 0
    ) -> np.ndarray:
        """``sum_k a[.., k, ..] * b[.., k, ..] mod q_i`` with lazy reduction.

        The multiply-accumulate at the heart of the paper's GEMM kernels
        (Algorithm 4): full 128-bit products from the 32-bit limb splitting
        accumulate as ``(hi, lo)`` word pairs with carry tracking, and each
        accumulator is reduced *once* per :meth:`lazy_max_terms`-sized chunk
        instead of once per term.  `a` and `b` broadcast together as
        ``(L, ..., N)`` stacks; `axis` (>= 1, never the limb axis) is folded.
        The result is bit-identical to eager per-term reduction -- the sum
        is computed exactly modulo each limb.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if axis == 0:
            raise ValueError("cannot fold the limb axis")
        if not self.native or a.dtype == object or b.dtype == object:
            a = np.asarray(a, dtype=object)
            b = np.asarray(b, dtype=object)
            total = (a * b).sum(axis=axis)
            reduced = total % self._col(self._q, total.ndim)
            return reduced.astype(_U64) if self.native else reduced
        shape = np.broadcast_shapes(a.shape, b.shape)
        if shape[0] != len(self.moduli):
            raise ValueError(
                f"expected limb axis of {len(self.moduli)}, got shape {shape}"
            )
        a = np.broadcast_to(a, shape)
        b = np.broadcast_to(b, shape)
        n_terms = shape[axis]
        out_shape = shape[:axis] + shape[axis + 1 :]
        q_max = max(self.moduli)
        other = max(int(operand_bound), q_max)
        prod_max = (q_max - 1) * (other - 1)
        if prod_max <= ((1 << 64) - 1) >> 2:
            # Fast-backend moduli: whole products fit one uint64 word, so
            # the accumulator is a plain sum -- one multiply and one add per
            # term, one ``%`` per chunk (at least 4 terms deep by the bound
            # above).  Bit-identical to the (hi, lo) path: both compute the
            # exact sum modulo each limb.
            chunk = ((1 << 64) - 1) // max(prod_max, 1)
            out = None
            for start in range(0, n_terms, chunk):
                stop = min(start + chunk, n_terms)
                acc = np.zeros(out_shape, dtype=_U64)
                for k in range(start, stop):
                    idx = (slice(None),) * axis + (k,)
                    acc += a[idx] * b[idx]
                part = self._reduce_native(acc, fresh=True)
                out = part if out is None else self.add(out, part)
            if out is None:
                return np.zeros(out_shape, dtype=_U64)
            return out
        chunk = self.lazy_max_terms(operand_bound)
        out = None
        for start in range(0, n_terms, chunk):
            stop = min(start + chunk, n_terms)
            hi_acc = np.zeros(out_shape, dtype=_U64)
            lo_acc = np.zeros(out_shape, dtype=_U64)
            for k in range(start, stop):
                idx = (slice(None),) * axis + (k,)
                hi, lo = modarith.mul128(a[idx], b[idx])
                lo_acc = lo_acc + lo  # wraps mod 2**64
                carry = (lo_acc < lo).astype(_U64)
                hi_acc = hi_acc + hi + carry
            part = self.reduce128(hi_acc, lo_acc)
            out = part if out is None else self.add(out, part)
        if out is None:
            return np.zeros(out_shape, dtype=_U64)
        return out

    def divide_exact_drop(
        self, keep: np.ndarray, tail: np.ndarray, drop_modulus: int
    ) -> np.ndarray:
        """Round-divide by one dropped limb: ``(x - [x]_{q_drop}) / q_drop``.

        The Rescale epilogue over this stack's (kept) moduli: broadcast the
        dropped limb's residues into every kept limb, subtract, multiply by
        the cached inverse of the dropped modulus.  This is exactly the
        stack arithmetic of the evaluator's single-limb Rescale, exposed so
        fused GEMM epilogues (the op-plan compiler's folded rescale) stay
        bit-identical to the standalone operation.
        """
        correction = self.reduce(np.asarray(tail)[None, ...])
        diff = self.sub(keep, correction)
        drop = int(drop_modulus)
        inverse = self._drop_inverses.get(drop)
        if inverse is None:
            inverse = self._multiplier(
                [modarith.inv_mod(drop % q, q) for q in self.moduli]
            )
            self._drop_inverses[drop] = inverse
        return self._scale_limbs(diff, *inverse)

    def bconv_matmul(
        self, scaled: np.ndarray, weights: np.ndarray, operand_bound: int = 0
    ) -> np.ndarray:
        """Base conversion as one batched matmul (the paper's Algorithm 2).

        ``scaled`` holds the per-source-limb scaled residues
        ``y_i = [x_i * q_hat_inv_i]_{q_i}`` laid out as ``(*G, K, *B, N)``
        (optional group axes ``G`` such as the digit index, folded source
        axis ``K``, batch axes ``B``); ``weights`` is the conversion matrix
        ``(L, *G, K)`` with ``W[j, .., i] = q_hat_i mod p_j`` over this
        stack's target moduli.  Returns the ``(L, *G, *B, N)`` output stack
        -- every target limb of every group in one lazy-reduced GEMM.
        """
        w = np.asarray(weights)
        scaled = np.asarray(scaled)
        n_group = w.ndim - 2
        trailing = scaled.ndim - n_group - 1
        if trailing < 1:
            raise ValueError(
                f"scaled shape {scaled.shape} too small for weights {w.shape}"
            )
        w_col = w.reshape(w.shape + (1,) * trailing)
        return self.lazy_mul_sum(
            w_col, scaled[None, ...], axis=1 + n_group, operand_bound=operand_bound
        )
