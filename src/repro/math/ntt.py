"""Number-theoretic transforms over NTT-friendly prime fields.

Two functionally equivalent front ends are provided, mirroring the
paper's discussion (Section 4.4):

* :class:`NttPlan` -- the classic iterative negacyclic NTT (Cooley-Tukey
  forward / Gentleman-Sande inverse with merged ``psi`` twisting).  Every
  butterfly stage runs as one vectorised numpy expression over all blocks
  at once; on the native backends the twiddle products use Shoup's trick
  against per-stage precomputed constant columns.  This is the bit-exact
  reference.
* :class:`NttStack` -- the same transform batched across a whole RNS limb
  stack: one call moves an ``(L, ..., N)`` double-CRT tensor between the
  coefficient and evaluation domains.  Its engine follows from the degree
  and the moduli: sub-``2**31`` stacks run as exact float64 GEMMs -- one
  ``N x N`` matmul per limb for small ``N`` (one-step), otherwise
  :class:`GemmSteps`, the paper's multi-step ("ten-step"/radix-16) GEMM
  decomposition with contractions of at most 32 over balanced residues,
  one limb at a time -- and Barrett stacks run the butterfly stages over
  ``(L, N)`` stacked twiddle tables.

Both front ends agree element-for-element; the test-suite asserts it, and
checks every stack engine against :func:`natural_order_negacyclic`, a
dense Vandermonde product on Python integers.

:func:`get_plan` and :func:`get_stack` memoise plans in the bounded LRU
caches ``ntt_plans`` and ``ntt_stacks`` of :mod:`repro.telemetry.stats`;
:func:`repro.telemetry.stats.clear_caches` empties them.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from . import modarith
from ..telemetry.stats import Cache
from .primes import root_of_unity

_U64 = np.uint64


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Indices of the bit-reversal permutation for power-of-two `n`."""
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def is_power_of_two(n: int) -> bool:
    """True when `n` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def _shoup_table(values: np.ndarray, modulus: int) -> np.ndarray:
    """Per-entry Shoup constants ``floor(v * 2**64 / q)`` as ``uint64``."""
    return np.array(
        [modarith.shoup_precompute(int(v), modulus) for v in values.ravel()],
        dtype=_U64,
    ).reshape(values.shape)


class NttPlan:
    """Precomputed tables for the negacyclic NTT of a fixed ``(degree, q)``.

    The transform maps coefficient vectors of ``Z_q[X]/(X^N + 1)`` to their
    evaluations at the odd powers of a primitive ``2N``-th root ``psi``;
    multiplication becomes element-wise in that domain.

    The backend (``uint64`` vs object) is captured at construction time:
    plans built inside :func:`modarith.object_backend` keep exact
    object-dtype tables for their whole lifetime, which is what lets the
    benchmarks race the two backends on identical transforms.
    """

    def __init__(self, degree: int, modulus: int):
        if not is_power_of_two(degree):
            raise ValueError(f"degree must be a power of two, got {degree}")
        if (modulus - 1) % (2 * degree) != 0:
            raise ValueError(f"modulus {modulus} is not NTT-friendly for degree {degree}")
        self.degree = degree
        self.modulus = modulus
        self.native = modarith.uses_native_backend(modulus)
        self.psi = root_of_unity(2 * degree, modulus)
        self.psi_inv = modarith.inv_mod(self.psi, modulus)
        self.degree_inv = modarith.inv_mod(degree, modulus)
        rev = _bit_reverse_permutation(degree)
        powers = self._power_table(self.psi)
        inv_powers = self._power_table(self.psi_inv)
        self._psi_rev = powers[rev]
        self._psi_inv_rev = inv_powers[rev]
        self._steps: dict = {}
        if self.native:
            self._psi_rev_shoup = _shoup_table(self._psi_rev, modulus)
            self._psi_inv_rev_shoup = _shoup_table(self._psi_inv_rev, modulus)
            self._n_inv = _U64(self.degree_inv)
            self._n_inv_shoup = _U64(
                modarith.shoup_precompute(self.degree_inv, modulus)
            )

    def _power_table(self, base: int) -> np.ndarray:
        table = np.empty(self.degree, dtype=object)
        value = 1
        for i in range(self.degree):
            table[i] = value
            value = value * base % self.modulus
        if self.native:
            return table.astype(_U64)
        return table

    def _check_shape(self, arr: np.ndarray):
        if arr.ndim < 1 or arr.shape[-1] != self.degree:
            raise ValueError(
                f"last axis must have length {self.degree}, got shape {arr.shape}"
            )

    # -- butterfly stages ----------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT (Cooley-Tukey; composes with
        :meth:`inverse` to the identity).

        Accepts a single coefficient vector or a *batch*: any array whose
        last axis has length ``degree`` -- each stage processes every block
        of every batch row in one vectorised expression (the paper's
        BatchSize dimension costs no extra Python overhead).
        """
        q = self.modulus
        a = modarith.asarray_mod(coeffs, q)
        self._check_shape(a)
        if self.native and a.dtype != object:
            return self._forward_native(np.ascontiguousarray(a))
        return self._forward_object(a)

    def _forward_native(self, a: np.ndarray) -> np.ndarray:
        """Vectorised CT stages: every block of every batch row at once."""
        lead = a.shape[:-1]
        n = self.degree
        q = _U64(self.modulus)
        m, t = 1, n
        while m < n:
            t //= 2
            blocks = a.reshape(lead + (m, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            w = self._psi_rev[m : 2 * m].reshape((m, 1))
            w_shoup = self._psi_rev_shoup[m : 2 * m].reshape((m, 1))
            v = modarith.shoup_mul_mod(hi, w, w_shoup, q)
            s = lo + v
            d = lo + (q - v)
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = np.where(d >= q, d - q, d)
            m *= 2
        return a

    def _forward_object(self, a: np.ndarray) -> np.ndarray:
        """Reference CT stages on exact Python integers (per-block loop)."""
        q = self.modulus
        t = self.degree
        m = 1
        while m < self.degree:
            t //= 2
            for i in range(m):
                j1 = 2 * i * t
                s = self._psi_rev[m + i]
                lo = a[..., j1 : j1 + t]
                hi = a[..., j1 + t : j1 + 2 * t]
                v = modarith.scalar_mul_mod(hi, int(s), q)
                new_lo = modarith.add_mod(lo, v, q)
                new_hi = modarith.sub_mod(lo, v, q)
                a[..., j1 : j1 + t] = new_lo
                a[..., j1 + t : j1 + 2 * t] = new_hi
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (Gentleman-Sande); batches like
        :meth:`forward`."""
        q = self.modulus
        a = modarith.asarray_mod(values, q)
        self._check_shape(a)
        if self.native and a.dtype != object:
            return self._inverse_native(np.ascontiguousarray(a))
        return self._inverse_object(a)

    def _inverse_native(self, a: np.ndarray) -> np.ndarray:
        """Vectorised GS stages: every block of every batch row at once."""
        lead = a.shape[:-1]
        n = self.degree
        q = _U64(self.modulus)
        t, m = 1, n
        while m > 1:
            h = m // 2
            blocks = a.reshape(lead + (h, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            s = lo + hi
            d = lo + (q - hi)
            diff = np.where(d >= q, d - q, d)
            w = self._psi_inv_rev[h : 2 * h].reshape((h, 1))
            w_shoup = self._psi_inv_rev_shoup[h : 2 * h].reshape((h, 1))
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = modarith.shoup_mul_mod(diff, w, w_shoup, q)
            t *= 2
            m = h
        return modarith.shoup_mul_mod(a, self._n_inv, self._n_inv_shoup, q)

    def _inverse_object(self, a: np.ndarray) -> np.ndarray:
        """Reference GS stages on exact Python integers (per-block loop)."""
        q = self.modulus
        t = 1
        m = self.degree
        while m > 1:
            j1 = 0
            h = m // 2
            for i in range(h):
                s = self._psi_inv_rev[h + i]
                lo = a[..., j1 : j1 + t]
                hi = a[..., j1 + t : j1 + 2 * t]
                total = modarith.add_mod(lo, hi, q)
                scaled_diff = modarith.scalar_mul_mod(
                    modarith.sub_mod(lo, hi, q), int(s), q
                )
                a[..., j1 : j1 + t] = total
                a[..., j1 + t : j1 + 2 * t] = scaled_diff
                j1 += 2 * t
            t *= 2
            m = h
        return modarith.scalar_mul_mod(a, self.degree_inv, q)

    def gemm_steps(self, inverse: bool) -> "GemmSteps":
        """This limb's :class:`GemmSteps` tables, built on first use."""
        if inverse not in self._steps:
            self._steps[inverse] = GemmSteps(self, inverse)
        return self._steps[inverse]


def _pow_table(base: int, length: int, q: int) -> np.ndarray:
    """``base**i mod q`` for ``i < length`` by vectorised doubling."""
    t = np.empty(length, dtype=_U64)
    t[0] = 1
    filled = 1
    while filled < length:
        step = min(filled, length - filled)
        t[filled : filled + step] = t[:step] * _U64(pow(base, filled, q)) % _U64(q)
        filled += step
    return t


def _radix_factors(degree: int) -> tuple:
    """The fewest (at least two) power-of-two factors <= 32 of ``degree``,
    as even as possible, wider ones after the first: ``2**13 -> (16, 32,
    16)``, ``2**14 -> (16, 32, 32)``, ``2**16 -> (16, 16, 16, 16)``."""
    bits = degree.bit_length() - 1
    steps = max(2, -(-bits // 5))
    exps = [bits // steps + (0 < i <= bits % steps) for i in range(steps)]
    return tuple(1 << e for e in exps)


class GemmSteps:
    """One limb's multi-step GEMM NTT in one direction (Neo Section 4.4).

    A limb's ``(R, N)`` rows are viewed as ``(R, n_1, ..., n_s)`` over
    :func:`_radix_factors`.  Forward step ``i`` contracts axis ``i`` with
    an ``n_i x n_i`` DFT matrix (rows bit-reversed), then multiplies by the
    twiddles coupling ``k_i`` to the lower input digits.  The ``psi`` twist
    rides in the first matrix and twiddle; the last twiddle folds into the
    last matrix, one per ``k_{s-1}``.  The inverse runs the transposed
    constants over ``psi**-1`` in reverse order, ``N**-1`` in the first.

    Residues travel as *balanced* float64 values, reduced by :func:`_reduce`
    to ``|r| <= (q-1)/2 + 2`` (exactly ``(q-1)/2`` for the input).  A
    product is exact while the largest row sum of ``|W|`` in its table
    (``max |T|`` for a twiddle) times its input bound stays below ``2**53 -
    4q``.  A limb whose tables all meet that takes one float64 product per
    step; otherwise every constant splits into two balanced planes ``hi
    2**h + lo`` that do, recombined as ``reduce(hi) 2**h + lo``.
    """

    def __init__(self, plan: NttPlan, inverse: bool):
        n, q = plan.degree, plan.modulus
        self.factors = fs = _radix_factors(n)
        self.q = float(q)
        # psi**e for e < 2N: every constant is a power of psi.
        pw = _pow_table(plan.psi_inv if inverse else plan.psi, 2 * n, q)
        ops, below = [], n
        for i, ni in enumerate(fs):
            below //= ni  # span of the lower digits
            k, j = _bit_reverse_permutation(ni), np.arange(below)
            e = np.outer(k, np.arange(ni)) * (2 * n // ni)
            t = np.outer(k, j) * (2 * n // (below * ni))
            if i == 0:  # the psi twist on the input digits
                e, t = e + below * np.arange(ni), t + j
            ops += [("gemm", i, pw[e % (2 * n)]), ("twiddle", i, pw[t % (2 * n)])]
        # The last digit's twiddle is trivial; its matrix absorbs the one
        # before it: G[m][k, j] = A_s[k, j] T_{s-1}[m, j].
        (_, _, tw), (_, _, last), _ = ops[-3:]
        del ops[-3:]
        fold = last[None] * tw[:, None, :] % _U64(q)
        # Each op names the digit its (blocks, digit, rest) view puts in the
        # middle: a fold batches over the digit before the one it contracts.
        if inverse:
            ops[0] = ("gemm", 0, ops[0][2] * _U64(plan.degree_inv) % _U64(q))
            ops = [("fold", len(fs) - 2, fold)] + [
                (kind, i, c.T if kind == "gemm" else c) for kind, i, c in ops[::-1]
            ]
        else:
            ops.append(("fold", len(fs) - 2, fold.transpose(0, 2, 1)))
        h = (q - 1) // 2  # balanced: [0, q) -> [-h, h]
        ops = [(kind, i, ((c.astype(np.int64) + h) % q - h,)) for kind, i, c in ops]
        self.shift = h.bit_length() + 1 >> 1
        self.scale = float(1 << self.shift)
        self.planes = 1
        if not self._exact(ops, q):
            self.planes = 2
            ops = [(kind, i, _split(c, self.shift)) for kind, i, (c,) in ops]
            if not self._exact(ops, q):
                raise ValueError(f"no exact two-plane GEMM NTT for q={q}")
        self.ops = [
            (kind, math.prod(fs[:i]), fs[i],
             tuple(np.ascontiguousarray(p, float) for p in planes))
            for kind, i, planes in ops
        ]

    def _exact(self, ops, q: int) -> bool:
        """Every product's float64 sums stay below ``2**53 - 4q``."""
        limit, bound = (1 << 53) - 4 * q, (q - 1) // 2  # exactly balanced input
        for kind, _, planes in ops:
            axis = {"gemm": -1, "fold": -2}.get(kind)  # a twiddle contracts none
            sums = [
                int((abs(p) if axis is None else abs(p).sum(axis)).max()) * bound
                for p in planes
            ]
            if len(planes) == 2:  # reduce(hi) 2**h + lo
                sums.append(((q - 1) // 2 + 2 << self.shift) + sums[1])
            if max(sums) >= limit:
                return False
            bound = (q - 1) // 2 + 2
        return True

    def run(self, src: np.ndarray, dst: np.ndarray, work: np.ndarray) -> None:
        """Transform one limb's ``(R, N)`` residues `src` into `dst`, using
        four float64 `work` rows of at least ``src.size`` elements."""
        rows = src.shape[0]
        x, y, lo, tmp = (w[: src.size] for w in work)
        np.copyto(x.reshape(src.shape), src, casting="unsafe")
        _reduce(x, self.q, tmp)
        for kind, blocks, digit, planes in self.ops:
            shape = (rows * blocks, digit, -1)
            _product(kind, planes[0], x.reshape(shape), y.reshape(shape))
            if len(planes) == 2:
                _product(kind, planes[1], x.reshape(shape), lo.reshape(shape))
                _reduce(y, self.q, tmp)
                y *= self.scale
                y += lo
            _reduce(y, self.q, tmp)
            x, y = y, x
        # Balanced -> [0, q): add q where the int64 sign bit is set.
        out = dst.view(np.int64)
        np.copyto(out, x.reshape(dst.shape), casting="unsafe")
        neg = tmp.view(np.int64).reshape(dst.shape)
        np.right_shift(out, 63, out=neg)
        neg &= int(self.q)
        out += neg


def _product(kind: str, c: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """One plane of a :class:`GemmSteps` op on the 3-D view `x` into `out`."""
    if kind == "fold":  # one matrix per middle digit, contracting the last
        np.matmul(x.transpose(1, 0, 2), c, out=out.transpose(1, 0, 2))
    elif kind == "gemm":
        np.matmul(c, x, out=out)
    else:
        np.multiply(x, c, out=out)


def _reduce(y: np.ndarray, q: float, tmp: np.ndarray) -> np.ndarray:
    """``y - q rint(y fl(1/q))`` in place.  For ``|y| < 2**53 - 4q`` the
    quotient is within ``2/q`` of ``y/q``, so ``rint`` misses by at most one,
    only at a half: ``|r| <= (q-1)/2 + 2``, and ``k q`` and ``y - k q`` stay
    exact."""
    np.multiply(y, 1.0 / q, out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= q
    y -= tmp
    return y


def _split(c: np.ndarray, shift: int):
    """Balanced planes ``(hi, lo)`` with ``c = hi 2**shift + lo`` and
    ``|lo| <= 2**(shift-1)``."""
    hi = (c + (1 << shift - 1)) >> shift
    return hi, c - (hi << shift)


class NttStack:
    """Batched negacyclic NTT across a whole RNS limb stack.

    Wraps one :class:`NttPlan` per limb and picks one engine for the whole
    ``(L, ..., N)`` double-CRT tensor from the degree and the moduli alone
    (see :attr:`engine`):

    * ``"one-step"`` -- small ``N`` over sub-``2**31`` moduli: the whole
      transform is ONE exact float64 matmul per limb against a constant
      ``N x N`` matrix with the ``psi`` twist and the bit-reversal folded
      in (the multi-step decomposition with a single ``N``-point step).
    * ``"multi-step"`` -- every other sub-``2**31`` stack: the paper's
      multi-step GEMM NTT (Section 4.4) with steps of at most 32, one limb
      at a time through the :class:`GemmSteps` tables its cached
      :class:`NttPlan` builds once per ``(N, q)``; one float64 product per
      step where the tables allow it (25-bit limbs), two balanced constant
      planes otherwise.
    * ``"butterfly"`` -- Barrett moduli (``>= 2**31``), whose residues
      overflow the float64 ``2**53`` bound: stacked ``(L, N)`` twiddle
      tables drive one sequence of vectorised butterfly stages.
    * ``"object"`` -- a limb on the exact object backend: a per-limb loop
      over the underlying plans (the oracle path).

    The GEMM engines run exact float64 BLAS matmuls -- the CPU analogue of
    Neo's tensor-core MMA path -- and are bit-identical to the butterfly
    stages.
    """

    #: Largest degree run as a one-step ``N x N`` matmul.  Above it the
    #: O(N^2) matmul loses to the multi-step split; below it the
    #: multi-step's per-limb loop (~30 numpy calls a limb) costs more than
    #: the whole matmul.  Forward times in microseconds, median of 41
    #: interleaved runs on ``(12, 3, N)`` and ``(12, N)`` stacks of 25-bit
    #: primes (numpy 2.4, one OpenBLAS thread, 2-core Xeon VM):
    #:
    #: ====  ========  ==========  =========  ===============  =================
    #: N     one-step  multi-step  butterfly  one-step (12,N)  multi-step (12,N)
    #: ====  ========  ==========  =========  ===============  =================
    #: 32    34        255         354        23               248
    #: 64    60        302         646        41               276
    #: 128   243       324         1016       154              313
    #: 256   1491      525         2149       786              380
    #: 512   12935     779         4137       3084             611
    #: ====  ========  ==========  =========  ===============  =================
    _ONE_STEP_MAX_DEGREE = 1 << 7

    def __init__(self, degree: int, moduli: Sequence[int]):
        self.degree = degree
        self.moduli = tuple(int(q) for q in moduli)
        self.plans: List[NttPlan] = [get_plan(degree, q) for q in self.moduli]
        self.native = all(plan.native for plan in self.plans)
        self.engine = self._choose_engine()
        self._one_step_consts = None
        if self.native:
            self._q = np.array(self.moduli, dtype=_U64)
            self._psi_rev = np.stack([p._psi_rev for p in self.plans])
            self._psi_rev_shoup = np.stack([p._psi_rev_shoup for p in self.plans])
            self._psi_inv_rev = np.stack([p._psi_inv_rev for p in self.plans])
            self._psi_inv_rev_shoup = np.stack(
                [p._psi_inv_rev_shoup for p in self.plans]
            )
            self._n_inv = np.array([p._n_inv for p in self.plans], dtype=_U64)
            self._n_inv_shoup = np.array(
                [p._n_inv_shoup for p in self.plans], dtype=_U64
            )

    def _choose_engine(self) -> str:
        """The fastest engine whose exactness bound the moduli satisfy."""
        if not self.native:
            return "object"
        if max(self.moduli) >= 2**31:
            return "butterfly"
        n = self.degree
        if (
            n <= self._ONE_STEP_MAX_DEGREE
            and n * ((1 << 16) - 1) * (max(self.moduli) - 1) < 1 << 53
        ):
            return "one-step"
        return "multi-step"

    def _check(self, arr: np.ndarray):
        if arr.ndim < 2 or arr.shape[0] != len(self.moduli):
            raise ValueError(
                f"expected a ({len(self.moduli)}, ..., {self.degree}) stack, "
                f"got shape {arr.shape}"
            )
        if arr.shape[-1] != self.degree:
            raise ValueError(
                f"last axis must have length {self.degree}, got shape {arr.shape}"
            )

    def _cols(self, table: np.ndarray, lo: int, hi: int, ndim: int) -> np.ndarray:
        """Slice stacked per-limb twiddles into a broadcast column block.

        `ndim` is the rank of the blocked view ``(L, batch..., m, t)``; the
        slice lands on the limb and block axes with ones in between.
        """
        L = len(self.moduli)
        return table[:, lo:hi].reshape((L,) + (1,) * (ndim - 3) + (hi - lo, 1))

    def _q_col(self, ndim: int) -> np.ndarray:
        return self._q.reshape((len(self.moduli),) + (1,) * (ndim - 1))

    #: Elements per cache-blocked slab of a batched transform.  Butterfly
    #: stages allocate several working-set-sized temporaries per stage, so
    #: slabs are kept small enough that those temporaries stay cache
    #: resident instead of streaming through memory 2 log2(N) times.
    _BLOCK_ELEMS = 1 << 17

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Forward NTT of every limb of an ``(L, ..., N)`` stack at once."""
        self._check(stack)
        if not self.native or stack.dtype == object:
            return np.stack(
                [plan.forward(limb) for plan, limb in zip(self.plans, stack)]
            )
        if self.engine == "one-step":
            return self._one_step(stack, inverse=False)
        if self.engine == "multi-step":
            return self._multi_step(stack, inverse=False)
        return self._blocked(stack, self._forward_native)

    def _blocked(self, stack: np.ndarray, kernel) -> np.ndarray:
        """Apply `kernel` over cache-sized batch slabs of a big stack."""
        L = len(self.moduli)
        n = self.degree
        batch = int(np.prod(stack.shape[1:-1], dtype=np.int64)) if stack.ndim > 2 else 1
        step = max(1, self._BLOCK_ELEMS // (L * n))
        if batch <= step:
            return kernel(
                stack.copy()
                if stack.flags["C_CONTIGUOUS"]
                else np.ascontiguousarray(stack)
            )
        flat = stack.reshape(L, batch, n)
        out = np.empty((L, batch, n), dtype=_U64)
        for s in range(0, batch, step):
            out[:, s : s + step] = kernel(np.ascontiguousarray(flat[:, s : s + step]))
        return out.reshape(stack.shape)

    # -- one-step GEMM path (the multi-step split with one N-point step) -----

    def _one_step_tables(self):
        """Stacked ``(L, N, N)`` float64 ``R[j, k] = psi**((2 brv(k) + 1) j)``
        plus its broadcast constants.

        Column ``k`` evaluates at the odd power the butterflies leave in
        slot ``k``, so ``x @ R`` is the bit-reversed negacyclic NTT.
        """
        if self._one_step_consts is None:
            n = self.degree
            L = len(self.moduli)
            exps = np.outer(np.arange(n), 2 * _bit_reverse_permutation(n) + 1)
            mat = np.stack(
                [
                    _pow_table(plan.psi, 2 * n, plan.modulus)[exps % (2 * n)]
                    for plan in self.plans
                ]
            ).astype(np.float64)
            self._one_step_consts = (
                mat,
                self._q.reshape(L, 1, 1),
                self._n_inv.reshape(L, 1, 1),
                n * (max(self.moduli) - 1) ** 2 < 1 << 64,
            )
        return self._one_step_consts

    def _one_step(self, stack: np.ndarray, inverse: bool) -> np.ndarray:
        """The whole transform as one exact matmul per limb and data half.

        The data splits into 16-bit halves against the shared float64
        matrix; every contraction stays below ``N * (2**16 - 1) * (q - 1)
        < 2**53``.  Recombined in uint64, the halves give the exact sum
        ``x @ R < N * (q - 1)**2``; while that fits 64 bits a single
        reduction finishes the transform.  The inverse reuses the matrix:
        ``psi**-((2 brv(k) + 1) j) == R[j, N-1-k]``, so it reverses the
        input along the coefficient axis, multiplies by ``R^T`` and scales
        by ``N**-1`` (a product below ``2**62``).
        """
        mat, q, n_inv, fits64 = self._one_step_tables()
        x = stack.reshape(len(self.moduli), -1, self.degree)
        if inverse:
            x = x[..., ::-1]
            mat = mat.transpose(0, 2, 1)
        r = ((x >> _U64(16)).astype(np.float64) @ mat).astype(_U64)
        if not fits64:
            r %= q
        r <<= _U64(16)
        r += ((x & _U64(0xFFFF)).astype(np.float64) @ mat).astype(_U64)
        r %= q
        if inverse:
            r *= n_inv
            r %= q
        return r.reshape(stack.shape)

    # -- multi-step GEMM path (Neo Section 4.4 on float64 BLAS) --------------

    def _multi_step(self, stack: np.ndarray, inverse: bool) -> np.ndarray:
        """Each limb through its plan's :class:`GemmSteps`, one limb at a
        time so the float64 work rows stay cache-sized and shared."""
        x = stack.reshape(len(self.moduli), -1, self.degree)
        out = np.empty(x.shape, dtype=_U64)
        work = np.empty((4, x[0].size))
        for plan, src, dst in zip(self.plans, x, out):
            plan.gemm_steps(inverse).run(src, dst, work)
        return out.reshape(stack.shape)

    def _forward_native(self, a: np.ndarray) -> np.ndarray:
        lead = a.shape[:-1]
        n = self.degree
        q = self._q_col(a.ndim + 1)
        m, t = 1, n
        while m < n:
            t //= 2
            blocks = a.reshape(lead + (m, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            w = self._cols(self._psi_rev, m, 2 * m, blocks.ndim)
            w_shoup = self._cols(self._psi_rev_shoup, m, 2 * m, blocks.ndim)
            v = modarith.shoup_mul_mod(hi, w, w_shoup, q)
            s = lo + v
            d = lo + (q - v)
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = np.where(d >= q, d - q, d)
            m *= 2
        return a

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Inverse NTT of every limb of an ``(L, ..., N)`` stack at once."""
        self._check(stack)
        if not self.native or stack.dtype == object:
            return np.stack(
                [plan.inverse(limb) for plan, limb in zip(self.plans, stack)]
            )
        if self.engine == "one-step":
            return self._one_step(stack, inverse=True)
        if self.engine == "multi-step":
            return self._multi_step(stack, inverse=True)
        return self._blocked(stack, self._inverse_native)

    def _inverse_native(self, a: np.ndarray) -> np.ndarray:
        lead = a.shape[:-1]
        n = self.degree
        q = self._q_col(a.ndim + 1)
        t, m = 1, n
        while m > 1:
            h = m // 2
            blocks = a.reshape(lead + (h, 2 * t))
            lo = blocks[..., :t]
            hi = blocks[..., t:]
            s = lo + hi
            d = lo + (q - hi)
            diff = np.where(d >= q, d - q, d)
            w = self._cols(self._psi_inv_rev, h, 2 * h, blocks.ndim)
            w_shoup = self._cols(self._psi_inv_rev_shoup, h, 2 * h, blocks.ndim)
            blocks[..., :t] = np.where(s >= q, s - q, s)
            blocks[..., t:] = modarith.shoup_mul_mod(diff, w, w_shoup, q)
            t *= 2
            m = h
        L = len(self.moduli)
        col = (L,) + (1,) * (a.ndim - 1)
        return modarith.shoup_mul_mod(
            a,
            self._n_inv.reshape(col),
            self._n_inv_shoup.reshape(col),
            self._q_col(a.ndim),
        )


# ---------------------------------------------------------------------------
# Plan caches
# ---------------------------------------------------------------------------

#: Twiddle tables are a few megabytes at bootstrapping degrees, so a
#: long-lived service cycling through parameter sets keeps a bounded memo.
_PLANS = Cache("ntt_plans", maxsize=256)
_STACKS = Cache("ntt_stacks", maxsize=64)


def get_plan(degree: int, modulus: int) -> NttPlan:
    """Return the cached :class:`NttPlan` for ``(degree, modulus)``.

    The backend policy is part of the key (as in
    :meth:`repro.math.modstack.ModulusStack.for_moduli`), so plans requested
    under :func:`modarith.object_backend` never alias the native ones.
    """
    key = (degree, modulus, modarith._BARRETT_ENABLED)
    return _PLANS.get_or_build(key, lambda: NttPlan(degree, modulus))


def get_stack(degree: int, moduli: Sequence[int]) -> NttStack:
    """Return the cached :class:`NttStack` for ``(degree, moduli)``; keyed
    like :func:`get_plan`."""
    key = (degree, tuple(moduli), modarith._BARRETT_ENABLED)
    return _STACKS.get_or_build(key, lambda: NttStack(degree, key[1]))


def natural_order_negacyclic(plan: NttPlan, coeffs: np.ndarray) -> np.ndarray:
    """Dense negacyclic NTT in natural order: entry ``k`` evaluates `coeffs`
    at ``psi**(2k+1)`` by one Vandermonde product on Python integers.

    The deliberately simple O(N^2) oracle that every :class:`NttStack`
    engine is checked against (``tests/math/test_ntt_stack.py``).
    """
    degree = plan.degree
    modulus = plan.modulus
    points = [pow(plan.psi, 2 * k + 1, modulus) for k in range(degree)]
    vandermonde_rows: List[np.ndarray] = []
    for point in points:
        row = np.empty(degree, dtype=object)
        value = 1
        for i in range(degree):
            row[i] = value
            value = value * point % modulus
        vandermonde_rows.append(row)
    matrix = np.stack(vandermonde_rows)
    return modarith.matmul_mod(
        matrix, modarith.asarray_mod(coeffs, modulus).astype(object).reshape(-1, 1), modulus
    ).reshape(degree)
