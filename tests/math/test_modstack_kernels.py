"""Property tests: every ModulusStack multiply kernel against Python ints.

A stack whose moduli are all on the fast backend (below ``2**31``)
multiplies with one ``uint64`` product per element, ``(a * b) % q``; one
wider limb puts the whole stack on Barrett.  ``repro.ckks.reference`` runs
on these same kernels, so it cannot catch a wrong product: the oracle here
is exact Python-int arithmetic, element by element, at 25-bit, 28-bit and
the largest sub-``2**31`` NTT primes, with random and all-``(q-1)``
operands.  A mixed fast/Barrett stack must also equal each limb computed on
its own single-modulus stack.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.math import modarith
from repro.math.modstack import ModulusStack
from repro.math.primes import ntt_primes
from repro.math.rns import RnsBasis, bconv_weights

Q25 = tuple(ntt_primes(25, 64, 3))
Q28 = tuple(ntt_primes(28, 64, 3))
Q31 = tuple(ntt_primes(31, 64, 3))  # the largest NTT primes below 2**31
Q36 = tuple(ntt_primes(36, 64, 2))
MIXED = (Q31[0], Q36[0], Q25[0])
STACKS = {"q25": Q25, "q28": Q28, "q31": Q31, "mixed": MIXED}
#: Dropped moduli for the rescale epilogue: one prime, and the product of
#: two (a double rescale), which exceeds 2**31 and arrives as object ints.
DROPS = (ntt_primes(29, 64, 1)[0], Q36[1])

WIDTH = 5

stacks = st.sampled_from(sorted(STACKS))
seeds = st.integers(0, 2**32)


def _operand(moduli, shape, seed, extreme):
    """Reduced ``(L, *shape)`` residues: uniform, or every entry ``q - 1``."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            np.full(shape, q - 1, dtype=np.uint64)
            if extreme
            else rng.integers(0, q, size=shape, dtype=np.uint64)
            for q in moduli
        ]
    )


def _ints(arr):
    return [[int(v) for v in row] for row in np.asarray(arr).reshape(len(arr), -1)]


def _check_limbwise(moduli, got, expected_limb):
    """`got` equals the Python-int oracle limb by limb."""
    assert got.dtype == np.uint64
    for i, (row, q) in enumerate(zip(_ints(got), moduli)):
        assert row == expected_limb(i, q)


def test_kernel_decision_follows_the_fast_backend():
    for name, moduli in STACKS.items():
        stack = ModulusStack(moduli)
        fast = all(modarith.uses_fast_backend(q) for q in moduli)
        assert stack._direct is fast, name
        # A fast-backend stack holds no Barrett or Shoup constants.
        assert hasattr(stack, "_mu") is not fast
        assert (stack._r64[1] is None) is fast


@settings(max_examples=40, deadline=None)
@given(stacks, seeds, st.booleans())
def test_mul_matches_python_ints(name, seed, extreme):
    moduli = STACKS[name]
    a = _operand(moduli, (WIDTH,), seed, extreme)
    b = _operand(moduli, (WIDTH,), seed + 1, extreme)
    got = ModulusStack(moduli).mul(a, b)
    _check_limbwise(
        moduli,
        got,
        lambda i, q: [x * y % q for x, y in zip(_ints(a)[i], _ints(b)[i])],
    )


@settings(max_examples=40, deadline=None)
@given(
    stacks,
    seeds,
    st.booleans(),
    st.lists(st.integers(-(2**70), 2**70), min_size=3, max_size=3),
)
def test_scalar_mul_matches_python_ints(name, seed, extreme, scalars):
    moduli = STACKS[name]
    a = _operand(moduli, (2, WIDTH), seed, extreme)
    if extreme:
        scalars = [q - 1 for q in moduli]
    got = ModulusStack(moduli).scalar_mul(a, scalars)
    assert got.shape == a.shape
    _check_limbwise(
        moduli, got, lambda i, q: [x * scalars[i] % q for x in _ints(a)[i]]
    )


@settings(max_examples=40, deadline=None)
@given(stacks, seeds, st.booleans())
def test_shoup_mul_matches_python_ints(name, seed, extreme):
    moduli = STACKS[name]
    a = _operand(moduli, (WIDTH,), seed, extreme)
    w = _operand(moduli, (WIDTH,), seed + 1, extreme)
    w_shoup = np.array(
        [
            [modarith.shoup_precompute(int(v), q) for v in row]
            for row, q in zip(w, moduli)
        ],
        dtype=np.uint64,
    )
    got = ModulusStack(moduli).shoup_mul(a, w, w_shoup)
    _check_limbwise(
        moduli,
        got,
        lambda i, q: [x * y % q for x, y in zip(_ints(a)[i], _ints(w)[i])],
    )


@settings(max_examples=30, deadline=None)
@given(stacks, seeds, st.booleans())
def test_divide_exact_drop_matches_python_ints(name, seed, extreme):
    """``(x - [x]_p) / p mod q_i`` for an integer ``x`` given by residues."""
    moduli = STACKS[name]
    stack = ModulusStack.for_moduli(moduli)
    gen = random.Random(seed)
    # Two different dropped moduli, the first twice: the second call on a
    # shared stack takes its inverse from the stack, not a fresh one.
    for drop in (DROPS[0], DROPS[0] * DROPS[1], DROPS[0]):
        bound = drop
        for q in moduli:
            bound *= q
        xs = [bound - 1 if extreme else gen.randrange(bound) for _ in range(WIDTH)]
        keep = np.array([[x % q for x in xs] for q in moduli], dtype=np.uint64)
        tail = np.array([x % drop for x in xs], dtype=object)
        got = stack.divide_exact_drop(keep, tail, drop)
        _check_limbwise(
            moduli, got, lambda i, q: [(x - x % drop) // drop % q for x in xs]
        )


@settings(max_examples=30, deadline=None)
@given(stacks, seeds, st.booleans(), st.integers(1, 40))
def test_lazy_mul_sum_matches_python_ints(name, seed, extreme, n_terms):
    moduli = STACKS[name]
    a = _operand(moduli, (n_terms, WIDTH), seed, extreme)
    b = _operand(moduli, (n_terms, WIDTH), seed + 1, extreme)
    got = ModulusStack(moduli).lazy_mul_sum(a, b, axis=1)

    def expected(i, q):
        return [
            sum(int(a[i, k, c]) * int(b[i, k, c]) for k in range(n_terms)) % q
            for c in range(WIDTH)
        ]

    _check_limbwise(moduli, got, expected)


@settings(max_examples=30, deadline=None)
@given(
    stacks,
    st.sampled_from([Q25, Q28 + Q31, Q36 + Q25]),
    seeds,
    st.booleans(),
)
def test_bconv_matmul_matches_python_ints(name, source, seed, extreme):
    """Fast and Barrett source bases (the latter through the 128-bit
    accumulator and ``reduce128``) into every target stack."""
    moduli = STACKS[name]
    from_basis = RnsBasis(source)
    to_basis = RnsBasis(moduli)
    scaled = _operand(source, (WIDTH,), seed, extreme)
    weights = bconv_weights(from_basis, to_basis)
    got = ModulusStack(moduli).bconv_matmul(
        scaled, weights, operand_bound=max(source)
    )

    def expected(j, p):
        return [
            sum(
                int(scaled[i, c]) * int(weights[j, i]) for i in range(len(source))
            )
            % p
            for c in range(WIDTH)
        ]

    _check_limbwise(moduli, got, expected)


@pytest.mark.parametrize("seed", range(3))
def test_mixed_stack_equals_each_limb_alone(seed):
    """Barrett on every limb of a mixed stack equals each limb's own kernel."""
    stack = ModulusStack(MIXED)
    assert not stack._direct
    a = _operand(MIXED, (2, WIDTH), seed, extreme=False)
    b = _operand(MIXED, (2, WIDTH), seed + 7, extreme=False)
    scalars = [3**40 + seed, -(5**30), 2**64 + 1]
    drop = DROPS[0]
    together = {
        "mul": stack.mul(a, b),
        "scalar_mul": stack.scalar_mul(a, scalars),
        "divide_exact_drop": stack.divide_exact_drop(a, b[0] % drop, drop),
        "lazy_mul_sum": stack.lazy_mul_sum(a, b, axis=1),
    }
    for i, q in enumerate(MIXED):
        alone = ModulusStack([q])
        assert alone._direct is modarith.uses_fast_backend(q)
        limb = {
            "mul": alone.mul(a[i : i + 1], b[i : i + 1]),
            "scalar_mul": alone.scalar_mul(a[i : i + 1], [scalars[i]]),
            "divide_exact_drop": alone.divide_exact_drop(
                a[i : i + 1], b[0] % drop, drop
            ),
            "lazy_mul_sum": alone.lazy_mul_sum(a[i : i + 1], b[i : i + 1], axis=1),
        }
        for kernel, out in together.items():
            assert np.array_equal(out[i], limb[kernel][0]), (kernel, q)
