"""Both reduction branches of ModulusStack, and its wrap-and-min add/sub/neg.

``test_modstack_kernels.py`` runs every kernel on 5-element rows, which
take the broadcast ``%``.  Rows of at least ``_LIMBWISE_MIN_SIZE``
elements reduce limb by limb against the scalar modulus instead; here every
kernel that reduces a fresh product or sum runs on such rows, with random
and all-``(q-1)`` operands from the suite ``rng``, against Python ints.
``add``, ``sub`` and ``neg`` keep the smaller of two wrapped candidates, so
they are checked at ``0`` and ``q-1`` on every stack and on a modulus just
below the ``2**62`` native bound.
"""

import itertools

import numpy as np
import pytest

from repro.math import modarith
from repro.math.modstack import _LIMBWISE_MIN_SIZE, ModulusStack
from repro.math.primes import ntt_primes
from repro.math.rns import RnsBasis, bconv_weights

from .test_modstack_kernels import DROPS, Q25, Q28, Q31, Q36, STACKS, _ints

#: The largest NTT primes below the Barrett backend's ``2**62`` bound.
Q62 = tuple(ntt_primes(62, 64, 2))
EDGE_STACKS = dict(STACKS, q62=Q62, q62_q25=(Q62[0], Q25[0]))

#: Limb rows at the crossover, one with a batch axis.
LARGE = [(_LIMBWISE_MIN_SIZE,), (2, _LIMBWISE_MIN_SIZE // 2)]

cases = pytest.mark.parametrize(
    "name,shape,extreme",
    [
        (name, shape, extreme)
        for name in sorted(STACKS)
        for shape in LARGE
        for extreme in (False, True)
    ],
)


def _operand(rng, moduli, shape, extreme):
    """Reduced ``(L, *shape)`` residues: uniform, or every entry ``q - 1``."""
    return np.stack(
        [
            np.full(shape, q - 1, dtype=np.uint64)
            if extreme
            else rng.integers(0, q, size=shape, dtype=np.uint64)
            for q in moduli
        ]
    )


def _check(moduli, got, expected_limb):
    assert got.dtype == np.uint64
    rows = _ints(got)
    assert len(rows) == len(moduli)
    for i, (row, q) in enumerate(zip(rows, moduli)):
        assert row == expected_limb(i, q), (i, q)


def test_large_rows_reduce_in_place_small_rows_do_not():
    """The branch is picked by elements per limb, batch axes included."""
    stack = ModulusStack(Q25)
    for shape, in_place in (
        ((_LIMBWISE_MIN_SIZE - 1,), False),
        ((_LIMBWISE_MIN_SIZE,), True),
        ((4, _LIMBWISE_MIN_SIZE // 4), True),
        ((4, _LIMBWISE_MIN_SIZE // 8), False),
    ):
        fresh = np.full((len(Q25),) + shape, 2**40 + 3, dtype=np.uint64)
        assert (stack._reduce_native(fresh, fresh=True) is fresh) is in_place


@cases
def test_mul_large_rows(rng, name, shape, extreme):
    moduli = STACKS[name]
    a = _operand(rng, moduli, shape, extreme)
    b = _operand(rng, moduli, shape, extreme)
    got = ModulusStack(moduli).mul(a, b)
    _check(
        moduli,
        got,
        lambda i, q: [x * y % q for x, y in zip(_ints(a)[i], _ints(b)[i])],
    )


@cases
def test_scalar_mul_large_rows(rng, name, shape, extreme):
    moduli = STACKS[name]
    a = _operand(rng, moduli, shape, extreme)
    if extreme:
        scalars = [q - 1 for q in moduli]
    else:
        draws = rng.integers(0, 2**62, size=len(moduli))
        scalars = [int(v) * 2**9 - 2**70 for v in draws]
    got = ModulusStack(moduli).scalar_mul(a, scalars)
    assert got.shape == a.shape
    _check(moduli, got, lambda i, q: [x * scalars[i] % q for x in _ints(a)[i]])


@cases
def test_shoup_mul_large_rows(rng, name, shape, extreme):
    moduli = STACKS[name]
    a = _operand(rng, moduli, shape, extreme)
    w = _operand(rng, moduli, shape, extreme)
    w_shoup = np.stack(
        [
            np.array(
                [modarith.shoup_precompute(v, q) for v in row], dtype=np.uint64
            ).reshape(shape)
            for row, q in zip(_ints(w), moduli)
        ]
    )
    got = ModulusStack(moduli).shoup_mul(a, w, w_shoup)
    _check(
        moduli,
        got,
        lambda i, q: [x * y % q for x, y in zip(_ints(a)[i], _ints(w)[i])],
    )


@cases
def test_divide_exact_drop_large_rows(rng, name, shape, extreme):
    """The dropped limb's residues broadcast into every kept limb."""
    moduli = STACKS[name]
    stack = ModulusStack.for_moduli(moduli)
    width = int(np.prod(shape))
    for drop in (DROPS[0], DROPS[0] * DROPS[1]):
        bound = drop
        for q in moduli:
            bound *= q
        if extreme:
            xs = [bound - 1] * width
        else:
            xs = [
                int.from_bytes(rng.bytes(bound.bit_length() // 8 + 8), "little")
                % bound
                for _ in range(width)
            ]
        keep = np.array([[x % q for x in xs] for q in moduli], dtype=np.uint64)
        tail = [x % drop for x in xs]
        tail = np.array(tail, dtype=np.uint64 if drop < 2**64 else object)
        got = stack.divide_exact_drop(
            keep.reshape((len(moduli),) + shape), tail.reshape(shape), drop
        )
        _check(moduli, got, lambda i, q: [(x - x % drop) // drop % q for x in xs])


@cases
def test_lazy_mul_sum_large_rows(rng, name, shape, extreme):
    moduli = STACKS[name]
    n_terms = 5
    a = _operand(rng, moduli, (n_terms,) + shape, extreme)
    b = _operand(rng, moduli, (n_terms,) + shape, extreme)
    got = ModulusStack(moduli).lazy_mul_sum(a, b, axis=1)
    width = int(np.prod(shape))

    def expected(i, q):
        x = _ints(a[i].reshape(n_terms, width))
        y = _ints(b[i].reshape(n_terms, width))
        return [
            sum(x[k][c] * y[k][c] for k in range(n_terms)) % q
            for c in range(width)
        ]

    _check(moduli, got, expected)


@pytest.mark.parametrize("source", [Q25, Q28 + Q31, Q36 + Q25])
@cases
def test_bconv_matmul_large_rows(rng, name, shape, extreme, source):
    moduli = STACKS[name]
    scaled = _operand(rng, source, shape, extreme)
    weights = bconv_weights(RnsBasis(source), RnsBasis(moduli))
    got = ModulusStack(moduli).bconv_matmul(
        scaled, weights, operand_bound=max(source)
    )
    rows = _ints(scaled)

    def expected(j, p):
        w = [int(v) for v in weights[j]]
        return [sum(wi * col[i] for i, wi in enumerate(w)) % p for col in zip(*rows)]

    _check(moduli, got, expected)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_reduce_large_rows_leaves_its_input(rng, name):
    """``reduce`` copies a stack it does not own before reducing in place."""
    moduli = STACKS[name]
    raw = rng.integers(0, 2**64 - 1, size=(len(moduli), _LIMBWISE_MIN_SIZE),
                       dtype=np.uint64, endpoint=True)
    raw[:, 0] = 2**64 - 1
    before = raw.copy()
    got = ModulusStack(moduli).reduce(raw)
    assert np.array_equal(raw, before)
    _check(moduli, got, lambda i, q: [x % q for x in _ints(raw)[i]])


# -- wrap-and-min add / sub / neg ---------------------------------------------


def _edge_operands(moduli):
    """Every pair of ``{0, 1, q-2, q-1}`` per limb, as two ``(L, 16)`` rows."""
    pairs = [
        list(itertools.product((0, 1, q - 2, q - 1), repeat=2)) for q in moduli
    ]
    a = np.array([[x for x, _ in row] for row in pairs], dtype=np.uint64)
    b = np.array([[y for _, y in row] for row in pairs], dtype=np.uint64)
    return a, b


@pytest.mark.parametrize("name", sorted(EDGE_STACKS))
def test_add_sub_neg_at_zero_and_q_minus_one(rng, name):
    moduli = EDGE_STACKS[name]
    stack = ModulusStack(moduli)
    assert stack.native
    a, b = _edge_operands(moduli)
    # Random residues beside the edges, and a batch axis that broadcasts.
    r = _operand(rng, moduli, (a.shape[1],), extreme=False)
    for x, y in ((a, b), (a, r), (r, b)):
        x_int, y_int = _ints(x), _ints(y)
        _check(moduli, stack.add(x, y),
               lambda i, q: [(u + v) % q for u, v in zip(x_int[i], y_int[i])])
        _check(moduli, stack.sub(x, y),
               lambda i, q: [(u - v) % q for u, v in zip(x_int[i], y_int[i])])
        _check(moduli, stack.neg(x), lambda i, q: [-u % q for u in x_int[i]])
    batched = stack.add(a[:, None, :], np.stack([b, r], axis=1))
    assert np.array_equal(batched[:, 0], stack.add(a, b))
    assert np.array_equal(batched[:, 1], stack.add(a, r))
