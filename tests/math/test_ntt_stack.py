"""NttStack engines against the per-limb NttPlan oracle.

Every engine -- one-step GEMM, multi-step GEMM, butterfly stages -- must be
bit-identical to running one :class:`NttPlan` per limb under
:func:`modarith.object_backend` (exact Python integers for Barrett
moduli), for every degree, batch shape and memory layout.
"""

import numpy as np
import pytest

from repro.math import modarith, ntt
from repro.math.primes import ntt_primes

Q25 = tuple(ntt_primes(25, 8192, 3))
Q27 = tuple(ntt_primes(27, 4096, 3))
Q30 = tuple(ntt_primes(30, 4096, 3))
Q36 = tuple(ntt_primes(36, 4096, 2))
#: The largest 31-bit NTT primes, the widest the GEMM engines take.
Q31 = tuple(ntt_primes(31, 16384, 2))
#: ``helr-n8192``'s chain (the 30-bit q0 ``1073692673`` over five 25-bit
#: primes) and its 28-bit KLSS T basis.
HELR_Q = tuple(ntt_primes(30, 8192, 1) + ntt_primes(25, 8192, 5))
HELR_T = tuple(ntt_primes(28, 8192, 5))
#: A 26-bit NTT prime whose middle-step tables at N=8192 reach 1.13 * 2**53
#: on one plane: just past the bound, so it takes two.
Q26_EDGE = (44105729,)
MIXED = Q25[:2] + Q36[:1]
MODULI = {"q25": Q25, "q27": Q27, "q30": Q30, "q36": Q36, "mixed": MIXED}
DEGREES = [2, 8, 32, 64, 128, 256, 4096]
BATCHES = [(), (3,), (3, 4)]


def _random_stack(moduli, shape, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, size=shape, dtype=np.uint64) for q in moduli]
    )


def _full(moduli, degree, offset):
    """Every coefficient of limb ``q`` set to ``q - offset``."""
    return np.stack([np.full(degree, q - offset, dtype=np.uint64) for q in moduli])


def _oracle(degree, moduli, stack, inverse):
    """One fresh NttPlan per limb, built and run on the object backend."""
    with modarith.object_backend():
        out = []
        for q, limb in zip(moduli, stack):
            plan = ntt.NttPlan(degree, q)
            run = plan.inverse if inverse else plan.forward
            out.append(np.asarray(run(limb.astype(object))).astype(object))
    return np.stack(out).astype(np.uint64)


def _expected_engine(degree, moduli):
    if max(moduli) >= 2**31:
        return "butterfly"
    return "one-step" if degree <= ntt.NttStack._ONE_STEP_MAX_DEGREE else "multi-step"


def _check_against_oracle(stack, x):
    fwd = stack.forward(x)
    assert fwd.dtype == np.uint64 and fwd.shape == x.shape
    assert np.array_equal(fwd, _oracle(stack.degree, stack.moduli, x, False))
    assert np.array_equal(
        stack.inverse(x), _oracle(stack.degree, stack.moduli, x, True)
    )
    assert np.array_equal(stack.inverse(fwd), x)


@pytest.mark.parametrize("batch", BATCHES, ids=lambda b: f"batch{b}")
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("name", list(MODULI))
def test_engines_match_per_limb_oracle(name, degree, batch):
    moduli = MODULI[name]
    stack = ntt.NttStack(degree, moduli)
    assert stack.engine == _expected_engine(degree, moduli)
    x = _random_stack(moduli, batch + (degree,), seed=degree + len(batch))
    before = x.copy()
    _check_against_oracle(stack, x)
    assert np.array_equal(x, before), "transform mutated its input"


@pytest.mark.parametrize("degree", [8, 32, 256])
@pytest.mark.parametrize("name", ["q25", "q30", "q36"])
def test_non_contiguous_inputs(name, degree):
    moduli = MODULI[name]
    stack = ntt.NttStack(degree, moduli)
    wide = _random_stack(moduli, (6, 2 * degree), seed=degree)
    strided = wide[:, ::2, ::2]  # strided batch and coefficient axes
    swapped = np.ascontiguousarray(strided.transpose(1, 0, 2)).transpose(1, 0, 2)
    for x in (strided, swapped):
        assert not x.flags["C_CONTIGUOUS"]
        dense = np.ascontiguousarray(x)
        assert np.array_equal(stack.forward(x), stack.forward(dense))
        assert np.array_equal(stack.inverse(x), stack.inverse(dense))
    _check_against_oracle(stack, strided)


@pytest.mark.parametrize("degree", [2, 8, 32])
@pytest.mark.parametrize("name", ["q25", "q30"])
def test_one_step_matches_dense_vandermonde(name, degree):
    """Slot k holds the evaluation at ``psi**(2 brv(k) + 1)``."""
    moduli = MODULI[name]
    stack = ntt.NttStack(degree, moduli)
    assert stack.engine == "one-step"
    x = _random_stack(moduli, (degree,), seed=3)
    fwd = stack.forward(x)
    rev = ntt._bit_reverse_permutation(degree)
    for limb, plan, row in zip(x, stack.plans, fwd):
        natural = ntt.natural_order_negacyclic(plan, limb)
        assert [int(v) for v in row] == [int(v) for v in natural[rev]]


@pytest.mark.parametrize(
    "name, degree, engine, planes",
    [
        ("q25", 256, "multi-step", [1, 1, 1]),
        ("q30", 256, "multi-step", [2, 2, 2]),
        ("q36", 32, "butterfly", None),
    ],
    ids=["multi-step-one-plane", "multi-step-two-planes", "butterfly"],
)
def test_engines_match_dense_vandermonde(name, degree, engine, planes):
    """Every engine past the one-step one, against the dense oracle: slot
    k holds the evaluation at ``psi**(2 brv(k) + 1)``."""
    moduli = MODULI[name]
    stack = ntt.NttStack(degree, moduli)
    assert stack.engine == engine
    if planes is not None:
        assert [p.gemm_steps(False).planes for p in stack.plans] == planes
    x = _random_stack(moduli, (degree,), seed=5)
    fwd = stack.forward(x)
    rev = ntt._bit_reverse_permutation(degree)
    for limb, plan, row in zip(x, stack.plans, fwd):
        natural = ntt.natural_order_negacyclic(plan, limb)
        assert [int(v) for v in row] == [int(v) for v in natural[rev]]


def test_engine_selection():
    assert ntt.NttStack(32, Q25).engine == "one-step"
    assert ntt.NttStack(8192, Q25).engine == "multi-step"
    assert ntt.NttStack(32, Q36).engine == "butterfly"
    assert ntt.NttStack(32, MIXED).engine == "butterfly"
    with modarith.object_backend():
        assert ntt.NttStack(32, Q36).engine == "object"


def test_one_step_bound_routes_wide_moduli_to_four_step(monkeypatch):
    """Past ``N (2**16 - 1) (q - 1) < 2**53`` the one-step sums are inexact,
    so even an unlimited crossover must hand the stack to multi-step."""
    monkeypatch.setattr(ntt.NttStack, "_ONE_STEP_MAX_DEGREE", 1 << 12)
    narrow = ntt.NttStack(256, Q25)
    wide = ntt.NttStack(256, Q30)
    assert 256 * (2**16 - 1) * (max(Q30) - 1) >= 2**53
    assert (narrow.engine, wide.engine) == ("one-step", "multi-step")
    for stack in (narrow, wide):
        _check_against_oracle(stack, _random_stack(stack.moduli, (3, 256), seed=9))


def _adversarial(stack, inverse, odd=False):
    """An input that drives the first product of every limb to its bound.

    ``+-(q-1)/2`` with the signs of the row of that product's table with
    the largest ``|W|`` sum: the forward's first matrix, or, for the
    inverse, each of the folded last-axis matrices.  ``(q-1)/2`` is a
    multiple of ``N`` for an NTT prime, so its sums stay exact past
    ``2**53``; `odd` uses ``(q-1)/2 - 1`` instead.
    """
    rows = []
    for plan in stack.plans:
        steps = plan.gemm_steps(inverse)
        kind, *_, planes = steps.ops[0]
        w = planes[0] if len(planes) == 1 else planes[0] * steps.scale + planes[1]
        if kind == "gemm":  # (k, j): contract the leading input digit
            row = np.sign(w[np.abs(w).sum(-1).argmax()])
            signs = np.repeat(row, stack.degree // len(row))
        else:  # fold (m, in, out): the last digit, per middle digit m
            best = np.abs(w).sum(-2).argmax(-1)
            cols = np.sign(w[np.arange(len(w)), :, best])
            signs = np.tile(cols.ravel(), stack.degree // cols.size)
        half = (plan.modulus - 1) // 2 - odd
        rows.append((signs.astype(np.int64) * half % plan.modulus).astype(np.uint64))
    return np.stack(rows)


@pytest.mark.parametrize(
    "moduli, degree, planes",
    [
        pytest.param(Q31, 8192, [2, 2], id="q31-8192"),
        pytest.param(Q31, 16384, [2, 2], id="q31-16384"),
        pytest.param(HELR_Q, 8192, [2, 1, 1, 1, 1, 1], id="helr-q-8192"),
        pytest.param(HELR_T, 8192, [2] * 5, id="helr-t-8192"),
        pytest.param(Q26_EDGE, 8192, [2], id="q26-edge-8192"),
    ],
)
def test_plane_counts_from_tables(moduli, degree, planes):
    """One float64 product per step for 25-bit limbs, two balanced planes
    for the 28-31-bit ones and for a 26-bit prime just past the table
    bound, in both directions; every oracle input -- random, all q-1
    (even), all q-2 (odd) and the tables' adversarial inputs -- matches."""
    stack = ntt.NttStack(degree, moduli)
    assert stack.engine == "multi-step"
    for inverse in (False, True):
        assert [p.gemm_steps(inverse).planes for p in stack.plans] == planes
    _check_against_oracle(stack, _random_stack(moduli, (degree,), seed=degree))
    for offset in (1, 2):
        _check_against_oracle(stack, _full(moduli, degree, offset))
    for inverse, odd in [(False, False), (False, True), (True, False), (True, True)]:
        x = _adversarial(stack, inverse, odd)
        run = stack.inverse if inverse else stack.forward
        assert np.array_equal(run(x), _oracle(degree, moduli, x, inverse))


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("q", [HELR_Q[0], HELR_T[0]])
def test_one_plane_past_bound_is_inexact(q, inverse, monkeypatch):
    """Forced onto one plane, a limb the table bound puts on two must
    disagree with the oracle on its adversarial input, so the plane test
    above catches a wrong bound."""
    monkeypatch.setattr(ntt.GemmSteps, "_exact", lambda self, ops, q: True)
    stack = ntt.NttStack(8192, (q,))
    stack.plans = [ntt.NttPlan(8192, q)]  # own plan: no cached table touched
    assert stack.plans[0].gemm_steps(inverse).planes == 1
    x = _adversarial(stack, inverse)
    run = stack.inverse if inverse else stack.forward
    assert not np.array_equal(run(x), _oracle(8192, (q,), x, inverse))


def test_four_digit_radix16_degree():
    """N=2**16 runs the paper's 16*16*16*16 split: four GEMM steps."""
    moduli = tuple(ntt_primes(25, 1 << 16, 3))
    stack = ntt.NttStack(1 << 16, moduli)
    assert stack.engine == "multi-step"
    assert stack.plans[0].gemm_steps(False).factors == (16, 16, 16, 16)
    _check_against_oracle(stack, _random_stack(moduli, (2, 1 << 16), seed=16))


@pytest.mark.parametrize(
    "q", [3] + [ntt_primes(bits, 4096, 1)[0] for bits in (25, 28, 30, 31)]
)
def test_scalar_reduction_matches_mod(q, rng):
    """The float reduction ``y - q rint(y / q)`` keeps ``y mod q`` and lands
    within ``(q-1)/2 + 2`` of zero for every ``|y| <= 2**53 - 4q``,
    including the extremes and quotients within ``2**-20`` of a half."""
    top = 2**53 - 4 * q
    k = rng.integers(-(top // q), top // q, 4096)
    near_half = k * q + (q - 1) // 2 + rng.integers(-(q >> 20), (q >> 20) + 2, 4096)
    edges = [0, 1, -1, q, -q, (q - 1) // 2, (q + 1) // 2, top, -top, top - 1]
    far = (top // q - 1) * q
    edges += [far + (q - 1) // 2, far + (q + 1) // 2, -far - (q + 1) // 2]
    y = np.concatenate([edges, near_half, rng.integers(-top, top + 1, 4096)])
    y = y[np.abs(y) <= top]
    r = ntt._reduce(y.astype(np.float64), float(q), np.empty(len(y)))
    assert np.all(np.abs(r) <= (q - 1) // 2 + 2)
    assert np.array_equal((y - r.astype(np.int64)) % q, np.zeros_like(y))


def test_four_step_klss_shaped_stack():
    """The per-limb loop runs any batch rank: a 4-D ``(L, 4, 2, N)`` stack."""
    moduli = tuple(ntt_primes(28, 256, 5))
    stack = ntt.NttStack(256, moduli)
    assert stack.engine == "multi-step"
    x = _random_stack(moduli, (4, 2, 256), seed=28)
    before = x.copy()
    _check_against_oracle(stack, x)
    assert np.array_equal(x, before), "transform mutated its input"


def test_butterflies_when_neither_gemm_bound_holds(monkeypatch):
    """No sub-``2**31`` stack selects the butterflies; forced onto them,
    they still match on small moduli."""
    monkeypatch.setattr(ntt.NttStack, "_choose_engine", lambda self: "butterfly")
    stack = ntt.NttStack(64, Q25)
    assert stack.engine == "butterfly"
    _check_against_oracle(stack, _random_stack(Q25, (3, 64), seed=11))


def test_object_backend_stacks_never_alias_native():
    x = _random_stack(Q36, (32,), seed=5)
    native = ntt.get_stack(32, Q36)
    native_plan = ntt.get_plan(32, Q36[0])
    with modarith.object_backend():
        oracle = ntt.get_stack(32, Q36)
        assert ntt.get_stack(32, list(Q36)) is oracle
        oracle_plan = ntt.get_plan(32, Q36[0])
        oracle_fwd = oracle.forward(x.astype(object))
    assert oracle is not native and oracle_plan is not native_plan
    assert (native.engine, oracle.engine) == ("butterfly", "object")
    assert native_plan.native and not oracle_plan.native
    assert ntt.get_stack(32, Q36) is native
    assert ntt.get_plan(32, Q36[0]) is native_plan
    assert oracle_fwd.dtype == object
    assert np.array_equal(native.forward(x), oracle_fwd.astype(np.uint64))
