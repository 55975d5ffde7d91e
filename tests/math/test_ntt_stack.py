"""NttStack engines against the per-limb NttPlan oracle.

Every engine -- one-step GEMM, four-step GEMM, butterfly stages -- must be
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
#: The largest 31-bit NTT primes: wide enough that the four-step split's
#: two-GEMM bound ``side (q-1) (2**16-1) < 2**53`` fails at 128-wide sides.
Q31 = tuple(ntt_primes(31, 16384, 2))
#: ``helr-n8192``'s 30-bit primes: its q0 ``1073692673`` clears the right
#: side's two-GEMM formula bound at N=8192 by only ~6e-5 of ``2**53``; its
#: actual tables' largest column sums times ``q-1`` stay <= 0.50 * 2**53.
Q30_8192 = tuple(ntt_primes(30, 8192, 3))
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
    return "one-step" if degree <= ntt.NttStack._ONE_STEP_MAX_DEGREE else "four-step"


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


def test_engine_selection():
    assert ntt.NttStack(32, Q25).engine == "one-step"
    assert ntt.NttStack(8192, Q25).engine == "four-step"
    assert ntt.NttStack(32, Q36).engine == "butterfly"
    assert ntt.NttStack(32, MIXED).engine == "butterfly"
    with modarith.object_backend():
        assert ntt.NttStack(32, Q36).engine == "object"


def test_one_step_bound_routes_wide_moduli_to_four_step(monkeypatch):
    """Past ``N (2**16 - 1) (q - 1) < 2**53`` the one-step sums are inexact,
    so even an unlimited crossover must hand the stack to four-step."""
    monkeypatch.setattr(ntt.NttStack, "_ONE_STEP_MAX_DEGREE", 1 << 12)
    narrow = ntt.NttStack(256, Q25)
    wide = ntt.NttStack(256, Q30)
    assert 256 * (2**16 - 1) * (max(Q30) - 1) >= 2**53
    assert (narrow.engine, wide.engine) == ("one-step", "four-step")
    for stack in (narrow, wide):
        _check_against_oracle(stack, _random_stack(stack.moduli, (3, 256), seed=9))


@pytest.mark.parametrize(
    "moduli, degree, left_two, right_two",
    [
        pytest.param(Q31, 8192, True, False, id="8192-True-False"),
        pytest.param(Q31, 16384, False, False, id="16384-False-False"),
        pytest.param(Q30_8192, 8192, True, True, id="q30-8192-True-True"),
    ],
)
def test_four_step_three_gemm_branch(moduli, degree, left_two, right_two):
    """31-bit moduli at N >= 8192 split the data too (three GEMMs,
    Karatsuba) on every side whose two-GEMM float64 sums would be inexact;
    30-bit moduli at N=8192 sit just inside both two-GEMM bounds."""
    stack = ntt.NttStack(degree, moduli)
    assert stack.engine == "four-step"
    for inverse in (False, True):
        tables = stack._gemm_tables(inverse)
        assert (tables["left_two"], tables["right_two"]) == (left_two, right_two)
    x = _random_stack(moduli, (degree,), seed=degree)
    _check_against_oracle(stack, x)
    # All q - 1 is even, so every float64 partial sum stays even and exact
    # up to 2**54; the odd q - 2 reaches the inexact range.
    for offset in (1, 2):
        _check_against_oracle(stack, _full(moduli, degree, offset))


def test_four_step_two_gemm_past_bound_is_inexact():
    """The odd all-(q-2) input reaches the inexact float64 range.  The
    N=16384 31-bit forward left side's largest table row sums times
    ``q-1`` are ~1.10-1.14 * 2**53; forced onto two GEMMs per side, that
    transform must disagree with the oracle, so the branch test above
    catches a wrong bound there."""
    stack = ntt.NttStack(16384, Q31)  # own instance: no shared cache touched
    tables = stack._gemm_tables(False)
    assert not (tables["left_two"] or tables["right_two"])
    tables["left_two"] = tables["right_two"] = True
    x = _full(Q31, 16384, 2)
    assert not np.array_equal(stack.forward(x), _oracle(16384, Q31, x, False))


@pytest.mark.parametrize(
    "q", [3] + [ntt_primes(bits, 4096, 1)[0] for bits in (25, 28, 30, 31)]
)
def test_scalar_reduction_matches_mod(q, rng):
    """``x - (x // q) q`` equals ``x % q`` over the whole uint64 range."""
    edges = [0, 1, q - 1, q, 7 * q, 7 * q - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1]
    edges += [k * q for k in ((2**64 - 1) // q, (2**64 - 1) // q - 1)]
    x = np.array(edges, dtype=np.uint64)
    x = np.concatenate([x, x - np.uint64(1), rng.integers(0, 2**64, 4096, np.uint64)])
    expected = x % np.uint64(q)
    out = ntt.NttStack._reduce(x, np.uint64(q))
    assert out is x and np.array_equal(out, expected)


def test_four_step_klss_shaped_stack():
    """The per-limb loop runs any batch rank: a 4-D ``(L, 4, 2, N)`` stack."""
    moduli = tuple(ntt_primes(28, 256, 5))
    stack = ntt.NttStack(256, moduli)
    assert stack.engine == "four-step"
    x = _random_stack(moduli, (4, 2, 256), seed=28)
    before = x.copy()
    _check_against_oracle(stack, x)
    assert np.array_equal(x, before), "transform mutated its input"


def test_butterflies_when_neither_gemm_bound_holds(monkeypatch):
    monkeypatch.setattr(ntt.NttStack, "_ONE_STEP_MAX_DEGREE", 0)
    monkeypatch.setattr(ntt.NttStack, "_FOUR_STEP_MAX_SIDE", 0)
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
