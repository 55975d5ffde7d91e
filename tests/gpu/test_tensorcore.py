"""Tests for the FP64 / INT8 tensor-core GEMM emulations (bit-exactness)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import tensorcore
from repro.math.primes import ntt_primes

Q36 = ntt_primes(36, 64, 1)[0]
Q48 = ntt_primes(48, 64, 1)[0]
Q60 = ntt_primes(60, 64, 1)[0]


class TestSplitPlans:
    def test_fp64_36bit_k16_needs_3_products(self):
        """Paper Section 3.4: 36-bit GEMM = 3 FP64 plane products."""
        plan = tensorcore.plan_fp64_split(36, 36, 16)
        assert plan.products == 3

    def test_fp64_48bit_k16_needs_4_products(self):
        """Paper Section 3.4: 48-bit GEMM = 2x2 = 4 FP64 plane products."""
        plan = tensorcore.plan_fp64_split(48, 48, 16)
        assert plan.products == 4
        assert (plan.a_planes, plan.b_planes) == (2, 2)

    def test_int8_36bit_booth_25(self):
        """Paper Fig. 3: 36-bit on INT8 = 5x5 = 25 plane products."""
        assert tensorcore.plan_int8_split(36, 36).products == 25

    def test_int8_48bit_booth_36(self):
        """Paper Fig. 3: 48-bit on INT8 = 6x6 = 36 plane products."""
        assert tensorcore.plan_int8_split(48, 48).products == 36

    def test_plan_respects_53_bit_bound(self):
        plan = tensorcore.plan_fp64_split(60, 60, 16)
        bound = ((1 << plan.a_bits) - 1) * ((1 << plan.b_bits) - 1) * 16
        assert bound < 1 << 53

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            tensorcore.plan_fp64_split(0, 36, 16)
        with pytest.raises(ValueError):
            tensorcore.plan_int8_split(36, 0)


def _oracle_fp64_split(wordsize_a, wordsize_b, k_dim):
    """Brute force: every plane-count pair whose bound fits below 2**53.

    Fewest products wins, then the smaller ``(a_planes, b_planes)``;
    ``None`` when no pair fits.
    """
    a_max = [(1 << -(-wordsize_a // a)) - 1 for a in range(1, wordsize_a + 1)]
    b_max = [(1 << -(-wordsize_b // b)) - 1 for b in range(1, wordsize_b + 1)]
    fits = [
        (a * b, a, b)
        for a, a_top in enumerate(a_max, 1)
        for b, b_top in enumerate(b_max, 1)
        if a_top * b_top * k_dim < 1 << 53
    ]
    if not fits:
        return None
    _, a, b = min(fits)
    return (a, b, -(-wordsize_a // a), -(-wordsize_b // b))


def _planned(wordsize_a, wordsize_b, k_dim):
    try:
        plan = tensorcore.plan_fp64_split(wordsize_a, wordsize_b, k_dim)
    except tensorcore.PrecisionOverflowError:
        return None
    return (plan.a_planes, plan.b_planes, plan.a_bits, plan.b_bits)


ORACLE_K = (1, 2, 3, 16, 17, 64, 128, 4096, 2**20, 2**40, 2**52, 2**53)


class TestSplitPlanOracle:
    """``plan_fp64_split`` (with its early stop) against the brute force."""

    @pytest.mark.parametrize("k_dim", ORACLE_K)
    def test_equal_wordsizes_match_brute_force(self, k_dim):
        for wordsize in range(1, 65):
            assert _planned(wordsize, wordsize, k_dim) == _oracle_fp64_split(
                wordsize, wordsize, k_dim
            ), (wordsize, k_dim)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 64),
        st.integers(1, 64),
        st.one_of(st.sampled_from(ORACLE_K), st.integers(1, 2**54)),
    )
    def test_unequal_wordsizes_match_brute_force(self, wordsize_a, wordsize_b, k_dim):
        assert _planned(wordsize_a, wordsize_b, k_dim) == _oracle_fp64_split(
            wordsize_a, wordsize_b, k_dim
        )

    def test_overflow_exactly_when_no_plan_fits(self):
        assert _oracle_fp64_split(1, 1, 2**53) is None
        with pytest.raises(tensorcore.PrecisionOverflowError):
            tensorcore.plan_fp64_split(1, 1, 2**53)
        assert _planned(1, 1, 2**53 - 1) == (1, 1, 1, 1)


def _random_gemm_operands(q, m=16, n=8, k=16, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, int(q), size=(m, k), dtype=np.uint64).astype(object) % q
    b = rng.integers(0, int(q), size=(k, n), dtype=np.uint64).astype(object) % q
    return a, b


@pytest.mark.parametrize("q", [Q36, Q48, Q60])
def test_fp64_gemm_bit_exact(q):
    a, b = _random_gemm_operands(q, seed=int(q) % 97)
    got = tensorcore.fp64_gemm_mod(a, b, q)
    want = tensorcore.reference_gemm_mod(a, b, q)
    assert (np.asarray(got, dtype=object) == np.asarray(want, dtype=object)).all()


@pytest.mark.parametrize("q", [Q36, Q48])
def test_int8_gemm_bit_exact(q):
    a, b = _random_gemm_operands(q, seed=int(q) % 89)
    got = tensorcore.int8_gemm_mod(a, b, q)
    want = tensorcore.reference_gemm_mod(a, b, q)
    assert (np.asarray(got, dtype=object) == np.asarray(want, dtype=object)).all()


def test_fp64_gemm_rejects_mismatched_shapes():
    a = np.zeros((4, 4), dtype=object)
    b = np.zeros((5, 4), dtype=object)
    with pytest.raises(ValueError):
        tensorcore.fp64_gemm_mod(a, b, Q36)


def test_fp64_gemm_rejects_overflowing_plan():
    """A hand-built plan that violates the 53-bit bound must be refused."""
    bad_plan = tensorcore.SplitPlan(a_planes=1, b_planes=1, a_bits=36, b_bits=36)
    a, b = _random_gemm_operands(Q36)
    with pytest.raises(tensorcore.PrecisionOverflowError):
        tensorcore.fp64_gemm_mod(a, b, Q36, plan=bad_plan)


def test_int8_gemm_rejects_huge_k():
    a = np.zeros((8, 40000), dtype=object)
    b = np.zeros((40000, 8), dtype=object)
    with pytest.raises(tensorcore.PrecisionOverflowError):
        tensorcore.int8_gemm_mod(a, b, Q36)


def test_make_tcu_gemm_hook():
    gemm = tensorcore.make_tcu_gemm(Q36)
    a, b = _random_gemm_operands(Q36, seed=5)
    got = gemm(a, b, Q36)
    want = tensorcore.reference_gemm_mod(a, b, Q36)
    assert (np.asarray(got, dtype=object) == np.asarray(want, dtype=object)).all()
    with pytest.raises(ValueError):
        gemm(a, b, Q48)


def test_tcu_gemm_drives_ntt():
    """End-to-end: radix-style GEMM NTT through the FP64 TCU emulation."""
    from repro.math import ntt

    degree = 16
    q = ntt_primes(36, degree, 1)[0]
    rng = np.random.default_rng(7)
    coeffs = rng.integers(0, int(q), size=degree, dtype=np.uint64).astype(object)
    gemm = tensorcore.make_tcu_gemm(q)
    spectrum = ntt.negacyclic_ntt_via_gemm(coeffs, q, (4, 4), gemm=gemm)
    reference = ntt.negacyclic_ntt_via_gemm(coeffs, q, (4, 4))
    assert (spectrum.astype(object) == reference.astype(object)).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=2**36 - 1), st.integers(min_value=2, max_value=32))
def test_property_fp64_single_entry_exact(value, k):
    """1x1 GEMMs over any K are exact for any 36-bit operand values."""
    q = Q36
    a = np.full((1, k), value % q, dtype=object)
    b = np.full((k, 1), (value * 31 + 7) % q, dtype=object)
    got = tensorcore.fp64_gemm_mod(a, b, q)
    want = tensorcore.reference_gemm_mod(a, b, q)
    assert int(got[0, 0]) == int(want[0, 0])
