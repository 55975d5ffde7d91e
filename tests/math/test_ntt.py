"""Tests for the butterfly ``NttPlan``: round trips, plan caching, the
convolution theorem, linearity and batching.

``NttStack``'s GEMM engines are checked in ``test_ntt_stack.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.math import modarith, ntt
from repro.math.primes import ntt_primes

SMALL_Q = ntt_primes(28, 256, 1)[0]
BIG_Q = ntt_primes(36, 256, 1)[0]


@pytest.mark.parametrize("q", [SMALL_Q, BIG_Q])
@pytest.mark.parametrize("degree", [8, 64, 256])
def test_forward_inverse_roundtrip(q, degree):
    rng = np.random.default_rng(degree)
    coeffs = rng.integers(0, q if q < 2**31 else 2**36, size=degree).astype(object)
    plan = ntt.get_plan(degree, q)
    back = plan.inverse(plan.forward(coeffs))
    assert list(back.astype(object)) == [int(c) % q for c in coeffs]


def test_plan_cache_returns_same_object():
    assert ntt.get_plan(64, SMALL_Q) is ntt.get_plan(64, SMALL_Q)


def test_plan_rejects_bad_degree():
    with pytest.raises(ValueError):
        ntt.NttPlan(48, SMALL_Q)


def test_plan_rejects_unfriendly_modulus():
    with pytest.raises(ValueError):
        ntt.NttPlan(256, 97)  # 97 - 1 not divisible by 512


def test_convolution_theorem():
    """Pointwise product in NTT domain == negacyclic convolution."""
    degree, q = 32, SMALL_Q
    rng = np.random.default_rng(7)
    a = rng.integers(0, q, size=degree)
    b = rng.integers(0, q, size=degree)
    plan = ntt.get_plan(degree, q)
    via_ntt = plan.inverse(modarith.mul_mod(plan.forward(a), plan.forward(b), q))
    # schoolbook negacyclic reference
    ref = np.zeros(degree, dtype=object)
    for i in range(degree):
        for j in range(degree):
            k, sign = (i + j, 1) if i + j < degree else (i + j - degree, -1)
            ref[k] += sign * int(a[i]) * int(b[j])
    ref %= q
    assert list(via_ntt.astype(object)) == list(ref)


def test_bit_reverse_permutation_involutive():
    perm = ntt._bit_reverse_permutation(16)
    assert sorted(perm) == list(range(16))
    assert (perm[perm] == np.arange(16)).all()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**35), min_size=16, max_size=16))
def test_property_ntt_linear(coeffs):
    """NTT(a + b) == NTT(a) + NTT(b)."""
    q = BIG_Q
    plan = ntt.get_plan(16, q)
    a = np.array(coeffs, dtype=object)
    b = a[::-1].copy()
    lhs = plan.forward(modarith.add_mod(
        modarith.asarray_mod(a, q), modarith.asarray_mod(b, q), q))
    rhs = modarith.add_mod(plan.forward(a), plan.forward(b), q)
    assert (lhs == rhs).all()


class TestBatchedNtt:
    """The forward/inverse transforms vectorise over leading axes."""

    def test_batch_matches_per_row(self):
        q = SMALL_Q
        plan = ntt.get_plan(64, q)
        rng = np.random.default_rng(21)
        batch = rng.integers(0, q, size=(6, 64))
        fwd = plan.forward(batch)
        for i in range(6):
            assert (fwd[i] == plan.forward(batch[i])).all()

    def test_batch_roundtrip(self):
        q = BIG_Q
        plan = ntt.get_plan(16, q)
        rng = np.random.default_rng(22)
        batch = rng.integers(0, 2**35, size=(3, 4, 16)).astype(object)
        back = plan.inverse(plan.forward(batch))
        assert (back == batch % q).all()

    def test_batch_shape_validation(self):
        plan = ntt.get_plan(64, SMALL_Q)
        with pytest.raises(ValueError):
            plan.forward(np.zeros((4, 32)))

    def test_batch_pointwise_product(self):
        """Batched convolution theorem: per-row products all at once."""
        q = SMALL_Q
        degree = 32
        plan = ntt.get_plan(degree, q)
        rng = np.random.default_rng(23)
        a = rng.integers(0, q, size=(4, degree))
        b = rng.integers(0, q, size=(4, degree))
        prod = plan.inverse(modarith.mul_mod(plan.forward(a), plan.forward(b), q))
        from repro.math.polynomial import negacyclic_multiply

        for i in range(4):
            ref = negacyclic_multiply(a[i], b[i], degree, q)
            assert (prod[i].astype(object) == ref.astype(object)).all()
