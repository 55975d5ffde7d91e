"""Tests for homomorphic linear transforms (BSGS diagonal method)."""

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    small_test_parameters,
)
from repro.ckks.linear_transform import (
    LinearTransform,
    identity_transform,
    matrix_diagonals,
    rotation_keys_for,
)


@pytest.fixture(scope="module")
def setup():
    params = small_test_parameters(degree=32, max_level=6, wordsize=25, dnum=3)
    gen = KeyGenerator(params, seed=33)
    sk = gen.secret_key()
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=4)
    decryptor = Decryptor(params, sk)
    galois = gen.rotation_keys(sk, list(range(1, params.slots)))
    evaluator = Evaluator(
        params, relin_key=gen.relinearisation_key(sk), galois_keys=galois
    )
    return params, encoder, encryptor, decryptor, evaluator


class TestDiagonals:
    def test_identity_single_diagonal(self):
        diags = matrix_diagonals(np.eye(4))
        assert list(diags) == [0]
        assert (diags[0] == 1).all()

    def test_shift_matrix_single_offdiagonal(self):
        shift = np.roll(np.eye(4), 1, axis=1)  # M[i, i+1] = 1: (Mz)_i = z_{i+1}
        diags = matrix_diagonals(shift)
        assert list(diags) == [1]

    def test_generalised_diagonal_definition(self):
        m = np.arange(16).reshape(4, 4).astype(float)
        diags = matrix_diagonals(m)
        for d, diag in diags.items():
            for i in range(4):
                assert diag[i] == m[i, (i + d) % 4]

    def test_tolerance_drops_small_diagonals(self):
        m = np.eye(4) + 1e-9 * np.ones((4, 4))
        assert len(matrix_diagonals(m, tol=1e-6)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((2, 3)))


class TestApply:
    def test_identity(self, setup):
        params, encoder, encryptor, decryptor, evaluator = setup
        lt = identity_transform(encoder)
        rng = np.random.default_rng(0)
        z = rng.normal(size=params.slots) + 1j * rng.normal(size=params.slots)
        out = lt.apply(evaluator, encryptor.encrypt(encoder.encode(z)))
        assert np.abs(encoder.decode(decryptor.decrypt(out)) - z).max() < 1e-3

    def test_random_dense_matrix(self, setup):
        params, encoder, encryptor, decryptor, evaluator = setup
        rng = np.random.default_rng(1)
        n = params.slots
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        lt = LinearTransform(encoder, m)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = lt.apply(evaluator, encryptor.encrypt(encoder.encode(z)))
        assert np.abs(encoder.decode(decryptor.decrypt(out)) - m @ z).max() < 1e-3

    def test_consumes_one_level(self, setup):
        params, encoder, encryptor, decryptor, evaluator = setup
        lt = identity_transform(encoder)
        ct = encryptor.encrypt(encoder.encode([1.0]))
        assert lt.apply(evaluator, ct).level == ct.level - 1

    def test_sparse_matrix_few_rotations(self, setup):
        """A tridiagonal-like matrix needs few rotation keys."""
        params, encoder, *_ = setup
        n = params.slots
        m = np.eye(n) + np.roll(np.eye(n), -1, axis=1) * 0.5
        lt = LinearTransform(encoder, m)
        assert len(lt.required_rotations()) <= 2

    def test_composition_matches_product(self, setup):
        params, encoder, encryptor, decryptor, evaluator = setup
        rng = np.random.default_rng(2)
        n = params.slots
        a = (rng.normal(size=(n, n))) / n
        b = (rng.normal(size=(n, n))) / n
        lt_a = LinearTransform(encoder, a)
        lt_b = LinearTransform(encoder, b)
        z = rng.normal(size=n)
        ct = encryptor.encrypt(encoder.encode(z))
        out = lt_b.apply(evaluator, lt_a.apply(evaluator, ct))
        assert np.abs(
            encoder.decode(decryptor.decrypt(out)) - b @ (a @ z)
        ).max() < 5e-3

    def test_zero_matrix_rejected(self, setup):
        _, encoder, *_ = setup
        with pytest.raises(ValueError):
            LinearTransform(encoder, np.zeros((encoder.slots, encoder.slots)))

    def test_rotation_keys_for_union(self, setup):
        _, encoder, *_ = setup
        n = encoder.slots
        a = LinearTransform(encoder, np.roll(np.eye(n), -1, axis=1))
        b = LinearTransform(encoder, np.roll(np.eye(n), -2, axis=1))
        union = rotation_keys_for([a, b])
        assert set(a.required_rotations()) | set(b.required_rotations()) == set(union)

    def test_bsgs_grouping(self, setup):
        """BSGS baby size ~ sqrt(#diagonals)."""
        _, encoder, *_ = setup
        n = encoder.slots
        lt = LinearTransform(encoder, np.ones((n, n)) / n)
        assert 2 <= lt.baby <= n
        assert len(lt.required_rotations()) < n - 1


class CountingEncoder(CkksEncoder):
    """Counts ``encode`` calls -- instruments the diagonal cache."""

    def __init__(self, params):
        super().__init__(params)
        self.encode_calls = 0

    def encode(self, values, level=None, scale=None):
        self.encode_calls += 1
        return super().encode(values, level=level, scale=scale)


class TestDiagonalCache:
    def test_second_apply_at_same_level_encodes_nothing(self, setup):
        params, _, encryptor, decryptor, evaluator = setup
        counting = CountingEncoder(params)
        rng = np.random.default_rng(7)
        n = params.slots
        m = rng.normal(size=(n, n)) / n
        lt = LinearTransform(counting, m)
        z = rng.normal(size=n)
        ct = encryptor.encrypt(counting.encode(z))
        counting.encode_calls = 0
        lt.apply(evaluator, ct)
        first = counting.encode_calls
        assert first > 0  # the diagonals were encoded on the cold call
        counting.encode_calls = 0
        out = lt.apply(evaluator, ct)
        assert counting.encode_calls == 0  # the warm call replays the cache
        got = counting.decode(decryptor.decrypt(out))
        assert np.abs(got - m @ z).max() < 1e-3

    def test_loop_path_shares_the_cache(self, setup):
        """The term-by-term reference applier reuses the plan's encodings."""
        from repro.ckks import reference

        params, _, encryptor, _, evaluator = setup
        counting = CountingEncoder(params)
        rng = np.random.default_rng(8)
        n = params.slots
        lt = LinearTransform(counting, rng.normal(size=(n, n)) / n)
        ct = encryptor.encrypt(counting.encode(rng.normal(size=n)))
        counting.encode_calls = 0
        lt.apply(evaluator, ct)
        counting.encode_calls = 0
        reference.linear_transform(lt, evaluator, ct)
        assert counting.encode_calls == 0

    def test_different_level_encodes_again(self, setup):
        params, _, encryptor, _, evaluator = setup
        counting = CountingEncoder(params)
        rng = np.random.default_rng(9)
        n = params.slots
        lt = LinearTransform(counting, rng.normal(size=(n, n)) / n)
        ct = encryptor.encrypt(counting.encode(rng.normal(size=n)))
        counting.encode_calls = 0
        lt.apply(evaluator, ct)
        lower = evaluator.mod_switch_to_level(ct, ct.level - 1)
        counting.encode_calls = 0
        lt.apply(evaluator, lower)
        assert counting.encode_calls > 0


class TestTrafficReport:
    def test_plan_operand_traffic(self, setup):
        from repro.gpu.device import A100

        params, encoder, _, _, evaluator = setup
        rng = np.random.default_rng(5)
        lt = LinearTransform(encoder, rng.normal(size=(params.slots,) * 2))
        plan = lt._compiled(evaluator, level=2)
        operands = plan.operand_bytes()
        assert "pt_tensor" in operands
        assert any(k.startswith("hoist.") for k in operands)
        report = plan.traffic_report(A100.hier(), batch=4)
        assert set(report) == set(operands)
        for row in report.values():
            assert row["placement"] in ("stream", "smem", "l2", "spill")
