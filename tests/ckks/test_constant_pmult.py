"""PMULT by an encoded constant: a scalar product per limb, no NTT.

``CkksEncoder.encode`` marks a plaintext constant when every coefficient
but the first rounds to zero, and ``Evaluator.multiply_plain`` then
multiplies each limb by the constant's residue.  The negacyclic product by
a constant polynomial is exactly that scalar product, so the limbs must
equal the NTT product ``ct.c0.multiply(pt.poly).from_ntt()`` bit for bit.
Every other plaintext still takes the NTT path.
"""

import numpy as np
import pytest

from repro.ckks import CkksEncoder, Evaluator, KlssConfig, small_test_parameters
from repro.ckks.batched import stack_ciphertexts
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoder import Plaintext
from repro.math.ntt import NttStack
from repro.math.polynomial import RnsPolynomial

from .conftest import random_slots

PARAMS = {
    "hybrid": small_test_parameters(degree=32, max_level=5, wordsize=25, dnum=3),
    "klss": small_test_parameters(
        degree=32,
        max_level=5,
        wordsize=25,
        dnum=3,
        klss=KlssConfig(wordsize_t=28, alpha_tilde=2),
    ),
    # 36-bit words: a Barrett stack, whose scalar product runs Shoup's trick.
    "barrett": small_test_parameters(degree=32, max_level=3, wordsize=36, dnum=2),
}

CONSTANTS = (0.37, -1.25, 0.0, 1.0)


@pytest.fixture(params=sorted(PARAMS))
def setting(request):
    params = PARAMS[request.param]
    method = "klss" if params.klss is not None else "hybrid"
    return params, CkksEncoder(params), Evaluator(params, method=method)


@pytest.fixture()
def transforms(monkeypatch):
    """Limb transforms run by ``NttStack`` (forward and inverse)."""
    seen = {"forward": 0, "inverse": 0}

    def spy(name):
        original = getattr(NttStack, name)

        def wrapper(self, stack):
            seen[name] += stack.size // stack.shape[-1]
            return original(self, stack)

        return wrapper

    for name in seen:
        monkeypatch.setattr(NttStack, name, spy(name))
    return seen


def _random_ct(params, rng, level, batch=()):
    """A ciphertext with uniform limbs (multiply_plain needs no key)."""
    basis = params.q_basis(level)

    def poly():
        limbs = np.stack(
            [
                rng.integers(0, q, size=tuple(batch) + (params.degree,), dtype=np.uint64)
                for q in basis.moduli
            ]
        )
        return RnsPolynomial(params.degree, basis, limbs)

    return Ciphertext(poly(), poly(), params.scale, params)


def _ntt_product(ct, pt):
    pt_poly = pt.poly.keep_limbs(ct.level + 1)
    return [c.multiply(pt_poly).from_ntt() for c in (ct.c0, ct.c1)]


def _assert_ntt_product(ct, pt, out):
    for got, expected in zip((out.c0, out.c1), _ntt_product(ct, pt)):
        assert not got.is_ntt
        assert got.basis == expected.basis
        assert got.stack.dtype == expected.stack.dtype
        assert np.array_equal(got.stack, expected.stack)
    assert out.scale == ct.scale * pt.scale
    assert out.level == ct.level


@pytest.mark.parametrize("value", CONSTANTS)
def test_constant_takes_no_transform_and_matches(setting, rng, transforms, value):
    params, encoder, evaluator = setting
    pt = encoder.encode_constant(value)
    assert pt.is_constant
    ct = _random_ct(params, rng, params.max_level)
    out = evaluator.multiply_plain(ct, pt)
    assert transforms == {"forward": 0, "inverse": 0}
    _assert_ntt_product(ct, pt, out)


def test_constant_encoded_above_the_ciphertext_level(setting, rng, transforms):
    params, encoder, evaluator = setting
    pt = encoder.encode_constant(-0.8125)
    ct = _random_ct(params, rng, params.max_level - 2)
    out = evaluator.multiply_plain(ct, pt)
    assert transforms["forward"] == 0
    _assert_ntt_product(ct, pt, out)


def test_constant_on_a_batched_ciphertext(setting, rng, transforms):
    """64 batch rows of N=32: 2048 elements per limb, the per-limb branch."""
    params, encoder, evaluator = setting
    pt = encoder.encode_constant(0.6)
    ct = _random_ct(params, rng, params.max_level - 1, batch=(64,))
    assert ct.c0.stack.shape == (params.max_level, 64, params.degree)
    out = evaluator.multiply_plain(ct, pt)
    assert transforms["forward"] == 0
    _assert_ntt_product(ct, pt, out)


def test_stacked_ciphertexts_match_each_alone(rng):
    params = PARAMS["hybrid"]
    encoder = CkksEncoder(params)
    evaluator = Evaluator(params)
    pt = encoder.encode_constant(-2.5)
    cts = [_random_ct(params, rng, 3) for _ in range(3)]
    batched = evaluator.multiply_plain(stack_ciphertexts(cts), pt)
    for i, ct in enumerate(cts):
        alone = evaluator.multiply_plain(ct, pt)
        assert np.array_equal(batched.c0.stack[:, i], alone.c0.stack)
        assert np.array_equal(batched.c1.stack[:, i], alone.c1.stack)


def test_complex_constant_takes_the_ntt_path(setting, rng, transforms):
    """``i`` is ``X**(N/2)``: the polynomial is not constant."""
    params, encoder, evaluator = setting
    pt = encoder.encode_constant(0.25 + 0.5j)
    coeffs = pt.poly.to_int_coeffs()
    assert coeffs[params.degree // 2] != 0
    assert not pt.is_constant
    ct = _random_ct(params, rng, params.max_level)
    out = evaluator.multiply_plain(ct, pt)
    assert transforms["forward"] > 0
    _assert_ntt_product(ct, pt, out)


def test_vector_plaintext_takes_the_ntt_path(setting, rng, transforms):
    params, encoder, evaluator = setting
    pt = encoder.encode(random_slots(rng, params.slots))
    assert not pt.is_constant
    ct = _random_ct(params, rng, params.max_level)
    out = evaluator.multiply_plain(ct, pt)
    assert transforms["forward"] > 0
    _assert_ntt_product(ct, pt, out)


def test_directly_built_plaintext_takes_the_ntt_path(setting, rng, transforms):
    """Only the encoder marks a plaintext constant."""
    params, encoder, evaluator = setting
    encoded = encoder.encode_constant(0.37)
    pt = Plaintext(encoded.poly, encoded.scale)
    assert not pt.is_constant
    ct = _random_ct(params, rng, params.max_level)
    out = evaluator.multiply_plain(ct, pt)
    assert transforms["forward"] > 0
    _assert_ntt_product(ct, pt, out)
    assert np.array_equal(out.c0.stack, evaluator.multiply_plain(ct, encoded).c0.stack)
