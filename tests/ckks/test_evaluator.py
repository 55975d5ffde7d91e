"""Tests for every primitive operation of Section 2.1 (both back-ends)."""

import numpy as np
import pytest

from .conftest import random_slots

TOL = 1e-3


def _dec(encoder, decryptor, ct):
    return encoder.decode(decryptor.decrypt(ct))


@pytest.fixture(params=["hybrid", "klss"])
def any_evaluator(request, evaluator, klss_evaluator):
    return evaluator if request.param == "hybrid" else klss_evaluator


class TestAdditive:
    def test_hadd(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = evaluator.add(
            encryptor.encrypt(encoder.encode(a)), encryptor.encrypt(encoder.encode(b))
        )
        assert np.abs(_dec(encoder, decryptor, ct) - (a + b)).max() < TOL

    def test_hsub(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = evaluator.sub(
            encryptor.encrypt(encoder.encode(a)), encryptor.encrypt(encoder.encode(b))
        )
        assert np.abs(_dec(encoder, decryptor, ct) - (a - b)).max() < TOL

    def test_negate(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        ct = evaluator.negate(encryptor.encrypt(encoder.encode(a)))
        assert np.abs(_dec(encoder, decryptor, ct) + a).max() < TOL

    def test_padd(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = evaluator.add_plain(encryptor.encrypt(encoder.encode(a)), encoder.encode(b))
        assert np.abs(_dec(encoder, decryptor, ct) - (a + b)).max() < TOL

    def test_psub(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = evaluator.sub_plain(encryptor.encrypt(encoder.encode(a)), encoder.encode(b))
        assert np.abs(_dec(encoder, decryptor, ct) - (a - b)).max() < TOL

    def test_add_auto_aligns_levels(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct_high = encryptor.encrypt(encoder.encode(a))
        ct_low = encryptor.encrypt(encoder.encode(b, level=2))
        ct = evaluator.add(ct_high, ct_low)
        assert ct.level == 2
        assert np.abs(_dec(encoder, decryptor, ct) - (a + b)).max() < TOL

    def test_add_scale_mismatch_rejected(self, encoder, encryptor, evaluator):
        ct0 = encryptor.encrypt(encoder.encode([1.0]))
        ct1 = encryptor.encrypt(encoder.encode([1.0], scale=2.0**20))
        with pytest.raises(ValueError):
            evaluator.add(ct0, ct1)

    def test_scale_mismatch_message_prints_log2_scales(
        self, params, encoder, encryptor, evaluator
    ):
        """Scales ~8% apart: the message gives log2 of each scale and the
        relative gap against the tolerance, not the scale as an exponent."""
        ct0 = encryptor.encrypt(encoder.encode([1.0], scale=params.scale))
        ct1 = encryptor.encrypt(encoder.encode([1.0], scale=params.scale * 1.08))
        with pytest.raises(ValueError) as info:
            evaluator.add(ct0, ct1)
        message = str(info.value)
        assert message == (
            f"scale mismatch: 2^{params.scale_bits:.2f} vs "
            f"2^{params.scale_bits + 0.11:.2f} (relative gap 7.41% > 5%); "
            "rescale first"
        )
        assert "e+" not in message


class TestMultiplicative:
    def test_pmult(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = evaluator.rescale(
            evaluator.multiply_plain(
                encryptor.encrypt(encoder.encode(a)), encoder.encode(b)
            )
        )
        assert np.abs(_dec(encoder, decryptor, ct) - a * b).max() < TOL

    def test_hmult(self, encoder, encryptor, decryptor, any_evaluator, rng):
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = any_evaluator.rescale(
            any_evaluator.multiply(
                encryptor.encrypt(encoder.encode(a)),
                encryptor.encrypt(encoder.encode(b)),
            )
        )
        assert ct.level == any_evaluator.params.max_level - 1
        assert np.abs(_dec(encoder, decryptor, ct) - a * b).max() < TOL

    def test_square(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        ct = evaluator.rescale(evaluator.square(encryptor.encrypt(encoder.encode(a))))
        assert np.abs(_dec(encoder, decryptor, ct) - a * a).max() < TOL

    def test_unrelinearised_product_still_decrypts(
        self, encoder, encryptor, decryptor, evaluator, rng
    ):
        """The 3-component ciphertext decrypts via the s**2 term."""
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct = evaluator.multiply(
            encryptor.encrypt(encoder.encode(a)),
            encryptor.encrypt(encoder.encode(b)),
            relinearise=False,
        )
        assert not ct.is_relinearised
        decoded = _dec(encoder, decryptor, evaluator.rescale_raw(ct))
        assert np.abs(decoded - a * b).max() < TOL

    def test_relinearise_requires_key(self, params, encoder, encryptor, rng):
        from repro.ckks import Evaluator

        bare = Evaluator(params)
        a = encryptor.encrypt(encoder.encode([1.0]))
        with pytest.raises(ValueError):
            bare.multiply(a, a)

    def test_multiplication_depth_chain(
        self, encoder, encryptor, decryptor, any_evaluator, rng
    ):
        """Chain multiplications down to level 1."""
        a = random_slots(rng, encoder.slots, scale=0.7)
        ct = encryptor.encrypt(encoder.encode(a))
        want = a.copy()
        for _ in range(3):
            ct = any_evaluator.rescale(any_evaluator.square(ct))
            want = want * want
        assert np.abs(_dec(encoder, decryptor, ct) - want).max() < 5e-3

    def test_multiply_on_unrelinearised_rejected(
        self, encoder, encryptor, evaluator, rng
    ):
        a = encryptor.encrypt(encoder.encode([0.5]))
        raw = evaluator.multiply(a, a, relinearise=False)
        with pytest.raises(ValueError):
            evaluator.multiply(raw, a)


class TestRotation:
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 8])
    def test_hrotate(self, encoder, encryptor, decryptor, any_evaluator, rng, steps):
        a = random_slots(rng, encoder.slots)
        ct = any_evaluator.rotate(encryptor.encrypt(encoder.encode(a)), steps)
        assert np.abs(_dec(encoder, decryptor, ct) - np.roll(a, -steps)).max() < TOL

    def test_rotate_composition(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        ct = evaluator.rotate(
            evaluator.rotate(encryptor.encrypt(encoder.encode(a)), 1), 2
        )
        assert np.abs(_dec(encoder, decryptor, ct) - np.roll(a, -3)).max() < TOL

    def test_conjugate(self, params, keyset, encoder, encryptor, decryptor, rng):
        from repro.ckks import Evaluator
        from repro.ckks.keys import conjugation_galois_power, KeyGenerator

        gen = KeyGenerator(params, seed=42)
        galois = keyset["galois"]
        power = conjugation_galois_power(params.degree)
        if power not in galois:
            galois.add(power, gen.galois_key(keyset["secret"], power))
        ev = Evaluator(params, relin_key=keyset["relin"], galois_keys=galois)
        a = random_slots(rng, encoder.slots)
        ct = ev.conjugate(encryptor.encrypt(encoder.encode(a)))
        assert np.abs(_dec(encoder, decryptor, ct) - np.conj(a)).max() < TOL

    def test_missing_galois_key_raises(self, params, keyset, encoder, encryptor):
        from repro.ckks import Evaluator

        ev = Evaluator(params, relin_key=keyset["relin"])
        ct = encryptor.encrypt(encoder.encode([1.0]))
        with pytest.raises(ValueError):
            ev.rotate(ct, 1)


class TestRescale:
    def test_rescale_drops_level_and_scale(self, encoder, encryptor, evaluator):
        ct = encryptor.encrypt(encoder.encode([1.0]))
        prod = evaluator.multiply_plain(ct, encoder.encode([1.0]))
        rescaled = evaluator.rescale(prod)
        assert rescaled.level == ct.level - 1
        assert rescaled.scale < prod.scale

    def test_double_rescale(self, params, encoder, encryptor, decryptor, evaluator, rng):
        """DS divides by two primes, consuming two levels (Section 2.1)."""
        a = random_slots(rng, encoder.slots)
        big_scale = float(params.moduli[params.max_level]) * float(
            params.moduli[params.max_level - 1]
        ) * params.scale
        ct = encryptor.encrypt(encoder.encode(a, scale=big_scale))
        ds = evaluator.double_rescale(ct)
        assert ds.level == ct.level - 2
        assert np.abs(_dec(encoder, decryptor, ds) - a).max() < TOL

    def test_rescale_at_level_zero_rejected(self, encoder, encryptor, evaluator):
        ct = encryptor.encrypt(encoder.encode([1.0], level=0))
        with pytest.raises(ValueError):
            evaluator.rescale(ct)

    def test_rescale_rejects_basis_off_the_chain(self, params, evaluator):
        """Rescale keeps the chain's cached prefix basis, so a polynomial
        over any other moduli is refused."""
        from repro.ckks.ciphertext import Ciphertext
        from repro.math.polynomial import RnsPolynomial
        from repro.math.rns import RnsBasis

        basis = RnsBasis(params.moduli[1:4])
        zero = RnsPolynomial(
            params.degree,
            basis,
            np.zeros((len(basis), params.degree), dtype=np.uint64),
            is_ntt=False,
        )
        ct = Ciphertext(zero, zero, params.scale, params)
        with pytest.raises(ValueError, match="prefix of the ciphertext chain"):
            evaluator.rescale(ct)

    def test_mod_switch_preserves_value(self, encoder, encryptor, decryptor, evaluator, rng):
        a = random_slots(rng, encoder.slots)
        ct = evaluator.mod_switch_to_level(encryptor.encrypt(encoder.encode(a)), 1)
        assert ct.level == 1
        assert np.abs(_dec(encoder, decryptor, ct) - a).max() < TOL

    def test_mod_switch_cannot_raise(self, encoder, encryptor, evaluator):
        ct = encryptor.encrypt(encoder.encode([1.0], level=1))
        with pytest.raises(ValueError):
            evaluator.mod_switch_to_level(ct, 3)


class TestBackendAgreement:
    def test_hybrid_and_klss_agree(
        self, encoder, encryptor, decryptor, evaluator, klss_evaluator, rng
    ):
        """Both key-switching back-ends produce (approximately) the same result."""
        a = random_slots(rng, encoder.slots)
        b = random_slots(rng, encoder.slots)
        ct0 = encryptor.encrypt(encoder.encode(a))
        ct1 = encryptor.encrypt(encoder.encode(b))
        hy = _dec(encoder, decryptor, evaluator.rescale(evaluator.multiply(ct0, ct1)))
        kl = _dec(
            encoder,
            decryptor,
            klss_evaluator.rescale(klss_evaluator.multiply(ct0, ct1)),
        )
        assert np.abs(hy - kl).max() < TOL

    def test_invalid_method_rejected(self, params):
        from repro.ckks import Evaluator

        with pytest.raises(ValueError):
            Evaluator(params, method="quantum")

    def test_klss_requires_config(self):
        from repro.ckks import Evaluator, small_test_parameters

        plain = small_test_parameters(degree=32, max_level=2, wordsize=25, dnum=1)
        with pytest.raises(ValueError):
            Evaluator(plain, method="klss")
