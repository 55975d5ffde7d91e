"""Tests for hoisted rotations."""

import numpy as np
import pytest

from repro.ckks.hoisting import hoisted_rotations, hoisting_modup_savings
from repro.ckks.keys import rotation_galois_power
from repro.ckks.keyswitch import plan as ksplan
from repro.telemetry.stats import all_cache_stats

from .conftest import random_slots

STEPS = [1, 2, 3, 4]


@pytest.fixture()
def encrypted(encoder, encryptor, rng):
    values = random_slots(rng, encoder.slots)
    return values, encryptor.encrypt(encoder.encode(values))


class TestHoistedRotations:
    def test_matches_plain_rotation_values(
        self, params, keyset, encoder, decryptor, encrypted
    ):
        values, ct = encrypted
        rotated = hoisted_rotations(ct, STEPS, keyset["galois"], params)
        for step, out in rotated.items():
            got = encoder.decode(decryptor.decrypt(out))
            assert np.abs(got - np.roll(values, -step)).max() < 1e-3, step

    def test_matches_evaluator_rotate(
        self, params, keyset, encoder, decryptor, evaluator, encrypted
    ):
        values, ct = encrypted
        hoisted = hoisted_rotations(ct, [2], keyset["galois"], params)[2]
        naive = evaluator.rotate(ct, 2)
        got_h = encoder.decode(decryptor.decrypt(hoisted))
        got_n = encoder.decode(decryptor.decrypt(naive))
        assert np.abs(got_h - got_n).max() < 1e-3

    def test_modup_happens_once(self, params, encrypted, keyset, monkeypatch):
        _, ct = encrypted
        calls = []
        modup = ksplan._modup_stack

        def counting_modup(stack, plan):
            calls.append(stack.shape)
            return modup(stack, plan)

        monkeypatch.setattr(ksplan, "_modup_stack", counting_modup)
        hoisted_rotations(ct, STEPS, keyset["galois"], params)
        # One ModUp of the single c1 stack serves every rotation.
        assert calls == [ct.c1.stack.shape]

    def test_digit_count(self, params, encrypted, keyset):
        _, ct = encrypted
        powers = tuple(rotation_galois_power(s, params.degree) for s in STEPS)
        hplan = ksplan.get_hoisted_rotation_plan(
            keyset["galois"], powers, params, ct.level, "hybrid"
        )
        assert hplan.ks.beta == params.beta(ct.level)
        assert hplan.evk.shape[2:4] == (len(STEPS), params.beta(ct.level))

    def test_rejects_unrelinearised(self, params, keyset, evaluator, encrypted):
        _, ct = encrypted
        raw = evaluator.multiply(ct, ct, relinearise=False)
        with pytest.raises(ValueError, match="relinearised"):
            hoisted_rotations(raw, STEPS, keyset["galois"], params)

    def test_works_at_lower_level(
        self, params, keyset, encoder, decryptor, evaluator, encrypted
    ):
        values, ct = encrypted
        low = evaluator.mod_switch_to_level(ct, 2)
        out = hoisted_rotations(low, [1], keyset["galois"], params)[1]
        got = encoder.decode(decryptor.decrypt(out))
        assert np.abs(got - np.roll(values, -1)).max() < 1e-3


class TestIdentitySteps:
    """steps = 0 (or any multiple of the slot count) is the identity
    automorphism: no key switch, no Galois key lookup, same ciphertext."""

    def test_zero_and_slot_multiples_return_input(self, params, keyset, encrypted):
        _, ct = encrypted
        steps = [0, params.slots, 2 * params.slots, -params.slots]
        out = hoisted_rotations(ct, steps, keyset["galois"], params)
        for s in steps:
            assert out[s] is ct, s

    def test_identity_needs_no_galois_keys(self, params, encrypted):
        # No key for power 1 exists; the short circuit must never look.
        _, ct = encrypted
        out = hoisted_rotations(ct, [0], None, params)
        assert out[0] is ct

    def test_rotator_short_circuits(self, params, evaluator, encrypted):
        _, ct = encrypted
        out = evaluator.rotate_many(ct, [0, params.slots])
        assert out[0] is ct and out[params.slots] is ct

    def test_mixed_live_and_identity(self, params, keyset, encoder, decryptor,
                                     encrypted):
        values, ct = encrypted
        out = hoisted_rotations(ct, [0, 1, params.slots], keyset["galois"], params)
        assert out[0] is ct and out[params.slots] is ct
        got = encoder.decode(decryptor.decrypt(out[1]))
        assert np.abs(got - np.roll(values, -1)).max() < 1e-3


class TestPlanCache:
    def test_repeat_rotations_hit_the_plan_cache(self, params, keyset, encrypted):
        _, ct = encrypted
        hoisted_rotations(ct, STEPS, keyset["galois"], params)  # build
        before = all_cache_stats()["op_plans"]
        hoisted_rotations(ct, STEPS, keyset["galois"], params)
        after = all_cache_stats()["op_plans"]
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestSavings:
    def test_savings_formula(self):
        assert hoisting_modup_savings(beta=3, rotations=1) == 0.0
        assert hoisting_modup_savings(beta=3, rotations=4) == pytest.approx(0.75)

    def test_invalid(self):
        with pytest.raises(ValueError):
            hoisting_modup_savings(3, 0)
