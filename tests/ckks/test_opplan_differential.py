"""Differential tests: every GEMM path against the reference key switch.

The op-plan compiler (:mod:`repro.ckks.keyswitch.plan`) promises *bit
identity* with the textbook per-digit loop pipeline of
:mod:`repro.ckks.reference` -- exact modular sums are order-independent,
so fusing digits, rotations and BSGS terms into GEMMs must not change a
single limb.  These tests compare each shipped path with the reference
across both key-switch methods and the boundary levels (0, 1, max); the
bootstrap is pinned by golden stage digests.

Every comparison shares ONE key set: key generation is randomized, so
separately generated keys would (correctly) break bit identity.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    KlssConfig,
    small_test_parameters,
)
from repro.ckks import reference
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.hoisting import hoisted_rotations
from repro.ckks.keys import conjugation_galois_power, sample_uniform
from repro.ckks.keyswitch import hybrid, klss, plan as ksplan
from repro.ckks.linear_transform import LinearTransform
from repro.math.polynomial import RnsPolynomial

from .conftest import random_slots

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_BOOTSTRAP = FIXTURE_DIR / "golden_bootstrap_digests.json"
ENGINES = {"hybrid": hybrid, "klss": klss}


def assert_ct_identical(a, b):
    """Every limb of both components equal, plus level and scale."""
    assert a.level == b.level
    assert a.scale == b.scale
    assert_polys_identical((a.c0, a.c1), (b.c0, b.c1))


def assert_polys_identical(got, want):
    for g, w in zip(got, want):
        assert g.basis == w.basis
        assert np.array_equal(g.from_ntt().stack, w.from_ntt().stack)


def ct_digest(ct) -> str:
    """SHA-256 over a ciphertext's level, scale and coefficient limbs."""
    digest = hashlib.sha256(f"{ct.level}|{ct.scale!r}".encode())
    for poly in (ct.c0, ct.c1):
        digest.update(np.ascontiguousarray(poly.from_ntt().stack).tobytes())
    return digest.hexdigest()


@pytest.fixture()
def encrypted_at(encoder, encryptor, evaluator, rng, params):
    """A fresh encryption switched down to a level (``"max"`` = top)."""

    def make(level):
        ct = encryptor.encrypt(encoder.encode(random_slots(rng, encoder.slots)))
        target = params.max_level if level == "max" else level
        return evaluator.mod_switch_to_level(ct, target)

    return make


class TestKeySwitch:
    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    @pytest.mark.parametrize("level", [0, 1, "max"])
    def test_plan_matches_loop(self, params, keyset, encrypted_at, method, level):
        poly = encrypted_at(level).c1
        relin = keyset["relin"]
        assert_polys_identical(
            ENGINES[method].keyswitch(poly, relin, params),
            reference.keyswitch(poly, relin, params, method),
        )

    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    @pytest.mark.parametrize("level", [0, 1, "max"])
    def test_batched_plan_matches_loop(self, params, keyset, rng, method, level):
        """An ``(L, 3, N)`` batch rides one GEMM key switch; every batch
        row equals the reference key switch of that row alone."""
        level = params.max_level if level == "max" else level
        basis = params.q_basis(level)
        rows = [sample_uniform(params.degree, basis, rng) for _ in range(3)]
        batch = RnsPolynomial(
            params.degree, basis, np.stack([r.stack for r in rows], axis=1)
        )
        relin = keyset["relin"]
        ks_plan = ksplan.get_keyswitch_plan(relin, params, level, method)
        got = ksplan.gemm_keyswitch(batch, ks_plan)
        for i, row in enumerate(rows):
            want = reference.keyswitch(row, relin, params, method)
            for g, w in zip(got, want):
                assert g.basis == w.basis
                assert np.array_equal(g.stack[:, i], w.from_ntt().stack)

    @pytest.mark.parametrize(
        "params",
        [
            # The Barrett moduli of test_differential_evaluator.py: primes
            # just above 2**31 and just below the 2**62 ceiling.
            CkksParameters(degree=16, max_level=4, wordsize=32, dnum=2),
            CkksParameters(
                degree=16, max_level=4, wordsize=61, dnum=2, first_prime_bits=62
            ),
        ],
        ids=["just_above_2^31", "just_below_2^62"],
    )
    def test_barrett_boundary_moduli(self, params):
        gen = KeyGenerator(params, seed=101)
        relin = gen.relinearisation_key(gen.secret_key())
        rng = np.random.default_rng(102)
        for level in (1, params.max_level):
            poly = sample_uniform(params.degree, params.q_basis(level), rng)
            assert_polys_identical(
                hybrid.keyswitch(poly, relin, params),
                reference.keyswitch(poly, relin, params, "hybrid"),
            )


class TestRotate:
    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    @pytest.mark.parametrize("level", [0, 1, "max"])
    def test_evaluator_rotate_matches_loop(
        self, params, keyset, evaluator, klss_evaluator, encrypted_at, method, level
    ):
        ev = {"hybrid": evaluator, "klss": klss_evaluator}[method]
        ct = encrypted_at(level)
        for s in (1, 3):
            assert_ct_identical(
                ev.rotate(ct, s), reference.rotate(ct, s, keyset["galois"], method)
            )


STEPS = [1, 2, 3, 4, 8]


class TestHoistedRotations:
    """Hoisted rotations vs the hoisted reference (never vs non-hoisted --
    the approximate-ModUp slack makes those differ in the noise bits)."""

    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    @pytest.mark.parametrize("level", [0, 1, "max"])
    def test_plan_matches_loop(self, params, keyset, encrypted_at, method, level):
        ct = encrypted_at(level)
        plan = hoisted_rotations(ct, STEPS, keyset["galois"], params, method=method)
        for s in STEPS:
            want = reference.rotate(ct, s, keyset["galois"], method, hoisted=True)
            assert_ct_identical(plan[s], want)

    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    def test_identity_steps_short_circuit_identically(
        self, params, keyset, encrypted_at, method
    ):
        ct = encrypted_at("max")
        steps = [0, params.slots, 3, -2 * params.slots]
        plan = hoisted_rotations(ct, steps, keyset["galois"], params, method=method)
        for s in steps:
            want = reference.rotate(ct, s, keyset["galois"], method, hoisted=True)
            assert_ct_identical(plan[s], want)

    def test_rejects_unknown_method(self, params, keyset, encrypted_at):
        with pytest.raises(ValueError, match="unknown key-switch method"):
            hoisted_rotations(
                encrypted_at("max"), [1], keyset["galois"], params, method="bgv"
            )


@pytest.fixture(scope="module")
def lt_setup():
    params = small_test_parameters(
        degree=32,
        max_level=6,
        wordsize=25,
        dnum=3,
        klss=KlssConfig(wordsize_t=28, alpha_tilde=2),
    )
    gen = KeyGenerator(params, seed=33)
    sk = gen.secret_key()
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=4)
    decryptor = Decryptor(params, sk)
    relin = gen.relinearisation_key(sk)
    galois = gen.rotation_keys(sk, list(range(1, params.slots)))
    evaluators = {
        m: Evaluator(params, relin_key=relin, galois_keys=galois, method=m)
        for m in ("hybrid", "klss")
    }
    return params, encoder, encryptor, decryptor, evaluators


class TestLinearTransform:
    """Compiled BSGS plan vs the term-by-term reference applier."""

    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    @pytest.mark.parametrize("level", [1, 2, "max"])
    def test_plan_matches_loop(self, lt_setup, method, level):
        params, encoder, encryptor, decryptor, evaluators = lt_setup
        rng = np.random.default_rng(17)
        n = params.slots
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        lt = LinearTransform(encoder, m)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        ct = encryptor.encrypt(encoder.encode(z))
        target = params.max_level if level == "max" else level
        ct = evaluators[method].mod_switch_to_level(ct, target)
        out_plan = lt.apply(evaluators[method], ct)
        assert_ct_identical(
            out_plan, reference.linear_transform(lt, evaluators[method], ct)
        )
        got = encoder.decode(decryptor.decrypt(out_plan))
        assert np.abs(got - m @ z).max() < 1e-3

    @pytest.mark.parametrize("method", ["hybrid", "klss"])
    def test_identity_transform(self, lt_setup, method):
        """Every giant/baby step is the identity automorphism."""
        params, encoder, encryptor, decryptor, evaluators = lt_setup
        rng = np.random.default_rng(18)
        lt = LinearTransform(encoder, np.eye(params.slots, dtype=np.complex128))
        z = random_slots(rng, params.slots)
        ct = encryptor.encrypt(encoder.encode(z))
        out_plan = lt.apply(evaluators[method], ct)
        assert_ct_identical(
            out_plan, reference.linear_transform(lt, evaluators[method], ct)
        )
        assert np.abs(encoder.decode(decryptor.decrypt(out_plan)) - z).max() < 1e-3

    def test_single_off_diagonal(self, lt_setup):
        """One live baby, one live giant -- the smallest mixed schedule."""
        params, encoder, encryptor, decryptor, evaluators = lt_setup
        rng = np.random.default_rng(19)
        n = params.slots
        shift = np.roll(np.eye(n), 5, axis=1)  # (Mz)_i = z_{i+5}
        lt = LinearTransform(encoder, shift)
        z = random_slots(rng, n)
        ct = encryptor.encrypt(encoder.encode(z))
        out_plan = lt.apply(evaluators["hybrid"], ct)
        assert_ct_identical(
            out_plan, reference.linear_transform(lt, evaluators["hybrid"], ct)
        )
        got = encoder.decode(decryptor.decrypt(out_plan))
        assert np.abs(got - np.roll(z, -5)).max() < 1e-3

    def test_level_one_floor(self, lt_setup):
        params, encoder, encryptor, _, evaluators = lt_setup
        lt = LinearTransform(encoder, np.eye(params.slots, dtype=np.complex128))
        ct = encryptor.encrypt(encoder.encode([1.0]))
        ct = evaluators["hybrid"].mod_switch_to_level(ct, 0)
        with pytest.raises(ValueError):
            lt.apply(evaluators["hybrid"], ct)


@pytest.fixture(scope="module")
def boot_diff_setup():
    params = CkksParameters(
        degree=32, max_level=12, wordsize=25, dnum=4, first_prime_bits=27
    )
    gen = KeyGenerator(params, seed=5)
    sk = gen.secret_key(hamming_weight=1)
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=6)
    decryptor = Decryptor(params, sk)
    evaluator = Evaluator(
        params, relin_key=gen.relinearisation_key(sk), method="hybrid"
    )
    boot = Bootstrapper(
        params, encoder, evaluator, eval_degree=15, overflow_bound=1.0
    )
    galois = gen.rotation_keys(sk, boot.required_rotations())
    conj = conjugation_galois_power(params.degree)
    galois.add(conj, gen.galois_key(sk, conj))
    evaluator.galois_keys = galois
    rng = np.random.default_rng(23)
    values = np.clip(0.3 * rng.normal(size=params.slots), -0.8, 0.8)
    ct = encryptor.encrypt(encoder.encode(values, level=0))
    return encoder, decryptor, boot, values, ct


def _golden_stages() -> dict:
    assert GOLDEN_BOOTSTRAP.exists(), (
        f"{GOLDEN_BOOTSTRAP} missing -- run `pytest --update-golden` once to create it"
    )
    return json.loads(GOLDEN_BOOTSTRAP.read_text())["stages"]


class TestBootstrapEndToEnd:
    """The bootstrap is pinned by golden stage digests.

    ``golden_bootstrap_digests.json`` was recorded from both the op-plan
    and a per-digit loop bootstrap, which agreed at every stage.  Run
    ``pytest --update-golden`` only after an intentional change of limbs.
    """

    def test_plan_bootstrap_matches_loop_bit_for_bit(self, boot_diff_setup):
        encoder, decryptor, boot, values, ct = boot_diff_setup
        out = boot.bootstrap(ct)
        assert ct_digest(out) == _golden_stages()["bootstrap"]
        got = encoder.decode(decryptor.decrypt(out)).real
        assert np.abs(got - values).max() < 2e-2

    def test_stage_outputs_match(self, boot_diff_setup, update_golden):
        """ModRaise / CtS / EvalMod / StC each match their golden digest."""
        _, _, boot, _, ct = boot_diff_setup
        raised = boot.mod_raise(ct)
        lo, hi = boot.coeff_to_slot(raised)
        w_lo, w_hi = boot.eval_mod(lo), boot.eval_mod(hi)
        stages = {
            "mod_raise": ct_digest(raised),
            "coeff_to_slot_lo": ct_digest(lo),
            "coeff_to_slot_hi": ct_digest(hi),
            "eval_mod_lo": ct_digest(w_lo),
            "eval_mod_hi": ct_digest(w_hi),
            "slot_to_coeff": ct_digest(boot.slot_to_coeff(w_lo, w_hi)),
            "bootstrap": ct_digest(boot.bootstrap(ct)),
        }
        if update_golden:
            GOLDEN_BOOTSTRAP.write_text(
                json.dumps({"stages": stages}, sort_keys=True, indent=2) + "\n"
            )
            pytest.skip(f"regenerated {GOLDEN_BOOTSTRAP.name}")
        assert stages == _golden_stages()
