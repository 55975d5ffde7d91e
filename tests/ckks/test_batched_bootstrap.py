"""The bootstrap carries both slot halves through EvalMod as one batch.

CoeffToSlot's lo and hi halves leave with exactly equal level and scale,
so they stack into one ``(L, 2, N)`` ciphertext and EvalMod runs once per
bootstrap.  Batching must not change a limb: each item runs the same exact
arithmetic it runs alone.  The values the pipeline builds from already
reduced limbs are wrapped, not reduced a second time.
"""

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ckks import poly_eval
from repro.ckks.batched import stack_ciphertexts, unstack_ciphertext
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.keys import conjugation_galois_power
from repro.ckks.keyswitch import plan as ksplan
from repro.math import modarith
from repro.math.modstack import ModulusStack
from repro.math.polynomial import RnsPolynomial

from .test_opplan_differential import ct_digest


@pytest.fixture(scope="module")
def boot_setup():
    params = CkksParameters(
        degree=32, max_level=12, wordsize=25, dnum=4, first_prime_bits=27
    )
    gen = KeyGenerator(params, seed=71)
    sk = gen.secret_key(hamming_weight=1)
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=72)
    decryptor = Decryptor(params, sk)
    evaluator = Evaluator(params, relin_key=gen.relinearisation_key(sk))
    boot = Bootstrapper(params, encoder, evaluator)
    galois = gen.rotation_keys(sk, boot.required_rotations())
    conj = conjugation_galois_power(params.degree)
    galois.add(conj, gen.galois_key(sk, conj))
    evaluator.galois_keys = galois
    return params, encoder, encryptor, decryptor, evaluator, boot


@pytest.fixture()
def level0(boot_setup, rng):
    params, encoder, encryptor, *_ = boot_setup
    values = np.clip(0.3 * rng.normal(size=params.slots), -0.8, 0.8)
    return values, encryptor.encrypt(encoder.encode(values, level=0))


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestBatchedEvalMod:
    def test_halves_share_level_and_scale(self, boot_setup, level0):
        *_, boot = boot_setup
        lo, hi = boot.coeff_to_slot(boot.mod_raise(level0[1]))
        assert lo.c0.batch_shape == hi.c0.batch_shape == ()
        assert (lo.level, lo.scale) == (hi.level, hi.scale)

    def test_batched_eval_mod_matches_each_half(self, boot_setup, level0):
        *_, boot = boot_setup
        lo, hi = boot.coeff_to_slot(boot.mod_raise(level0[1]))
        w_lo, w_hi = unstack_ciphertext(boot.eval_mod(stack_ciphertexts([lo, hi])))
        assert ct_digest(w_lo) == ct_digest(boot.eval_mod(lo))
        assert ct_digest(w_hi) == ct_digest(boot.eval_mod(hi))

    def test_bootstrap_equals_the_per_half_pipeline(self, boot_setup, level0):
        params, encoder, _, decryptor, _, boot = boot_setup
        values, ct = level0
        lo, hi = boot.coeff_to_slot(boot.mod_raise(ct))
        per_half = boot.slot_to_coeff(boot.eval_mod(lo), boot.eval_mod(hi))
        out = boot.bootstrap(ct)
        assert ct_digest(out) == ct_digest(per_half)
        got = encoder.decode(decryptor.decrypt(out)).real
        assert np.abs(got - values).max() < 5e-2


class TestOnePassCounts:
    def test_one_eval_mod_per_bootstrap(self, boot_setup, level0, monkeypatch):
        *_, boot = boot_setup
        calls = {}
        _counting(monkeypatch, poly_eval.PolynomialEvaluator, "evaluate", calls)
        boot.bootstrap(level0[1])
        assert calls == {"evaluate": 1}

    def test_coeff_to_slot_rotates_each_input_once(
        self, boot_setup, level0, monkeypatch
    ):
        *_, boot = boot_setup
        raised = boot.mod_raise(level0[1])
        calls = {}
        _counting(monkeypatch, ksplan, "hoisted_gemm_rotations", calls)
        _counting(monkeypatch, ksplan, "gemm_rotation_batch", calls)
        boot.coeff_to_slot(raised)
        assert calls == {"hoisted_gemm_rotations": 2, "gemm_rotation_batch": 2}


class TestReducedOnce:
    def test_keep_limbs_reuses_its_basis(self, boot_setup, level0):
        _, ct = level0
        raised = boot_setup[-1].mod_raise(ct)
        first = raised.c0.keep_limbs(4).basis
        assert raised.c0.keep_limbs(4).basis is first
        assert raised.c1.keep_limbs(4).basis is first
        assert first.moduli == raised.c0.basis.moduli[:4]

    def test_rescale_wraps_the_divided_stack(self, boot_setup, level0, monkeypatch):
        _, _, _, _, evaluator, boot = boot_setup
        raised = boot.mod_raise(level0[1])
        divided, reduced = [], []
        divide, reduce = ModulusStack.divide_exact_drop, ModulusStack.reduce

        def spy_divide(self, *args):
            divided.append(divide(self, *args))
            return divided[-1]

        def spy_reduce(self, stack):
            reduced.append(stack)
            return reduce(self, stack)

        monkeypatch.setattr(ModulusStack, "divide_exact_drop", spy_divide)
        monkeypatch.setattr(ModulusStack, "reduce", spy_reduce)
        out = evaluator.rescale(evaluator.multiply_plain(raised, boot.encoder.encode([0.5])))
        assert out.c0.stack is divided[0] and out.c1.stack is divided[1]
        assert not any(r is d for r in reduced for d in divided)

    def test_from_int_coeffs_reduces_each_limb_once(self, boot_setup, rng, monkeypatch):
        params = boot_setup[0]
        basis = params.q_basis(params.max_level)
        coeffs = rng.integers(-(2**40), 2**40, size=params.degree)
        want = RnsPolynomial(params.degree, basis, basis.decompose(coeffs))
        calls = {}
        _counting(monkeypatch, modarith, "asarray_mod", calls)
        got = RnsPolynomial.from_int_coeffs(coeffs, params.degree, basis)
        assert calls == {"asarray_mod": len(basis)}
        assert got.stack.dtype == want.stack.dtype
        assert np.array_equal(got.stack, want.stack)

    def test_stacking_reduces_nothing(self, boot_setup, level0, monkeypatch):
        *_, boot = boot_setup
        lo, hi = boot.coeff_to_slot(boot.mod_raise(level0[1]))
        calls = {}
        _counting(monkeypatch, ModulusStack, "reduce", calls)
        _counting(monkeypatch, modarith, "asarray_mod", calls)
        pair = stack_ciphertexts([lo, hi])
        again = unstack_ciphertext(pair)
        assert calls == {}
        assert ct_digest(again[0]) == ct_digest(lo)
        assert ct_digest(again[1]) == ct_digest(hi)
