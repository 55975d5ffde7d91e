"""Stacked linear transforms: M matrices applied to one input in one plan.

A ``(M, slots, slots)`` stack shares one BSGS layout (the union of its
matrices' nonzero diagonals): the babies are rotated once, and the
products, INTT, giant steps and rescale run once over all M outputs,
which come back as one batched ciphertext.  For dense matrices the union
layout is each matrix's own, so output ``m`` must equal the single-matrix
plan of matrix ``m`` -- and the term-by-term reference of it -- limb for
limb.  The bootstrap's CoeffToSlot stacks (one per input, each holding the
lo and hi matrices) are checked the same way.
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
    KlssConfig,
    reference,
    small_test_parameters,
)
from repro.ckks import bootstrap as bootstrap_module
from repro.ckks.batched import batch_size, unstack_ciphertext
from repro.ckks.keyswitch import plan as ksplan
from repro.ckks.linear_transform import LinearTransform

from .conftest import random_slots
from .test_opplan_differential import assert_ct_identical


@pytest.fixture(scope="module")
def setup():
    params = small_test_parameters(
        degree=32,
        max_level=6,
        wordsize=25,
        dnum=3,
        klss=KlssConfig(wordsize_t=28, alpha_tilde=2),
    )
    gen = KeyGenerator(params, seed=61)
    sk = gen.secret_key()
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=62)
    decryptor = Decryptor(params, sk)
    relin = gen.relinearisation_key(sk)
    galois = gen.rotation_keys(sk, list(range(1, params.slots)))
    evaluators = {
        m: Evaluator(params, relin_key=relin, galois_keys=galois, method=m)
        for m in ("hybrid", "klss")
    }
    return params, encoder, encryptor, decryptor, evaluators


@pytest.fixture(scope="module")
def cts_stacks(setup):
    """The two CoeffToSlot matrix stacks a Bootstrapper builds here."""
    params, encoder, _, _, evaluators = setup
    captured = []

    class Capturing(LinearTransform):
        def __init__(self, encoder, matrix, **kwargs):
            captured.append(np.asarray(matrix))
            super().__init__(encoder, matrix, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap_module, "LinearTransform", Capturing)
        bootstrap_module.Bootstrapper(params, encoder, evaluators["hybrid"])
    stacks = [m for m in captured if m.ndim == 3]
    assert len(stacks) == 2 and all(len(m) == 2 for m in stacks)
    return stacks


def _dense_pair(rng, n):
    return np.stack(
        [(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n for _ in range(2)]
    )


def _input(setup, rng, method, level):
    params, encoder, encryptor, _, evaluators = setup
    z = random_slots(rng, params.slots)
    ct = encryptor.encrypt(encoder.encode(z))
    target = params.max_level if level == "max" else level
    return z, evaluators[method].mod_switch_to_level(ct, target)


@pytest.mark.parametrize("method", ["hybrid", "klss"])
@pytest.mark.parametrize("level", [1, "max"])
@pytest.mark.parametrize("case", ["random", "cts_ct", "cts_conj"])
def test_output_m_is_matrix_m(setup, cts_stacks, rng, method, level, case):
    """Output m == the single-matrix plan of matrix m == its reference."""
    params, encoder, _, decryptor, evaluators = setup
    ev = evaluators[method]
    if case == "random":
        mats = _dense_pair(rng, params.slots)
    else:
        mats = cts_stacks[0 if case == "cts_ct" else 1]
    z, ct = _input(setup, rng, method, level)
    stacked = LinearTransform(encoder, mats)
    out = stacked.apply(ev, ct)
    assert batch_size(out) == len(mats)
    items = unstack_ciphertext(out)
    for m, matrix in enumerate(mats):
        single = LinearTransform(encoder, matrix)
        assert single.baby == stacked.baby
        assert_ct_identical(items[m], single.apply(ev, ct))
        assert_ct_identical(items[m], reference.linear_transform(single, ev, ct))
        got = encoder.decode(decryptor.decrypt(items[m]))
        assert np.abs(got - matrix @ z).max() < 1e-3
    assert_ct_identical(out, reference.linear_transform(stacked, ev, ct))


def test_dense_and_off_diagonal_stack_decodes_both(setup, rng):
    """Matrices with different diagonals share the union layout."""
    params, encoder, _, decryptor, evaluators = setup
    n = params.slots
    dense = _dense_pair(rng, n)[0]
    shift = np.roll(np.eye(n), 5, axis=1)  # (Mz)_i = z_{i+5}
    lt = LinearTransform(encoder, np.stack([dense, shift]))
    assert lt.diagonal_indices == list(range(n))
    z, ct = _input(setup, rng, "hybrid", "max")
    out = lt.apply(evaluators["hybrid"], ct)
    got_dense, got_shift = (
        encoder.decode(decryptor.decrypt(item)) for item in unstack_ciphertext(out)
    )
    assert np.abs(got_dense - dense @ z).max() < 1e-3
    assert np.abs(got_shift - np.roll(z, -5)).max() < 1e-3
    assert_ct_identical(out, reference.linear_transform(lt, evaluators["hybrid"], ct))


def test_stack_of_one_is_the_matrix(setup, rng):
    """A 2-D matrix is the M=1 case: same limbs, minus the batch axis."""
    params, encoder, _, _, evaluators = setup
    matrix = _dense_pair(rng, params.slots)[0]
    _, ct = _input(setup, rng, "hybrid", 3)
    flat = LinearTransform(encoder, matrix).apply(evaluators["hybrid"], ct)
    one = LinearTransform(encoder, matrix[None]).apply(evaluators["hybrid"], ct)
    assert flat.c0.batch_shape == ()
    assert one.c0.batch_shape == (1,)
    assert_ct_identical(flat, unstack_ciphertext(one)[0])


def test_stack_rotates_the_input_once(setup, rng, monkeypatch):
    """One hoisted baby batch and one giant batch serve all M outputs."""
    params, encoder, _, _, evaluators = setup
    calls = {"hoisted": 0, "giants": 0}
    hoisted, giants = ksplan.hoisted_gemm_rotations, ksplan.gemm_rotation_batch

    def count_hoisted(*args):
        calls["hoisted"] += 1
        return hoisted(*args)

    def count_giants(*args):
        calls["giants"] += 1
        return giants(*args)

    monkeypatch.setattr(ksplan, "hoisted_gemm_rotations", count_hoisted)
    monkeypatch.setattr(ksplan, "gemm_rotation_batch", count_giants)
    mats = np.concatenate([_dense_pair(rng, params.slots)] * 2)  # M = 4
    _, ct = _input(setup, rng, "klss", "max")
    out = LinearTransform(encoder, mats).apply(evaluators["klss"], ct)
    assert batch_size(out) == 4
    assert calls == {"hoisted": 1, "giants": 1}


@pytest.mark.parametrize("shape", [(32,), (2, 2, 16, 16)])
def test_rejects_other_ranks(setup, shape):
    _, encoder, *_ = setup
    with pytest.raises(ValueError, match="stack of matrices"):
        LinearTransform(encoder, np.ones(shape))


@pytest.mark.parametrize("wordsize", [36, 62])
def test_wide_word_backends(rng, wordsize):
    """Barrett (36-bit) and object (62-bit) stacks give the same limbs."""
    params = CkksParameters(degree=16, max_level=3, wordsize=wordsize, dnum=2)
    gen = KeyGenerator(params, seed=63)
    sk = gen.secret_key()
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=64)
    ev = Evaluator(
        params,
        relin_key=gen.relinearisation_key(sk),
        galois_keys=gen.rotation_keys(sk, list(range(1, params.slots))),
    )
    mats = _dense_pair(rng, params.slots)
    z = random_slots(rng, params.slots)
    ct = encryptor.encrypt(encoder.encode(z))
    items = unstack_ciphertext(LinearTransform(encoder, mats).apply(ev, ct))
    for m, matrix in enumerate(mats):
        assert_ct_identical(items[m], LinearTransform(encoder, matrix).apply(ev, ct))
        got = encoder.decode(Decryptor(params, sk).decrypt(items[m]))
        assert np.abs(got - matrix @ z).max() < 1e-3
