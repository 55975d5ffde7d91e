"""Extension: the op-plan (GEMM-form) bootstrap replays its caches.

The full functional bootstrap routes through the op-plan compiler: hoisted
baby rotations as one BConv GEMM + batched IP einsum, BSGS transforms as
compiled :class:`LinearTransformPlan` objects with the rescale folded into
the accumulation epilogue, and EvalMod constants replayed from cache.  A
serving deployment bootstraps thousands of times per compile, so after
the first run no plaintext may be encoded again.

These parameters (N=2^5, L=12, 25-bit primes, 27-bit q0, dnum=4, hybrid
key switch, Hamming-weight-1 secret) are the ``boot-n32`` workload of the
wall-clock benchmark in ``bench/``, which tracks its speed.  Its limbs are
pinned by the golden stage digests of
``tests/ckks/test_opplan_differential.py``.
"""

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    CkksParameters,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.keys import conjugation_galois_power

DEGREE = 32
MAX_LEVEL = 12
WORDSIZE = 25
DNUM = 4


@pytest.fixture(scope="module")
def workload():
    params = CkksParameters(
        degree=DEGREE,
        max_level=MAX_LEVEL,
        wordsize=WORDSIZE,
        dnum=DNUM,
        first_prime_bits=27,
    )
    gen = KeyGenerator(params, seed=5)
    sk = gen.secret_key(hamming_weight=1)
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=6)
    evaluator = Evaluator(
        params, relin_key=gen.relinearisation_key(sk), method="hybrid"
    )
    boot = Bootstrapper(params, encoder, evaluator)
    galois = gen.rotation_keys(sk, boot.required_rotations())
    conj = conjugation_galois_power(params.degree)
    galois.add(conj, gen.galois_key(sk, conj))
    evaluator.galois_keys = galois

    rng = np.random.default_rng(7)
    v = np.clip(0.3 * rng.normal(size=params.slots), -0.8, 0.8)
    ct = encryptor.encrypt(encoder.encode(v, level=0))
    return encoder, boot, ct


def test_second_bootstrap_reencodes_nothing(workload):
    """A warm bootstrap performs ZERO plaintext encodes: the diagonal and
    EvalMod-constant caches serve every plaintext."""
    encoder, boot, ct = workload
    boot.bootstrap(ct)  # warm: fills every (level, scale) cache slot
    calls = {"n": 0}
    original = encoder.encode

    def counting_encode(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    encoder.encode = counting_encode
    try:
        boot.bootstrap(ct)
    finally:
        encoder.encode = original
    assert calls["n"] == 0, f"{calls['n']} plaintext re-encodes on a warm run"
