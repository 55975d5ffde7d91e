"""Extension: op-plan (GEMM-form) bootstrap benchmark.

ISSUE 6's acceptance bar: the full functional bootstrap routed through the
op-plan compiler -- hoisted baby rotations as one BConv GEMM + batched IP
einsum, BSGS transforms as compiled :class:`LinearTransformPlan` objects
with the rescale folded into the accumulation epilogue, EvalMod constants
replayed from cache -- must be at least **3x** faster than the per-digit
loop path (``method="hybrid-loop"``) while producing *bit-identical*
limbs.  Measured 5.8-6.5x on a 2-core Xeon VM (plan ~32 ms, loop
~190 ms) since N=2^5 transforms run as one-step GEMM NTTs; 2.8-4.0x
when they ran as butterfly stages.

Timings are taken warm: the first run of each path compiles the rotation /
transform plans and encodes the diagonal plaintexts; a serving deployment
bootstraps thousands of times per compile, so the steady state is what the
gate measures.  Both pipelines share ONE key set (key generation is
randomized; separate keys would break bit identity).
"""

import time

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
from repro.ckks.keyswitch import plan as ksplan

DEGREE = 32
MAX_LEVEL = 12
WORDSIZE = 25
DNUM = 4
SPEEDUP_FLOOR = 3.0


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
    relin = gen.relinearisation_key(sk)
    ev_plan = Evaluator(params, relin_key=relin, method="hybrid")
    ev_loop = Evaluator(params, relin_key=relin, method="hybrid-loop")
    boot_plan = Bootstrapper(params, encoder, ev_plan)
    boot_loop = Bootstrapper(params, encoder, ev_loop)
    galois = gen.rotation_keys(sk, boot_plan.required_rotations())
    conj = conjugation_galois_power(params.degree)
    galois.add(conj, gen.galois_key(sk, conj))
    ev_plan.galois_keys = galois
    ev_loop.galois_keys = galois

    rng = np.random.default_rng(7)
    v = np.clip(0.3 * rng.normal(size=params.slots), -0.8, 0.8)
    ct = encryptor.encrypt(encoder.encode(v, level=0))
    ksplan.clear_keyswitch_plan_cache()
    return params, encoder, boot_plan, boot_loop, ct


def _best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_identical(a, b):
    assert a.level == b.level
    assert a.scale == b.scale
    for pa, pb in zip((a.c0, a.c1), (b.c0, b.c1)):
        assert np.array_equal(
            pa.from_ntt().limb_stack(), pb.from_ntt().limb_stack()
        )


def test_plan_bootstrap_bit_identical_to_loop(workload):
    _, _, boot_plan, boot_loop, ct = workload
    _assert_identical(boot_plan.bootstrap(ct), boot_loop.bootstrap(ct))


def test_second_bootstrap_reencodes_nothing(workload):
    """A warm bootstrap performs ZERO plaintext encodes: the diagonal and
    EvalMod-constant caches serve every plaintext."""
    _, encoder, boot_plan, _, ct = workload
    boot_plan.bootstrap(ct)  # warm: fills every (level, scale) cache slot
    calls = {"n": 0}
    original = encoder.encode

    def counting_encode(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    encoder.encode = counting_encode
    try:
        boot_plan.bootstrap(ct)
    finally:
        encoder.encode = original
    assert calls["n"] == 0, f"{calls['n']} plaintext re-encodes on a warm run"


def test_plan_bootstrap_speedup_at_least_3x(workload):
    _, _, boot_plan, boot_loop, ct = workload
    boot_plan.bootstrap(ct)  # warm plans, diagonal + constant caches
    boot_loop.bootstrap(ct)
    t_plan = _best_time(lambda: boot_plan.bootstrap(ct), repeats=3)
    t_loop = _best_time(lambda: boot_loop.bootstrap(ct), repeats=3)
    stats = ksplan.keyswitch_plan_cache_stats()
    speedup = t_loop / t_plan
    print(
        f"\nBootstrap N=2^5 dnum={DNUM} L={MAX_LEVEL}: "
        f"loop {t_loop * 1e3:.1f} ms, plan {t_plan * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x "
        f"(plan cache: {stats['hits']} hits / {stats['misses']} misses)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"op-plan bootstrap speedup only {speedup:.2f}x "
        f"(needs >= {SPEEDUP_FLOOR}x)"
    )
