"""Cold and warm runs agree for every named cache.

One case per named cache (:mod:`repro.telemetry.stats`) runs the cache's
owning public function, runs it again warm, empties every cache with
:func:`clear_caches`, runs it cold and compares the two results bit for
bit.  Hypothesis draws the inputs of the math caches -- degree, moduli,
Galois power -- on both modular-arithmetic backends.  The case table must
name exactly the registered caches, so a new process-wide cache cannot
land without a case.
"""

import contextlib
import dataclasses
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_application
from repro.ckks.keys import KeyGenerator, sample_uniform
from repro.ckks.keyswitch import hybrid
from repro.ckks.params import small_test_parameters
from repro.core import NeoContext, bconv_cost, ip_cost, ntt_cost
from repro.core.autotuner import DEFAULT_TUNING_STORE
from repro.gpu.device import A100
from repro.gpu.multi_gpu import single_gpu_time_s
from repro.math import modarith
from repro.math.modstack import ModulusStack
from repro.math.ntt import get_stack
from repro.math.polynomial import (
    automorphism,
    automorphism_gather_maps,
    negacyclic_multiply,
)
from repro.math.primes import ntt_primes
from repro.math.rns import RnsBasis, bconv_approx
from repro.serving.server import NeoServiceModel
from repro.telemetry import stats
from repro.telemetry.stats import CacheStats, all_cache_sizes, clear_caches


def assert_identical(warm, cold):
    """Equal values of equal types, arrays compared by dtype and content."""
    assert type(warm) is type(cold)
    if isinstance(warm, np.ndarray):
        assert warm.dtype == cold.dtype and warm.shape == cold.shape
        assert np.array_equal(warm, cold)
    elif isinstance(warm, (tuple, list)):
        assert len(warm) == len(cold)
        for w, c in zip(warm, cold):
            assert_identical(w, c)
    else:
        assert warm == cold


# ---------------------------------------------------------------------------
# Math caches: Hypothesis-drawn degree, moduli, Galois power and backend
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MathInputs:
    degree: int
    moduli: Tuple[int, ...]
    #: A disjoint basis of the same prime sizes (the BConv target).
    targets: Tuple[int, ...]
    #: A modulus at or above ``2**31`` (Barrett on the native backend).
    barrett: int
    galois: int
    native: bool
    seed: int

    def backend(self):
        return contextlib.nullcontext() if self.native else modarith.object_backend()

    def residues(self, modulus: int, salt: int = 0) -> np.ndarray:
        rng = np.random.default_rng([self.seed, modulus, salt])
        return modarith.asarray_mod(
            rng.integers(0, modulus, size=self.degree, dtype=np.uint64), modulus
        )

    def limbs(self, moduli, salt: int = 0) -> np.ndarray:
        return np.stack([self.residues(q, salt) for q in moduli])


@st.composite
def math_inputs(draw):
    degree = draw(st.sampled_from((4, 8, 32, 64, 128)))
    bits = draw(
        st.lists(st.sampled_from((20, 25, 30, 36, 45, 59)), min_size=1,
                 max_size=3, unique=True)
    )
    pairs = [ntt_primes(b, degree, 2) for b in bits]
    return MathInputs(
        degree=degree,
        moduli=tuple(p[0] for p in pairs),
        targets=tuple(p[1] for p in pairs),
        barrett=ntt_primes(draw(st.sampled_from((32, 40, 50, 61))), degree, 1)[0],
        galois=2 * draw(st.integers(0, degree - 1)) + 1,
        native=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _ntt_plans(inp):
    q = inp.moduli[0]
    return negacyclic_multiply(inp.residues(q), inp.residues(q, 1), inp.degree, q)


def _ntt_stacks(inp):
    stack = get_stack(inp.degree, inp.moduli)
    fwd = stack.forward(inp.limbs(inp.moduli))
    return fwd, stack.inverse(fwd)


def _modstacks(inp):
    mstack = ModulusStack.for_moduli(inp.moduli)
    a, b = inp.limbs(inp.moduli), inp.limbs(inp.moduli, 1)
    return mstack.mul(a, b), mstack.add(a, b)


def _bconv_tables(inp):
    limbs = list(inp.limbs(inp.moduli))
    return bconv_approx(limbs, RnsBasis(inp.moduli), RnsBasis(inp.targets))


def _automorphisms(inp):
    q = inp.moduli[0]
    return (
        automorphism(inp.residues(q), inp.galois, inp.degree, q),
        automorphism_gather_maps(inp.galois, inp.degree),
    )


def _barrett(inp):
    q = inp.barrett
    return modarith.mul_mod(inp.residues(q), inp.residues(q, 1), q)


MATH_CASES = {
    "ntt_plans": _ntt_plans,
    "ntt_stacks": _ntt_stacks,
    "modstacks": _modstacks,
    "bconv_tables": _bconv_tables,
    "automorphisms": _automorphisms,
    "barrett": _barrett,
}

#: A native-backend draw that reaches every math cache.
EXAMPLE = MathInputs(
    degree=8,
    moduli=tuple(ntt_primes(30, 8, 2)),
    targets=tuple(ntt_primes(25, 8, 2)),
    barrett=ntt_primes(40, 8, 1)[0],
    galois=5,
    native=True,
    seed=1,
)


# ---------------------------------------------------------------------------
# Model, plan and serving caches: fixed inputs
# ---------------------------------------------------------------------------

_PARAMS = small_test_parameters()
_KEYS = KeyGenerator(_PARAMS, seed=42)
_KSK = _KEYS.relinearisation_key(_KEYS.secret_key())
_POLY = sample_uniform(
    _PARAMS.degree, _PARAMS.q_basis(_PARAMS.max_level), np.random.default_rng(0)
)


def _op_plans():
    return tuple(p.stack for p in hybrid.keyswitch(_POLY, _KSK, _PARAMS))


def _trace_cache():
    ctx = NeoContext("C")  # the process-wide trace cache
    return ctx.operation_trace("hrotate", 30), ctx.application_trace(
        get_application("helr")
    )


def _kernel_costs():
    return (
        ntt_cost(2**16, 128, 36, style="radix16", component="tcu_fp64"),
        bconv_cost(4, 8, 128, 2**16, 36, style="gemm"),
        ip_cost(9, 8, 8, 128, 2**16, 48, style="gemm"),
    )


def _autotune_store():
    report = DEFAULT_TUNING_STORE.get_or_tune("helr", params="C", device=A100)
    # the search's own cache counters depend on what was warm before it
    return dataclasses.replace(report, cache_hits=0, cache_misses=0)


def _single_gpu_times():
    trace = NeoContext("C").operation_trace("hmult", 35)
    return single_gpu_time_s(trace), single_gpu_time_s(trace, streams=4)


def _span_descriptors():
    return NeoServiceModel("C").batch_spans("helr", 8, 4)


MODEL_CASES = {
    "op_plans": _op_plans,
    "trace_cache": _trace_cache,
    "kernel_costs": _kernel_costs,
    "autotune_store": _autotune_store,
    "single_gpu_times": _single_gpu_times,
    "span_descriptors": _span_descriptors,
}

NAMES = sorted(all_cache_sizes())


def _run(name):
    if name in MATH_CASES:
        return MATH_CASES[name](EXAMPLE)
    return MODEL_CASES[name]()


def test_every_named_cache_has_a_case():
    assert set(MATH_CASES) | set(MODEL_CASES) == set(NAMES)


@pytest.mark.parametrize("name", sorted(MATH_CASES))
@settings(max_examples=20, deadline=None)
@given(inp=math_inputs())
def test_math_cold_run_matches_warm(name, inp):
    run = MATH_CASES[name]
    with inp.backend():
        run(inp)
        warm = run(inp)
        clear_caches()
        cold = run(inp)
    assert_identical(warm, cold)


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_model_cold_run_matches_warm(name):
    run = MODEL_CASES[name]
    run()
    warm = run()
    clear_caches()
    cold = run()
    assert_identical(warm, cold)


@pytest.mark.parametrize("name", NAMES)
def test_clear_empties_and_zeroes(name):
    _run(name)
    cache = stats._REGISTRY[name]
    assert cache.maxsize > 0
    assert len(cache) > 0 and cache.stats.lookups > 0, "the case misses its cache"
    cache.clear()
    assert len(cache) == 0
    assert cache.stats == CacheStats()
