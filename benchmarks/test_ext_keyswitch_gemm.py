"""Extension: GEMM-form key-switch engine at N = 2**14, checked bit for bit.

The paper's core claim (Sections 4.2-4.4) is that BConv, the key-switch
inner product and the NTT all become GEMMs: BConv is one batched matmul
against the precomputed conversion matrix (Algorithm 2), the inner product
is a lazily-reduced einsum against the pre-stacked evk tensor (Algorithm
4's bound analysis), and the NTT factors into small matmuls.  Those
rewrites are only admissible if they are *exact*: at ``N = 2**14`` with
``dnum = 12`` both GEMM key switches must match the per-digit reference
pipeline (:func:`repro.ckks.reference.keyswitch`) limb for limb.  Speed
is tracked by the committed wall-clock benchmark (``bench/``), not here.
"""

import numpy as np
import pytest

from repro.ckks import reference
from repro.ckks.keys import KeyGenerator
from repro.ckks.keyswitch import hybrid, klss
from repro.ckks.params import CkksParameters, KlssConfig
from repro.math.polynomial import RnsPolynomial

LOG_DEGREE = 14
DEGREE = 1 << LOG_DEGREE
WORDSIZE = 25
DNUM = 12


@pytest.fixture(scope="module")
def workload():
    params = CkksParameters(
        degree=DEGREE,
        max_level=2 * DNUM - 1,
        wordsize=WORDSIZE,
        dnum=DNUM,
        klss=KlssConfig(wordsize_t=30, alpha_tilde=2),
    )
    gen = KeyGenerator(params, seed=0)
    ksk = gen.relinearisation_key(gen.secret_key())
    rng = np.random.default_rng(0)
    basis = params.q_basis(params.max_level)
    limbs = [rng.integers(0, q, size=DEGREE, dtype=np.uint64) for q in basis.moduli]
    return params, ksk, RnsPolynomial(DEGREE, basis, limbs, is_ntt=False)


@pytest.mark.parametrize("method", ["klss", "hybrid"])
def test_gemm_keyswitch_matches_reference(workload, method):
    params, ksk, poly = workload
    got = {"klss": klss, "hybrid": hybrid}[method].keyswitch(poly, ksk, params)
    want = reference.keyswitch(poly, ksk, params, method)
    for left, right in zip(got, want):
        assert left.basis == right.basis
        assert np.array_equal(left.stack, right.stack)
