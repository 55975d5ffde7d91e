"""The paper's core numerical trick, executed: wide modular GEMMs on FP64.

Section 3.4 of the paper argues that a 36-bit modular GEMM needs only
**3** FP64 plane products (bit-slicing B into 12-bit planes, all partial
sums below 2**53) versus **25** INT8 plane products -- and 48-bit needs
4 vs 36.  This example runs both decompositions numerically, checks them
bit-exact against integer GEMM, and then runs the library's NTT at
N = 2**16 over a 25-bit prime: its multi-step engine is the paper's
16 x 16 x 16 x 16 radix-16 factorisation (Section 4.4), one exact float64
GEMM per step.

Run:  python examples/tensor_core_gemm.py
"""

import numpy as np

from repro.gpu.tensorcore import (
    fp64_gemm_mod,
    int8_gemm_mod,
    plan_fp64_split,
    plan_int8_split,
    reference_gemm_mod,
)
from repro.math.ntt import get_plan, get_stack
from repro.math.primes import ntt_primes


def demonstrate_gemm(wordsize):
    q = ntt_primes(wordsize, 64, 1)[0]
    rng = np.random.default_rng(wordsize)
    m, n, k = 32, 16, 16
    a = rng.integers(0, int(q), size=(m, k), dtype=np.uint64).astype(object) % q
    b = rng.integers(0, int(q), size=(k, n), dtype=np.uint64).astype(object) % q

    fp64_plan = plan_fp64_split(wordsize, wordsize, k)
    int8_plan = plan_int8_split(wordsize, wordsize)
    want = reference_gemm_mod(a, b, q)
    fp64 = fp64_gemm_mod(a, b, q)
    int8 = int8_gemm_mod(a, b, q)
    assert (np.asarray(fp64, dtype=object) == np.asarray(want, dtype=object)).all()
    assert (np.asarray(int8, dtype=object) == np.asarray(want, dtype=object)).all()
    print(
        f"WordSize {wordsize}: FP64 path = {fp64_plan.products} plane products "
        f"({fp64_plan.a_planes}x{fp64_plan.b_planes}, "
        f"{fp64_plan.a_bits}/{fp64_plan.b_bits} bits), "
        f"INT8 path = {int8_plan.products} plane products -- both bit-exact"
    )


def demonstrate_ntt():
    degree = 1 << 16
    q = ntt_primes(25, degree, 1)[0]
    stack = get_stack(degree, [q])  # the transform the CKKS evaluator runs
    plan = get_plan(degree, q)  # its limb's butterflies and GEMM tables
    steps = plan.gemm_steps(False)
    rng = np.random.default_rng(0)
    coeffs = rng.integers(0, q, size=(1, degree), dtype=np.uint64)
    spectrum = stack.forward(coeffs)
    assert (spectrum[0] == plan.forward(coeffs[0].copy())).all()
    assert (stack.inverse(spectrum) == coeffs).all()
    print(
        f"NTT (N=2^16, 25-bit prime): engine {stack.engine}, factors "
        f"{steps.factors}, {steps.planes} float64 plane(s) per step -- "
        "bit-exact against the butterflies, and the inverse round-trips"
    )


def main():
    demonstrate_gemm(36)
    demonstrate_gemm(48)
    demonstrate_ntt()
    print("OK: the FP64 tensor-core mapping is exact, as Section 3.4 claims")


if __name__ == "__main__":
    main()
