"""Number-theory substrate: modular arithmetic, primes, NTT, RNS, ring polys."""

from .modarith import (
    FAST_MODULUS_BOUND,
    add_mod,
    asarray_mod,
    inv_mod,
    matmul_mod,
    mul_mod,
    pow_mod,
    sub_mod,
    to_signed,
    uses_fast_backend,
)
from .ntt import NttPlan, get_plan
from .polynomial import RnsPolynomial, negacyclic_multiply, automorphism
from .primes import is_prime, ntt_primes, disjoint_prime_chains, root_of_unity
from .rns import RnsBasis, bconv_approx, bconv_exact, bconv_matrix

__all__ = [
    "FAST_MODULUS_BOUND",
    "NttPlan",
    "RnsBasis",
    "RnsPolynomial",
    "add_mod",
    "asarray_mod",
    "automorphism",
    "bconv_approx",
    "bconv_exact",
    "bconv_matrix",
    "disjoint_prime_chains",
    "get_plan",
    "inv_mod",
    "is_prime",
    "matmul_mod",
    "mul_mod",
    "negacyclic_multiply",
    "ntt_primes",
    "pow_mod",
    "root_of_unity",
    "sub_mod",
    "to_signed",
    "uses_fast_backend",
]
