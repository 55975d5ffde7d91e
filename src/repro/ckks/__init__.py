"""Functional CKKS: encoder, keys, encryption, evaluator, key switching."""

from . import batched, serialization
from .bootstrap import Bootstrapper
from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .encryptor import Decryptor, Encryptor
from .evaluator import Evaluator
from .hoisting import hoisted_rotations
from .linear_transform import LinearTransform, identity_transform, rotation_keys_for
from .noise import NoiseEstimator, measure_noise_bits, remaining_budget_bits
from .poly_eval import PolynomialEvaluator, chebyshev_coefficients
from .keys import (
    GaloisKeys,
    KeyGenerator,
    KeySwitchKey,
    PublicKey,
    SecretKey,
    conjugation_galois_power,
    rotation_galois_power,
)
from .params import (
    TABLE4,
    CkksParameters,
    KlssConfig,
    ParameterSet,
    get_set,
    small_test_parameters,
)

__all__ = [
    "Bootstrapper",
    "Ciphertext",
    "CkksEncoder",
    "CkksParameters",
    "Decryptor",
    "Encryptor",
    "Evaluator",
    "GaloisKeys",
    "KeyGenerator",
    "KeySwitchKey",
    "KlssConfig",
    "LinearTransform",
    "NoiseEstimator",
    "ParameterSet",
    "Plaintext",
    "PolynomialEvaluator",
    "PublicKey",
    "SecretKey",
    "TABLE4",
    "chebyshev_coefficients",
    "conjugation_galois_power",
    "get_set",
    "hoisted_rotations",
    "identity_transform",
    "measure_noise_bits",
    "remaining_budget_bits",
    "batched",
    "serialization",
    "rotation_galois_power",
    "rotation_keys_for",
    "small_test_parameters",
]
