"""Neo: CKKS FHE acceleration via tensor-core-style GEMM kernels.

A reproduction of *"Neo: Towards Efficient Fully Homomorphic Encryption
Acceleration using Tensor Core"* (ISCA 2025) as a pure-Python library:

* :mod:`repro.math` -- modular arithmetic, NTTs, RNS, ring polynomials, and
  the functional GEMM kernels (BConv, IP, multi-step NTT).
* :mod:`repro.ckks` -- a functional CKKS implementation (encode, encrypt,
  evaluate) with both Hybrid and KLSS key switching.
* :mod:`repro.gpu` -- an A100 device model plus bit-exact numerical
  emulations of the FP64/INT8 tensor-core GEMM decompositions.
* :mod:`repro.core` -- Neo's contribution, priced: the cost of BConv/IP as
  GEMMs and of the radix-16 NTT, the kernel-mapping policy, and the
  end-to-end performance model.
* :mod:`repro.baselines` -- TensorFHE, HEonGPU and CPU comparators.
* :mod:`repro.apps` -- PackBootstrap, HELR and ResNet-20/32/56 workloads.
* :mod:`repro.analysis` -- the paper's analytic tables and figures.

Quickstart::

    import numpy as np
    from repro import ckks

    params = ckks.small_test_parameters()
    gen = ckks.KeyGenerator(params, seed=0)
    sk = gen.secret_key()
    encoder = ckks.CkksEncoder(params)
    enc = ckks.Encryptor(params, public_key=gen.public_key(sk))
    dec = ckks.Decryptor(params, sk)
    ev = ckks.Evaluator(params, relin_key=gen.relinearisation_key(sk))
    ct = enc.encrypt(encoder.encode(np.arange(4) / 4))
    product = ev.rescale(ev.multiply(ct, ct))
    print(encoder.decode(dec.decrypt(product)).real.round(3)[:4])
"""

from . import analysis, apps, baselines, ckks, core, gpu, math

from .ckks import (
    CkksEncoder,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    KlssConfig,
    get_set,
    small_test_parameters,
)
from .core import (
    HEONGPU_CONFIG,
    NEO_CONFIG,
    TENSORFHE_CONFIG,
    NeoContext,
    PipelineConfig,
    TraceCache,
    profile_application,
)
from .gpu import A100, DeviceSpec

__version__ = "1.0.0"

__all__ = [
    "A100",
    "CkksEncoder",
    "CkksParameters",
    "Decryptor",
    "DeviceSpec",
    "Encryptor",
    "Evaluator",
    "HEONGPU_CONFIG",
    "KeyGenerator",
    "KlssConfig",
    "NEO_CONFIG",
    "NeoContext",
    "PipelineConfig",
    "TENSORFHE_CONFIG",
    "TraceCache",
    "analysis",
    "apps",
    "baselines",
    "ckks",
    "core",
    "get_set",
    "gpu",
    "math",
    "profile_application",
    "small_test_parameters",
]
