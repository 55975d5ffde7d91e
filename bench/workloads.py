"""The benchmark's workloads: inputs from a seed, one op, and its check.

Each in-process workload exposes ``warmup`` (ops run before timing),
``cycle`` (ops after which the inputs repeat), ``op(i)``, ``check(i, out)``
(``None`` when the output is correct, else the reason) and
``requests(i)`` (simulated serving requests the op drains).  ``model-cold``
runs each op in a fresh interpreter; :class:`ModelCold` is what that
interpreter executes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from typing import Dict, Optional

import numpy as np

import repro
import repro.cli
from repro.apps import EncryptedLogisticRegression, get_application
from repro.ckks import (
    CkksEncoder,
    CkksParameters,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    KlssConfig,
)
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.keys import conjugation_galois_power
from repro.core import NeoContext
from repro.gpu import A100
from repro.serving import (
    Fleet,
    OverloadPolicy,
    Server,
    parse_workload_spec,
    synthesize_arrivals,
)

#: The overload policy of ``benchmarks/test_ext_overload_degradation.py``.
OVERLOAD = OverloadPolicy(
    queue_capacity=128,
    shed_threshold=0.5,
    shed_below_priority=1,
    evict_lower_priority=True,
)


def tiered_server() -> Server:
    """The priority server of ``benchmarks/test_ext_overload_degradation.py``."""
    return Server(
        params="C", policy="priority", max_batch=64, max_wait_s=20.0,
        lanes=2, overload=OVERLOAD,
    )


def arrivals(spec: str, seed: int):
    return synthesize_arrivals(parse_workload_spec(spec), seed=seed)


def drain(target, requests):
    """Submit `requests` to a ``Server`` or ``Fleet`` and drain it."""
    target.submit_many(requests)
    return target.drain()


def limb_digest(ct) -> str:
    """SHA-256 over a ciphertext's level, scale and limb tensors."""
    digest = hashlib.sha256(f"{ct.level}|{ct.scale!r}".encode())
    for poly in (ct.c0, ct.c1, ct.c2):
        if poly is not None:
            digest.update(np.ascontiguousarray(poly.stack).tobytes())
    return digest.hexdigest()


class BootN32:
    """Bootstrap one level-0 ciphertext at N=2^5 (dispatch-bound).

    Parameters of ``benchmarks/test_ext_bootstrap_gemm.py``: L=12, 25-bit
    primes, 27-bit q0, dnum=4, hybrid key switch, Hamming-weight-1 secret.
    """

    name = "boot-n32"
    warmup = 2
    cycle = 1
    #: Max-abs slot error allowed: ``tests/ckks/test_bootstrap.py``'s
    #: usability bound.  Over seeds 0-149 the worst error was 0.016.
    TOLERANCE = 5e-2

    def __init__(self, seed: int):
        params = CkksParameters(
            degree=32, max_level=12, wordsize=25, dnum=4, first_prime_bits=27
        )
        gen = KeyGenerator(params, seed=seed)
        sk = gen.secret_key(hamming_weight=1)
        self.encoder = CkksEncoder(params)
        encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=seed + 1)
        self.decryptor = Decryptor(params, sk)
        evaluator = Evaluator(
            params, relin_key=gen.relinearisation_key(sk), method="hybrid"
        )
        self.boot = Bootstrapper(params, self.encoder, evaluator)
        galois = gen.rotation_keys(sk, self.boot.required_rotations())
        conj = conjugation_galois_power(params.degree)
        galois.add(conj, gen.galois_key(sk, conj))
        evaluator.galois_keys = galois
        rng = np.random.default_rng(seed)
        self.values = np.clip(0.3 * rng.normal(size=params.slots), -0.8, 0.8)
        self.ct = encryptor.encrypt(self.encoder.encode(self.values, level=0))
        self.reference: Optional[str] = None

    def op(self, i: int):
        return self.boot.bootstrap(self.ct)

    def check(self, i: int, out) -> Optional[str]:
        digest = limb_digest(out)
        if self.reference is None:
            decoded = self.encoder.decode(self.decryptor.decrypt(out))
            err = float(np.abs(decoded - self.values).max())
            if err > self.TOLERANCE:
                return f"decryption error {err:.3g} > {self.TOLERANCE}"
            self.reference = digest
        elif digest != self.reference:
            return "limbs differ from the first op's"
        return None

    def requests(self, i: int) -> int:
        return 0


class HelrN8192:
    """One encrypted HELR gradient step at N=2^13 under KLSS (arithmetic-bound).

    A seeded pool of :attr:`cycle` pre-encrypted score/label pairs; op ``i``
    uses pair ``i % cycle``.
    """

    name = "helr-n8192"
    warmup = 2
    cycle = 16
    #: Max-abs residual error allowed.  Over 4096 slots the error of
    #: correct steps reached 0.033 (seeds 0-71, 1152 draws), past the
    #: tests' 2e-2 for N=32.  A step against the wrong labels is off by
    #: 1.0, a corrupted ciphertext by ~1e8.
    TOLERANCE = 0.1

    def __init__(self, seed: int):
        params = CkksParameters(
            degree=8192, max_level=5, wordsize=25, dnum=3,
            klss=KlssConfig(wordsize_t=28, alpha_tilde=2),
        )
        gen = KeyGenerator(params, seed=seed)
        sk = gen.secret_key()
        self.encoder = CkksEncoder(params)
        encryptor = Encryptor(params, public_key=gen.public_key(sk), seed=seed + 1)
        self.decryptor = Decryptor(params, sk)
        evaluator = Evaluator(
            params, relin_key=gen.relinearisation_key(sk), method="klss"
        )
        self.model = EncryptedLogisticRegression(self.encoder, evaluator)
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(self.cycle):
            scores = rng.uniform(-2, 2, size=params.slots)
            labels = rng.integers(0, 2, size=params.slots).astype(float)
            ct = encryptor.encrypt(self.encoder.encode(scores))
            self.pool.append((ct, scores, labels))
        self.reference: Dict[int, str] = {}

    def op(self, i: int):
        ct, _, labels = self.pool[i % self.cycle]
        return self.model.gradient_step(ct, labels)

    def check(self, i: int, out) -> Optional[str]:
        k = i % self.cycle
        digest = limb_digest(out)
        if k not in self.reference:
            _, scores, labels = self.pool[k]
            decoded = self.encoder.decode(self.decryptor.decrypt(out)).real
            expected = self.model.gradient_step_plain(scores, labels)
            err = float(np.abs(decoded - expected).max())
            if err > self.TOLERANCE:
                return f"input {k}: residual error {err:.3g} > {self.TOLERANCE}"
            self.reference[k] = digest
        elif digest != self.reference[k]:
            return f"input {k}: limbs differ from its first op's"
        return None

    def requests(self, i: int) -> int:
        return 0


class ServeOverload:
    """Drain ``overload10x`` on the priority server, then ``overload`` on 4 GPUs.

    Op ``i`` replays the arrival traces of seed ``seed + i % cycle``, all
    synthesised up front.
    """

    name = "serve-overload"
    warmup = 1
    cycle = 10

    def __init__(self, seed: int):
        self.traces = [
            (arrivals("overload10x", seed + k), arrivals("overload", seed + k))
            for k in range(self.cycle)
        ]
        self.reference: Dict[int, tuple] = {}

    def op(self, i: int):
        tiered, fleet_trace = self.traces[i % self.cycle]
        report = drain(tiered_server(), tiered)
        return report, drain(Fleet(gpus=4), fleet_trace)

    def check(self, i: int, out) -> Optional[str]:
        k = i % self.cycle
        report, fleet_report = out
        tiered, fleet_trace = self.traces[k]
        if report.offered != len(tiered):
            return f"server offered {report.offered} != {len(tiered)} submitted"
        if fleet_report.offered != len(fleet_trace):
            return f"fleet offered {fleet_report.offered} != {len(fleet_trace)}"
        premium = report.per_tier()["premium"]
        if premium["shed"] or premium["rejected"]:
            return f"premium requests dropped: {premium}"
        prints = (report.fingerprint(), fleet_report.fingerprint())
        if self.reference.setdefault(k, prints) != prints:
            return f"seed offset {k}: fingerprint differs from its first drain"
        return None

    def requests(self, i: int) -> int:
        tiered, fleet_trace = self.traces[i % self.cycle]
        return len(tiered) + len(fleet_trace)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ModelCold:
    """What one ``repro`` CLI user pays: report, serve, fleet, tune.

    Each op runs once in a fresh interpreter, so every cost-model cache
    starts cold.  The op returns digests of its outputs; ``run.py``
    checks them against the run's first child.
    """

    name = "model-cold"
    warmup = 0
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.drained = 0
        self.digests: Dict[str, object] = {}

    def op(self, i: int) -> Dict[str, object]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = repro.cli.main(["report"])
        mixed = arrivals("mixed", self.seed)
        served = drain(Server(), mixed)
        overload = arrivals("overload", self.seed)
        fleet_report = drain(Fleet(gpus=4), overload)
        tuned = repro.core.tune_app("helr", "C", A100.hier(), "quick")
        self.drained = len(mixed) + len(overload)
        return {
            "exit": rc,
            "report_sha256": _sha(buf.getvalue()),
            "serve": served.fingerprint(),
            "fleet": fleet_report.fingerprint(),
            "tune_sha256": _sha(json.dumps(tuned.to_jsonable(), sort_keys=True)),
        }

    def check(self, i: int, out: Dict[str, object]) -> Optional[str]:
        self.digests = out
        return None if out["exit"] == 0 else f"report exited {out['exit']}"

    def requests(self, i: int) -> int:
        return self.drained


IN_PROCESS = {cls.name: cls for cls in (BootN32, HelrN8192, ServeOverload)}


def modeled_metrics(seed: int) -> Dict[str, float]:
    """Exact outputs of the modeled (simulated A100) clock."""
    helr_s = NeoContext("C").application_time(get_application("helr"))
    tuned = repro.core.tune_app("helr", "C", A100.hier(), "quick")
    mixed = drain(Server(), arrivals("mixed", seed))
    overload = drain(tiered_server(), arrivals("overload10x", seed))
    fleet = drain(Fleet(gpus=4), arrivals("overload", seed))
    return {
        "modeled.helr_c_ms_per_ct": helr_s * 1e3,
        "modeled.tuned_helr_ms": tuned.results[0].time_s * 1e3,
        "modeled.mixed_p95_s": mixed.latency_summary()["p95"],
        "modeled.overload10x_premium_p95_s": overload.per_tier()["premium"]["p95_s"],
        "modeled.overload10x_shed_frac": overload.shed_count / overload.offered,
        "modeled.fleet4_rps": fleet.throughput_rps,
    }
