"""FHE-semantic telemetry: the evaluator observer and the analytic mirror."""

import math

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    Encryptor,
    Evaluator,
    KeyGenerator,
    small_test_parameters,
)
from repro.ckks.params import get_set
from repro.telemetry.fhe import FheMeter, modeled_noise_trajectory
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture(scope="module")
def params():
    return small_test_parameters(degree=32, max_level=5, wordsize=25, dnum=3)


@pytest.fixture(scope="module")
def setup(params):
    gen = KeyGenerator(params, seed=42)
    secret = gen.secret_key()
    encryptor = Encryptor(params, public_key=gen.public_key(secret), seed=7)
    evaluator = Evaluator(
        params,
        relin_key=gen.relinearisation_key(secret),
        galois_keys=gen.rotation_keys(secret, [1]),
        method="hybrid",
    )
    encoder = CkksEncoder(params)
    return encoder, encryptor, evaluator


def _fresh_ct(encoder, encryptor, value=0.5):
    slots = np.full(encoder.slots, value, dtype=np.complex128)
    return encryptor.encrypt(encoder.encode(slots))


class TestFheMeter:
    def test_multiply_consumes_budget_and_emits_gauges(self, params, setup):
        encoder, encryptor, evaluator = setup
        registry = MetricsRegistry(enabled=True)
        meter = FheMeter(params, registry=registry)
        evaluator.observer = meter
        try:
            a = _fresh_ct(encoder, encryptor)
            b = _fresh_ct(encoder, encryptor)
            meter.track(a)
            meter.track(b)
            fresh_budget = meter.budget_bits(a)
            product = evaluator.multiply(a, b)
            out = evaluator.rescale(product)
            assert meter.budget_bits(out) < fresh_budget
            gauge = registry.get("fhe_noise_budget_bits")
            assert gauge is not None
            series = gauge.series()
            assert ("rescale",) in series
            # level gauge tracks the rescaled output's level
            assert registry.get("fhe_ciphertext_level").series()[
                ("rescale",)
            ] == out.level
        finally:
            evaluator.observer = None

    def test_trajectory_covers_lineage(self, params, setup):
        encoder, encryptor, evaluator = setup
        meter = FheMeter(params, registry=MetricsRegistry(enabled=True))
        evaluator.observer = meter
        try:
            a = _fresh_ct(encoder, encryptor)
            meter.track(a)
            out = evaluator.rescale(evaluator.multiply(a, a))
            ops = [p.op for p in meter.trajectory(out)]
            assert ops[0] == "fresh"
            assert "multiply" in ops and "rescale" in ops
            text = meter.format_trajectory(out)
            assert "budget bits" in text and "rescale" in text
        finally:
            evaluator.observer = None

    def test_exhaustion_warnings_count(self, params, setup):
        encoder, encryptor, evaluator = setup
        registry = MetricsRegistry(enabled=True)
        # warn thresholds high enough that any op trips both warnings
        meter = FheMeter(params, registry=registry, warn_level=params.max_level,
                         warn_budget_bits=1e9)
        evaluator.observer = meter
        try:
            a = _fresh_ct(encoder, encryptor)
            meter.track(a)
            evaluator.add(a, a)
            kinds = {w.kind for w in meter.warnings}
            assert kinds == {"level_exhaustion", "budget_exhaustion"}
            counter = registry.get("fhe_health_warnings_total")
            assert counter.series()[("level_exhaustion",)] >= 1
        finally:
            evaluator.observer = None

    def test_negate_keeps_the_bound_and_lineage(self, params, setup):
        encoder, encryptor, evaluator = setup
        meter = FheMeter(params, registry=MetricsRegistry(enabled=True))
        evaluator.observer = meter
        try:
            ct = _fresh_ct(encoder, encryptor)
            meter.track(ct)
            for _ in range(2):
                ct = evaluator.rescale(evaluator.multiply(ct, ct))
            negated = evaluator.negate(ct)
            assert meter.estimate(ct).bits > meter.estimator.fresh().bits
            assert meter.estimate(negated).bits == meter.estimate(ct).bits
            ops = [p.op for p in meter.trajectory(negated)]
            assert ops == [p.op for p in meter.trajectory(ct)] + ["negate"]
            assert len(ops) == 8
        finally:
            evaluator.observer = None

    def test_estimate_defaults_to_fresh_for_untracked(self, params):
        meter = FheMeter(params, registry=MetricsRegistry(enabled=True))
        assert meter.estimate(object()).bits == meter.estimator.fresh().bits

    def test_reset_clears_state(self, params, setup):
        encoder, encryptor, _ = setup
        meter = FheMeter(params, registry=MetricsRegistry(enabled=True))
        ct = _fresh_ct(encoder, encryptor)
        meter.track(ct)
        meter.reset()
        assert meter.trajectory(ct) == []


class TestModeledTrajectory:
    @pytest.mark.parametrize("app_name", ["helr", "resnet20", "packbootstrap"])
    def test_all_apps_yield_finite_series(self, app_name):
        from repro.apps import get_application

        params = get_set("C")
        schedule = get_application(app_name).schedule(params)
        points = modeled_noise_trajectory(params, schedule)
        assert points, "every app schedule has at least one level"
        for point in points:
            assert math.isfinite(point.noise_bits)
            assert math.isfinite(point.budget_bits)
            # saturation: noise never exceeds the level's modulus
            assert point.noise_bits <= params.wordsize * (point.level + 1)

    def test_levels_walk_top_down(self):
        from repro.apps import get_application

        params = get_set("C")
        schedule = get_application("helr").schedule(params)
        points = modeled_noise_trajectory(params, schedule)
        levels = [p.level for p in points]
        assert levels == sorted(levels, reverse=True)

    def test_budget_never_negative_below_saturation(self):
        params = get_set("A")
        # one multiply per level at the top two levels
        schedule = {params.max_level: {"hmult": 4},
                    params.max_level - 1: {"hmult": 2}}
        for point in modeled_noise_trajectory(params, schedule):
            assert point.budget_bits >= 0.0
