"""The key-switch plan cache: staleness, identity, stats, thread safety.

The seed code cached KLSS decompositions in a ``_klss_cache`` dict stashed
on the key object, keyed *only by level* -- a key reused under a sibling
:class:`CkksParameters` (same chains, different ``alpha~``) silently got
the other set's decomposition.  The plan cache is keyed by the params
fingerprint plus the key's identity token instead; these tests pin that,
and the only-bookkeeping-under-lock concurrency discipline.
"""

import threading

import numpy as np
import pytest

from repro.ckks.keys import KeyGenerator, sample_uniform
from repro.ckks.keyswitch import hybrid, klss, plan
from repro.ckks.params import KlssConfig, small_test_parameters
from repro.telemetry.stats import all_cache_sizes, all_cache_stats, clear_caches


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _plan_stats():
    return all_cache_stats()["op_plans"].as_dict()


def _plan_count():
    return all_cache_sizes()["op_plans"]


def _key_and_params(alpha_tilde=2):
    params = small_test_parameters(klss=KlssConfig(wordsize_t=28, alpha_tilde=alpha_tilde))
    gen = KeyGenerator(params, seed=42)
    secret = gen.secret_key()
    return params, gen.relinearisation_key(secret)


class TestStaleCacheRegression:
    def test_sibling_params_get_fresh_decomposition(self):
        """A key reused under sibling params must not see stale digits.

        ``alpha~ = 2`` vs ``3`` share the exact same q/special chains (the
        KLSS config only alters the auxiliary chain), so the same key
        object is valid under both -- but the gadget decomposition differs
        (``beta~`` digits).  The old per-key attribute cache, keyed only by
        level, returned the first params' decomposition for the second.
        """
        params1, ksk = _key_and_params(alpha_tilde=2)
        params2 = small_test_parameters(
            klss=KlssConfig(wordsize_t=28, alpha_tilde=3)
        )
        assert params1.moduli == params2.moduli
        assert params1.special_primes == params2.special_primes
        level = params1.max_level

        key1 = klss.decompose_key(ksk, params1, level)
        key2 = klss.decompose_key(ksk, params2, level)

        want1 = params1.klss_dims(level)[2]
        want2 = params2.klss_dims(level)[2]
        assert want1 != want2  # the scenario is only meaningful if they differ
        assert key1.beta_tilde == want1
        assert key2.beta_tilde == want2  # stale attribute cache returned want1

    def test_no_state_stashed_on_the_key(self):
        params, ksk = _key_and_params()
        klss.decompose_key(ksk, params, params.max_level)
        plan.get_keyswitch_plan(ksk, params, params.max_level, "hybrid")
        assert not hasattr(ksk, "_klss_cache")
        assert not hasattr(ksk, "_hybrid_cache")

    def test_decompose_key_identity_cached(self):
        params, ksk = _key_and_params()
        key1 = klss.decompose_key(ksk, params, 3)
        key2 = klss.decompose_key(ksk, params, 3)
        assert key1 is key2

    def test_distinct_keys_do_not_collide(self):
        params, _ = _key_and_params()
        gen = KeyGenerator(params, seed=1)
        s = gen.secret_key()
        ksk_a = gen.relinearisation_key(s)
        ksk_b = gen.galois_key(s, 5)
        assert ksk_a.cache_token != ksk_b.cache_token
        key_a = klss.decompose_key(ksk_a, params, 2)
        key_b = klss.decompose_key(ksk_b, params, 2)
        assert key_a is not key_b


class TestOneKeyCopy:
    """The plan stores its key once: the per-digit polynomials the
    reference reads are views of the stacked ``evk`` tensor."""

    def test_hybrid_key_pairs_view_evk(self):
        params, ksk = _key_and_params()
        ks_plan = plan.get_keyswitch_plan(ksk, params, params.max_level, "hybrid")
        pairs = ks_plan.key_pairs
        assert len(pairs) == ks_plan.beta
        for j, pair in enumerate(pairs):
            for c, poly in enumerate(pair):
                assert poly.is_ntt
                assert np.shares_memory(poly.stack, ks_plan.evk)
                assert np.array_equal(poly.stack, ks_plan.evk[:, c, j])

    def test_klss_digit_pairs_view_evk(self):
        params, ksk = _key_and_params()
        ks_plan = plan.get_keyswitch_plan(ksk, params, params.max_level, "klss")
        digits = ks_plan.klss_key.digit_pairs
        assert len(digits) == ks_plan.beta_tilde
        for i, row in enumerate(digits):
            assert len(row) == ks_plan.beta
            for j, pair in enumerate(row):
                for c, poly in enumerate(pair):
                    assert poly.is_ntt
                    assert poly.basis == ks_plan.t_basis
                    assert np.shares_memory(poly.stack, ks_plan.evk)
                    assert np.array_equal(poly.stack, ks_plan.evk[:, i, c, j])


class TestCacheStats:
    def test_hit_miss_accounting(self):
        params, ksk = _key_and_params()
        rng = np.random.default_rng(0)
        poly = sample_uniform(params.degree, params.q_basis(2), rng)
        hybrid.keyswitch(poly, ksk, params)
        stats = _plan_stats()
        assert stats["misses"] == 1
        hybrid.keyswitch(poly, ksk, params)
        stats = _plan_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert 0 < stats["hit_rate"] < 1
        assert _plan_count() == 1

    def test_clear_resets(self):
        params, ksk = _key_and_params()
        rng = np.random.default_rng(0)
        poly = sample_uniform(params.degree, params.q_basis(1), rng)
        klss.keyswitch(poly, ksk, params)
        clear_caches()
        stats = _plan_stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
        assert _plan_count() == 0


class TestThreadSafety:
    def test_concurrent_lanes_share_one_plan(self):
        """Many threads key-switching at once: one plan, identical outputs.

        The cache lock is held only around the LRU bookkeeping, so
        concurrent misses may build duplicate plans -- but the first insert
        wins, every caller gets a working plan, and the outputs are
        bit-identical to the serial reference.
        """
        params, ksk = _key_and_params()
        rng = np.random.default_rng(9)
        level = params.max_level
        poly = sample_uniform(params.degree, params.q_basis(level), rng)
        ref_h = hybrid.keyswitch(poly, ksk, params)
        ref_k = klss.keyswitch(poly, ksk, params)
        clear_caches()

        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def lane(i):
            try:
                barrier.wait()
                h = hybrid.keyswitch(poly, ksk, params)
                k = klss.keyswitch(poly, ksk, params)
                results[i] = (h, k)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=lane, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        for h, k in results:
            for got, want in zip(h, ref_h):
                assert np.array_equal(got.stack, want.stack)
            for got, want in zip(k, ref_k):
                assert np.array_equal(got.stack, want.stack)
        # Two methods at one level: exactly two live cache entries, and
        # every lookup after the winning inserts was a hit.
        assert _plan_count() == 2
        stats = _plan_stats()
        assert stats["hits"] + stats["misses"] == 2 * n_threads
        assert stats["hits"] >= 0  # duplicate builds allowed, losers discarded

    def test_concurrent_distinct_levels(self):
        params, ksk = _key_and_params()
        rng = np.random.default_rng(3)
        levels = [1, 2, 3, 4]
        polys = {
            lvl: sample_uniform(params.degree, params.q_basis(lvl), rng)
            for lvl in levels
        }
        refs = {lvl: hybrid.keyswitch(polys[lvl], ksk, params) for lvl in levels}
        clear_caches()

        barrier = threading.Barrier(len(levels))
        errors = []

        def lane(lvl):
            try:
                barrier.wait()
                got = hybrid.keyswitch(polys[lvl], ksk, params)
                for g, w in zip(got, refs[lvl]):
                    assert np.array_equal(g.stack, w.stack)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=lane, args=(lvl,)) for lvl in levels]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert _plan_count() == len(levels)


class TestOperandTraffic:
    """The plan-level operand traffic reports feeding the memory model."""

    def test_keyswitch_operands_and_placements(self):
        from repro.gpu.device import A100

        params, ksk = _key_and_params()
        ksplan = plan.get_keyswitch_plan(
            ksk, params, params.max_level, "klss"
        )
        operands = ksplan.operand_bytes()
        assert {"evk", "modup_weights", "moddown_weights"} <= set(operands)
        assert "recover_weights" in operands  # klss-specific
        assert all(v > 0 for v in operands.values())

        report = ksplan.traffic_report(A100.hier(), batch=4)
        assert set(report) == set(operands)
        for name, row in report.items():
            assert row["placement"] in ("stream", "smem", "l2", "spill")
            assert row["hbm_bytes"] >= operands[name] or row["placement"] != "spill"
            # batch=4 means three re-reads of each shared operand
            assert row["captured_bytes"] + row["hbm_bytes"] >= row["bytes"]

    def test_batch_one_is_pure_streaming(self):
        from repro.gpu.device import A100

        params, ksk = _key_and_params()
        ksplan = plan.get_keyswitch_plan(
            ksk, params, params.max_level, "klss"
        )
        for row in ksplan.traffic_report(A100.hier(), batch=1).values():
            assert row["placement"] == "stream"
            assert row["captured_bytes"] == 0.0

    def test_hoisted_rotation_adds_gather_maps(self):
        from repro.gpu.device import A100

        params = small_test_parameters(
            klss=KlssConfig(wordsize_t=28, alpha_tilde=2)
        )
        from repro.ckks.keys import rotation_galois_power

        gen = KeyGenerator(params, seed=7)
        secret = gen.secret_key()
        galois = gen.rotation_keys(secret, [1, 2])
        powers = tuple(
            rotation_galois_power(s, params.degree) for s in (1, 2)
        )
        rplan = plan.get_hoisted_rotation_plan(
            galois, powers, params, params.max_level, "klss"
        )
        operands = rplan.operand_bytes()
        assert "gather_maps" in operands
        report = rplan.traffic_report(A100.hier(), batch=2)
        assert set(report) == set(operands)
