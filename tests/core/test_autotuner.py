"""Tests for the KLSS parameter autotuner and the plan-space search."""

import dataclasses

import pytest

from repro.ckks.params import get_set
from repro.core import NeoContext, TraceCache
from repro.core.autotuner import (
    BUDGETS,
    MODEL_VERSION,
    TunedConfig,
    TuningReport,
    TuningResult,
    TuningStore,
    best_configuration,
    hybrid_vs_best_klss,
    tune_app,
    tune_keyswitch,
)
from repro.gpu.device import A100, H100, L4
from repro.telemetry.stats import clear_caches


@pytest.fixture(scope="module")
def results():
    return tune_keyswitch(
        get_set("B"),
        dnums=(4, 6, 9, 12),
        alpha_tildes=(4, 5, 6),
        wordsizes_t=(36, 48, 64),
    )


class TestTuner:
    def test_sorted_fastest_first(self, results):
        times = [r.keyswitch_us for r in results]
        assert times == sorted(times)

    def test_grid_coverage(self, results):
        combos = {(r.dnum, r.alpha_tilde, r.wordsize_t) for r in results}
        assert len(combos) == len(results)
        assert len(results) >= 30  # most of the 36-cell grid is admissible

    def test_best_near_paper_optimum(self, results):
        """The winner lands near the paper's (dnum=9, alpha~=5, WST=48)."""
        best = results[0]
        # The grid optimum is mid-dnum and never WordSize_T = 64 (Booth-heavy);
        # the very top cell can tie between 36 and 48 within a few percent.
        assert best.wordsize_t in (36, 48)
        assert best.dnum in (6, 9, 12)
        paper_pick = [
            r for r in results
            if (r.dnum, r.alpha_tilde, r.wordsize_t) == (9, 5, 48)
        ][0]
        assert paper_pick.keyswitch_us <= 1.15 * best.keyswitch_us

    def test_best_configuration_helper(self):
        best = best_configuration(
            get_set("B"), dnums=(6, 9), alpha_tildes=(5,), wordsizes_t=(48,)
        )
        assert isinstance(best, TuningResult)
        assert best.config().wordsize_t == 48

    def test_alpha_prime_recorded(self, results):
        for r in results:
            assert r.alpha_prime >= 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune_keyswitch(get_set("B"), dnums=(), alpha_tildes=(5,))

    def test_hybrid_vs_best_klss(self):
        hybrid_us, best = hybrid_vs_best_klss(get_set("B"))
        # The paper's central claim: well-tuned KLSS beats Hybrid.
        assert best.keyswitch_us < hybrid_us


SMALL_GRID = dict(dnums=(6, 9), alpha_tildes=(4, 5), wordsizes_t=(48,))


class TestSharedCacheSweep:
    def test_warm_sweep_reports_cache_hits(self):
        clear_caches()
        results = tune_keyswitch(get_set("B"), **SMALL_GRID)
        # The grid points share the plan/trace caches: after the first
        # point warms them, subsequent points hit.
        assert sum(r.cache_hits for r in results) > 0
        assert 0.0 <= results[0].cache_hit_rate <= 1.0

    def test_cold_and_warm_agree_on_times(self):
        """Cache sharing is a speed-up, not a semantic change: every point
        priced from empty caches gets the shared sweep's time."""
        base = get_set("B")
        for r in tune_keyswitch(base, **SMALL_GRID):
            params = dataclasses.replace(base, dnum=r.dnum, klss=r.config())
            clear_caches()
            cold = NeoContext(params, trace_cache=TraceCache(maxsize=0))
            assert cold.keyswitch_time_us(base.max_level) == pytest.approx(
                r.keyswitch_us
            )


@pytest.fixture(scope="module")
def helr_report():
    return tune_app("helr", params="C", device=A100, budget="quick")


class TestTuneApp:
    def test_report_shape(self, helr_report):
        assert isinstance(helr_report, TuningReport)
        assert helr_report.app == "helr"
        assert helr_report.device_name == A100.name
        assert helr_report.budget == "quick"
        assert len(helr_report.results) >= 1
        times = [c.time_s for c in helr_report.results]
        assert times == sorted(times)
        assert helr_report.best is helr_report.results[0]

    def test_beats_baseline(self, helr_report):
        assert helr_report.baseline_time_s is not None
        assert helr_report.best.time_s < helr_report.baseline_time_s
        assert helr_report.best.speedup > 1.0

    def test_search_counters(self, helr_report):
        assert helr_report.probed > helr_report.evaluated
        assert helr_report.pruned_dominated + helr_report.pruned_cutoff > 0
        assert helr_report.cache_hits > 0
        assert 0.0 < helr_report.cache_hit_rate <= 1.0

    def test_jsonable_round_trip(self, helr_report):
        blob = helr_report.to_jsonable()
        assert blob["app"] == "helr"
        best = TunedConfig.from_jsonable(blob["results"][0])
        assert best == helr_report.best
        assert best.label() == helr_report.best.label()

    def test_tuned_config_builds_context(self, helr_report):
        from repro.core import NeoContext

        best = helr_report.best
        params = best.parameter_set(get_set("C"))
        config = best.pipeline_config()
        ctx = NeoContext(params, device=A100.hier(), config=config)
        assert ctx.keyswitch_time_us(params.max_level) > 0

    def test_l4_drops_fp64_tensor_path(self):
        report = tune_app("helr", params="C", device=L4, budget="quick")
        # No FP64 TCUs: the paper's NEO_CONFIG baseline is infeasible and
        # every surviving config avoids the tcu_fp64 component.
        assert report.baseline_time_s is None
        for cfg in report.results:
            assert cfg.ntt_component != "tcu_fp64"
            assert cfg.bconv_component != "tcu_fp64"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            tune_app("nosuchapp", device=A100)

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            tune_app("helr", device=A100, budget="extreme")

    def test_budget_registry(self):
        assert set(BUDGETS) == {"quick", "full"}
        assert BUDGETS["full"].max_full_evals > BUDGETS["quick"].max_full_evals


class TestTuningStore:
    def test_get_or_tune_caches(self):
        store = TuningStore(maxsize=4)
        first = store.get_or_tune("helr", params=get_set("C"), device=A100)
        again = store.get_or_tune("helr", params=get_set("C"), device=A100)
        assert again is first
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert len(store) == 1

    def test_key_includes_device_and_budget(self):
        store = TuningStore(maxsize=8)
        a100 = store.get_or_tune("helr", params=get_set("C"), device=A100)
        l4 = store.get_or_tune("helr", params=get_set("C"), device=L4)
        assert len(store) == 2
        assert a100.best.device_name != l4.best.device_name

    def test_lru_eviction(self):
        store = TuningStore(maxsize=2)
        keys = [TuningStore.key("C", "helr", dev, "quick") for dev in (A100, L4, H100)]
        store.get_or_build(keys[0], object)
        store.get_or_build(keys[1], object)
        store.get_or_build(keys[0], object)  # read again: now the newest entry
        store.get_or_build(keys[2], object)  # passes maxsize: evicts keys[1]
        assert keys[0] in store and keys[2] in store and keys[1] not in store
        assert len(store) == 2
        assert store.stats.evictions == 1

    def test_model_version_tags_keys(self):
        key = TuningStore.key(get_set("C"), "HELR", A100, "quick")
        assert key[-1] == MODEL_VERSION
        assert key[1] == "helr"
        assert key == TuningStore.key("C", "helr", A100, "quick")
