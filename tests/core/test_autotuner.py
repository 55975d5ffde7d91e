"""Tests for the plan-space search and the tuning store."""

import pytest

from repro.ckks.params import get_set
from repro.core.autotuner import (
    BUDGETS,
    MODEL_VERSION,
    TunedConfig,
    TuningReport,
    TuningStore,
    tune_app,
)
from repro.gpu.device import A100, H100, L4


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
