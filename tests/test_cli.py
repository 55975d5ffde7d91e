"""Tests for the command-line interface."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry.stats import all_cache_sizes

GOLDEN_CLI = (
    Path(__file__).resolve().parent / "fixtures" / "golden_cli_digests.json"
)
GOLDEN_CLI_DIGESTS = json.loads(GOLDEN_CLI.read_text())


def test_params_all(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    for name in "ABCDEFGH":
        assert f"\n{name} " in out


def test_params_single(capsys):
    assert main(["params", "c"]) == 0
    out = capsys.readouterr().out
    assert "C" in out and "T=48" in out


def test_params_unknown(capsys):
    assert main(["params", "Z"]) == 2


@pytest.mark.parametrize("number", ["2", "6", "7", "8"])
def test_tables(capsys, number):
    assert main(["table", number]) == 0
    assert capsys.readouterr().out.strip()


def test_table_unknown(capsys):
    assert main(["table", "99"]) == 2


@pytest.mark.parametrize("number", ["3", "14", "16"])
def test_figs(capsys, number):
    assert main(["fig", number]) == 0
    assert capsys.readouterr().out.strip()


def test_fig_unknown(capsys):
    assert main(["fig", "99"]) == 2


def test_fig16_shape(capsys):
    main(["fig", "16"])
    out = capsys.readouterr().out
    assert "KLSS-48" in out and "Hybrid" in out


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


class TestProfileCommand:
    def test_profile_default_system(self, capsys):
        assert main(["profile", "packbootstrap"]) == 0
        out = capsys.readouterr().out
        assert "per-operation" in out
        assert "per-kernel" in out
        assert "trace cache" in out

    @pytest.mark.parametrize("system", ["tensorfhe", "heongpu", "cpu"])
    def test_profile_baseline_systems(self, capsys, system):
        assert main(["profile", "helr", "--system", system]) == 0
        assert "per-operation" in capsys.readouterr().out

    def test_profile_with_set_and_batch(self, capsys):
        assert main(["profile", "resnet20", "--set", "D", "--batch", "64"]) == 0
        out = capsys.readouterr().out
        assert "set D" in out and "batch 64" in out

    def test_profile_chrome_trace_output(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(["profile", "packbootstrap", "--chrome-trace", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert "chrome trace" in capsys.readouterr().out

    def test_profile_unknown_app(self, capsys):
        assert main(["profile", "nosuchapp"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_profile_unknown_system(self, capsys):
        assert main(["profile", "helr", "--system", "tpu"]) == 2
        assert "unknown system" in capsys.readouterr().err


class TestServeCommand:
    SMOKE = ["serve", "--workload", "smoke", "--max-batch", "16"]

    def test_serve_smoke_report(self, capsys):
        assert main(self.SMOKE) == 0
        out = capsys.readouterr().out
        assert "workload 'smoke'" in out
        assert "throughput" in out and "P95" in out and "SLO" in out
        assert "helr" in out and "packbootstrap" in out

    def test_serve_explicit_spec_and_policy(self, capsys):
        assert main(["serve", "--workload", "helr:5:1.0", "--policy", "edf",
                     "--lanes", "1", "--seed", "3"]) == 0
        assert "5x helr" in capsys.readouterr().out

    def test_serve_chrome_trace_output(self, capsys, tmp_path):
        import json

        path = tmp_path / "serving.json"
        assert main(self.SMOKE + ["--chrome-trace", str(path)]) == 0
        assert json.loads(path.read_text())["traceEvents"]
        assert "serving timeline" in capsys.readouterr().out

    def test_serve_same_seed_same_report(self, capsys):
        assert main(self.SMOKE + ["--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(self.SMOKE + ["--seed", "11"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_unknown_policy(self, capsys):
        assert main(["serve", "--policy", "lifo"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "nosuchapp:5:1.0"]) == 2
        assert "unknown application" in capsys.readouterr().err

    @pytest.mark.parametrize("device", ["l4", "a100-no-tcu"])
    def test_serve_device_without_tensor_cores(self, capsys, device):
        """A listed device the default config cannot run on is one line
        and exit 2, like every other bad argument -- not a traceback."""
        assert main(self.SMOKE + ["--device", device]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "has no FP64 tensor cores" in err and "--autotune" in err


class TestMetricsCommand:
    def test_prometheus_output(self, capsys):
        assert main(["metrics", "--workload", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serving_requests_total counter" in out
        assert "# TYPE serving_latency_seconds histogram" in out
        for name in all_cache_sizes():  # one gauge per named cache
            assert f'cache_hit_rate{{cache="{name}"}}' in out
        assert "fhe_noise_budget_bits_modeled" in out

    def test_json_output(self, capsys):
        import json

        assert main(["metrics", "--workload", "smoke", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["serving_requests_total"]["type"] == "counter"

    def test_unknown_workload(self, capsys):
        assert main(["metrics", "--workload", "nope"]) == 2


class TestTraceCommand:
    def test_trace_tree_covers_request_path(self, capsys):
        assert main(["trace", "req-0", "--workload", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "trace req-0" in out
        assert "- request" in out
        assert "- queue_wait" in out
        assert "- batch" in out
        # kernel spans live in the linked per-shape trace, spliced in
        assert "linked kernel trace" in out
        assert "batch_kernels" in out

    def test_trace_accepts_bare_rid(self, capsys):
        assert main(["trace", "0", "--workload", "smoke"]) == 0
        assert "trace req-0" in capsys.readouterr().out

    def test_trace_unknown_request_lists_known(self, capsys):
        assert main(["trace", "req-99999", "--workload", "smoke"]) == 2
        assert "request ids:" in capsys.readouterr().err

    def test_trace_jsonl_export_round_trips(self, capsys, tmp_path):
        from repro.telemetry.tracing import Tracer

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "req-0", "--workload", "smoke",
                     "--jsonl", str(path)]) == 0
        clone = Tracer.from_jsonl(path.read_text())
        names = {s.name for s in clone.spans}
        assert {"request", "queue_wait", "batch"} <= names
        # the linked kernel trace ships in the same export
        assert any(tid.startswith("shape-") for tid in clone.trace_ids())


class TestServeTelemetryOutputs:
    def test_serve_writes_metrics_and_trace_files(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main(["serve", "--workload", "smoke",
                     "--metrics", str(metrics_path),
                     "--trace-jsonl", str(trace_path)]) == 0
        data = json.loads(metrics_path.read_text())
        assert "serving_requests_total" in data
        assert trace_path.read_text().strip()

    def test_serve_metrics_alone_records_no_spans(self, capsys, tmp_path,
                                                  monkeypatch):
        import json

        from repro.serving import Server

        traced = []
        monkeypatch.setattr(Server, "_record_spans",
                            lambda self, tracer, report: traced.append(tracer))
        metrics_path = tmp_path / "metrics.json"
        assert main(["serve", "--workload", "smoke",
                     "--metrics", str(metrics_path)]) == 0
        assert "serving_requests_total" in json.loads(metrics_path.read_text())
        assert traced == []


class TestFleetServeCommand:
    SMOKE = ["serve", "--gpus", "4", "--workload", "smoke",
             "--max-batch", "16"]

    def test_serve_gpus_fleet_report(self, capsys):
        assert main(self.SMOKE) == 0
        out = capsys.readouterr().out
        assert "fleet of 4 GPU(s)" in out
        assert "per-device" in out and "gpu0" in out and "gpu3" in out
        assert "interconnect traffic" in out and "key broadcast" in out

    def test_serve_gpus_replays_deterministically(self, capsys):
        assert main(self.SMOKE + ["--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(self.SMOKE + ["--seed", "11"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_gpus_shard_tensor_parallel(self, capsys):
        assert main(self.SMOKE + ["--placement", "shard",
                                  "--tensor-parallel", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 group(s) x 2 tensor-parallel" in out
        assert "keys sharded" in out
        assert "bconv" in out  # exchange stages priced per kernel class

    def test_serve_gpus_rejects_bad_tensor_parallel(self, capsys):
        assert main(self.SMOKE + ["--tensor-parallel", "3"]) == 2
        assert "divide" in capsys.readouterr().err

    def test_serve_gpus_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        assert main(self.SMOKE + ["--chrome-trace", str(path)]) == 0
        assert json.loads(path.read_text())["traceEvents"]

    def test_serve_gpus_metrics_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(self.SMOKE + ["--metrics", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["fleet_requests_total"]["type"] == "counter"
        assert data["fleet_device_utilization"]["type"] == "gauge"

    def test_serve_gpus_reports_overload_drops(self, capsys):
        """A fleet under an overload policy prints what its groups dropped."""
        assert main(["serve", "--gpus", "4", "--workload", "overload",
                     "--queue-capacity", "32"]) == 0
        assert (
            "\n  overload   : 0 shed, 3668 rejected, 0 cancelled of 6600 "
            "offered (capacity 32, peak pressure 100%)\n"
        ) in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI_DIGESTS))
def test_serve_stdout_matches_golden_digest(capsys, update_golden, command):
    """The serve smoke reports print the bytes recorded in
    ``tests/fixtures/golden_cli_digests.json``; ``pytest --update-golden``
    re-records a digest after an intentional output change."""
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    if update_golden:
        GOLDEN_CLI_DIGESTS[command] = digest
        GOLDEN_CLI.write_text(
            json.dumps(GOLDEN_CLI_DIGESTS, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_CLI.name}")
    assert digest == GOLDEN_CLI_DIGESTS[command], (
        f"`repro {command}` output drifted; if intentional, regenerate with "
        "`pytest --update-golden`"
    )


class TestFleetMetricsCommand:
    def test_metrics_gpus_adds_fleet_families(self, capsys):
        assert main(["metrics", "--workload", "smoke", "--gpus", "2"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE fleet_requests_total counter" in out
        assert "# TYPE fleet_device_utilization gauge" in out
        assert 'fleet_requests_total{gpu="1"}' in out
        # the per-device servers still emit the serving families
        assert "# TYPE serving_requests_total counter" in out


@pytest.mark.parametrize("argv, message", [
    (["serve", "--gpus", "0"], "need at least one GPU, got 0"),
    (["serve", "--gpus", "-3"], "need at least one GPU, got -3"),
    (["metrics", "--gpus", "0"], "need at least one GPU, got 0"),
    (["metrics", "--gpus", "-3"], "need at least one GPU, got -3"),
    (["serve", "--gpus", "1", "--tensor-parallel", "2"],
     "tensor_parallel 2 must divide gpus 1"),
    (["serve", "--tensor-parallel", "0"], "tensor_parallel must be >= 1, got 0"),
], ids=["serve-gpus0", "serve-gpus-3", "metrics-gpus0", "metrics-gpus-3",
        "serve-tp2-on-1", "serve-tp0"])
def test_impossible_fleet_is_rejected(capsys, argv, message):
    """Only --gpus 1 (with --tensor-parallel 1) serves on one device; any
    other size goes to the Fleet constructor, whose check is one stderr
    line and exit 2 -- never a silent single-device run."""
    assert main(argv + ["--workload", "smoke"]) == 2
    assert capsys.readouterr().err == message + "\n"


class TestServeOverloadCommand:
    SMOKE = ["serve", "--workload", "smoke", "--policy", "priority"]

    def test_serve_with_overload_control(self, capsys):
        assert main(self.SMOKE + ["--queue-capacity", "4",
                                  "--shed-threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "overload   :" in out and "capacity 4" in out

    def test_serve_wall_clock_matches_simulated(self, capsys):
        assert main(self.SMOKE) == 0
        simulated = capsys.readouterr().out
        assert main(self.SMOKE + ["--wall-clock"]) == 0
        assert capsys.readouterr().out == simulated

    def test_serve_snapshot_then_replay(self, capsys, tmp_path):
        path = tmp_path / "timeline.jsonl"
        assert main(self.SMOKE + ["--queue-capacity", "6",
                                  "--snapshot", str(path)]) == 0
        assert "timeline snapshot" in capsys.readouterr().out
        assert path.exists()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint verified" in out
        assert "throughput" in out

    def test_replay_missing_snapshot(self, capsys):
        assert main(["replay", "/nonexistent/snap.jsonl"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_replay_detects_tampering(self, capsys, tmp_path):
        path = tmp_path / "timeline.jsonl"
        assert main(self.SMOKE + ["--snapshot", str(path)]) == 0
        capsys.readouterr()
        tampered = path.read_text().replace(
            '"fingerprint":"', '"fingerprint":"beef'
        )
        path.write_text(tampered)
        assert main(["replay", str(path)]) == 1
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_wall_clock_rejects_fleet(self, capsys):
        assert main(self.SMOKE + ["--gpus", "2", "--wall-clock"]) == 2
        assert "--wall-clock" in capsys.readouterr().err

    def test_serve_fleet_autoscale_plan(self, capsys):
        assert main(["serve", "--workload", "smoke", "--gpus", "2",
                     "--autoscale"]) == 0
        out = capsys.readouterr().out
        assert "autoscale:" in out and "scaling decisions" in out

    def test_serve_tiered_spec(self, capsys):
        assert main(["serve", "--workload",
                     "helr:4:1.0:1:0:premium,helr:8:2.0:1:0:batch",
                     "--queue-capacity", "3", "--shed-threshold", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "per-tier outcomes" in out


class TestTuneCommand:
    def test_tune_frontier_table(self, capsys):
        assert main(["tune", "helr"]) == 0
        out = capsys.readouterr().out
        assert "Tuned frontier: helr" in out
        assert "baseline:" in out
        assert "plan-cache hit rate" in out

    def test_tune_json_output(self, capsys):
        import json

        assert main(["tune", "helr", "--json", "--top", "3"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["app"] == "helr"
        assert blob["device_name"].startswith("NVIDIA A100")
        assert 1 <= len(blob["results"]) <= 3
        assert blob["results"][0]["time_s"] > 0

    def test_tune_l4_reports_infeasible_baseline(self, capsys):
        assert main(["tune", "helr", "--device", "l4"]) == 0
        out = capsys.readouterr().out
        assert "NVIDIA L4" in out
        assert "infeasible on this device" in out

    def test_tune_unknown_app(self, capsys):
        assert main(["tune", "nosuchapp"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_tune_unknown_device(self, capsys):
        assert main(["tune", "helr", "--device", "t4"]) == 2
        assert "unknown device" in capsys.readouterr().err

    def test_tune_unknown_budget(self, capsys):
        assert main(["tune", "helr", "--budget", "huge"]) == 2
        assert "unknown budget" in capsys.readouterr().err


class TestServeAutotune:
    def test_serve_autotune_reports_tuned_configs(self, capsys):
        assert main(["serve", "--workload", "smoke", "--autotune"]) == 0
        out = capsys.readouterr().out
        assert "autotuned configurations" in out
        assert "klss(" in out
        assert "autotune_store" in out

    def test_serve_without_autotune_omits_section(self, capsys):
        assert main(["serve", "--workload", "smoke"]) == 0
        assert "autotuned configurations" not in capsys.readouterr().out

    def test_serve_unknown_device(self, capsys):
        assert main(["serve", "--device", "t4"]) == 2
        assert "unknown device" in capsys.readouterr().err


def test_serve_help_names_every_policy_and_preset(capsys):
    from repro.serving.policies import POLICIES
    from repro.serving.workload import WORKLOAD_PRESETS

    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    workload = text[text.index("--workload WORKLOAD ") : text.index("--policy POLICY ")]
    policy = text[text.index("--policy POLICY ") : text.index("--set SET ")]
    for name in WORKLOAD_PRESETS:
        assert re.search(rf"\b{name}\b", workload), name
    for name in POLICIES:
        assert re.search(rf"\b{name}\b", policy), name
