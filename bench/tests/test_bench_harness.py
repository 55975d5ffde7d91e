"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import run
import worker

ROOT = Path(__file__).resolve().parents[2]


# -- statistics ---------------------------------------------------------------


@pytest.mark.parametrize(
    "samples, pct",
    [(10_000, 99.9), (1000, 99.0), (200, 95.0), (100, 90.0), (40, 75.0),
     (30, 66.0), (20, 50.0), (3, 50.0)],
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, pct):
    assert run.tail_percentile(samples) == pct
    if samples >= 20:
        assert samples * (100 - pct) / 100 >= 10 - 1e-9


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert run.percentile(values, 50) == 2.5
    assert run.percentile(values, 100) == 4.0
    assert run.percentile([7.0], 95) == 7.0


# -- self-time partition --------------------------------------------------------


def _op(*spans):
    """Spans of one op: children first, the root (id 1) last."""
    return [*spans, (1, 0, layers.ROOT, layers.ROOT, 0, 100)]


def test_self_times_subtract_child_coverage():
    spans = _op(
        (3, 2, "b", "b1", 20, 30),
        (2, 1, "a", "a1", 10, 50),
        (4, 1, "b", "b2", 60, 90),
    )
    assert layers.self_times(spans) == {1: 30, 2: 30, 3: 10, 4: 30}
    totals = layers.summarize_ops([spans])
    assert totals["self_ns"] == {"a": 30, "b": 40, "unattributed": 30}
    assert sum(totals["self_ns"].values()) == totals["op_ns"][0] == 100


def test_overlapping_children_are_counted_once_and_flagged():
    spans = _op((2, 1, "a", "a1", 10, 50), (3, 1, "a", "a2", 40, 70))
    assert layers.self_times(spans)[1] == 100 - 60
    with pytest.raises(AssertionError):
        layers.summarize_ops([spans])


def test_layer_metrics_partition_the_traced_op():
    spans = _op((2, 1, "math.ntt", "n", 10, 50), (3, 2, "math.rns", "r", 20, 25))
    totals = layers.merge([layers.summarize_ops([spans]), layers.summarize_ops([spans])])
    metrics = layers.layer_metrics(totals)
    parts = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    parts += metrics["unattributed.self_ms"]
    assert parts == pytest.approx(metrics["driver.traced_op_ms"], abs=1e-12)


# -- wrapper installation ---------------------------------------------------------


def test_install_then_remove_restores_every_attribute():
    import workloads  # noqa: F401  (loads every repro module the workloads use)
    from repro.ckks.keyswitch import plan
    from repro.math import ntt

    original = ntt.get_stack
    tracer = layers.Tracer()
    assert tracer.install() == []
    patches = tracer.patches
    assert len(patches) > 100
    # ``from ..math.ntt import get_stack`` in the key-switch planner is
    # patched too, to the same wrapper as the defining module.
    assert plan.get_stack is ntt.get_stack is not original
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is not raw
    tracer.remove()
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw
    assert plan.get_stack is ntt.get_stack is original


def test_wrappers_count_only_inside_ops():
    import workloads  # noqa: F401
    from repro.math import ntt

    moduli = (97, 193)
    tracer = layers.Tracer()
    tracer.install()
    try:
        ntt.get_stack(8, moduli)  # outside an op: not recorded
        stack = tracer.op(ntt.get_stack, 8, moduli)
        tracer.collect()
        tracer.op(stack.forward, np.zeros((2, 3, 8), dtype=np.uint64))
        tracer.collect()
    finally:
        tracer.remove()
    assert tracer.counts["math.ntt.get_stack_calls"] == 1
    assert tracer.counts["math.ntt.limb_transforms"] == 6
    assert tracer.calls["math.ntt"] == 2
    assert tracer.totals["ops"] == 2
    assert [len(spans) for spans in tracer.kept] == [2, 2]


# -- correctness checks ---------------------------------------------------------------


class _Sabotaged:
    """Boot workload whose op 1 returns a corrupted ciphertext and op 2 raises."""

    def __init__(self, wl):
        self.wl = wl
        self.cycle = wl.cycle

    def op(self, i):
        out = self.wl.op(i)
        if i == 1:
            from repro.ckks.ciphertext import Ciphertext
            from repro.math.polynomial import RnsPolynomial

            stack = out.c0.stack.copy()
            stack[0, 0] = (stack[0, 0] + 1) % out.c0.basis.moduli[0]
            c0 = RnsPolynomial(out.c0.degree, out.c0.basis, stack, out.c0.is_ntt)
            return Ciphertext(c0, out.c1, out.scale, out.params)
        if i == 2:
            raise RuntimeError("sabotaged")
        return out

    def check(self, i, out):
        return self.wl.check(i, out)

    def requests(self, i):
        return 0


def test_sabotaged_outputs_count_as_failures():
    import workloads

    phase = worker.run_phase(_Sabotaged(workloads.BootN32(seed=0)), 0, fixed_ops=4)
    assert phase["attempted"] == 4
    assert phase["failed"] == 2
    assert "limbs differ" in phase["failures"][0]
    assert "sabotaged" in phase["failures"][1]
    assert len(phase["op_ns"]) == 3


def test_cold_children_must_match_the_first():
    runner = run.Runner(seed=0, seconds=1, quick=True, out=ROOT)
    first = {"digests": {"report_sha256": "x", "serve": "y"}, "failed": 0, "failures": []}
    other = {"digests": {"report_sha256": "x", "serve": "z"}, "failed": 0, "failures": []}
    runner._check_cold(first)
    runner._check_cold(other)
    assert (first["failed"], other["failed"]) == (0, 1)
    assert "serve" in other["failures"][0]


# -- compare -------------------------------------------------------------------------


def test_compare_verdicts():
    assert compare.verdict([100, 101, 99], [120, 121, 119], "lower", 0.1) == "worse"
    assert compare.verdict([100, 101, 99], [105, 104, 106], "lower", 0.1) == "ok"
    assert compare.verdict([10, 10.1, 9.9], [7, 7, 7], "higher", 0.1) == "worse"
    # A's own quartiles are 45% of its median apart: a 20% slowdown is unresolved...
    assert compare.verdict([80, 100, 120, 140], [130] * 4, "lower", 0.1) == "unresolved"
    # ...unless every B run beats every A run.
    assert compare.verdict([80, 100, 120, 140], [50] * 4, "lower", 0.1) == "ok"


# -- end to end -------------------------------------------------------------------------


def test_quick_run_emits_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in run.WORKLOADS:
        for name in names:
            assert f"{workload}.{name}" in result["metrics"], (workload, name)
    assert "  fail_frac " in proc.stdout
    record = json.loads((tmp_path / "record.json").read_text())
    for workload, entry in record["workloads"].items():
        assert entry["runs"][0]["metrics"]["fail_frac"] == 0
        assert entry["per_layer"]["missing"] == []
        _check_span_file(tmp_path / f"{workload}.spans.jsonl")


def _check_span_file(path):
    """Every op in the span file is partitioned exactly by its self times."""
    ops = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            ops[s["op"]].append(
                (s["id"], s["parent"], s["layer"], s["name"], s["start_ns"], s["end_ns"])
            )
    assert ops
    for spans in ops.values():
        spans.sort(key=lambda s: s[2] == layers.ROOT)  # root last
        layers.summarize_ops([spans])
