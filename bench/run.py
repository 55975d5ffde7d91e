"""Benchmark runner: four wall-clock workloads, end to end and per layer.

Run from the repository root::

    python bench/run.py [--workload W ...] [--seed S] [--seconds T]
                        [--trace [0|1]] [--quick] [--repeat N] [--out DIR]

Each workload runs in fresh worker processes (``bench/worker.py``), one
client in a closed loop, with the BLAS thread pools pinned to one thread.
The untraced run (``--trace 0``) gives the end-to-end metrics; the traced
run (``--trace 1``) gives the per-layer metrics; with no ``--trace`` both
run.  Every metric is printed by name with its unit; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The run record goes to ``<out>/record.json`` and the
traced run's spans to ``<out>/<workload>.spans.jsonl``.  The exit code is
1 if any op failed its check and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("boot-n32", "helr-n8192", "model-cold", "serve-overload")
COLD = "model-cold"
#: Fresh processes whose set-up time is sampled; ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: Ops per phase under ``--quick``.
QUICK_OPS = 3
#: Unpinned OpenBLAS threads made set-up time swing ~5x on a 2-core box.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PREFIX = "@@bench "
#: Highest percentile with >= 10 samples beyond it, from these (per mille).
TAIL_PERMILLE = (999, 990, 950, 900, 750, 660, 500)


class BenchError(RuntimeError):
    """The benchmark could not run (not an op failure)."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (the inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of `n` samples beyond it.

    Falls back to the median when fewer than 20 samples exist.
    """
    for permille in TAIL_PERMILLE:
        if n * (1000 - permille) >= 10_000:
            return permille / 10
    return 50.0


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


# -- workers -------------------------------------------------------------------


def spawn(config: dict, timeout_s: float) -> Tuple[Optional[float], Optional[float], dict]:
    """Run one worker; returns (ready, result) seconds from spawn and its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    ready_s = result_s = None
    result: dict = {}
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(PREFIX):])
            now = time.perf_counter() - start
            if message.pop("event") == "ready":
                ready_s = now
            else:
                result_s, result = now, message
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        proc.wait()
    expected_result = config["mode"] != "setup"
    if proc.returncode != 0 or (expected_result and result_s is None):
        raise BenchError(
            f"{config['mode']} worker for {config.get('workload', COLD)} "
            f"exited with code {proc.returncode}"
        )
    return ready_s, result_s, result


class Runner:
    """Runs the workloads of one invocation and turns worker output into metrics."""

    def __init__(self, seed: int, seconds: float, quick: bool, out: Path):
        self.seed = seed
        self.seconds = seconds
        self.fixed_ops = QUICK_OPS if quick else 0
        self.setup_samples = 1 if quick else SETUP_SAMPLES
        self.out = out
        self.timeout_s = seconds + 100
        self.cold_reference: Optional[dict] = None

    def _config(self, workload: str, mode: str, **extra) -> dict:
        return dict(
            workload=workload, mode=mode, seed=self.seed, seconds=self.seconds,
            fixed_ops=self.fixed_ops, **extra,
        )

    # -- model-cold: one fresh interpreter per op ----------------------------

    def _cold_children(self, seconds: float, trace: bool, spans: Optional[Path] = None) -> List[dict]:
        children: List[dict] = []
        deadline = time.perf_counter() + seconds
        while (
            len(children) < self.fixed_ops if self.fixed_ops
            else time.perf_counter() < deadline
        ):
            # Only the first traced child writes spans: one op is ~1e5 spans.
            config = self._config(
                COLD, "cold", trace=trace,
                spans=str(spans) if spans and not children else None,
            )
            ready_s, result_s, result = spawn(config, self.timeout_s)
            result.update(ready_s=ready_s, op_ns=[int(result_s * 1e9)])
            self._check_cold(result)
            children.append(result)
        return children

    def _check_cold(self, result: dict) -> None:
        """The child's outputs must equal those of the run's first child."""
        digests = result["digests"]
        if not digests:
            return  # the op raised; already counted as failed
        if self.cold_reference is None:
            self.cold_reference = digests
        diff = sorted(k for k in self.cold_reference if digests.get(k) != self.cold_reference[k])
        if diff:
            result["failed"] += 1
            result["failures"].append(f"differs from the first child in {', '.join(diff)}")

    # -- untraced: end-to-end metrics --------------------------------------------

    def untraced(self, workload: str) -> dict:
        if workload == COLD:
            children = self._cold_children(self.seconds, trace=False)
            return end_to_end(
                op_ns=[c["op_ns"][0] for c in children],
                setups=[c["ready_s"] for c in children],
                rss_mb=statistics.median(c["rss_mb"] for c in children),
                phases=children,
            )
        setups = [
            spawn(self._config(workload, "setup"), self.timeout_s)[0]
            for _ in range(self.setup_samples - 1)
        ]
        ready_s, _, result = spawn(self._config(workload, "run"), self.timeout_s)
        return end_to_end(
            op_ns=result["op_ns"],
            setups=setups + [ready_s],
            rss_mb=result["rss_mb"],
            phases=[p for p in (result["warmup"], result) if p],
        )

    # -- traced: per-layer metrics -------------------------------------------------

    def traced(self, workload: str) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        spans = self.out / f"{workload}.spans.jsonl"
        if workload == COLD:
            plain = self._cold_children(self.seconds / 2, trace=False)
            traced = self._cold_children(self.seconds / 2, trace=True, spans=spans)
            _, _, modeled = spawn(self._config(COLD, "modeled"), self.timeout_s)
            totals = layers.merge([c["totals"] for c in traced])
            plain_ns = [c["op_ns"][0] for c in plain]
            traced_ns = [c["op_ns"][0] for c in traced]
            requests = sum(c["requests"] for c in plain)
            import_s = statistics.median(c["import_s"] for c in plain + traced)
            missing = traced[0]["missing"]
            phases = plain + traced
            modeled = modeled["modeled"]
        else:
            _, _, result = spawn(self._config(workload, "trace", spans=str(spans)), self.timeout_s)
            totals = result["totals"]
            plain_ns = result["untraced"]["op_ns"]
            traced_ns = result["traced"]["op_ns"]
            requests = result["untraced"]["requests"]
            import_s = result["import_s"]
            missing = result["missing"]
            phases = [p for p in (result["warmup"], result["untraced"], result["traced"]) if p]
            modeled = result["modeled"]
        metrics = layers.layer_metrics(totals)
        metrics.update(modeled)
        tail = tail_percentile(len(plain_ns))
        metrics.update({
            "serving.sim_req_per_s": requests / (sum(plain_ns) / 1e9) if plain_ns else 0.0,
            "driver.import_s": import_s,
            "driver.trace_overhead_frac": (
                statistics.median(traced_ns) / statistics.median(plain_ns) - 1
                if plain_ns and traced_ns else 0.0
            ),
            "driver.op_tail_ms": percentile(plain_ns, tail) / 1e6 if plain_ns else 0.0,
        })
        return {
            "metrics": metrics,
            "traced_ops": totals["ops"],
            "tail_pct": tail,
            "missing": missing,
            **outcome(phases),
        }


def outcome(phases: Sequence[dict]) -> dict:
    """Attempted and failed op counts summed over worker phases."""
    failures = [f for p in phases for f in p["failures"]]
    return {
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "failures": failures[:5],
    }


def end_to_end(op_ns: Sequence[int], setups: Sequence[float], rss_mb: float,
               phases: Sequence[dict]) -> dict:
    """The end-to-end metrics of one untraced run, plus its op tail."""
    result = outcome(phases)
    tail = tail_percentile(len(op_ns))
    result["metrics"] = {
        "op_p50_ms": statistics.median(op_ns) / 1e6 if op_ns else 0.0,
        "ops_per_s": len(op_ns) / (sum(op_ns) / 1e9) if op_ns else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "fail_frac": result["failed"] / max(1, result["attempted"]),
    }
    result.update(
        samples=len(op_ns),
        tail_pct=tail,
        op_tail_ms=percentile(op_ns, tail) / 1e6 if op_ns else 0.0,
    )
    return result


# -- output ---------------------------------------------------------------------


def _units(spec: dict) -> Dict[str, str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.setdefault("fail_frac", "fraction")
    return units


def print_metrics(metrics: Dict[str, float], names: Sequence[str], units: Dict[str, str]) -> None:
    for name in names:
        print(f"  {name:<36}{metrics[name]:>16.6g} {units[name]}")


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def parse_args(argv: Sequence[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of keys, inputs and arrival traces")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured seconds per run (traced runs split it "
                             "between an untraced and a traced half)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                        help="1: traced run only; 0: untraced run only; "
                             "omitted: both")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_OPS} ops per phase and one set-up sample")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (for compare.py spreads)")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="directory for the run record and span files")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    units = _units(spec)
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    runner = Runner(args.seed, args.seconds, args.quick, args.out)
    record = {
        "meta": {
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "repeat": args.repeat, "git_sha": git_sha(), "nproc": os.cpu_count(),
            "threads": THREAD_ENV, "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {w: {"runs": []} for w in workloads},
    }
    flat: Dict[str, Tuple[float, str]] = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            entry = record["workloads"][workload]
            for r in range(args.repeat if args.trace != 1 else 0):
                res = runner.untraced(workload)
                entry["runs"].append(res)
                attempted += res["attempted"]
                failed += res["failed"]
                print(f"== {workload}: untraced run {r + 1}/{args.repeat}, "
                      f"seed {args.seed}, {res['samples']} timed ops ==")
                print_metrics(res["metrics"], e2e_names + ["fail_frac"], units)
                print(f"  {'op tail p' + format(res['tail_pct'], 'g'):<36}"
                      f"{res['op_tail_ms']:>16.6g} ms (n={res['samples']})")
                for failure in res["failures"]:
                    print(f"  FAILED {failure}", file=sys.stderr)
            if entry["runs"]:
                for name in e2e_names:
                    values = [run["metrics"][name] for run in entry["runs"]]
                    flat[f"{workload}.{name}"] = (statistics.median(values), units[name])
            if args.trace != 0:
                res = runner.traced(workload)
                entry["per_layer"] = res
                attempted += res["attempted"]
                failed += res["failed"]
                print(f"== {workload}: traced run, {res['traced_ops']} traced ops ==")
                print(layers.format_layer_table(res["metrics"]))
                absent = [n for n in layer_names if n not in res["metrics"]]
                for name in absent:  # e.g. a cache that no longer exists
                    res["metrics"][name] = 0.0
                print_metrics(res["metrics"], layer_names, units)
                if res["missing"] or absent:
                    print(f"  entry points not found: {', '.join(res['missing'])}; "
                          f"metrics not produced: {', '.join(absent)}")
                for failure in res["failures"]:
                    print(f"  FAILED {failure}", file=sys.stderr)
                for name in layer_names:
                    flat[f"{workload}.{name}"] = (res["metrics"][name], units[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    single = len(workloads) == 1 and args.trace in (0, 1)
    prefix = f"{workloads[0]}." if single else ""
    metrics = {
        key[len(prefix):]: {"value": value, "unit": unit}
        for key, (value, unit) in flat.items()
    }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
