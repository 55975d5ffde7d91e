"""One benchmark worker process: set up a workload, run its ops, report.

``run.py`` starts it as ``python bench/worker.py '<json config>'`` with
``src`` on ``PYTHONPATH`` and the BLAS thread pools pinned to one thread.
It speaks a line protocol on stdout: ``@@bench {"event": "ready", ...}``
once set-up is done (imports, keys, inputs, warm-up ops), then
``@@bench {"event": "result", ...}``.  Modes:

* ``setup``  -- set up, report ready, exit (a set-up time sample);
* ``run``    -- set up, then time ops untraced for ``seconds``;
* ``trace``  -- set up, time ops untraced for ``seconds / 2``, then with
  the layer wrappers installed for ``seconds / 2``, then compute the
  modeled-clock metrics;
* ``cold``   -- one ``model-cold`` op: ready after imports, then
  :class:`workloads.ModelCold`, traced if ``config["trace"]``;
* ``modeled`` -- only the modeled-clock metrics.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from collections import defaultdict

PREFIX = "@@bench "


def emit(event: str, **fields) -> None:
    sys.stdout.write(PREFIX + json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counts(all_cache_stats):
    return {name: (s.hits, s.misses) for name, s in all_cache_stats().items()}


def run_phase(wl, seconds: float, fixed_ops: int = 0, tracer=None):
    """Run ops ``0, 1, ...`` of `wl`, checking each after its timer stops.

    Runs `fixed_ops` ops if given, else until `seconds` have passed and the
    inputs have gone round a whole number of cycles.  An op that raises or
    fails its check is counted and the run goes on.  Under a `tracer`, the
    cache counters of every registered cache are summed around each op.
    """
    from repro.telemetry.stats import all_cache_stats

    op_ns, failures, requests = [], [], 0
    cache = defaultdict(lambda: [0, 0])
    deadline = time.perf_counter() + seconds
    i = 0
    while i < fixed_ops if fixed_ops else (i % wl.cycle or time.perf_counter() < deadline):
        before = _cache_counts(all_cache_stats) if tracer else None
        start = time.perf_counter_ns()
        try:
            out = tracer.op(wl.op, i) if tracer else wl.op(i)
        except Exception:
            failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
            if tracer:
                tracer.collect()
        else:
            op_ns.append(time.perf_counter_ns() - start)
            if tracer:
                tracer.collect()
                for name, (hits, misses) in _cache_counts(all_cache_stats).items():
                    old = before.get(name, (0, 0))
                    cache[name][0] += hits - old[0]
                    cache[name][1] += misses - old[1]
            try:
                reason = wl.check(i, out)
            except Exception:
                reason = traceback.format_exc(limit=3)
            if reason:
                failures.append(f"op {i}: {reason}")
            requests += wl.requests(i)
        i += 1
    return {
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:5],
        "op_ns": op_ns,
        "requests": requests,
        "cache": dict(cache),
    }


def traced_totals(tracer, phase) -> dict:
    return dict(tracer.summary(), cache=phase.pop("cache"))


def main(argv) -> int:
    config = json.loads(argv[1])
    mode, seed = config["mode"], config["seed"]
    start = time.perf_counter()
    import workloads  # numpy and the whole of repro

    import_s = time.perf_counter() - start
    import layers

    if mode == "modeled":
        emit("result", modeled=workloads.modeled_metrics(seed))
        return 0
    if mode == "cold":
        emit("ready")
        tracer = layers.Tracer() if config["trace"] else None
        missing = tracer.install() if tracer else []
        op = workloads.ModelCold(seed)
        try:
            phase = run_phase(op, 0, fixed_ops=1, tracer=tracer)
        finally:
            if tracer:
                tracer.remove()
        result = {
            "import_s": import_s, "digests": op.digests, "rss_mb": peak_rss_mb(),
            "missing": missing,
        }
        result.update(phase)
        if tracer:
            result["totals"] = traced_totals(tracer, result)
        emit("result", **result)
        if tracer and config["spans"]:
            tracer.write_spans(config["spans"])
        return 0

    wl = workloads.IN_PROCESS[config["workload"]](seed)
    warm = run_phase(wl, 0, fixed_ops=wl.warmup) if wl.warmup else None
    emit("ready")
    if mode == "setup":
        return 0
    seconds, fixed = config["seconds"], config["fixed_ops"]
    # Keys, input pools and arrival traces (~1.6e5 requests for
    # serve-overload) are inputs, not garbage: frozen, full collections
    # during the timed phase scan only what the ops allocate.
    gc.collect()
    gc.freeze()
    if mode == "run":
        result = run_phase(wl, seconds, fixed)
        result.pop("cache")
    else:
        result = {"untraced": run_phase(wl, seconds / 2, fixed)}
        result["untraced"].pop("cache")
        tracer = layers.Tracer()
        result["missing"] = tracer.install()
        try:
            result["traced"] = run_phase(wl, seconds / 2, fixed, tracer)
        finally:
            tracer.remove()
        result["totals"] = traced_totals(tracer, result["traced"])
        tracer.write_spans(config["spans"])
        result["modeled"] = workloads.modeled_metrics(seed)
    result.update(import_s=import_s, rss_mb=peak_rss_mb(), warmup=warm)
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
