"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro report              # headline summary
    python -m repro table 2|5|6|7|8     # one evaluation table
    python -m repro fig 3|14|16|17      # one evaluation figure (as text)
    python -m repro params [A-H]        # parameter-set details
    python -m repro profile <app>       # per-op/per-kernel profile
    python -m repro serve --workload mixed   # dynamic-batching serving report
    python -m repro serve --gpus 4 --workload overload  # fleet serving report
    python -m repro metrics             # metrics snapshot of a serve run
    python -m repro trace req-0         # one request's span tree
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .analysis import booth, complexity
from .analysis.memory_footprint import (
    ciphertext_bytes,
    hybrid_evk_bytes,
    klss_evk_bytes,
    max_batch_size,
)
from .analysis.reporting import format_table
from .analysis.security import estimated_security_bits, total_modulus_bits
from .apps import APPLICATIONS, get_application, standard_applications
from .baselines import BASELINE_MODELS, CpuModel, HeonGpuModel, TensorFheModel
from .ckks.params import TABLE4, KlssConfig, get_set
from .core import ABLATION_STEPS, NEO_CONFIG, NeoContext
from .core.profiling import chrome_trace_json, profile_application
from .serving.policies import POLICIES
from .serving.workload import WORKLOAD_PRESETS
from .telemetry.stats import clear_caches

#: profile-command system registry: the baselines plus Neo itself.
SYSTEM_MODELS = dict(
    BASELINE_MODELS,
    neo=(lambda params, batch=None: NeoContext(params, batch=batch), "C"),
)

OPS = ("hmult", "hrotate", "pmult", "hadd", "padd", "rescale")


def _print(text: str):
    print(text)
    print()


def cmd_report(_args) -> int:
    cmd_table(argparse.Namespace(number="5"))
    cmd_table(argparse.Namespace(number="7"))
    cmd_fig(argparse.Namespace(number="14"))
    return 0


def cmd_table(args) -> int:
    number = str(args.number)
    if number == "2":
        params = get_set("C")
        table = complexity.complexity_table(params)
        rows = [
            [step, table["Hybrid"][step], table["KLSS"][step]]
            for step in complexity.TABLE2_ROWS
        ]
        _print(format_table(["Breakdown", "Hybrid", "KLSS"], rows,
                            title="Table 2 (Set C, l = 35)"))
    elif number == "5":
        systems = [
            ("CPU(H)", CpuModel("H")),
            ("TensorFHE(A)", TensorFheModel("A")),
            ("TensorFHE(B)", TensorFheModel("B")),
            ("HEonGPU(E)", HeonGpuModel("E")),
            ("Neo(C)", NeoContext("C", config=NEO_CONFIG)),
            ("Neo(D)", NeoContext("D", config=NEO_CONFIG)),
        ]
        apps = standard_applications()
        rows = [
            [label] + [f"{app.time_s(ctx):.2f}" for app in apps]
            for label, ctx in systems
        ]
        _print(format_table(["system"] + [a.name for a in apps], rows,
                            title="Table 5: application time (s)"))
    elif number == "6":
        systems = [
            ("TensorFHE(A)", TensorFheModel("A")),
            ("TensorFHE(B)", TensorFheModel("B")),
            ("HEonGPU(E)", HeonGpuModel("E")),
            ("Neo(C)", NeoContext("C", config=NEO_CONFIG)),
        ]
        rows = [
            [label] + [f"{ctx.operation_time_us(op, 35):.1f}" for op in OPS]
            for label, ctx in systems
        ]
        _print(format_table(["system"] + [o.upper() for o in OPS], rows,
                            title="Table 6: operation time at l = 35 (us)"))
    elif number == "7":
        neo = NeoContext("B", config=NEO_CONFIG.with_overrides(keyswitch="hybrid"))
        tfhe = TensorFheModel("B")
        rows = []
        for kernel in ("bconv", "ip", "ntt"):
            ratio = neo.kernel_throughput(kernel) / tfhe.kernel_throughput(kernel)
            rows.append([kernel, f"{neo.kernel_throughput(kernel):.0f}",
                         f"{tfhe.kernel_throughput(kernel):.0f}", f"{ratio:.2f}x"])
        _print(format_table(["kernel", "Neo/s", "TensorFHE/s", "speedup"], rows,
                            title="Table 7: kernel throughput (Set B)"))
    elif number == "8":
        base = get_set("B")
        rows = []
        for at in (4, 5, 6, 7):
            row = [f"a~={at}"]
            for dn in (4, 6, 9, 12, 18):
                p = dataclasses.replace(
                    base, dnum=dn, klss=KlssConfig(wordsize_t=48, alpha_tilde=at)
                )
                ctx = NeoContext(p, config=NEO_CONFIG)
                row.append(f"{ctx.keyswitch_time_us(35) / 1e3:.2f}")
            rows.append(row)
        _print(format_table(["alpha~"] + [f"dnum={d}" for d in (4, 6, 9, 12, 18)],
                            rows, title="Table 8: KeySwitch ms"))
    else:
        print(f"unknown table {number!r}; choose from 2, 5, 6, 7, 8", file=sys.stderr)
        return 2
    return 0


def cmd_fig(args) -> int:
    number = str(args.number)
    if number == "3":
        rows = []
        for name, steps in booth.fig3_comparison().items():
            rows.append([name, steps.plane_products, f"{steps.total_s * 1e3:.3f}"])
        _print(format_table(["component/WS", "planes", "total ms"], rows,
                            title="Fig. 3: INT8 vs FP64 GEMM"))
    elif number == "14":
        rows = []
        base: Optional[float] = None
        for label, config in ABLATION_STEPS:
            ctx = NeoContext("C" if config.keyswitch == "klss" else "B", config=config)
            t = ctx.operation_time_us("hmult", 35)
            base = base or t
            rows.append([label, f"{t:.0f}", f"{t / base:.3f}"])
        _print(format_table(["step", "HMULT us", "norm"], rows,
                            title="Fig. 14: ablation"))
    elif number == "16":
        base = get_set("B")
        hybrid = NeoContext(base, config=NEO_CONFIG.with_overrides(keyswitch="hybrid"))
        rows = [["Hybrid", f"{hybrid.keyswitch_time_us(35):.0f}"]]
        for wst in (36, 48, 64):
            p = dataclasses.replace(
                base, dnum=9, klss=KlssConfig(wordsize_t=wst, alpha_tilde=5)
            )
            ctx = NeoContext(p, config=NEO_CONFIG)
            rows.append([f"KLSS-{wst}", f"{ctx.keyswitch_time_us(35):.0f}"])
        _print(format_table(["method", "KeySwitch us (l=35)"], rows,
                            title="Fig. 16: WordSize_T trade-off"))
    elif number == "17":
        apps = standard_applications()[:3]
        rows = []
        reference = None
        for batch in (8, 16, 32, 64, 128):
            ctx = NeoContext("C", config=NEO_CONFIG, batch=batch)
            times = {a.name: a.time_s(ctx) for a in apps}
            reference = reference or dict(times)
            rows.append([batch] + [f"{times[a.name] / reference[a.name]:.2f}"
                                   for a in apps])
        _print(format_table(["BatchSize"] + [a.name for a in apps], rows,
                            title="Fig. 17: BatchSize scaling (normalised to 8)"))
    else:
        print(f"unknown figure {number!r}; choose from 3, 14, 16, 17",
              file=sys.stderr)
        return 2
    return 0


def cmd_params(args) -> int:
    names = [args.set.upper()] if args.set else sorted(TABLE4)
    rows = []
    for name in names:
        try:
            p = get_set(name)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        klss = f"T={p.klss.wordsize_t}, a~={p.klss.alpha_tilde}" if p.klss else "-"
        rows.append(
            [
                p.name,
                f"2^{p.log_degree}",
                p.max_level,
                p.wordsize,
                p.dnum,
                klss,
                f"{total_modulus_bits(p):.0f}",
                f"{estimated_security_bits(p):.0f}",
                f"{ciphertext_bytes(p) / 2**20:.0f} MiB",
                f"{(klss_evk_bytes(p) if p.klss else hybrid_evk_bytes(p)) / 2**20:.0f} MiB",
                max_batch_size(p),
            ]
        )
    _print(
        format_table(
            ["set", "N", "L", "WS", "dnum", "KLSS", "logQP", "~sec bits",
             "ct size", "evk size", "max batch"],
            rows,
            title="Table 4 parameter sets",
        )
    )
    return 0


def cmd_profile(args) -> int:
    try:
        app = get_application(args.app)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    system = args.system.lower()
    if system not in SYSTEM_MODELS:
        print(
            f"unknown system {args.system!r}; choose from "
            + ", ".join(sorted(SYSTEM_MODELS)),
            file=sys.stderr,
        )
        return 2
    factory, default_set = SYSTEM_MODELS[system]
    if args.batch is not None and args.batch < 1:
        print(f"--batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2
    # Only forward --batch when given, so each system keeps its own default.
    kwargs = {} if args.batch is None else {"batch": args.batch}
    try:
        ctx = factory(args.set or default_set, **kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    profile = profile_application(ctx, app)
    _print(profile.format(top=args.top))
    if args.chrome_trace:
        trace = ctx.application_trace(app)
        with open(args.chrome_trace, "w") as fh:
            fh.write(chrome_trace_json(ctx, trace))
        print(
            f"chrome trace ({len(trace)} events) written to {args.chrome_trace} "
            "(open via chrome://tracing or https://ui.perfetto.dev)"
        )
    return 0


def cmd_tune(args) -> int:
    """Search the plan/parameter config space for one application."""
    import json as _json

    from .core import BUDGETS, tune_app
    from .gpu import get_device

    try:
        device = get_device(args.device)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.budget not in BUDGETS:
        print(
            f"unknown budget {args.budget!r}; choose from "
            + ", ".join(sorted(BUDGETS)),
            file=sys.stderr,
        )
        return 2
    try:
        report = tune_app(
            args.app,
            params=args.set,
            device=device,
            budget=args.budget,
            top=args.top,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
        return 0
    rows = []
    for rank, cfg in enumerate(report.results, start=1):
        rows.append([
            str(rank),
            f"{cfg.time_s * 1e3:.1f}",
            f"{cfg.speedup:.2f}x" if cfg.speedup else "n/a",
            cfg.label(),
        ])
    baseline = (
        f"{report.baseline_time_s * 1e3:.1f} ms (paper hand-picked config)"
        if report.baseline_time_s
        else "infeasible on this device"
    )
    _print(
        format_table(
            ["rank", "modeled ms", "vs baseline", "configuration"],
            rows,
            title=(
                f"Tuned frontier: {report.app} on {report.device_name} "
                f"(set {report.params_name}, budget {report.budget})"
            ),
        )
    )
    _print(f"baseline: {baseline}")
    _print(
        f"search: {report.probed} probed, {report.evaluated} full evals, "
        f"{report.pruned_dominated} dominated + {report.pruned_cutoff} "
        f"cutoff pruned; plan-cache hit rate "
        f"{report.cache_hit_rate * 100:.0f}%"
    )
    return 0


def cmd_serve(args) -> int:
    from .serving import (
        Fleet,
        OverloadPolicy,
        Server,
        parse_workload_spec,
        synthesize_arrivals,
    )
    from .gpu import DeviceCapabilityError, get_device

    try:
        device = get_device(args.device)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.policy.lower() not in POLICIES:
        print(
            f"unknown policy {args.policy!r}; choose from "
            + ", ".join(sorted(POLICIES)),
            file=sys.stderr,
        )
        return 2
    if args.gpus > 1 and (args.wall_clock or args.snapshot):
        print(
            "--wall-clock and --snapshot operate on a single server; "
            "use --gpus 1",
            file=sys.stderr,
        )
        return 2
    # The report's cache table counts the process-wide caches: start them
    # empty, as a fresh ``repro serve`` process does, so that the output
    # depends only on the arguments.
    clear_caches()
    tracer = None
    if args.metrics or args.trace_jsonl:
        from .telemetry import enable_telemetry

        enable_telemetry().reset()
    if args.trace_jsonl:
        from .telemetry import Tracer

        tracer = Tracer()
    try:
        overload = None
        if args.queue_capacity is not None:
            overload = OverloadPolicy(
                queue_capacity=args.queue_capacity,
                shed_threshold=args.shed_threshold,
                tenant_quota=args.tenant_quota,
            )
        phases = parse_workload_spec(args.workload)
        requests = synthesize_arrivals(phases, seed=args.seed)
        if args.gpus != 1 or args.tensor_parallel != 1:
            server = Fleet(
                gpus=args.gpus,
                params=args.set,
                policy=args.policy,
                max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms / 1e3,
                lanes=args.lanes,
                placement=args.placement,
                tensor_parallel=args.tensor_parallel,
                overload=overload,
                tracer=tracer,
                device=device,
                autotune=args.autotune,
            )
        else:
            server = Server(
                params=args.set,
                policy=args.policy,
                max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms / 1e3,
                lanes=args.lanes,
                overload=overload,
                tracer=tracer,
                device=device,
                autotune=args.autotune,
            )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        if args.wall_clock:
            from .serving import run_wall_clock

            report = run_wall_clock(server, requests, time_scale=args.time_scale)
        else:
            server.submit_many(requests)
            report = server.drain()
    except DeviceCapabilityError as exc:
        print(
            f"{exc}; add --autotune to pick a configuration this device supports",
            file=sys.stderr,
        )
        return 2
    _print(
        f"workload {args.workload!r} (seed {args.seed}): "
        + ", ".join(f"{p.count}x {p.app} @ {p.rate_hz:g}/s" for p in phases)
    )
    _print(report.format())
    if args.autoscale and args.gpus > 1:
        _print("")
        _print(server.plan_autoscale().format())
    if args.snapshot:
        from .serving import capture_timeline

        path = capture_timeline(server, args.snapshot, report)
        print(
            f"timeline snapshot ({report.offered} requests, fingerprint "
            f"{report.fingerprint()[:12]}..) written to {path} "
            "(replay with: python -m repro replay)"
        )
    if args.chrome_trace:
        with open(args.chrome_trace, "w") as fh:
            fh.write(report.to_chrome_trace())
        print(
            f"serving timeline ({len(report.batches)} batches) written to "
            f"{args.chrome_trace} (open via chrome://tracing or "
            "https://ui.perfetto.dev)"
        )
    if args.metrics:
        from .telemetry import global_registry

        with open(args.metrics, "w") as fh:
            fh.write(global_registry().snapshot_json())
            fh.write("\n")
        print(f"metrics snapshot written to {args.metrics}")
    if args.trace_jsonl:
        with open(args.trace_jsonl, "w") as fh:
            text = tracer.to_jsonl()
            fh.write(text + ("\n" if text else ""))
        print(
            f"span log ({len(tracer)} spans, {len(tracer.trace_ids())} traces) "
            f"written to {args.trace_jsonl}"
        )
    return 0


def cmd_replay(args) -> int:
    """Replay a captured traffic snapshot; verify its fingerprint."""
    from .serving.replay import SnapshotError, TimelineSnapshot

    try:
        snapshot = TimelineSnapshot.load(args.snapshot)
    except (OSError, SnapshotError) as exc:
        print(f"cannot load snapshot {args.snapshot!r}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.no_verify:
            _, report = snapshot.replay()
            verdict = "fingerprint not checked"
        else:
            report = snapshot.verify()
            verdict = (
                "fingerprint verified"
                if snapshot.fingerprint
                else "replay determinism verified (snapshot had no fingerprint)"
            )
    except SnapshotError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    _print(
        f"replayed {len(snapshot.requests)} request(s) "
        f"({len(snapshot.cancels)} cancel(s)) from {args.snapshot}: {verdict}"
    )
    _print(f"fingerprint {report.fingerprint()}")
    _print(report.format())
    return 0


def cmd_metrics(args) -> int:
    """Drive one serve run with telemetry on; print the metrics snapshot."""
    from .serving import Fleet, Server, parse_workload_spec, synthesize_arrivals
    from .telemetry import enable_telemetry

    registry = enable_telemetry()
    registry.reset()
    try:
        phases = parse_workload_spec(args.workload)
        requests = synthesize_arrivals(phases, seed=args.seed)
        if args.gpus != 1:
            server = Fleet(gpus=args.gpus, params=args.set)
        else:
            server = Server(params=args.set)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    server.submit_many(requests)
    server.drain()
    if args.format == "prometheus":
        print(registry.to_prometheus_text(), end="")
    else:
        print(registry.snapshot_json())
    return 0


def cmd_trace(args) -> int:
    """Drive one serve run with a tracer; print one request's span tree."""
    from .serving import Server, parse_workload_spec, synthesize_arrivals
    from .telemetry import Tracer

    tracer = Tracer()
    try:
        phases = parse_workload_spec(args.workload)
        requests = synthesize_arrivals(phases, seed=args.seed)
        server = Server(params=args.set, tracer=tracer)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    server.submit_many(requests)
    server.drain()
    rid = args.request_id
    trace_id = rid if rid.startswith("req-") else f"req-{rid}"
    known = tracer.trace_ids()
    if trace_id not in known:
        preview = ", ".join(known[:8]) + (", ..." if len(known) > 8 else "")
        print(
            f"no trace {trace_id!r} in this workload; request ids: {preview}",
            file=sys.stderr,
        )
        return 2
    # Kernel spans are recorded once per batch shape and linked from the
    # request's batch span (``kernel_trace`` attribute); splice them back
    # in so the printed path covers queue -> batch -> op -> kernel.
    linked: list = []
    for s in tracer.spans_for(trace_id):
        link = s.attr_dict().get("kernel_trace")
        if link and link not in linked:
            linked.append(link)
    _print(tracer.format_tree(trace_id))
    for link in linked:
        _print("")
        _print("linked kernel trace (timestamps relative to batch start):")
        _print(tracer.format_tree(link))
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            parts = [tracer.to_jsonl(trace_id)]
            parts.extend(tracer.to_jsonl(link) for link in linked)
            text = "\n".join(p for p in parts if p)
            fh.write(text + ("\n" if text else ""))
        print(f"span log for {trace_id} written to {args.jsonl}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Neo (ISCA'25) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("report", help="headline results").set_defaults(func=cmd_report)
    t = sub.add_parser("table", help="regenerate a paper table")
    t.add_argument("number", help="2, 5, 6, 7 or 8")
    t.set_defaults(func=cmd_table)
    f = sub.add_parser("fig", help="regenerate a paper figure (text form)")
    f.add_argument("number", help="3, 14, 16 or 17")
    f.set_defaults(func=cmd_fig)
    p = sub.add_parser("params", help="parameter-set details")
    p.add_argument("set", nargs="?", help="A-H (default: all)")
    p.set_defaults(func=cmd_params)
    prof = sub.add_parser(
        "profile", help="per-op/per-kernel profile of one application"
    )
    prof.add_argument(
        "app",
        help="application: " + ", ".join(sorted(set(APPLICATIONS) - {"bootstrap"})),
    )
    prof.add_argument(
        "--system",
        default="neo",
        help="neo, tensorfhe, heongpu or cpu (default: neo)",
    )
    prof.add_argument(
        "--set", default=None, help="parameter set A-H (default: system-specific)"
    )
    prof.add_argument("--batch", type=int, default=None, help="BatchSize override")
    prof.add_argument(
        "--top", type=int, default=12, help="kernel rows to show (default 12)"
    )
    prof.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="also write the simulated timeline as Chrome-trace JSON",
    )
    prof.set_defaults(func=cmd_profile)
    tune = sub.add_parser(
        "tune",
        help="autotune plan/parameter choices for one application on a device",
    )
    tune.add_argument(
        "app",
        help="application: " + ", ".join(sorted(set(APPLICATIONS) - {"bootstrap"})),
    )
    tune.add_argument("--set", default="C", help="parameter set A-H (default: C)")
    tune.add_argument(
        "--device", default="a100",
        help="target device: a100, h100, l4 or a100-no-tcu (default: a100)",
    )
    tune.add_argument(
        "--budget", default="quick", help="search budget: quick or full"
    )
    tune.add_argument(
        "--top", type=int, default=8,
        help="frontier rows to keep (default 8)",
    )
    tune.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of a table",
    )
    tune.set_defaults(func=cmd_tune)
    serve = sub.add_parser(
        "serve", help="replay a synthetic arrival trace through the serving layer"
    )
    serve.add_argument(
        "--workload",
        default="mixed",
        help=f"preset ({', '.join(WORKLOAD_PRESETS)}) or "
        "app:count:rate[:size[:slo[:tier]]] entries, comma-separated",
    )
    serve.add_argument(
        "--policy",
        default="bucketed",
        help=f"admission policy: {', '.join(POLICIES)} (default: bucketed)",
    )
    serve.add_argument("--set", default="C", help="parameter set A-H (default: C)")
    serve.add_argument(
        "--max-batch", type=int, default=64, help="dynamic batch capacity (cts)"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=30000.0,
        help="continuous-batching window, simulated ms (default 30000)",
    )
    serve.add_argument(
        "--lanes", type=int, default=2, help="concurrent batch lanes (default 2)"
    )
    serve.add_argument(
        "--gpus", type=int, default=1,
        help="modeled GPUs; > 1 routes across a fleet (default 1)",
    )
    serve.add_argument(
        "--placement", default="replicate", choices=("replicate", "shard"),
        help="evaluation-key placement across the fleet (default: replicate)",
    )
    serve.add_argument(
        "--tensor-parallel", type=int, default=1,
        help="GPUs ganged per serving group; must divide --gpus (default 1)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="arrival-trace seed (default 0)"
    )
    serve.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="also write the serving timeline as Chrome-trace JSON",
    )
    serve.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="enable telemetry and write the metrics snapshot (JSON)",
    )
    serve.add_argument(
        "--trace-jsonl",
        metavar="FILE",
        default=None,
        help="enable tracing and write every request's spans as JSONL",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="bound the admission queue and enable overload control "
        "(load shedding, priority eviction)",
    )
    serve.add_argument(
        "--shed-threshold", type=float, default=0.75, metavar="FRAC",
        help="queue-fill fraction where low-priority shedding starts "
        "(default 0.75; needs --queue-capacity)",
    )
    serve.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="max queued requests per tenant (needs --queue-capacity)",
    )
    serve.add_argument(
        "--wall-clock", action="store_true",
        help="ingest through the asyncio front end (live edge) instead of "
        "submitting the trace directly; same scheduler, same report",
    )
    serve.add_argument(
        "--time-scale", type=float, default=0.0, metavar="S",
        help="wall seconds per simulated second when pacing --wall-clock "
        "ingest (default 0: as fast as backpressure allows)",
    )
    serve.add_argument(
        "--snapshot", metavar="FILE", default=None,
        help="capture the traffic timeline + fingerprint as JSONL "
        "(replayable via `python -m repro replay FILE`)",
    )
    serve.add_argument(
        "--autoscale", action="store_true",
        help="with --gpus > 1, also print the hysteresis autoscale plan",
    )
    serve.add_argument(
        "--device", default="a100",
        help="modeled device: a100, h100, l4 or a100-no-tcu (default: a100)",
    )
    serve.add_argument(
        "--autotune", action="store_true",
        help="search per-app plan/parameter configs (hierarchical memory "
        "model) instead of the paper's hand-picked NEO_CONFIG",
    )
    serve.set_defaults(func=cmd_serve)
    replay = sub.add_parser(
        "replay", help="replay a captured traffic snapshot bit-for-bit"
    )
    replay.add_argument("snapshot", help="snapshot JSONL from serve --snapshot")
    replay.add_argument(
        "--no-verify", action="store_true",
        help="skip the fingerprint check (print the report only)",
    )
    replay.set_defaults(func=cmd_replay)
    metrics = sub.add_parser(
        "metrics", help="metrics snapshot of one telemetry-enabled serve run"
    )
    metrics.add_argument(
        "--workload", default="smoke",
        help="workload preset or spec (default: smoke)",
    )
    metrics.add_argument(
        "--format", default="prometheus", choices=("prometheus", "json"),
        help="output format (default: prometheus)",
    )
    metrics.add_argument("--set", default="C", help="parameter set (default: C)")
    metrics.add_argument("--seed", type=int, default=0, help="arrival seed")
    metrics.add_argument(
        "--gpus", type=int, default=1,
        help="modeled GPUs; > 1 drains a fleet and adds fleet_* metrics",
    )
    metrics.set_defaults(func=cmd_metrics)
    trace = sub.add_parser(
        "trace", help="span tree of one request from a traced serve run"
    )
    trace.add_argument("request_id", help="request id, e.g. req-0 (or just 0)")
    trace.add_argument(
        "--workload", default="smoke",
        help="workload preset or spec (default: smoke)",
    )
    trace.add_argument("--set", default="C", help="parameter set (default: C)")
    trace.add_argument("--seed", type=int, default=0, help="arrival seed")
    trace.add_argument(
        "--jsonl", metavar="FILE", default=None,
        help="also write the request's spans as JSONL",
    )
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
