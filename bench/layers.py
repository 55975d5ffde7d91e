"""Layer map and span tracer for the benchmark's traced run.

The traced run attributes wall time to this repository's modules without
changing any source file: :class:`Tracer` wraps the public entry points
listed in :data:`LAYERS`.  Installing a wrapper patches the attribute on
its owning class or module, and also every loaded ``repro.*`` module
attribute that is the same object, so names bound by ``from x import y``
are caught too.  :meth:`Tracer.remove` puts every original object back.

Each wrapper records one span -- layer, name, start, end, parent span --
in memory and bumps its counters at the same point.  A layer's self time
is the duration of its spans minus the time their child spans cover; the
op's root span keeps whatever no wrapped call covers, reported as
``unattributed``.  Self times are integer nanoseconds, so per op the layer
self times plus ``unattributed`` sum exactly to the op's traced time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: layer -> (module, entry points).  ``Class.*`` stands for every public
#: function defined on the class itself.  Only plain functions (and class
#: or static methods over them) are wrapped.  An entry point that no
#: longer exists is skipped and reported by :meth:`Tracer.install`, so a
#: refactor of ``src/`` shrinks the trace instead of breaking the run.
LAYERS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "math.ntt": (
        ("repro.math.ntt", (
            "NttStack.forward", "NttStack.inverse", "NttPlan.forward",
            "NttPlan.inverse", "get_stack", "get_plan",
        )),
    ),
    "math.modstack": (
        ("repro.math.modstack", (
            "ModulusStack.for_moduli", "ModulusStack.stack_limbs",
            "ModulusStack.reduce", "ModulusStack.reduce128",
            "ModulusStack.zeros", "ModulusStack.add", "ModulusStack.sub",
            "ModulusStack.neg", "ModulusStack.mul", "ModulusStack.shoup_mul",
            "ModulusStack.scalar_mul", "ModulusStack.broadcast_scalar_mul",
            "ModulusStack.lazy_mul_sum", "ModulusStack.divide_exact_drop",
            "ModulusStack.bconv_matmul",
        )),
    ),
    "math.rns": (
        ("repro.math.rns", (
            "RnsBasis.__init__", "RnsBasis.subbasis", "RnsBasis.decompose",
            "RnsBasis.compose", "RnsBasis.compose_signed", "bconv_approx",
            "bconv_exact", "bconv_weights", "bconv_matrix",
        )),
    ),
    "math.modarith": (
        ("repro.math.modarith", (
            "asarray_mod", "zeros_mod", "add_mod", "sub_mod", "neg_mod",
            "mul_mod", "scalar_mul_mod", "dot_mod", "matmul_mod",
            "to_signed", "from_signed",
        )),
    ),
    "math.polynomial": (
        ("repro.math.polynomial", (
            "RnsPolynomial.*", "automorphism_gather_maps", "negacyclic_multiply",
        )),
    ),
    "ckks.keyswitch": (
        ("repro.ckks.keyswitch.plan", (
            "gemm_keyswitch", "hoisted_gemm_rotations", "gemm_rotation_batch",
            "get_keyswitch_plan", "get_hoisted_rotation_plan",
            "get_rotation_batch_plan",
        )),
        ("repro.ckks.keyswitch.hybrid", ("keyswitch", "mod_up", "mod_down")),
        ("repro.ckks.keyswitch.klss", ("keyswitch",)),
        ("repro.ckks.hoisting", ("hoisted_rotations",)),
    ),
    "ckks.evaluator": (("repro.ckks.evaluator", ("Evaluator.*",)),),
    "ckks.encoder": (
        ("repro.ckks.encoder", (
            "CkksEncoder.encode", "CkksEncoder.encode_constant",
            "CkksEncoder.decode", "CkksEncoder.embed", "CkksEncoder.project",
        )),
    ),
    "ckks.linear_transform": (
        ("repro.ckks.linear_transform", (
            "LinearTransformPlan.run", "LinearTransform.apply",
        )),
    ),
    "ckks.poly_eval": (
        ("repro.ckks.poly_eval", (
            "PolynomialEvaluator.evaluate", "PolynomialEvaluator.powers",
        )),
    ),
    "ckks.bootstrap": (("repro.ckks.bootstrap", ("Bootstrapper.*",)),),
    "core.neo_context": (("repro.core.neo_context", ("NeoContext.*",)),),
    # The cost model is called ~10^5 times per op on the modeled
    # workloads; only its pricing and trace-building entry points are
    # wrapped, not the per-kernel helpers under them, to bound overhead.
    "core.pipeline": (
        ("repro.core.pipeline", (
            "OperationPipeline.build_operation_trace",
            "OperationPipeline.operation_trace",
            "OperationPipeline.keyswitch_trace",
        )),
    ),
    "core.autotuner": (("repro.core.autotuner", ("tune_app",)),),
    "gpu.kernels": (("repro.gpu.kernels", ("KernelCost.time_s", "KernelCost.time_us")),),
    "gpu.other": (
        ("repro.gpu.trace", (
            "ExecutionTrace.serial_time_s", "ExecutionTrace.overlapped_time_s",
            "ExecutionTrace.breakdown_s",
        )),
        ("repro.gpu.device", ("DeviceSpec.derated_for_batch", "DeviceSpec.hier")),
        ("repro.gpu.multi_gpu", ("single_gpu_time_s", "MultiGpuModel.*")),
    ),
    "serving.server": (
        ("repro.serving.server", ("Server.drain", "Server.submit_many")),
    ),
    "serving.fleet": (
        ("repro.serving.fleet", ("Fleet.drain", "Fleet.route", "Fleet.submit_many")),
    ),
    "apps": (
        ("repro.apps", ("get_application", "standard_applications")),
        ("repro.apps.helr", ("HelrApp.*", "EncryptedLogisticRegression.*")),
        ("repro.apps.bootstrap_app", ("PackBootstrap.*",)),
        ("repro.apps.resnet", ("ResNetApp.*",)),
    ),
    "analysis": (
        ("repro.analysis.reporting", ("format_table", "format_series", "ratio_report")),
    ),
    "baselines": (
        ("repro.baselines.cpu", ("CpuModel.*",)),
        ("repro.baselines.heongpu", ("HeonGpuModel.*",)),
        ("repro.baselines.tensorfhe", ("TensorFheModel.*",)),
    ),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _limb_transforms(args, kwargs) -> int:
    """Length-N transforms in one ``forward``/``inverse`` call on a stack."""
    stack = _arg(args, kwargs, 1, "stack")
    return stack.size // stack.shape[-1]


def _bconv_macs(args, kwargs) -> int:
    """``(L, *G, K)`` weights against ``(*G, K, *B, N)`` residues: L * size."""
    scaled = _arg(args, kwargs, 1, "scaled")
    weights = _arg(args, kwargs, 2, "weights")
    return len(weights) * scaled.size


#: Work counters, bumped where the call happens: entry point -> (metric,
#: amount per call; ``None`` counts calls).
COUNTERS: Dict[str, Tuple[str, Optional[Callable]]] = {
    "repro.math.ntt:get_stack": ("math.ntt.get_stack_calls", None),
    "repro.math.ntt:NttStack.forward": ("math.ntt.limb_transforms", _limb_transforms),
    "repro.math.ntt:NttStack.inverse": ("math.ntt.limb_transforms", _limb_transforms),
    "repro.math.modstack:ModulusStack.for_moduli": ("math.modstack.for_moduli_calls", None),
    "repro.math.modstack:ModulusStack.lazy_mul_sum": ("math.modstack.lazy_mul_sum_calls", None),
    "repro.math.modstack:ModulusStack.bconv_matmul": ("math.modstack.bconv_macs", _bconv_macs),
    "repro.math.rns:RnsBasis.__init__": ("math.rns.basis_builds", None),
    "repro.math.modarith:asarray_mod": ("math.modarith.asarray_mod_calls", None),
    "repro.ckks.encoder:CkksEncoder.encode": ("ckks.encoder.encodes", None),
    "repro.core.pipeline:OperationPipeline.build_operation_trace": (
        "core.pipeline.trace_builds", None),
    "repro.gpu.kernels:KernelCost.time_s": ("gpu.kernels.time_calls", None),
}

#: Inclusive-time metrics: metric -> span name.
INCLUSIVE: Dict[str, str] = {
    "ckks.bootstrap.mod_raise_ms": "bootstrap.Bootstrapper.mod_raise",
    "ckks.bootstrap.coeff_to_slot_ms": "bootstrap.Bootstrapper.coeff_to_slot",
    "ckks.bootstrap.eval_mod_ms": "bootstrap.Bootstrapper.eval_mod",
    "ckks.bootstrap.slot_to_coeff_ms": "bootstrap.Bootstrapper.slot_to_coeff",
}

ROOT = "op"

#: Spans kept for the JSONL file: whole ops, first come, up to this many.
SPAN_BUDGET = 100_000


def _expand(module, entries: Sequence[str]) -> List[str]:
    names: List[str] = []
    for entry in entries:
        if entry.endswith(".*"):
            cls = getattr(module, entry[:-2], None)
            if cls is None:
                names.append(entry)  # reported missing by _resolve
                continue
            names.extend(
                f"{cls.__name__}.{attr}"
                for attr, raw in vars(cls).items()
                if not attr.startswith("_")
                and isinstance(raw, (types.FunctionType, classmethod, staticmethod))
            )
        else:
            names.append(entry)
    return names


def _resolve(module, qualname: str):
    """(owner, attribute name, raw attribute as stored on the owner)."""
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not isinstance(func, types.FunctionType):
        raise TypeError(f"{module.__name__}:{qualname} is not a plain function")
    return owner, attr, raw


class Tracer:
    """Span recorder whose wrappers are installed into the live ``repro``.

    :meth:`op` runs one op under a root span; spans are ``(id, parent,
    layer, name, start_ns, end_ns)`` tuples.  :meth:`collect`, called after
    each op outside its timing, folds the op into :attr:`totals` and keeps
    whole ops' spans for :meth:`write_spans` up to :data:`SPAN_BUDGET`.
    Wrapped calls made outside an op record nothing.
    """

    def __init__(self):
        self.kept: List[List[tuple]] = []
        self.totals: Dict[str, object] = merge([])
        self.counts: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._kept_spans = 0
        self._spans: List[tuple] = []
        self._stack: List[int] = [0]
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every entry point of :data:`LAYERS`.

        Returns the ``module:qualname`` of each entry point that could not
        be wrapped because it no longer exists or is not a plain function.
        """
        missing: List[str] = []
        for layer, groups in LAYERS.items():
            for module_name, entries in groups:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    missing.extend(f"{module_name}:{entry}" for entry in entries)
                    continue
                for qualname in _expand(module, entries):
                    try:
                        self._install_one(layer, module, qualname)
                    except (AttributeError, KeyError, TypeError):
                        missing.append(f"{module_name}:{qualname}")
        return missing

    def _install_one(self, layer: str, module, qualname: str) -> None:
        owner, attr, raw = _resolve(module, qualname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
        counter = COUNTERS.get(f"{module.__name__}:{qualname}")
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, layer, name, counter))
        else:
            wrapped = self._wrap(raw, layer, name, counter)
        self._patch(owner, attr, raw, wrapped)
        if owner is module:
            # Aliases bound by ``from module import name`` elsewhere.
            for other in list(sys.modules.values()):
                if (
                    other is not module
                    and getattr(other, "__name__", "").startswith("repro")
                    and vars(other).get(attr) is raw
                ):
                    self._patch(other, attr, raw, wrapped)

    def _patch(self, owner, attr: str, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def patches(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original object)`` of every installed wrapper."""
        return list(self._patches)

    def _wrap(self, func, layer: str, name: str, counter) -> Callable:
        spans = self._spans
        stack = self._stack
        ids = self._ids
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter_ns
        metric, amount = counter if counter else (None, None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if len(stack) == 1:  # outside any op: checks, set-up
                return func(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            calls[layer] += 1
            if metric is not None:
                counts[metric] += 1 if amount is None else amount(args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, start, end))

        return wrapper

    # -- ops ----------------------------------------------------------------

    def op(self, fn: Callable, *args):
        """Run ``fn(*args)`` as one op under a root span; returns its result."""
        self._spans.clear()
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._spans.append((sid, 0, ROOT, ROOT, start, end))

    def collect(self) -> None:
        """Fold the last op into :attr:`totals`; keep its spans if they fit."""
        spans = list(self._spans)
        self._spans.clear()
        self.totals = merge([self.totals, summarize_ops([spans])])
        if self._kept_spans + len(spans) <= SPAN_BUDGET:
            self.kept.append(spans)
            self._kept_spans += len(spans)

    def summary(self) -> Dict[str, object]:
        """:attr:`totals` plus the call and work counters."""
        return dict(self.totals, calls=dict(self.calls), counts=dict(self.counts))

    def write_spans(self, path: str) -> None:
        """Write the kept ops' spans, one JSON object per line.

        Times are nanoseconds from the start of the span's op.
        """
        with open(path, "w") as fh:
            for index, spans in enumerate(self.kept):
                origin = spans[-1][4]
                for sid, parent, layer, name, start, end in spans:
                    fh.write(json.dumps({
                        "op": index, "id": sid, "parent": parent,
                        "layer": layer, "name": name,
                        "start_ns": start - origin, "end_ns": end - origin,
                    }) + "\n")


def self_times(spans: Sequence[tuple]) -> Dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover.

    `spans` are ``(id, parent, layer, name, start, end)`` tuples of one op.
    Child intervals are merged before subtracting, so overlapping children
    are not counted twice; each is clipped to its parent.
    """
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        if parent in bounds:
            children[parent].append((start, end))
    out: Dict[int, int] = {}
    for sid, (start, end) in bounds.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = end - start - covered
    return out


def summarize_ops(ops: Sequence[Sequence[tuple]]) -> Dict[str, object]:
    """Mergeable totals over traced ops: self/inclusive ns and op times.

    Raises ``AssertionError`` if any op's self times do not partition its
    root span exactly -- that would mean a wrapper broke span nesting.
    """
    self_ns: Dict[str, int] = defaultdict(int)
    inclusive_ns: Dict[str, int] = defaultdict(int)
    op_ns: List[int] = []
    for spans in ops:
        own = self_times(spans)
        root = spans[-1]
        if root[2] != ROOT:
            raise ValueError("the last span of an op must be its root span")
        total = 0
        for sid, _, layer, name, start, end in spans:
            key = "unattributed" if layer == ROOT else layer
            self_ns[key] += own[sid]
            total += own[sid]
            inclusive_ns[name] += end - start
        if total != root[5] - root[4]:
            raise AssertionError(
                f"self times sum to {total} ns, op took {root[5] - root[4]} ns"
            )
        op_ns.append(root[5] - root[4])
    return {
        "ops": len(op_ns),
        "op_ns": op_ns,
        "self_ns": dict(self_ns),
        "inclusive_ns": dict(inclusive_ns),
    }


def merge(totals: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum the mergeable totals of several processes or phases."""
    keys = ("self_ns", "inclusive_ns", "calls", "counts", "cache")
    out: Dict[str, object] = {"ops": 0, "op_ns": [], **{key: {} for key in keys}}
    for part in totals:
        out["ops"] += part["ops"]
        out["op_ns"] = out["op_ns"] + list(part["op_ns"])
        for key in keys:
            bucket = out[key]
            for name, value in part.get(key, {}).items():
                if isinstance(value, list):
                    old = bucket.get(name, [0] * len(value))
                    bucket[name] = [a + b for a, b in zip(old, value)]
                else:
                    bucket[name] = bucket.get(name, 0) + value
    return out


def layer_metrics(totals: Dict[str, object]) -> Dict[str, float]:
    """Per-op layer metrics from merged totals (ms for times)."""
    ops = totals["ops"]
    if not ops:
        raise ValueError("no traced ops")
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = totals["self_ns"].get(layer, 0) / ops / 1e6
        metrics[f"{layer}.calls"] = totals["calls"].get(layer, 0) / ops
    metrics["unattributed.self_ms"] = totals["self_ns"].get("unattributed", 0) / ops / 1e6
    for metric, _ in COUNTERS.values():
        metrics[metric] = totals["counts"].get(metric, 0) / ops
    for metric, name in INCLUSIVE.items():
        metrics[metric] = totals["inclusive_ns"].get(name, 0) / ops / 1e6
    for name, (hits, misses) in totals.get("cache", {}).items():
        lookups = hits + misses
        metrics[f"cache.{name}.hit_rate"] = hits / lookups if lookups else 0.0
    metrics["driver.traced_op_ms"] = sum(totals["op_ns"]) / ops / 1e6
    return metrics


def format_layer_table(metrics: Dict[str, float]) -> str:
    """Per-layer self time per op, its share of the traced op, and calls.

    Layers the workload never called are left out.
    """
    total = metrics["driver.traced_op_ms"]
    rows = [
        (layer, metrics[f"{layer}.self_ms"], metrics[f"{layer}.calls"])
        for layer in LAYERS
        if metrics[f"{layer}.calls"]
    ]
    rows.append(("unattributed", metrics["unattributed.self_ms"], 0.0))
    rows.sort(key=lambda row: -row[1])
    lines = [f"  {'layer':<24}{'self ms/op':>12}{'share':>8}{'calls/op':>12}"]
    for layer, ms, calls in rows:
        share = ms / total if total else 0.0
        lines.append(f"  {layer:<24}{ms:>12.3f}{share:>8.1%}{calls:>12.1f}")
    lines.append(f"  {'traced op':<24}{total:>12.3f}")
    return "\n".join(lines)
