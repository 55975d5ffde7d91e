"""Configuration autotuning: search the plan space instead of hand-picking it.

Two layers:

* :func:`tune_keyswitch` -- the paper's Table 8 / Fig. 16 sweep: rank the
  KLSS ``(dnum, alpha~, WordSize_T)`` grid by KeySwitch time.  The sweep
  shares one :class:`~repro.core.trace_cache.TraceCache` and the
  ``kernel_costs`` cache across all grid points and reports the cache hit
  rates per result.

* :func:`tune_app` -- the multi-dimensional search the ROADMAP asks for:
  WordSize_T, dnum/alpha~, the key-switch method, the NTT engine
  (four-step GEMM vs radix-16 vs butterfly) and its execution unit, the
  BConv unit, fusion, batch-tile and NTT-chunk shapes, and the bootstrap
  BSGS split -- minimised per (params, app, device) under the hierarchical
  memory model (:mod:`repro.gpu.memory_model`).  Pruning keeps the Table 5
  sweep inside CI time: dominated KLSS grid points are eliminated on
  two-level KeySwitch probes, and engine candidates are only evaluated on
  the full application when their cheap KeySwitch probe is within a cutoff
  of the incumbent's.

Results are cached in a :class:`TuningStore` keyed by (params, app,
device, budget, model version); the shared :data:`DEFAULT_TUNING_STORE` is
the named cache ``autotune_store``, so ``ServingReport.caches`` picks it up.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ckks.params import KlssConfig, ParameterSet, get_set
from ..gpu.device import A100, DeviceSpec
from ..gpu.kernels import KERNEL_COSTS
from ..telemetry.stats import Cache
from .neo_context import NeoContext
from .pipeline import NEO_CONFIG, PipelineConfig
from .trace_cache import TraceCache

#: Version of the traffic/pricing model; part of every tuning-store key so
#: stored optima are invalidated when the model changes shape.
MODEL_VERSION = 1

#: An engine candidate's KeySwitch probe must be within this factor of the
#: incumbent's probe to earn a full-application evaluation.
PROBE_CUTOFF = 1.3


# ---------------------------------------------------------------------------
# KLSS grid sweep (Table 8 / Fig. 16)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuningResult:
    """One evaluated configuration of the KLSS grid."""

    dnum: int
    alpha_tilde: int
    wordsize_t: int
    keyswitch_us: float
    alpha_prime: int
    #: Kernel-cost/trace cache hits and misses this grid point incurred
    #: (shared-cache sweeps hit on every shape a previous point priced).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def config(self) -> KlssConfig:
        return KlssConfig(wordsize_t=self.wordsize_t, alpha_tilde=self.alpha_tilde)


def tune_keyswitch(
    base: ParameterSet,
    level: Optional[int] = None,
    dnums: Sequence[int] = (3, 4, 6, 9, 12, 18),
    alpha_tildes: Sequence[int] = (3, 4, 5, 6, 7, 8),
    wordsizes_t: Sequence[int] = (36, 48, 64),
    device: DeviceSpec = A100,
    config: PipelineConfig = NEO_CONFIG,
    trace_cache: Optional[TraceCache] = None,
) -> List[TuningResult]:
    """Exhaustively evaluate the KLSS hyper-parameter grid.

    Returns results sorted fastest-first.  Configurations whose auxiliary
    basis would be degenerate (``alpha' < 2``) are skipped.

    One :class:`TraceCache` (and the process-wide ``kernel_costs`` cache) are
    shared across the whole sweep, so a kernel shape two grid points have
    in common -- e.g. the final ModDown/NTT over the unchanged Q basis --
    is priced once; each result reports the hits/misses its point saw.
    """
    level = base.max_level if level is None else level
    cache = trace_cache if trace_cache is not None else TraceCache()
    results: List[TuningResult] = []
    for dnum in dnums:
        for alpha_tilde in alpha_tildes:
            for wordsize_t in wordsizes_t:
                params = dataclasses.replace(
                    base,
                    dnum=dnum,
                    klss=KlssConfig(
                        wordsize_t=wordsize_t, alpha_tilde=alpha_tilde
                    ),
                )
                try:
                    alpha_prime, _, _ = params.klss_dims(level)
                except ValueError:
                    continue
                if alpha_prime < 2:
                    continue
                costs0, trace0 = KERNEL_COSTS.stats, cache.stats
                ctx = NeoContext(
                    params, device=device, config=config, trace_cache=cache
                )
                keyswitch_us = ctx.keyswitch_time_us(level)
                costs1, trace1 = KERNEL_COSTS.stats, cache.stats
                results.append(
                    TuningResult(
                        dnum=dnum,
                        alpha_tilde=alpha_tilde,
                        wordsize_t=wordsize_t,
                        keyswitch_us=keyswitch_us,
                        alpha_prime=alpha_prime,
                        cache_hits=(costs1.hits - costs0.hits)
                        + (trace1.hits - trace0.hits),
                        cache_misses=(costs1.misses - costs0.misses)
                        + (trace1.misses - trace0.misses),
                    )
                )
    if not results:
        raise ValueError("no admissible configuration in the search grid")
    return sorted(results, key=lambda r: r.keyswitch_us)


def best_configuration(
    base: ParameterSet, level: Optional[int] = None, **kwargs
) -> TuningResult:
    """The fastest configuration of :func:`tune_keyswitch`'s grid."""
    return tune_keyswitch(base, level=level, **kwargs)[0]


def hybrid_vs_best_klss(
    base: ParameterSet,
    level: Optional[int] = None,
    device: DeviceSpec = A100,
    config: PipelineConfig = NEO_CONFIG,
) -> Tuple[float, TuningResult]:
    """(Hybrid KeySwitch time, best KLSS result) for a base set."""
    level = base.max_level if level is None else level
    hybrid_ctx = NeoContext(
        base, device=device, config=config.with_overrides(keyswitch="hybrid")
    )
    return hybrid_ctx.keyswitch_time_us(level), best_configuration(
        base, level=level, device=device, config=config
    )


# ---------------------------------------------------------------------------
# Multi-dimensional application search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Grid extents of one :func:`tune_app` profile."""

    dnums: Tuple[int, ...]
    alpha_tildes: Tuple[int, ...]
    wordsizes_t: Tuple[int, ...]
    #: Non-dominated KeySwitch candidates carried into the engine stage.
    ks_keep: int
    ntt_tiles: Tuple[Optional[int], ...]
    batch_tiles: Tuple[Optional[int], ...]
    fused: Tuple[bool, ...]
    #: Bootstrap CtS/StC stage counts to try (the BSGS split axis).
    bsgs_stages: Tuple[int, ...]
    #: Hard cap on full-application evaluations.
    max_full_evals: int


BUDGETS: Dict[str, SearchBudget] = {
    # CI smoke / serving-time tuning: seconds, still covers every axis.
    "quick": SearchBudget(
        dnums=(6, 9),
        alpha_tildes=(4, 5, 6),
        wordsizes_t=(48,),
        ks_keep=2,
        ntt_tiles=(None, 32),
        batch_tiles=(None, 16),
        fused=(True,),
        bsgs_stages=(3,),
        max_full_evals=16,
    ),
    # The real search (Table 8-scale grids on every axis).
    "full": SearchBudget(
        dnums=(3, 4, 6, 9, 12, 18),
        alpha_tildes=(3, 4, 5, 6, 7, 8),
        wordsizes_t=(36, 48, 64),
        ks_keep=4,
        ntt_tiles=(None, 16, 32, 64),
        batch_tiles=(None, 8, 16, 32),
        fused=(True, False),
        bsgs_stages=(2, 3, 4),
        max_full_evals=48,
    ),
}


@dataclass(frozen=True)
class TunedConfig:
    """One fully evaluated point of the application search space."""

    params_name: str
    app: str
    device_name: str
    keyswitch: str
    dnum: int
    alpha_tilde: Optional[int]
    wordsize_t: Optional[int]
    ntt_style: str
    ntt_component: str
    bconv_component: str
    ip_component: str
    fused: bool
    ntt_tile: Optional[int]
    batch_tile: Optional[int]
    bsgs_stages: Optional[int]
    #: Modeled per-ciphertext application time under the hierarchical model.
    time_s: float
    #: Same app under NEO_CONFIG on the base params (``None`` when the
    #: fixed config is infeasible on the device, e.g. FP64 TCU on an L4).
    baseline_time_s: Optional[float]

    # -- reconstruction ---------------------------------------------------------

    def pipeline_config(self, base: PipelineConfig = NEO_CONFIG) -> PipelineConfig:
        """The :class:`PipelineConfig` this point describes."""
        return base.with_overrides(
            keyswitch=self.keyswitch,
            ntt_style=self.ntt_style,
            ntt_component=self.ntt_component,
            bconv_component=self.bconv_component,
            ip_component=self.ip_component,
            fused=self.fused,
            ntt_tile=self.ntt_tile,
            batch_tile=self.batch_tile,
        )

    def parameter_set(self, base: ParameterSet) -> ParameterSet:
        """The :class:`ParameterSet` this point describes, derived from `base`."""
        klss = base.klss
        if self.keyswitch == "klss":
            klss = KlssConfig(
                wordsize_t=self.wordsize_t, alpha_tilde=self.alpha_tilde
            )
        return dataclasses.replace(base, dnum=self.dnum, klss=klss)

    @property
    def speedup(self) -> Optional[float]:
        """Modeled gain over the fixed NEO_CONFIG (``None`` if infeasible)."""
        if self.baseline_time_s is None or self.time_s <= 0:
            return None
        return self.baseline_time_s / self.time_s

    def axes(self) -> Dict[str, object]:
        """The searched axes as a flat dict (what differs between devices)."""
        return {
            "keyswitch": self.keyswitch,
            "dnum": self.dnum,
            "alpha_tilde": self.alpha_tilde,
            "wordsize_t": self.wordsize_t,
            "ntt_style": self.ntt_style,
            "ntt_component": self.ntt_component,
            "bconv_component": self.bconv_component,
            "ip_component": self.ip_component,
            "fused": self.fused,
            "ntt_tile": self.ntt_tile,
            "batch_tile": self.batch_tile,
            "bsgs_stages": self.bsgs_stages,
        }

    def label(self) -> str:
        """Compact human-readable descriptor for reports and telemetry."""
        ks = self.keyswitch
        if ks == "klss":
            ks = f"klss(d{self.dnum},a{self.alpha_tilde},T{self.wordsize_t})"
        else:
            ks = f"hybrid(d{self.dnum})"
        tiles = f"ntt_tile={self.ntt_tile},batch_tile={self.batch_tile}"
        return (
            f"{ks} {self.ntt_style}/{self.ntt_component} "
            f"bconv={self.bconv_component} {tiles}"
        )

    def to_jsonable(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_jsonable(payload: Dict[str, object]) -> "TunedConfig":
        return TunedConfig(**payload)


@dataclass(frozen=True)
class TuningReport:
    """Everything one :func:`tune_app` run produced."""

    app: str
    params_name: str
    device_name: str
    budget: str
    #: Fully evaluated points, fastest first (the ranked frontier).
    results: Tuple[TunedConfig, ...]
    baseline_time_s: Optional[float]
    #: Cheap KeySwitch probes performed (grid + engine candidates).
    probed: int
    #: Full-application evaluations performed.
    evaluated: int
    #: KLSS grid points eliminated by two-level probe domination.
    pruned_dominated: int
    #: Engine candidates dropped by the probe cutoff / evaluation cap.
    pruned_cutoff: int
    cache_hits: int
    cache_misses: int

    @property
    def best(self) -> TunedConfig:
        return self.results[0]

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_jsonable(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["cache_hit_rate"] = self.cache_hit_rate
        return payload


@dataclass(frozen=True)
class _KsCandidate:
    """A KeySwitch-stage candidate: method + parameter overrides.

    ``probe_times`` holds KeySwitch times at (level, engine-family) probe
    points -- a grid point survives if no other point beats it *everywhere*
    (a point may lose badly under GEMM NTTs yet win under butterfly, and
    the best full configuration for it is not known yet).
    """

    keyswitch: str
    dnum: int
    alpha_tilde: Optional[int]
    wordsize_t: Optional[int]
    params: ParameterSet
    probe_times: Tuple[float, ...] = ()

    def dominates(self, other: "_KsCandidate") -> bool:
        """Probe-domination: at least as fast everywhere, faster somewhere."""
        if len(self.probe_times) != len(other.probe_times):
            return False
        le = all(a <= b for a, b in zip(self.probe_times, other.probe_times))
        lt = any(a < b for a, b in zip(self.probe_times, other.probe_times))
        return le and lt

    def rank_key(self, engines: int, levels: int) -> float:
        """Best engine family's probe-time sum (what stage B would pick)."""
        sums = [
            sum(self.probe_times[e * levels : (e + 1) * levels])
            for e in range(engines)
        ]
        return min(sums)


def _feasible_components(device: DeviceSpec) -> List[str]:
    """GEMM execution units `device` can actually run."""
    units = []
    if device.tcu_fp64_tflops > 0:
        units.append("tcu_fp64")
    if device.tcu_int8_tops > 0:
        units.append("tcu_int8")
    units.append("cuda")
    return units


def _engine_candidates(device: DeviceSpec) -> List[Tuple[str, str]]:
    """(ntt_style, ntt_component) pairs feasible on `device`."""
    pairs: List[Tuple[str, str]] = []
    for component in _feasible_components(device):
        pairs.append(("radix16", component))
        pairs.append(("four_step", component))
    pairs.append(("butterfly", "cuda"))
    return pairs


def _app_variants(app_name: str, budget: SearchBudget):
    """(bsgs_stages, app instance) variants of one application.

    Bootstrap-style apps expose their CtS/StC stage split; more stages mean
    a finer radix and a different baby-step/giant-step rotation budget --
    the BSGS axis of the search.  Apps without the knob get one variant.
    """
    from ..apps import get_application

    if app_name.lower() in ("packbootstrap", "bootstrap"):
        from ..apps.bootstrap_app import PackBootstrap

        return [
            (stages, PackBootstrap(cts_stages=stages, stc_stages=stages))
            for stages in budget.bsgs_stages
        ]
    return [(None, get_application(app_name))]


def tune_app(
    app: str,
    params: ParameterSet | str = "C",
    device: DeviceSpec = A100,
    budget: str = "quick",
    top: int = 8,
    config: PipelineConfig = NEO_CONFIG,
    trace_cache: Optional[TraceCache] = None,
) -> TuningReport:
    """Search the configuration space for one (params, app, device) triple.

    Always prices under the hierarchical memory model (``device.hier()``)
    -- on a flat device the batch-tile and NTT-chunk axes would be
    invisible.  Returns the ranked frontier of fully evaluated points.
    """
    base = get_set(params) if isinstance(params, str) else params
    try:
        spec = BUDGETS[budget]
    except KeyError:
        known = ", ".join(sorted(BUDGETS))
        raise ValueError(f"unknown budget {budget!r}; choose from {known}") from None
    device = device.hier()
    cache = trace_cache if trace_cache is not None else TraceCache()
    variants = _app_variants(app, spec)  # validates the app name up front
    costs0 = KERNEL_COSTS.stats

    level = base.max_level
    probe_levels = (level, max(1, level // 2))
    probed = 0
    pruned_dominated = 0
    pruned_cutoff = 0

    def keyswitch_probe(p: ParameterSet, cfg: PipelineConfig) -> Optional[float]:
        nonlocal probed
        probed += 1
        try:
            ctx = NeoContext(p, device=device, config=cfg, trace_cache=cache)
            return ctx.keyswitch_time_us(probe_levels[0])
        except ValueError:
            return None

    # -- stage A: KeySwitch candidates (method + KLSS grid) -------------------
    # Probe every grid point under BOTH engine families the device offers --
    # the GEMM decomposition on its best tensor unit and the butterfly on
    # CUDA cores.  The grid ranking flips between families (large-T points
    # lose on GEMM MACs but win on butterfly memory traffic), so judging
    # the grid under a single engine silently discards the joint optimum.
    ip_component = "auto" if device.tcu_fp64_tflops > 0 else "cuda"
    probe_unit = _feasible_components(device)[0]
    probe_families = (
        config.with_overrides(
            ntt_component=probe_unit,
            bconv_component=probe_unit,
            ip_component=ip_component,
        ),
        config.with_overrides(
            ntt_style="butterfly",
            ntt_component="cuda",
            bconv_component=probe_unit,
            ip_component=ip_component,
        ),
    )
    candidates: List[_KsCandidate] = []
    seen_params = set()

    def add_candidate(keyswitch, dnum, alpha_tilde, wordsize_t, p):
        key = (keyswitch, dnum, alpha_tilde, wordsize_t)
        if key in seen_params:
            return
        seen_params.add(key)
        times = []
        try:
            for family in probe_families:
                cfg = family.with_overrides(keyswitch=keyswitch)
                ctx = NeoContext(p, device=device, config=cfg, trace_cache=cache)
                for lv in probe_levels:
                    times.append(ctx.keyswitch_time_us(lv))
        except ValueError:
            return
        candidates.append(
            _KsCandidate(
                keyswitch, dnum, alpha_tilde, wordsize_t, p, tuple(times)
            )
        )

    for dnum in spec.dnums:
        # Hybrid competes on the same dnum axis (alpha = ceil(L+1 / dnum)).
        add_candidate("hybrid", dnum, None, None, dataclasses.replace(base, dnum=dnum))
        for alpha_tilde in spec.alpha_tildes:
            for wordsize_t in spec.wordsizes_t:
                p = dataclasses.replace(
                    base,
                    dnum=dnum,
                    klss=KlssConfig(wordsize_t=wordsize_t, alpha_tilde=alpha_tilde),
                )
                try:
                    alpha_prime, _, _ = p.klss_dims(level)
                except ValueError:
                    continue
                if alpha_prime < 2:
                    continue
                add_candidate("klss", dnum, alpha_tilde, wordsize_t, p)
    probed += len(probe_families) * len(probe_levels) * len(candidates)
    if not candidates:
        raise ValueError(
            f"no feasible KeySwitch candidate for set {base.name} on {device.name}"
        )

    # The baseline point (the paper's hand-picked configuration) is always
    # carried forward, so the searched optimum can never lose to it.
    def is_baseline(c: _KsCandidate) -> bool:
        if base.klss is not None:
            return (
                c.keyswitch == "klss"
                and c.dnum == base.dnum
                and c.alpha_tilde == base.klss.alpha_tilde
                and c.wordsize_t == base.klss.wordsize_t
            )
        return c.keyswitch == "hybrid" and c.dnum == base.dnum

    non_dominated = [
        c for c in candidates
        if not any(o.dominates(c) for o in candidates)
    ]
    pruned_dominated = len(candidates) - len(non_dominated)
    non_dominated.sort(
        key=lambda c: c.rank_key(len(probe_families), len(probe_levels))
    )
    survivors = non_dominated[: spec.ks_keep]
    for c in candidates:
        if is_baseline(c) and c not in survivors:
            survivors.append(c)

    # -- stage B: engine axes, probe-ordered with early cutoff ----------------
    engine_probe: List[Tuple[float, _KsCandidate, PipelineConfig]] = []
    for ks in survivors:
        for ntt_style, ntt_component in _engine_candidates(device):
            for bconv_component in _feasible_components(device):
                for fused in spec.fused:
                    cfg = config.with_overrides(
                        keyswitch=ks.keyswitch,
                        ntt_style=ntt_style,
                        ntt_component=ntt_component,
                        bconv_component=bconv_component,
                        ip_component=ip_component,
                        fused=fused,
                    )
                    probe = keyswitch_probe(ks.params, cfg)
                    if probe is None:
                        continue
                    engine_probe.append((probe, ks, cfg))
    engine_probe.sort(key=lambda item: item[0])

    evaluated_points: List[TunedConfig] = []
    evaluated = 0
    first_stage = variants[0][0]
    app_obj = variants[0][1]

    def full_eval(ks: _KsCandidate, cfg: PipelineConfig, the_app) -> Optional[float]:
        nonlocal evaluated
        if evaluated >= spec.max_full_evals:
            return None
        evaluated += 1
        try:
            ctx = NeoContext(ks.params, device=device, config=cfg, trace_cache=cache)
            return ctx.application_time(the_app)
        except ValueError:
            return None

    def record(ks: _KsCandidate, cfg: PipelineConfig, bsgs, time_s: float) -> None:
        evaluated_points.append(
            TunedConfig(
                params_name=base.name,
                app=app.lower(),
                device_name=device.name,
                keyswitch=ks.keyswitch,
                dnum=ks.dnum,
                alpha_tilde=ks.alpha_tilde,
                wordsize_t=ks.wordsize_t,
                ntt_style=cfg.ntt_style,
                ntt_component=cfg.ntt_component,
                bconv_component=cfg.bconv_component,
                ip_component=ip_component,
                fused=cfg.fused,
                ntt_tile=cfg.ntt_tile,
                batch_tile=cfg.batch_tile,
                bsgs_stages=bsgs,
                time_s=time_s,
                baseline_time_s=None,  # filled below
            )
        )

    # Engines are judged untiled; tile refinement below keeps the full-eval
    # budget on distinct engines instead of 16 tile shapes of the same one.
    tile_combos = [
        (nt, bt)
        for nt in spec.ntt_tiles
        for bt in spec.batch_tiles
        if (nt, bt) != (None, None)
    ]
    refine_reserve = len(tile_combos) + (len(variants) - 1)
    engine_eval_cap = max(4, spec.max_full_evals - refine_reserve)
    best_probe = None
    engine_results: List[Tuple[float, _KsCandidate, PipelineConfig]] = []
    for probe, ks, cfg in engine_probe:
        if best_probe is not None and probe > best_probe * PROBE_CUTOFF:
            pruned_cutoff += 1
            continue
        if evaluated >= engine_eval_cap:
            pruned_cutoff += 1
            continue
        time_s = full_eval(ks, cfg, app_obj)
        if time_s is None:
            continue
        record(ks, cfg, first_stage, time_s)
        engine_results.append((time_s, ks, cfg))
        if best_probe is None:
            # Probes arrive sorted ascending: the first feasible one anchors
            # the cutoff window for everything after it.
            best_probe = probe

    if not evaluated_points:
        raise ValueError(
            f"search evaluated no feasible configuration for {app!r} on {device.name}"
        )
    evaluated_points.sort(key=lambda r: r.time_s)

    # -- stage B2: tile refinement on the winning engine ----------------------
    engine_results.sort(key=lambda item: item[0])
    _, win_ks, win_cfg = engine_results[0]
    for ntt_tile, batch_tile in tile_combos:
        tiled = win_cfg.with_overrides(ntt_tile=ntt_tile, batch_tile=batch_tile)
        time_s = full_eval(win_ks, tiled, app_obj)
        if time_s is None:
            continue
        record(win_ks, tiled, first_stage, time_s)
    evaluated_points.sort(key=lambda r: r.time_s)

    # -- stage C: BSGS split refinement on the winning configuration ----------
    if len(variants) > 1:
        winner = evaluated_points[0]
        ks = next(
            c for c in survivors + candidates
            if (c.keyswitch, c.dnum, c.alpha_tilde, c.wordsize_t)
            == (winner.keyswitch, winner.dnum, winner.alpha_tilde, winner.wordsize_t)
        )
        cfg = winner.pipeline_config(config)
        for stages, variant_app in variants[1:]:
            time_s = full_eval(ks, cfg, variant_app)
            if time_s is None:
                continue
            evaluated_points.append(
                dataclasses.replace(winner, bsgs_stages=stages, time_s=time_s)
            )
        evaluated_points.sort(key=lambda r: r.time_s)

    # -- baseline: the fixed NEO_CONFIG on the base params --------------------
    try:
        baseline_ctx = NeoContext(
            base, device=device, config=config, trace_cache=cache
        )
        baseline_time = baseline_ctx.application_time(app_obj)
    except ValueError:
        baseline_time = None
    evaluated_points = [
        dataclasses.replace(r, baseline_time_s=baseline_time)
        for r in evaluated_points
    ]

    costs1, trace_stats = KERNEL_COSTS.stats, cache.stats
    return TuningReport(
        app=app.lower(),
        params_name=base.name,
        device_name=device.name,
        budget=budget,
        results=tuple(evaluated_points[: max(1, top)]),
        baseline_time_s=baseline_time,
        probed=probed,
        evaluated=evaluated,
        pruned_dominated=pruned_dominated,
        pruned_cutoff=pruned_cutoff,
        cache_hits=(costs1.hits - costs0.hits) + trace_stats.hits,
        cache_misses=(costs1.misses - costs0.misses) + trace_stats.misses,
    )


# ---------------------------------------------------------------------------
# Tuning-result store
# ---------------------------------------------------------------------------


class TuningStore(Cache):
    """Keyed, thread-safe LRU store of :class:`TuningReport` results.

    Key: (params, app, device name, budget, model version) -- a stored
    optimum never leaks across devices or model revisions.
    """

    @staticmethod
    def key(params, app: str, device: DeviceSpec, budget: str) -> tuple:
        name = params if isinstance(params, str) else params.name
        return (name, app.lower(), device.name, budget, MODEL_VERSION)

    def get_or_tune(
        self,
        app: str,
        params: ParameterSet | str = "C",
        device: DeviceSpec = A100,
        budget: str = "quick",
        **kwargs,
    ) -> TuningReport:
        """Cached :func:`tune_app` (tunes on first miss, stores the report)."""
        return self.get_or_build(
            self.key(params, app, device, budget),
            lambda: tune_app(app, params=params, device=device, budget=budget, **kwargs),
        )


#: Process-wide store the serving layer and CLI share.
DEFAULT_TUNING_STORE = TuningStore("autotune_store", maxsize=64)


def default_tuning_store() -> TuningStore:
    return DEFAULT_TUNING_STORE
