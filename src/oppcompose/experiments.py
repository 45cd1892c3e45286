"""Experiment harness: declarative specs, presets, runs, and aggregation.

An :class:`ExperimentSpec` pins one base configuration plus named variants
(condition overrides), an optional parameter sweep, and a seed count.
Running it produces one records CSV per (variant, sweep point, seed) and a
manifest; aggregation is a pure function of those files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, fields
from pathlib import Path

import numpy as np
import yaml

from . import mobility
from .contact_engine import ContactTrace, contacts_from_positions
from .forwarding import DIRECT, EBR, MT, TT
from .service_model import Service, ServiceCatalog, assign_services
from .sim_core import (RequestPattern, SimConfig, read_records_csv, run as run_sim,
                       write_records_csv)

__all__ = [
    "ExperimentSpec",
    "load_spec",
    "save_spec",
    "preset",
    "PRESET_NAMES",
    "run_experiment",
    "aggregate",
    "summarize_group",
    "compare_estimate_accuracy",
    "completion_bound_check",
    "prepare_run",
]

DEFAULT_OUT_ENV = "OPPCOMPOSE_OUT"


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment family."""

    name: str
    mobility: dict
    catalog: dict
    pattern: dict
    sim: dict = field(default_factory=dict)
    range_m: float = 100.0
    repetition: int = 2
    distribution: str = "uniform"
    variants: list = field(default_factory=lambda: [{"name": "base", "overrides": {}}])
    sweep: dict = field(default_factory=dict)
    seeds: int = 5

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        return cls(**d)

    def points(self) -> list[dict]:
        """Cross product of the sweep axes as override dicts."""
        points = [{}]
        for key in sorted(self.sweep):
            points = [dict(p, **{key: v}) for p in points for v in self.sweep[key]]
        return points


def save_spec(spec: ExperimentSpec, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(spec.to_dict(), fh, sort_keys=False)


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return ExperimentSpec.from_dict(yaml.safe_load(fh))


def _apply_overrides(tree: dict, overrides: dict) -> dict:
    """Apply {'a.b.c': value} overrides to a nested dict copy."""
    out = json.loads(json.dumps(tree))
    for dotted, value in overrides.items():
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        # A copy: later overrides may write inside this value.
        node[parts[-1]] = json.loads(json.dumps(value))
    return out


# ---------------------------------------------------------------------------
# Building blocks

def build_pattern(catalog: ServiceCatalog, cfg: dict) -> RequestPattern:
    kind = cfg.get("kind", "min_k")
    if kind == "min_k":
        return RequestPattern.min_functionality(catalog, cfg.get("k", 4))
    if kind == "fixed_length":
        weights = cfg.get("start_weights")
        if weights is not None:
            weights = {int(k): float(v) for k, v in weights.items()}
        return RequestPattern.fixed_length(catalog, cfg["length"], weights)
    raise ValueError(f"unknown request pattern kind {kind!r}")


def service_popularity(catalog: ServiceCatalog, pattern_cfg: dict) -> dict[Service, float]:
    """Request mass per service implied by the pattern (for proportional placement).

    For fixed-length requests each admissible request contributes its draw
    weight to every unit service its chain crosses.
    """
    weights: dict[Service, float] = {s: 0.0 for s in catalog.services}
    if pattern_cfg.get("kind") != "fixed_length":
        return weights
    length = pattern_cfg["length"]
    start_weights = {int(k): float(v) for k, v in pattern_cfg.get("start_weights", {}).items()}
    by_input = {s.input: s for s in catalog.services}
    for x in range(1, catalog.n_d + 1):
        w = start_weights.get(x, 1.0)
        pos = x
        for _ in range(length):
            svc = by_input.get(pos)
            if svc is None:
                break
            weights[svc] += w
            pos = svc.output
    return weights


def _tuples(value):
    """Lists (as read from YAML or JSON) to tuples, recursively."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def make_trace(mob: dict, seed: int, cache_dir: Path | None = None) -> mobility.PositionTrace:
    """Generate (or load from cache) the position trace for one seed."""
    _check_mobility_keys(mob)
    key = None
    if cache_dir is not None:
        digest = hashlib.sha1(json.dumps(mob, sort_keys=True).encode() + str(seed).encode()).hexdigest()[:16]
        key = Path(cache_dir) / f"trace_{mob['model']}_{digest}.csv"
        if key.exists():
            return mobility.load_trace_csv(key)
    model = mob["model"]
    interval = mob.get("sample_interval", 30.0)
    params = mob.get("params", {})
    if model in _GENERATORS:
        params_cls, generate = _GENERATORS[model]
        kw = {k: _tuples(v) for k, v in params.items()}
        n = mob["n_nodes"]
        if model == "levy" and "speed_classes" not in kw:
            kw["speed_classes"] = ((n // 2, (1.0, 1.0)), (n - n // 2, (10.0, 10.0)))
        trace = generate(params_cls(**kw), n, mob["duration"], seed, interval)
    elif model == "trace-file":
        trace = mobility.load_trace_csv(mob["path"])
    elif model == "gps-files":
        trace = mobility.ingest_gps_log(
            mob["paths"], area_mapping=params.get("area_mapping", "xy"),
            truncate_to=params.get("truncate_to", 5400.0),
            split_multiday=params.get("split_multiday", True),
            sample_interval=interval, max_gap=params.get("max_gap", 600.0))
    else:
        raise ValueError(f"unknown mobility model {model!r}")
    if key is not None:
        # A temp name of its own per writer: parallel runs that share this
        # trace must not interleave their writes before the rename.
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=key.stem, dir=key.parent)
        os.close(fd)
        try:
            mobility.save_trace_csv(trace, tmp)
            os.replace(tmp, key)
        except BaseException:
            os.unlink(tmp)
            raise
    return trace


_SCHEMES = {"direct": DIRECT, "TT": TT, "MT": MT, "EBR": EBR}

# Synthetic mobility models: parameter class and generator.  A spec's
# ``mobility.params`` map onto the class's fields by name.
_GENERATORS = {
    "levy": (mobility.LevyWalkParams, mobility.generate_levy),
    "slaw": (mobility.SlawParams, mobility.generate_slaw),
    "hcmm": (mobility.HcmmParams, mobility.generate_hcmm),
}

# The keys a spec may set, per section.  SLAW's cascade depths are not
# among them: they stay at their defaults.
_SPEC_KEYS = tuple(f.name for f in fields(ExperimentSpec))
_MOBILITY_KEYS = ("model", "n_nodes", "duration", "sample_interval", "params", "path", "paths")
_PARAM_KEYS = {
    **{model: tuple(f.name for f in fields(cls)
                    if f.name not in ("cascade_levels", "flat_levels"))
       for model, (cls, _) in _GENERATORS.items()},
    "trace-file": (),
    "gps-files": ("area_mapping", "truncate_to", "split_multiday", "max_gap"),
}
_CATALOG_KEYS = ("n_d", "excluded", "ring")
_PATTERN_KEYS = {"min_k": ("kind", "k"), "fixed_length": ("kind", "length", "start_weights")}
# SimConfig fields a spec's ``sim`` dict may set; the rest come from the spec.
_SIM_KEYS = tuple(f.name for f in fields(SimConfig)
                  if f.name not in ("catalog", "placement", "pattern", "seed"))


def _check_keys(section: str, given: dict, valid) -> None:
    unknown = sorted(set(given) - set(valid))
    if unknown:
        raise ValueError(f"unknown {section} key(s) {', '.join(unknown)}; "
                         f"valid keys: {', '.join(valid)}")


def _check_mobility_keys(mob: dict) -> None:
    _check_keys("mobility", mob, _MOBILITY_KEYS)
    if mob.get("model") in _PARAM_KEYS:
        _check_keys(f"mobility.params ({mob['model']})", mob.get("params", {}),
                    _PARAM_KEYS[mob["model"]])


def _check_spec_keys(spec_dict: dict) -> None:
    """Raise ValueError on a key no part of the run reads, naming the valid ones."""
    _check_keys("spec", spec_dict, _SPEC_KEYS)
    _check_mobility_keys(spec_dict["mobility"])
    _check_keys("catalog", spec_dict["catalog"], _CATALOG_KEYS)
    kind = spec_dict["pattern"].get("kind", "min_k")
    if kind in _PATTERN_KEYS:
        _check_keys(f"pattern ({kind})", spec_dict["pattern"], _PATTERN_KEYS[kind])
    _check_keys("sim", spec_dict.get("sim", {}), _SIM_KEYS)


def prepare_run(spec_dict: dict, seed: int, cache_dir: Path | None = None
                ) -> tuple[SimConfig, ContactTrace]:
    """Resolve one spec instance (after overrides) into a runnable config."""
    _check_spec_keys(spec_dict)
    catalog = ServiceCatalog.from_dict(spec_dict["catalog"])
    pattern = build_pattern(catalog, spec_dict["pattern"])
    rng = np.random.default_rng((seed, 51966))
    distribution = spec_dict.get("distribution", "uniform")
    popularity = None
    if distribution == "proportional":
        popularity = service_popularity(catalog, spec_dict["pattern"])
    placement = assign_services(
        catalog, list(range(spec_dict["mobility"]["n_nodes"])), spec_dict.get("repetition", 2),
        rng, distribution=distribution, popularity=popularity)
    trace = make_trace(spec_dict["mobility"], seed, cache_dir)
    contacts = contacts_from_positions(trace, spec_dict.get("range_m", 100.0))
    sim = dict(spec_dict.get("sim", {}))
    if "scheme" in sim:
        name = sim["scheme"]
        if name not in _SCHEMES:
            raise ValueError(f"unknown scheme {name!r}; choose from {', '.join(_SCHEMES)}")
        sim["scheme"] = _SCHEMES[name]
    config = SimConfig(catalog=catalog, placement=placement, pattern=pattern,
                       seed=seed, **sim)
    return config, contacts


def _fmt_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return "x".join(_fmt_value(x) for x in v)
    return str(v)


def _point_key(point: dict) -> str:
    if not point:
        return "base"
    return "_".join(f"{k.split('.')[-1]}={_fmt_value(point[k])}" for k in sorted(point))


def _run_one(args) -> dict:
    spec_dict, variant_name, point, seed, out_dir, cache_dir = args
    config, contacts = prepare_run(spec_dict, seed, cache_dir)
    result = run_sim(config, contacts)
    fname = f"{variant_name}__{_point_key(point)}__seed{seed}.csv"
    write_records_csv(result, Path(out_dir) / fname)
    return {
        "variant": variant_name,
        "point": _point_key(point),
        "seed": seed,
        "file": fname,
        "timeout_s": config.timeout_s,
        "warmup_s": config.delay_warmup_s,
    }


def run_experiment(spec: ExperimentSpec, out_dir, workers: int | None = None) -> Path:
    """Run every (variant, sweep point, seed); write run CSVs, manifest, summary.

    Returns the summary path.  Individual run failures are recorded in the
    manifest with an error marker and excluded from aggregation; the first
    failure is re-raised after all runs finish.
    """
    out = Path(out_dir)
    runs_dir = out / "runs"
    cache_dir = out / "traces"
    runs_dir.mkdir(parents=True, exist_ok=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    base = spec.to_dict()
    jobs = []
    for variant in spec.variants:
        v_over = variant.get("overrides", {})
        for point in spec.points():
            merged = _apply_overrides(base, {**v_over, **point})
            for seed in range(spec.seeds):
                jobs.append((merged, variant["name"], point, seed, str(runs_dir), str(cache_dir)))

    manifest_rows = []
    failures = []
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for job, outcome in zip(jobs, pool.map(_run_one_safe, jobs)):
                manifest_rows.append(outcome)
                if "error" in outcome:
                    failures.append(outcome["error"])
    else:
        for job in jobs:
            outcome = _run_one_safe(job)
            manifest_rows.append(outcome)
            if "error" in outcome:
                failures.append(outcome["error"])

    manifest = out / "manifest.csv"
    with open(manifest, "w") as fh:
        fh.write("variant,point,seed,file,timeout_s,warmup_s,error\n")
        for row in manifest_rows:
            fh.write(f"{row['variant']},{row['point']},{row['seed']},{row.get('file', '')},"
                     f"{row.get('timeout_s', '')},{row.get('warmup_s', '')},{row.get('error', '')}\n")
    summary = aggregate(out)
    if failures:
        raise RuntimeError(f"{len(failures)} run(s) failed; first: {failures[0]}")
    return summary


def _run_one_safe(args) -> dict:
    try:
        return _run_one(args)
    except Exception as exc:  # noqa: BLE001 - reported per run in the manifest
        return {"variant": args[1], "point": _point_key(args[2]), "seed": args[3],
                "error": repr(exc).replace(",", ";")}


# ---------------------------------------------------------------------------
# Aggregation

def _read_manifest(out_dir: Path) -> list[dict]:
    rows = []
    with open(out_dir / "manifest.csv") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append(dict(zip(header, line.rstrip("\n").split(","))))
    return rows


def summarize_group(run_rows: list[list[dict]], timeout_s: float, warmup_s: float) -> dict:
    """Aggregate metrics over one group of per-seed record lists."""
    rates = [sum(1 for r in rows if r["status"] == "completed") / len(rows) if rows else 0.0
             for rows in run_rows]
    delays, hops, lengths, opp, total_stages = [], [], [], 0, 0
    for rows in run_rows:
        for r in rows:
            n_stages = len(r["stages"].split("|")) if r["stages"] else 0
            total_stages += n_stages
            opp += r["opportunistic_stages"]
            if r["status"] == "completed":
                hops.append(r["hops"])
                lengths.append(n_stages)
                if r["created_s"] >= warmup_s:
                    delays.append(r["delay_s"])
    delays.sort()
    hop_hist = {}
    for h in hops:
        hop_hist[h] = hop_hist.get(h, 0) + 1
    len_hist = {}
    for l in lengths:
        len_hist[l] = len_hist.get(l, 0) + 1
    est = compare_estimate_accuracy([r for rows in run_rows for r in rows], timeout_s)
    return {
        "n_requests": sum(len(rows) for rows in run_rows),
        "completion_mean": float(np.mean(rates)) if rates else 0.0,
        "completion_min": float(min(rates)) if rates else 0.0,
        "completion_max": float(max(rates)) if rates else 0.0,
        "delay_median_s": _quantile(delays, 0.5),
        "delay_p90_s": _quantile(delays, 0.9),
        "delay_samples": len(delays),
        "hop_hist": hop_hist,
        "length_hist": len_hist,
        "opportunistic_frac": opp / total_stages if total_stages else 0.0,
        "est_within_4min_frac": est["within_4min_frac"],
        "est_diff_abs_median_s": _quantile(est["diff_cdf"], 0.5),
        "est_incomplete_accurate_frac": est["incomplete_over_timeout_frac"],
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return math.nan
    idx = q * (len(sorted_values) - 1)
    lo = int(math.floor(idx))
    hi = int(math.ceil(idx))
    frac = idx - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _hist_str(hist: dict) -> str:
    return ";".join(f"{k}:{hist[k]}" for k in sorted(hist))


SUMMARY_FIELDS = ("variant,point,seeds,n_requests,completion_mean,completion_min,completion_max,"
                  "delay_median_s,delay_p90_s,delay_samples,opportunistic_frac,"
                  "est_within_4min_frac,est_diff_abs_median_s,est_incomplete_accurate_frac,"
                  "hop_hist,length_hist")


def aggregate(out_dir) -> Path:
    """Recompute summary.csv from the manifest and run CSVs (pure function)."""
    out = Path(out_dir)
    manifest = _read_manifest(out)
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in manifest:
        if row.get("error"):
            continue
        groups.setdefault((row["variant"], row["point"]), []).append(row)
    path = out / "summary.csv"
    with open(path, "w") as fh:
        fh.write(SUMMARY_FIELDS + "\n")
        for (variant, point) in sorted(groups):
            rows_per_seed = []
            timeout_s = warmup_s = 0.0
            for row in sorted(groups[(variant, point)], key=lambda r: int(r["seed"])):
                rows_per_seed.append(read_records_csv(out / "runs" / row["file"]))
                timeout_s = float(row["timeout_s"])
                warmup_s = float(row["warmup_s"])
            m = summarize_group(rows_per_seed, timeout_s, warmup_s)
            fh.write(
                f"{variant},{point},{len(rows_per_seed)},{m['n_requests']},"
                f"{m['completion_mean']:.6f},{m['completion_min']:.6f},{m['completion_max']:.6f},"
                f"{_fmt(m['delay_median_s'])},{_fmt(m['delay_p90_s'])},{m['delay_samples']},"
                f"{m['opportunistic_frac']:.6f},{m['est_within_4min_frac']:.6f},"
                f"{_fmt(m['est_diff_abs_median_s'])},{m['est_incomplete_accurate_frac']:.6f},"
                f"{_hist_str(m['hop_hist'])},{_hist_str(m['length_hist'])}\n")
    return path


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else f"{v:.3f}"


def read_summary(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(dict(zip(header, parts)))
    return rows


# ---------------------------------------------------------------------------
# Analyses

def compare_estimate_accuracy(rows: list[dict], timeout_s: float) -> dict:
    """Distribution of (estimated cost - actual delay) for completed requests
    plus the over-timeout share of estimates for incomplete ones."""
    diffs = [r["estimated_cost_s"] - r["delay_s"] for r in rows
             if r["status"] == "completed" and r["estimated_cost_s"] is not None]
    incomplete = [r for r in rows if r["status"] == "timed-out"]
    est_known = [r for r in incomplete if r["estimated_cost_s"] is not None]
    over = sum(1 for r in est_known if r["estimated_cost_s"] > timeout_s)
    abs_sorted = sorted(abs(d) for d in diffs)
    return {
        "completed_samples": len(diffs),
        "within_2min_frac": sum(1 for d in abs_sorted if d <= 120.0) / len(abs_sorted) if abs_sorted else 0.0,
        "within_4min_frac": sum(1 for d in abs_sorted if d <= 240.0) / len(abs_sorted) if abs_sorted else 0.0,
        "diff_cdf": abs_sorted,
        "incomplete_total": len(incomplete),
        "incomplete_with_estimate": len(est_known),
        "incomplete_over_timeout_frac": over / len(est_known) if est_known else 0.0,
    }


def completion_bound_check(rates_by_length: dict[int, float]) -> dict:
    """Report whether composed-request completion stays under the power bound
    implied by the single-service completion ratio."""
    p1 = rates_by_length.get(1, math.nan)
    report = {"p1": p1}
    for length in sorted(rates_by_length):
        if length == 1:
            continue
        bound = p1 ** length
        observed = rates_by_length[length]
        report[f"bound_len{length}"] = bound
        report[f"observed_len{length}"] = observed
        report[f"under_bound_len{length}"] = observed <= bound
    return report


# ---------------------------------------------------------------------------
# Presets

def _base_mobility(model: str = "levy", same_speed: bool = False, area: float = 700.0,
                   n_nodes: int = 20, **params) -> dict:
    mob = {"model": model, "n_nodes": n_nodes, "duration": 36000.0,
           "sample_interval": 30.0, "params": dict(params)}
    mob["params"]["area"] = [area, area]
    if model == "levy":
        if same_speed:
            mob["params"]["speed_classes"] = [[n_nodes, [1.0, 1.0]]]
        else:
            slow = n_nodes - n_nodes // 4 if n_nodes > 20 else n_nodes // 2
            mob["params"]["speed_classes"] = [[slow, [1.0, 1.0]], [n_nodes - slow, [10.0, 10.0]]]
    return mob


def _model_overrides(model: str, **kw) -> dict:
    """Overrides switching a Levy-walk spec to ``model``.  The parameters are
    replaced whole: the Levy walk's own (speed classes) would not apply."""
    return {"mobility.model": model, "mobility.params": _base_mobility(model, **kw)["params"]}


def _default_catalog() -> dict:
    return {"n_d": 7, "excluded": [[1, 7]], "ring": False}


def _ring_catalog() -> dict:
    return {"n_d": 20, "excluded": [], "ring": True}


def _spec(name: str, **kw) -> ExperimentSpec:
    base = dict(
        name=name,
        mobility=_base_mobility(),
        catalog=_default_catalog(),
        pattern={"kind": "min_k", "k": 4},
        sim={},
        range_m=100.0,
        repetition=2,
        seeds=5,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def _preset_fig3() -> ExperimentSpec:
    # Completion-rate comparison: exact single-service match vs composition
    # with one-hop forwarding vs composition with multi-hop forwarding.
    return _spec(
        "fig3",
        variants=[
            {"name": "exact", "overrides": {"sim.exact_match": True, "sim.scheme": "MT"}},
            {"name": "direct", "overrides": {"sim.scheme": "direct"}},
            {"name": "multihop", "overrides": {"sim.scheme": "MT"}},
        ],
    )


def _preset_fig4() -> ExperimentSpec:
    spec = _preset_fig3()
    spec.name = "fig4"
    spec.variants = [v for v in spec.variants if v["name"] != "exact"]
    return spec


def _preset_fig5() -> ExperimentSpec:
    # Awareness-level comparison across service densities.
    return _spec(
        "fig5",
        variants=[{"name": lvl, "overrides": {"sim.awareness": lvl}}
                  for lvl in ("minimal", "local", "global", "perfect")],
        sweep={"repetition": [1, 2, 3, 4]},
    )


def _preset_fig6() -> ExperimentSpec:
    # Composition length / hop count / delay profiles at the defaults.
    return _spec("fig6", variants=[{"name": "multihop", "overrides": {}}])


def _preset_fig7() -> ExperimentSpec:
    # Request-load and timeout sensitivity.
    return _spec(
        "fig7",
        variants=[{"name": f"rate{r}", "overrides": {"sim.request_rate_per_min": r}}
                  for r in (0.2, 0.4, 0.67, 1.0)]
        + [{"name": f"timeout{m}", "overrides": {"sim.timeout_s": m * 60.0}}
           for m in (10, 15, 20, 30)],
    )


def _preset_fig8() -> ExperimentSpec:
    # Node/service density: 20 vs 40 providers.
    return _spec(
        "fig8",
        variants=[
            {"name": "n20", "overrides": {}},
            {"name": "n40", "overrides": {
                "mobility.n_nodes": 40,
                "mobility.params.speed_classes": [[30, [1.0, 1.0]], [10, [10.0, 10.0]]]}},
        ],
    )


def _preset_fig9() -> ExperimentSpec:
    # Mobility-parameter sweeps, one variant per model, same node speed.
    variants = []
    for area in (500.0, 700.0, 900.0):
        variants.append({"name": f"levy_a{int(area)}", "overrides": {
            "mobility.params.area": [area, area],
            "mobility.params.speed_classes": [[20, [1.0, 1.0]]]}})
    for hurst in (0.55, 0.65, 0.75, 0.85):
        for area in (500.0, 900.0):
            variants.append({"name": f"slaw_h{hurst}_a{int(area)}",
                             "overrides": _model_overrides("slaw", area=area, hurst=hurst)})
    for p_r in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8):
        for area in (500.0, 900.0):
            variants.append({"name": f"hcmm_p{p_r}_a{int(area)}",
                             "overrides": _model_overrides("hcmm", area=area, rewiring_p=p_r)})
    spec = _spec("fig9", variants=variants)
    spec.mobility = _base_mobility(same_speed=True)
    return spec


def _preset_fig10() -> ExperimentSpec:
    # Load-aware vs distance-only composition on communities.
    spec = _spec(
        "fig10",
        variants=[
            {"name": "LA", "overrides": {"sim.load_aware": True}},
            {"name": "NLA", "overrides": {"sim.load_aware": False}},
        ],
        sweep={"mobility.params.area": [[500.0, 500.0], [900.0, 900.0]]},
    )
    spec.mobility = _base_mobility(model="hcmm", rewiring_p=0.1, grid=[2, 2], speed=1.0)
    return spec


def _preset_fig11() -> ExperimentSpec:
    # Estimated-cost vs actual-delay accuracy across the three models.
    return _spec(
        "fig11",
        variants=[
            {"name": "levy", "overrides": {
                "mobility.params.speed_classes": [[20, [1.0, 1.0]]]}},
            {"name": "slaw", "overrides": _model_overrides("slaw")},
            {"name": "hcmm", "overrides": _model_overrides("hcmm")},
        ],
    )


def _preset_fig13() -> ExperimentSpec:
    # Sensitivity to forced composition length over the unit-service ring.
    spec = _spec(
        "fig13",
        variants=[
            {"name": "levy", "overrides": {
                "mobility.params.speed_classes": [[20, [1.0, 1.0]]]}},
            {"name": "slaw", "overrides": _model_overrides("slaw")},
            {"name": "hcmm", "overrides": _model_overrides("hcmm")},
        ],
        sweep={"pattern.length": [1, 2, 3]},
    )
    spec.catalog = _ring_catalog()
    spec.pattern = {"kind": "fixed_length", "length": 1}
    return spec


def _preset_fig14() -> ExperimentSpec:
    # Uniform vs request-proportional service distribution; half of the
    # two-service requests are drawn three times as often.
    start_weights = {x: (3.0 if x <= 10 else 1.0) for x in range(1, 21)}
    spec = _spec(
        "fig14",
        variants=[
            {"name": f"{model}_{dist}", "overrides": {
                **(_model_overrides(model) if model != "levy" else
                   {"mobility.params.speed_classes": [[20, [1.0, 1.0]]]}),
                "distribution": dist,
            }}
            for model in ("levy", "slaw", "hcmm")
            for dist in ("uniform", "proportional")
        ],
    )
    spec.catalog = _ring_catalog()
    spec.pattern = {"kind": "fixed_length", "length": 2,
                    "start_weights": {str(k): v for k, v in start_weights.items()}}
    return spec


_PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
    "fig9": _preset_fig9,
    "fig10": _preset_fig10,
    "fig11": _preset_fig11,
    "fig13": _preset_fig13,
    "fig14": _preset_fig14,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, seeds: int | None = None) -> ExperimentSpec:
    """Return the named experiment preset (optionally overriding seed count)."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    spec = _PRESETS[name]()
    if seeds is not None:
        spec.seeds = seeds
    return spec
