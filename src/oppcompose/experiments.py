"""Experiment harness: declarative specs, presets, runs, and aggregation.

An :class:`ExperimentSpec` pins one base configuration plus named variants
(condition overrides), an optional parameter sweep, and a seed count.
Running it produces one records CSV per (variant, sweep point, seed) and a
manifest; aggregation is a pure function of those files.

Each spec section is the keyword arguments of the call it feeds, and a key
a section leaves out takes that call's default: the top-level keys are
:class:`ExperimentSpec`'s, ``sim`` is :class:`SimConfig`'s less the
catalog, placement, pattern and seed a run builds, ``catalog`` is
:func:`enumerate_services`'s, ``pattern`` less its ``kind`` is the
``RequestPattern`` constructor that kind names, a synthetic model's
``mobility.params`` are its params class's (``LevyWalkParams``,
``SlawParams``, ``HcmmParams``) and the ``gps-files`` params are
:func:`mobility.ingest_gps_log`'s.  Each section's valid and required keys
are read from that call's signature, so a spec fails on a key no call takes,
or one a call needs, before any run starts.  Only ``mobility`` itself, which
picks its call by ``model``, and a variant's ``name`` and ``overrides`` are
listed by hand.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import os
import tempfile
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import mobility
from .contact_engine import ContactTrace, check_range, contacts_from_positions
from .service_model import (Service, ServiceCatalog, assign_services, check_placement,
                            enumerate_services)
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
    "read_rows",
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

    def points(self) -> list[dict]:
        """Cross product of the sweep axes as override dicts."""
        points = [{}]
        for key in sorted(self.sweep):
            points = [dict(p, **{key: v}) for p in points for v in self.sweep[key]]
        return points


# ``yaml`` is imported where a spec file is read or written: a run, its
# records and their summary never load it.

def save_spec(spec: ExperimentSpec, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(spec.to_dict(), fh, sort_keys=False)


def load_spec(path) -> ExperimentSpec:
    """The spec in the YAML file at ``path``, its every run's keys checked
    (ValueError on the first that no part of a run reads)."""
    import yaml

    with open(path) as fh:
        spec_dict = yaml.safe_load(fh)
    if not isinstance(spec_dict, dict):
        raise ValueError(f"{path}: a spec maps keys to values, got {type(spec_dict).__name__}")
    spec = _check_spec(spec_dict)
    _runs(spec)
    return spec


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

# Request pattern kinds: a ``pattern`` section's keys but ``kind`` are the
# arguments of the constructor its kind names.
_PATTERNS = {"min_k": RequestPattern.min_functionality,
             "fixed_length": RequestPattern.fixed_length}


def build_pattern(catalog: ServiceCatalog, cfg: dict) -> RequestPattern:
    kw = dict(cfg)
    return _PATTERNS[kw.pop("kind", "min_k")](catalog, **kw)


def service_popularity(catalog: ServiceCatalog, pattern_cfg: dict) -> dict[Service, float]:
    """Request mass per service implied by the pattern (for proportional placement).

    Each request of the pattern :func:`build_pattern` builds contributes its
    draw weight to every unit service its chain crosses.  Only fixed-length
    requests over a ring catalog name one chain each, so any other pattern
    or catalog raises ValueError.
    """
    kind = pattern_cfg.get("kind", "min_k")
    if kind != "fixed_length" or not catalog.ring:
        raise ValueError(f"proportional distribution needs fixed_length requests over a ring "
                         f"catalog, got {kind} requests over a catalog with ring={catalog.ring}")
    pattern = build_pattern(catalog, pattern_cfg)
    weights: dict[Service, float] = {s: 0.0 for s in catalog.services}
    by_input = {s.input: s for s in catalog.services}
    for (pos, _), w in zip(pattern.pairs, pattern.weights or (1.0,) * len(pattern.pairs)):
        for _ in range(pattern_cfg["length"]):
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
    """Generate (or load from cache, bit for bit) the position trace for one
    seed.  A file model reads its files every run: a spec names them, not their content."""
    _check_mobility(mob)
    model = mob["model"]
    key = None
    if cache_dir is not None and model in _GENERATORS:
        digest = hashlib.sha1(json.dumps(mob, sort_keys=True).encode() + str(seed).encode()).hexdigest()[:16]
        key = Path(cache_dir) / f"trace_{model}_{digest}.npz"
        if key.exists():
            with np.load(key) as cached:
                return mobility.PositionTrace(cached["positions"], *cached["frame"].tolist())
    # Unset, the sample interval is the generator's or ingest_gps_log's default.
    interval = {"sample_interval": mob["sample_interval"]} if "sample_interval" in mob else {}
    params = mob.get("params", {})
    if model in _GENERATORS:
        params_cls, generate = _GENERATORS[model]
        trace = generate(params_cls(**{k: _tuples(v) for k, v in params.items()}),
                         mob["n_nodes"], mob["duration"], seed, **interval)
    elif model == "trace-file":
        trace = mobility.load_trace_csv(mob["path"])
    else:  # gps-files, the last model _check_mobility admits
        trace = mobility.ingest_gps_log(mob["paths"], **interval, **params)
    if key is not None:
        # A temp name of its own per writer: parallel runs that share this
        # trace must not interleave their writes before the rename.
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=key.stem, dir=key.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, positions=trace.positions,
                         frame=[trace.sample_interval, trace.width, trace.height])
            os.replace(tmp, key)
        except BaseException:
            os.unlink(tmp)
            raise
    return trace


# Synthetic mobility models: parameter class and generator.  A spec's
# ``mobility.params`` map onto the class's fields by name.
_GENERATORS = {
    "levy": (mobility.LevyWalkParams, mobility.generate_levy),
    "slaw": (mobility.SlawParams, mobility.generate_slaw),
    "hcmm": (mobility.HcmmParams, mobility.generate_hcmm),
}
# ``mobility`` picks its call by ``model``, so its own keys are listed here.
_MOBILITY_KEYS = ("model", "n_nodes", "duration", "sample_interval", "params", "path", "paths")
# Per mobility model, the call its ``params`` feed; a trace file takes none.
_MODEL_PARAMS = {**{model: cls for model, (cls, _) in _GENERATORS.items()},
                 "trace-file": (), "gps-files": mobility.ingest_gps_log}


def _call_keys(fn, less=()) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameters of ``fn`` but ``less``, and those of them without a default."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in less]
    return (tuple(p.name for p in params),
            tuple(p.name for p in params if p.default is p.empty))


# Per call a spec section feeds: the keys the section may set and those it
# must, less the arguments a run supplies itself.
_KEYS = {fn: _call_keys(fn, less) for fn, less in [
    (ExperimentSpec, ()),
    (enumerate_services, ()),
    *[(fn, ("catalog",)) for fn in _PATTERNS.values()],
    (SimConfig, ("catalog", "placement", "pattern", "seed")),
    *[(cls, ()) for cls, _ in _GENERATORS.values()],
    (mobility.ingest_gps_log, ("files", "sample_interval")),
]}


def _check_keys(section: str, given, fn) -> None:
    """Raise ValueError on a key in ``given`` that ``fn`` does not take, or
    one it needs that ``given`` lacks.  ``fn`` is a call in ``_KEYS`` or, for
    a section that feeds no single call, the tuple of its optional keys."""
    valid, required = _KEYS[fn] if callable(fn) else (fn, ())
    unknown = sorted(set(given) - set(valid))
    if unknown:
        raise ValueError(f"unknown {section} key(s) {', '.join(unknown)}; "
                         f"valid keys: {', '.join(valid)}")
    missing = [name for name in required if name not in given]
    if missing:
        raise ValueError(f"{section} lacks key{'s' * (len(missing) > 1)} {', '.join(missing)}")


def _check_mobility(mob: dict) -> None:
    """Check ``mob``'s keys and model and, for a synthetic model, that
    ``n_nodes`` is an integer >= 1 and ``duration`` a number >= 0 (ValueError)."""
    _check_keys("mobility", mob, _MOBILITY_KEYS)
    model = mob.get("model")
    if model not in _MODEL_PARAMS:
        raise ValueError(f"unknown mobility model {model!r}; choose from {', '.join(_MODEL_PARAMS)}")
    _check_keys(f"mobility.params ({model})", mob.get("params", {}), _MODEL_PARAMS[model])
    if model in _GENERATORS:
        for name, kind, what, low in (("n_nodes", int, "an integer", 1),
                                      ("duration", (int, float), "a number", 0)):
            value = mob.get(name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"mobility.{name} must be {what}, got {value!r}")
            if not value >= low:
                raise ValueError(f"mobility.{name} must be >= {low}, got {value!r}")


def _check_variants(variants: list) -> None:
    """Raise ValueError, naming ``variants``, unless each variant maps a
    unique ``name`` (a non-empty string without ``/``: it names the run files)
    and, optionally, ``overrides`` that map keys to values."""
    names = set()
    for variant in variants:
        if not isinstance(variant, dict):
            raise ValueError(f"variants: a variant maps name and overrides, got {variant!r}")
        _check_keys("variant", variant, ("name", "overrides"))
        name = variant.get("name")
        if not isinstance(name, str) or not name or "/" in name:
            raise ValueError(f"variants: a name must be a non-empty string without '/', "
                             f"got {name!r}")
        if name in names:
            raise ValueError(f"variants: the name {name!r} is used twice")
        names.add(name)
        if not isinstance(variant.get("overrides", {}), dict):
            raise ValueError(f"variants: {name}'s overrides must map keys to values, "
                             f"got {variant['overrides']!r}")


def _check_spec(spec_dict: dict) -> ExperimentSpec:
    """The spec ``spec_dict`` describes, its defaults filled in.

    Raises ValueError on a key no part of the run reads, naming the valid
    ones, on an unknown pattern kind, on a missing key that has no default
    (a ``fixed_length`` pattern's ``length`` among them), and on a value
    that needs no trace to check: ``seeds``, ``variants`` and ``sweep``'s
    axes (non-empty lists), two sweep points with one key (a repeated axis
    value, say), each variant (:func:`_check_variants`),
    ``repetition`` (against a synthetic model's ``n_nodes`` too),
    ``distribution``, ``range_m``, :func:`_check_mobility`'s.
    """
    _check_keys("spec", spec_dict, ExperimentSpec)
    spec = ExperimentSpec(**spec_dict)
    if type(spec.seeds) is not int or spec.seeds < 1:
        raise ValueError(f"seeds must be an integer of at least 1, got {spec.seeds!r}")
    # An empty list would run nothing, and a scalar axis fail unnamed.
    if not isinstance(spec.sweep, dict):
        raise ValueError(f"sweep must map keys to lists of values, got {spec.sweep!r}")
    for name, values in [("variants", spec.variants),
                         *((f"sweep.{key}", axis) for key, axis in spec.sweep.items())]:
        if not isinstance(values, list) or not values:
            raise ValueError(f"{name} must be a non-empty list, got {values!r}")
    # A point's key names its run files and its summary row.
    points: dict[str, dict] = {}
    for point in spec.points():
        key = _point_key(point)
        if key in points:
            raise ValueError(f"sweep: the points {points[key]!r} and {point!r} both run as "
                             f"{key!r}")
        points[key] = point
    _check_variants(spec.variants)
    check_range(spec.range_m)
    _check_mobility(spec.mobility)
    n_nodes = spec.mobility["n_nodes"] if spec.mobility["model"] in _GENERATORS else None
    check_placement(spec.repetition, spec.distribution, n_nodes)
    _check_keys("catalog", spec.catalog, enumerate_services)
    kind = spec.pattern.get("kind", "min_k")
    if kind not in _PATTERNS:
        raise ValueError(f"unknown request pattern kind {kind!r}; "
                         f"choose from {', '.join(_PATTERNS)}")
    _check_keys(f"pattern ({kind})", spec.pattern.keys() - {"kind"}, _PATTERNS[kind])
    _check_keys("sim", spec.sim, SimConfig)
    return spec


def _in_section(section: str, call, *args):
    """``call(*args)``, a ValueError or TypeError it raises re-raised as a
    ValueError that names the spec section at fault."""
    try:
        return call(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{section}: {exc}") from exc


def _requests(spec: ExperimentSpec) -> tuple[ServiceCatalog, RequestPattern, dict | None]:
    """The spec's catalog, request pattern and, under proportional
    distribution, the popularity its placement weighs services by."""
    catalog = _in_section("catalog", ServiceCatalog.from_dict, spec.catalog)
    pattern = _in_section("pattern", build_pattern, catalog, spec.pattern)
    popularity = None
    if spec.distribution == "proportional":
        popularity = _in_section("distribution", service_popularity, catalog, spec.pattern)
    return catalog, pattern, popularity


def prepare_run(spec_dict: dict, seed: int, cache_dir: Path | None = None
                ) -> tuple[SimConfig, ContactTrace]:
    """Resolve one spec instance (after overrides) into a runnable config."""
    spec = _check_spec(spec_dict)
    catalog, pattern, popularity = _requests(spec)
    rng = np.random.default_rng((seed, 51966))
    trace = make_trace(spec.mobility, seed, cache_dir)
    given = spec.mobility.get("n_nodes", trace.n_nodes)
    if given != trace.n_nodes:
        raise ValueError(f"mobility.n_nodes is {given} but the trace has "
                         f"{trace.n_nodes} nodes")
    # A file trace fixes its own duration; a synthetic one is the given
    # duration rounded to the sample grid.
    given = spec.mobility.get("duration", trace.duration)
    if spec.mobility["model"] not in _GENERATORS and given != trace.duration:
        raise ValueError(f"mobility.duration is {given} s but the trace lasts "
                         f"{trace.duration} s")
    placement = assign_services(
        catalog, list(range(trace.n_nodes)), spec.repetition,
        rng, distribution=spec.distribution, popularity=popularity)
    contacts = contacts_from_positions(trace, spec.range_m)
    config = SimConfig(catalog=catalog, placement=placement, pattern=pattern,
                       seed=seed, **spec.sim)
    config.validate()
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
    """Run one job; its manifest row, with the error text if the run raised."""
    spec_dict, variant_name, point, seed, out_dir, cache_dir = args
    row = {"variant": variant_name, "point": _point_key(point), "seed": seed}
    try:
        config, contacts = prepare_run(spec_dict, seed, cache_dir)
        records = run_sim(config, contacts)
        fname = f"{variant_name}__{row['point']}__seed{seed}.csv"
        write_records_csv(records, Path(out_dir) / fname)
    except Exception as exc:  # noqa: BLE001 - reported per run in the manifest
        return {**row, "error": repr(exc)}
    return {**row, "file": fname, "timeout_s": config.timeout_s,
            "warmup_s": config.delay_warmup_s}


def _runs(spec: ExperimentSpec) -> list[tuple[str, dict, dict]]:
    """``(variant name, sweep point, merged spec dict)`` per variant and
    point of ``spec``, each with its keys and values checked, its catalog
    and request pattern built and its ``sim`` values validated, so that a
    bad value fails here, naming its key or section, not inside every run."""
    base = spec.to_dict()
    _check_spec(base)  # the variants, before their overrides are applied
    runs = []
    for variant in spec.variants:
        for point in spec.points():
            merged = _apply_overrides(base, {**variant.get("overrides", {}), **point})
            at = _check_spec(merged)
            catalog, pattern, _ = _requests(at)
            config = SimConfig(catalog=catalog, placement=None, pattern=pattern, **at.sim)
            _in_section("sim", config.validate)
            runs.append((variant["name"], point, merged))
    return runs


def run_experiment(spec: ExperimentSpec, out_dir, workers: int | None = None) -> Path:
    """Run every (variant, sweep point, seed); write run CSVs, manifest, summary.

    Returns the summary path.  Every run is checked as :func:`_runs` does
    before any starts (ValueError).  Individual run failures are recorded
    in the manifest with their error text and excluded from aggregation;
    the first failure is re-raised after all runs finish.
    """
    runs = _runs(spec)
    out = Path(out_dir)
    runs_dir = out / "runs"
    cache_dir = out / "traces"
    runs_dir.mkdir(parents=True, exist_ok=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(merged, name, point, seed, str(runs_dir), str(cache_dir))
            for name, point, merged in runs for seed in range(spec.seeds)]

    if workers and workers > 1:
        # Imported here: serial runs and benchmark workers never load the pool.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            manifest_rows = list(pool.map(_run_one, jobs))
    else:
        manifest_rows = [_run_one(job) for job in jobs]
    _write_rows(out / "manifest.csv", MANIFEST_FIELDS, manifest_rows)
    summary = aggregate(out)
    failures = [row["error"] for row in manifest_rows if "error" in row]
    if failures:
        raise RuntimeError(f"{len(failures)} run(s) failed; first: {failures[0]}")
    return summary


# ---------------------------------------------------------------------------
# Run-directory tables

MANIFEST_FIELDS = ("variant", "point", "seed", "file", "timeout_s", "warmup_s", "error")


def _write_rows(path: Path, fieldnames, rows) -> None:
    """Write ``rows`` (dicts; missing fields empty) as a CSV table."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_rows(path) -> list[dict]:
    """The rows of a run-directory table (``manifest.csv``, ``summary.csv``)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Aggregation

def summarize_group(run_rows: list[Sequence[Mapping]], timeout_s: float, warmup_s: float) -> dict:
    """Aggregate metrics over one group of per-seed record sequences."""
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
    est = compare_estimate_accuracy((r for rows in run_rows for r in rows), timeout_s)
    return {
        "n_requests": sum(len(rows) for rows in run_rows),
        "completion_mean": float(np.mean(rates)) if rates else 0.0,
        "completion_min": float(min(rates)) if rates else 0.0,
        "completion_max": float(max(rates)) if rates else 0.0,
        "delay_median_s": _quantile(delays, 0.5),
        "delay_p90_s": _quantile(delays, 0.9),
        "delay_samples": len(delays),
        "hop_hist": Counter(hops),
        "length_hist": Counter(lengths),
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


SUMMARY_FIELDS = ("variant", "point", "seeds", "n_requests", "completion_mean",
                  "completion_min", "completion_max", "delay_median_s", "delay_p90_s",
                  "delay_samples", "opportunistic_frac", "est_within_4min_frac",
                  "est_diff_abs_median_s", "est_incomplete_accurate_frac", "hop_hist",
                  "length_hist")


def aggregate(out_dir) -> Path:
    """Recompute summary.csv from the manifest and run CSVs (pure function)."""
    out = Path(out_dir)
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in read_rows(out / "manifest.csv"):
        if row["error"]:
            continue
        groups.setdefault((row["variant"], row["point"]), []).append(row)
    summary = []
    for (variant, point) in sorted(groups):
        rows_per_seed = []
        timeout_s = warmup_s = 0.0
        for row in sorted(groups[(variant, point)], key=lambda r: int(r["seed"])):
            rows_per_seed.append(read_records_csv(out / "runs" / row["file"]))
            timeout_s = float(row["timeout_s"])
            warmup_s = float(row["warmup_s"])
        m = summarize_group(rows_per_seed, timeout_s, warmup_s)
        summary.append(dict(zip(SUMMARY_FIELDS, (
            variant, point, len(rows_per_seed), m["n_requests"],
            f"{m['completion_mean']:.6f}", f"{m['completion_min']:.6f}",
            f"{m['completion_max']:.6f}", _fmt(m["delay_median_s"]), _fmt(m["delay_p90_s"]),
            m["delay_samples"], f"{m['opportunistic_frac']:.6f}",
            f"{m['est_within_4min_frac']:.6f}", _fmt(m["est_diff_abs_median_s"]),
            f"{m['est_incomplete_accurate_frac']:.6f}", _hist_str(m["hop_hist"]),
            _hist_str(m["length_hist"])))))
    path = out / "summary.csv"
    _write_rows(path, SUMMARY_FIELDS, summary)
    return path


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else f"{v:.3f}"


# ---------------------------------------------------------------------------
# Analyses

def compare_estimate_accuracy(rows: Iterable[Mapping], timeout_s: float) -> dict:
    """Distribution of (estimated cost - actual delay) for completed requests
    plus the over-timeout share of estimates for incomplete ones, in one pass
    over ``rows``."""
    abs_sorted = []
    incomplete = est_known = over = 0
    for r in rows:
        status, est = r["status"], r["estimated_cost_s"]
        if status == "completed":
            if est is not None:
                abs_sorted.append(abs(est - r["delay_s"]))
        elif status == "timed-out":
            incomplete += 1
            if est is not None:
                est_known += 1
                over += est > timeout_s
    abs_sorted.sort()
    return {
        "completed_samples": len(abs_sorted),
        "within_2min_frac": sum(1 for d in abs_sorted if d <= 120.0) / len(abs_sorted) if abs_sorted else 0.0,
        "within_4min_frac": sum(1 for d in abs_sorted if d <= 240.0) / len(abs_sorted) if abs_sorted else 0.0,
        "diff_cdf": abs_sorted,
        "incomplete_total": incomplete,
        "incomplete_with_estimate": est_known,
        "incomplete_over_timeout_frac": over / est_known if est_known else 0.0,
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
                   **params) -> dict:
    mob = {"model": model, "n_nodes": 20, "duration": 36000.0,
           "sample_interval": 30.0, "params": dict(params)}
    mob["params"]["area"] = [area, area]
    if model == "levy":
        mob["params"]["speed_classes"] = ([[20, [1.0, 1.0]]] if same_speed
                                          else [[10, [1.0, 1.0]], [10, [10.0, 10.0]]])
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
    """A preset on the base scenario; ``kw`` sets the fields that differ."""
    base = dict(mobility=_base_mobility(), catalog=_default_catalog(),
                pattern={"kind": "min_k", "k": 4})
    return ExperimentSpec(name, **(base | kw))


def _model_variants() -> dict[str, dict]:
    """Overrides per mobility model for the cross-model figures: the Levy
    walk with every node at the same speed, SLAW and HCMM at their defaults."""
    return {"levy": {"mobility.params.speed_classes": [[20, [1.0, 1.0]]]},
            "slaw": _model_overrides("slaw"),
            "hcmm": _model_overrides("hcmm")}


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
    return _spec("fig11", variants=[{"name": model, "overrides": overrides}
                                    for model, overrides in _model_variants().items()])


def _preset_fig13() -> ExperimentSpec:
    # Sensitivity to forced composition length over the unit-service ring.
    spec = _spec("fig13", variants=[{"name": model, "overrides": overrides}
                                    for model, overrides in _model_variants().items()],
                 sweep={"pattern.length": [1, 2, 3]})
    spec.catalog = _ring_catalog()
    spec.pattern = {"kind": "fixed_length", "length": 1}
    return spec


def _preset_fig14() -> ExperimentSpec:
    # Uniform vs request-proportional service distribution; half of the
    # two-service requests are drawn three times as often.
    start_weights = {x: (3.0 if x <= 10 else 1.0) for x in range(1, 21)}
    spec = _spec("fig14", variants=[
        {"name": f"{model}_{dist}", "overrides": {**overrides, "distribution": dist}}
        for model, overrides in _model_variants().items()
        for dist in ("uniform", "proportional")])
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
    """Return the named experiment preset (optionally overriding seed count).

    Raises KeyError on an unknown name and ValueError on a seed count that
    is not an integer of at least 1.
    """
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    spec = _PRESETS[name]()
    if seeds is not None:
        spec.seeds = seeds
        _check_spec(spec.to_dict())
    return spec
