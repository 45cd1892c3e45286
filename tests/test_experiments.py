import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from oppcompose import experiments
from oppcompose.contact_engine import contacts_from_positions
from oppcompose.experiments import (
    ExperimentSpec,
    aggregate,
    build_pattern,
    compare_estimate_accuracy,
    completion_bound_check,
    load_spec,
    preset,
    PRESET_NAMES,
    run_experiment,
    save_spec,
    service_popularity,
    summarize_group,
)
from oppcompose.mobility import (HcmmParams, LevyWalkParams, PositionTrace, generate_hcmm,
                                 generate_levy, ingest_gps_log, save_trace_csv)
from oppcompose.service_model import Service, ServiceCatalog, enumerate_services
from oppcompose.sim_core import RECORD_FIELDS, SimConfig, read_records_csv, run


def tiny_spec(**kw):
    base = dict(
        name="tiny",
        mobility={"model": "levy", "n_nodes": 10, "duration": 5400.0,
                  "sample_interval": 30.0,
                  "params": {"area": [300.0, 300.0],
                             "speed_classes": [[5, [1.0, 1.0]], [5, [10.0, 10.0]]]}},
        catalog={"n_d": 4, "excluded": [], "ring": False},
        pattern={"kind": "min_k", "k": 2},
        sim={"delay_warmup_s": 0.0},
        repetition=2,
        seeds=2,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_yaml_round_trip(tmp_path):
    spec = preset("fig3")
    path = tmp_path / "spec.yaml"
    save_spec(spec, path)
    again = load_spec(path)
    assert again.to_dict() == spec.to_dict()


def test_runs_and_records_load_no_yaml():
    # Only a spec file is YAML: a run, its records and their summary, as a
    # benchmark worker makes them, leave the module unloaded.
    probe = "import sys, oppcompose.experiments, oppcompose.sim_core; print('yaml' in sys.modules)"
    package_root = str(Path(experiments.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


def test_all_presets_materialize():
    for name in PRESET_NAMES:
        spec = preset(name)
        assert spec.name == name
        assert spec.seeds == 5
        assert spec.variants
        spec2 = preset(name, seeds=2)
        assert spec2.seeds == 2


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset("fig99")


def test_fig3_preset_conditions():
    spec = preset("fig3")
    names = [v["name"] for v in spec.variants]
    assert names == ["exact", "direct", "multihop"]
    assert spec.catalog == {"n_d": 7, "excluded": [[1, 7]], "ring": False}
    assert spec.pattern == {"kind": "min_k", "k": 4}


def test_fig13_preset_ring_and_lengths():
    spec = preset("fig13")
    assert spec.catalog["ring"] is True
    assert spec.catalog["n_d"] == 20
    assert spec.sweep == {"pattern.length": [1, 2, 3]}
    assert {v["name"] for v in spec.variants} == {"levy", "slaw", "hcmm"}


def test_fig10_preset_la_nla():
    spec = preset("fig10")
    assert {v["name"] for v in spec.variants} == {"LA", "NLA"}
    assert spec.mobility["model"] == "hcmm"
    areas = spec.sweep["mobility.params.area"]
    assert [500.0, 500.0] in areas and [900.0, 900.0] in areas


def test_fig5_preset_awareness_sweep():
    spec = preset("fig5")
    assert {v["name"] for v in spec.variants} == {"minimal", "local", "global", "perfect"}
    assert spec.sweep == {"repetition": [1, 2, 3, 4]}


def test_service_popularity_from_two_stage_requests():
    catalog = ServiceCatalog.from_dict({"n_d": 20, "excluded": [], "ring": True})
    pattern_cfg = {"kind": "fixed_length", "length": 2,
                   "start_weights": {str(x): (3.0 if x <= 10 else 1.0) for x in range(1, 21)}}
    pop = service_popularity(catalog, pattern_cfg)
    # Interior popular services are crossed by two weight-3 requests.
    assert pop[Service(5, 6)] == 6.0
    assert pop[Service(15, 16)] == 2.0
    ranked = sorted(catalog.services, key=lambda s: -pop[s])
    assert all(pop[s] >= 4.0 for s in ranked[:10])


def test_spec_run_refuses_negative_start_weights(tmp_path):
    spec = tiny_spec(catalog={"n_d": 5, "excluded": [], "ring": True}, seeds=1,
                     pattern={"kind": "fixed_length", "length": 1, "start_weights": {1: -1}})
    with pytest.raises(ValueError, match="pattern: weights must be finite, nonnegative"):
        experiments.run_experiment(spec, tmp_path)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("catalog, pattern", [
    # Every s_xy of a 5-type catalog: length-2 requests were credited to the
    # last service with each input, s_1_5 ... s_4_5.
    ({"n_d": 5, "excluded": [], "ring": False}, {"kind": "fixed_length", "length": 2}),
    # min_k requests weighed every service 0, so an arbitrary half got the
    # extra copies.
    ({"n_d": 5, "excluded": [], "ring": True}, {"kind": "min_k", "k": 2}),
])
def test_proportional_spec_needs_fixed_length_requests_over_a_ring(catalog, pattern):
    spec = tiny_spec(catalog=catalog, pattern=pattern, distribution="proportional")
    with pytest.raises(ValueError, match="fixed_length requests over a ring catalog"):
        experiments.prepare_run(spec.to_dict(), seed=0)
    ring = dict(catalog, ring=True)
    config, _ = experiments.prepare_run(
        tiny_spec(catalog=ring, pattern={"kind": "fixed_length", "length": 2},
                  distribution="proportional").to_dict(), seed=0)
    copies = sorted(len(hosts) for hosts in config.placement.by_service.values())
    assert copies == [1, 1, 1, 3, 3]  # the busier half of five: two services


def test_run_experiment_and_reaggregate(tmp_path):
    spec = tiny_spec(variants=[
        {"name": "multihop", "overrides": {}},
        {"name": "direct", "overrides": {"sim.scheme": "direct"}},
    ])
    summary_path = run_experiment(spec, tmp_path / "out")
    assert summary_path.exists()
    first = summary_path.read_bytes()
    # Re-aggregation from the saved run files is byte-identical.
    again = aggregate(tmp_path / "out")
    assert again.read_bytes() == first
    rows = experiments.read_rows(summary_path)
    assert {r["variant"] for r in rows} == {"multihop", "direct"}
    for row in rows:
        assert 0.0 <= float(row["completion_mean"]) <= 1.0
        assert float(row["completion_min"]) <= float(row["completion_mean"]) <= float(row["completion_max"])


def test_summary_rates_match_run_files(tmp_path):
    spec = tiny_spec()
    summary_path = run_experiment(spec, tmp_path / "out")
    rows = experiments.read_rows(summary_path)
    manifest = experiments.read_rows(tmp_path / "out" / "manifest.csv")
    completed = total = 0
    rates = []
    for m in manifest:
        recs = read_records_csv(tmp_path / "out" / "runs" / m["file"])
        rates.append(sum(1 for r in recs if r["status"] == "completed") / len(recs))
        completed += sum(1 for r in recs if r["status"] == "completed")
        total += len(recs)
    assert float(rows[0]["n_requests"]) == total
    assert abs(float(rows[0]["completion_mean"]) - sum(rates) / len(rates)) < 1e-6
    assert abs(float(rows[0]["completion_min"]) - min(rates)) < 1e-6
    assert abs(float(rows[0]["completion_max"]) - max(rates)) < 1e-6


def test_sweep_produces_one_row_per_point(tmp_path):
    spec = tiny_spec(sweep={"repetition": [1, 2]}, seeds=1)
    summary_path = run_experiment(spec, tmp_path / "out")
    rows = experiments.read_rows(summary_path)
    assert len(rows) == 2
    assert {r["point"] for r in rows} == {"repetition=1", "repetition=2"}


def test_trace_cache_reused(tmp_path):
    spec = tiny_spec(seeds=1)
    run_experiment(spec, tmp_path / "out")
    traces = list((tmp_path / "out" / "traces").glob("trace_*"))
    assert len(traces) == 1  # one (params, seed) combination


def test_trace_cache_hit_returns_the_generated_trace(tmp_path):
    mob = tiny_spec().mobility
    generated = experiments.make_trace(mob, seed=1, cache_dir=tmp_path)
    cached = experiments.make_trace(mob, seed=1, cache_dir=tmp_path)
    assert np.array_equal(cached.positions, generated.positions)
    assert ((cached.sample_interval, cached.width, cached.height)
            == (generated.sample_interval, generated.width, generated.height))


@pytest.mark.parametrize("model", ["trace-file", "gps-files"])
def test_a_file_trace_is_read_afresh_with_a_cache(tmp_path, model):
    # The cache was keyed on the file's path: after an edit, a re-run into
    # the same directory simulated the old positions.
    path = tmp_path / "t.csv"

    def write(x):  # three nodes; the last at x
        if model == "trace-file":
            positions = np.zeros((3, 4, 2))
            positions[2, :, 0] = x
            save_trace_csv(PositionTrace(positions, 60.0, 100.0, 100.0), path)
        else:
            path.write_text("user,time,x,y\n" + "".join(
                f"{user},{t},{x if user == 'c' else 0},0\n" for t in (0, 60, 120, 180)
                for user in "abc"))
        return {"model": model, **({"path": str(path)} if model == "trace-file"
                                   else {"paths": [str(path)]})}

    for x in (10.0, 50.0):
        mob = write(x)
        cached = experiments.make_trace(mob, seed=0, cache_dir=tmp_path / "traces")
        fresh = experiments.make_trace(mob, seed=0)
        assert np.array_equal(cached.positions, fresh.positions, equal_nan=True)
        assert cached.positions[2, 0, 0] == x
    assert not list((tmp_path / "traces").glob("trace_*"))


ESTIMATE_ROWS = [
    {"status": "completed", "estimated_cost_s": 300.0, "delay_s": 450.0},
    {"status": "completed", "estimated_cost_s": 100.0, "delay_s": 110.0},
    {"status": "completed", "estimated_cost_s": None, "delay_s": 50.0},
    {"status": "timed-out", "estimated_cost_s": 960.0, "delay_s": None},
    {"status": "timed-out", "estimated_cost_s": 100.0, "delay_s": None},
    {"status": "timed-out", "estimated_cost_s": None, "delay_s": None},
]


def test_compare_estimate_accuracy():
    rep = compare_estimate_accuracy(ESTIMATE_ROWS, timeout_s=900.0)
    assert rep["completed_samples"] == 2
    assert rep["within_4min_frac"] == 1.0
    assert rep["within_2min_frac"] == 0.5
    assert rep["incomplete_total"] == 3
    assert rep["incomplete_with_estimate"] == 2
    # 960 s exceeds the 900 s timeout: counted accurate for an incomplete one.
    assert rep["incomplete_over_timeout_frac"] == 0.5
    # One pass: a generator gives what the list gives.
    assert compare_estimate_accuracy((r for r in ESTIMATE_ROWS), timeout_s=900.0) == rep


def test_summary_estimate_columns_match_compare_estimate_accuracy(tmp_path):
    rows = [dict(r, id=i, origin=0, created_s=0.0, hops=0, stages="", opportunistic_stages=0,
                 **{"in": 1, "out": 2})
            for i, r in enumerate(ESTIMATE_ROWS)]
    rep = compare_estimate_accuracy(rows, timeout_s=900.0)
    # Two seeds' records, pooled by the summary.
    m = summarize_group([rows[:4], rows[4:]], timeout_s=900.0, warmup_s=0.0)
    # Incomplete requests without an estimate are left out: 1/2, not 1/3.
    assert m["est_incomplete_accurate_frac"] == rep["incomplete_over_timeout_frac"] == 0.5
    assert m["est_within_4min_frac"] == rep["within_4min_frac"] == 1.0
    assert m["est_diff_abs_median_s"] == 80.0  # median of |300 - 450| and |100 - 110|
    # The same rows written and read back as columns summarise alike.
    path = tmp_path / "records.csv"
    names = RECORD_FIELDS.split(",")
    path.write_text(RECORD_FIELDS + "\n" + "".join(
        ",".join("" if row.get(name) is None else str(row[name]) for name in names) + "\n"
        for row in rows))
    read = read_records_csv(path)
    assert summarize_group([read[:4], read[4:]], timeout_s=900.0, warmup_s=0.0) == m


def test_completion_bound_check_arithmetic():
    report = completion_bound_check({1: 0.8, 2: 0.6, 3: 0.4})
    assert report["p1"] == 0.8
    assert math.isclose(report["bound_len2"], 0.64)
    assert math.isclose(report["bound_len3"], 0.512)
    assert report["under_bound_len2"]
    assert report["under_bound_len3"]


def test_failed_runs_reported(tmp_path):
    spec = tiny_spec(seeds=1)
    spec.mobility = {"model": "trace-file", "path": str(tmp_path / "missing.csv")}
    with pytest.raises(RuntimeError, match="No such file"):
        run_experiment(spec, tmp_path / "out")
    manifest = (tmp_path / "out" / "manifest.csv").read_text()
    assert "error" in manifest.splitlines()[0]
    assert len(manifest.splitlines()) == 2


def test_parallel_runs_reproduce_serial_bytes(tmp_path):
    # Two variants share each seed's mobility, so parallel workers write the
    # same cached trace at once.
    spec = tiny_spec(variants=[
        {"name": "multihop", "overrides": {}},
        {"name": "direct", "overrides": {"sim.scheme": "direct"}},
    ])
    serial = run_experiment(spec, tmp_path / "serial", workers=1).parent
    parallel = run_experiment(spec, tmp_path / "parallel", workers=2).parent
    assert (parallel / "summary.csv").read_bytes() == (serial / "summary.csv").read_bytes()
    runs = sorted(p.name for p in (serial / "runs").iterdir())
    assert runs == sorted(p.name for p in (parallel / "runs").iterdir())
    for name in runs:
        assert (parallel / "runs" / name).read_bytes() == (serial / "runs" / name).read_bytes()
    assert not list((parallel / "traces").glob("*.tmp"))


def test_prepare_run_maps_every_sim_key():
    spec = tiny_spec(sim={"awareness": "global", "scheme": "EBR", "mean_exec_s": 45.0,
                          "exact_match": True, "load_alpha": 0.25})
    config, _ = experiments.prepare_run(spec.to_dict(), seed=3)
    assert config.awareness == "global"
    assert config.scheme == "EBR"
    assert config.mean_exec_s == 45.0
    assert config.exact_match is True
    assert config.load_alpha == 0.25
    assert config.seed == 3


@pytest.mark.parametrize("scheme", ["direct", "TT", "MT", "EBR", None])
def test_prepare_run_keeps_the_scheme_name(scheme):
    sim = {} if scheme is None else {"scheme": scheme}
    config, _ = experiments.prepare_run(tiny_spec(sim=sim).to_dict(), seed=0)
    assert config.scheme == (scheme or "MT")


@pytest.mark.parametrize("sim", [{"awarness": "global"}, {"seed": 4}, {"scheme": "mt"}])
def test_prepare_run_rejects_unknown_sim_keys(sim):
    spec = tiny_spec(sim=sim)
    with pytest.raises(ValueError, match="awareness|MT"):
        experiments.prepare_run(spec.to_dict(), seed=0)


@pytest.mark.parametrize("overrides", [
    {"mobility.params.flight_exponnent": 2.0},
    {"pattern.kk": 3},
    {"catalog.rign": True},
    {"repetiton": 3},
    {"mobility.speed": 2.0},
    {"pattern.length": 2},  # fixed_length only
    {"mobility.model": "slaw", "mobility.params": {"cascade_levels": 3}},
])
def test_prepare_run_rejects_unknown_keys_outside_sim(overrides):
    spec = experiments._apply_overrides(tiny_spec().to_dict(), overrides)
    with pytest.raises(ValueError, match="valid keys"):
        experiments.prepare_run(spec, seed=0)


def test_levy_default_speed_classes_split_any_node_count():
    # Unset, the speed classes are half the nodes (rounded down) at 1 m/s and
    # the rest at 10 m/s, for the generator and a spec alike.
    split = LevyWalkParams(speed_classes=((3, (1.0, 1.0)), (4, (10.0, 10.0))))
    want = generate_levy(split, 7, 1800.0, seed=4)
    assert np.array_equal(generate_levy(LevyWalkParams(), 7, 1800.0, seed=4).positions,
                          want.positions)
    trace = experiments.make_trace({"model": "levy", "n_nodes": 7, "duration": 1800.0}, seed=4)
    assert np.array_equal(trace.positions, want.positions)


@pytest.mark.parametrize("mob", [
    {"model": "levy", "params": {"speed_classes": [[4, [0.0, 0.0]]]}},
    {"model": "hcmm", "params": {"speed": 0.0}},
])
def test_make_trace_rejects_zero_speed(mob):
    with pytest.raises(ValueError, match="speed"):
        experiments.make_trace({**mob, "n_nodes": 4, "duration": 600.0}, seed=0)


def test_spec_run_rejects_load_alpha_outside_unit_interval(tmp_path):
    spec = tiny_spec(seeds=1, sim={"delay_warmup_s": 0.0, "load_alpha": 1.5})
    with pytest.raises(ValueError, match="sim: load_alpha"):
        run_experiment(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    # A quoted "false" ran load-aware and exact-match, a true t_av as 1.0 and
    # a true range_m as 1 m, which made no contacts.
    ({"sim": {"load_aware": "false"}}, "sim: load_aware must be true or false, got 'false'"),
    ({"sim": {"exact_match": "false"}}, "sim: exact_match must be true or false, got 'false'"),
    ({"sim": {"t_av": True}}, "sim: t_av must be a number, got True"),
    ({"sim": {"mean_exec_s": False}}, "sim: mean_exec_s must be a number, got False"),
    ({"range_m": True}, "range_m must be a finite number > 0, got True"),
])
def test_spec_run_rejects_bools_as_numbers_and_non_bools_as_flags(tmp_path, change, message):
    spec = tiny_spec(seeds=1, **change)
    with pytest.raises(ValueError, match=message):
        run_experiment(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimConfig)
                                  if f.type in ("float", "int")])
def test_a_quoted_number_is_refused_naming_its_field(name):
    # It used to fail at its first comparison, naming no field: "sim: '<' not
    # supported between instances of 'int' and 'str'".
    with pytest.raises(ValueError, match=f"^{name} must be a number, got '30'$"):
        SimConfig(catalog=None, placement=None, pattern=None, **{name: "30"}).validate()
    if name != "seed":  # a spec's seeds give each run's seed, every other field is a sim key
        with pytest.raises(ValueError, match=f"^sim: {name} must be a number, got '30'$"):
            experiments._runs(tiny_spec(sim={"delay_warmup_s": 0.0, name: "30"}))


def test_every_preset_run_passes_key_checks():
    for name in PRESET_NAMES:
        spec = preset(name)
        assert len(experiments._runs(spec)) == len(spec.variants) * len(spec.points())


@pytest.mark.parametrize("change, message", [
    ({"seedz": 3}, "unknown spec key"),
    ({"name": None}, "spec lacks key"),
    ({"variants": [{"name": "a", "overrides": {"sim.awarness": "global"}}]}, "unknown sim key"),
    ({"variants": [{"name": "a", "overides": {}}]}, "unknown variant key"),
    ({"sweep": {"mobility.params.speeed": [1.0]}}, r"unknown mobility.params \(levy\) key"),
    ({"seeds": 0}, "seeds must be an integer of at least 1, got 0"),
    ({"seeds": 2.0}, "seeds must be an integer of at least 1, got 2.0"),
    ({"seeds": True}, "seeds must be an integer of at least 1, got True"),
    ({"catalog": {"ring": True}}, "catalog lacks key n_d"),
    # The hand-off policy has no keys: a request re-plans at every hand-off,
    # and a relay that hosts its planned stage runs it.  Nor is knowledge
    # pruned by a radius.
    *[({"sim": {key: value}}, rf"unknown sim key\(s\) {key}; valid keys: .*mean_exec_s")
      for key, value in [("opportunistic", "contact"), ("recompute_per_stage", False),
                         ("replan_on_relay", False), ("radius", 40.0)]],
    # Top-level and synthetic mobility values are checked by the calls a run
    # makes, before any run starts: these wrote every output, then failed
    # in each run.
    ({"distribution": "unifrom"}, "unknown distribution 'unifrom'; choose from uniform, proportional"),
    ({"repetition": 0}, "repetition must be an integer >= 1, got 0"),
    ({"repetition": 2.0}, "repetition must be an integer >= 1, got 2.0"),
    ({"distribution": "proportional", "repetition": 1},
     "proportional distribution needs repetition >= 2"),
    ({"range_m": "100"}, "range_m must be a finite number > 0, got '100'"),
    ({"range_m": 0.0}, "range_m must be a finite number > 0, got 0.0"),
    ({"mobility": {**tiny_spec().mobility, "n_nodes": "20"}},
     "mobility.n_nodes must be an integer, got '20'"),
    ({"mobility": {**tiny_spec().mobility, "n_nodes": 0}}, "mobility.n_nodes must be >= 1, got 0"),
    ({"mobility": {**tiny_spec().mobility, "duration": "5400"}},
     "mobility.duration must be a number, got '5400'"),
    ({"mobility": {**tiny_spec().mobility, "duration": -1.0}},
     r"mobility.duration must be >= 0, got -1.0"),
    ({"pattern": {"kind": "fixed_length", "length": 2, "start_weights": {25: 3.0}}},
     r"pattern: start_weights keys \[25\] are not types 1..4"),
    ({"mobility": {**tiny_spec().mobility, "model": "levyy"}},
     "unknown mobility model 'levyy'; choose from levy, slaw, hcmm, trace-file, gps-files"),
    # Every run draws its requests from the Poisson stream and its service
    # times from the exponential: a script or fixed times are a test's.
    *[({"sim": {key: value}}, rf"unknown sim key\(s\) {key}; valid keys: .*mean_exec_s")
      for key, value in [("scripted_requests", [[60.0, 0, 1, 4]]), ("exec_deterministic", True)]],
    # A synthetic model's node count bounds repetition, in every run: these
    # failed only inside each run, after the outputs were written.
    ({"repetition": 11}, "repetition 11 exceeds node count 10"),
    ({"distribution": "proportional", "repetition": 10,
      "pattern": {"kind": "fixed_length", "length": 2}, "catalog": {"n_d": 4, "ring": True}},
     r"proportional layout needs repetition \+ 1 <= node count"),
    ({"sweep": {"repetition": [2, 12]}}, "repetition 12 exceeds node count 10"),
    ({"variants": [{"name": "a", "overrides": {}},
                   {"name": "b", "overrides": {"mobility.n_nodes": 1,
                                               "mobility.params.speed_classes": [[1, [1.0, 1.0]]]}}]},
     "repetition 2 exceeds node count 1"),
    # Each of these failed in every run (an infinite duration, a sample
    # interval of 0, below 0 or NaN, a file model without its files) or, as
    # true, sampled every 1 s.
    ({"mobility": {**tiny_spec().mobility, "duration": math.inf}},
     "mobility.duration must be finite, got inf"),
    *[({"mobility": {**tiny_spec().mobility, "sample_interval": value}},
       f"mobility.sample_interval must be a finite number > 0, got {value!r}")
      for value in (0.0, -30.0, math.nan, True)],
    ({"mobility": {"model": "trace-file"}}, "mobility lacks key path"),
    ({"mobility": {"model": "gps-files"}}, "mobility lacks key paths"),
])
def test_spec_keys_are_checked_in_every_run_before_any_starts(tmp_path, change, message):
    spec_dict = {k: v for k, v in {**tiny_spec().to_dict(), **change}.items() if v is not None}
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(spec_dict))
    with pytest.raises(ValueError, match=message):
        load_spec(path)
    if "seedz" in change or "name" in change:
        return
    with pytest.raises(ValueError, match=message):
        run_experiment(ExperimentSpec(**spec_dict), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, pattern", [
    ("fig13", {"kind": "fixed_length", "length": 0}),
    # On the 20-type ring, length 20 asked for (x, x), which no request can
    # complete, and length 21 for (x, x + 1), served by one stage.
    ("fig13", {"kind": "fixed_length", "length": 20}),
    ("fig13", {"kind": "fixed_length", "length": 21}),
    # k = 0 admitted the seven (x, x) pairs of the default catalog.
    ("fig3", {"kind": "min_k", "k": 0}),
])
def test_a_pattern_asking_for_no_change_of_type_fails_before_any_run(tmp_path, name, pattern):
    spec = preset(name, seeds=1)
    n_d = spec.catalog["n_d"]
    spec.variants = spec.variants[:1]
    spec.sweep = {f"pattern.{key}": [1, value] for key, value in pattern.items() if key != "kind"}
    spec.pattern = {**pattern, **{key: 1 for key in pattern if key != "kind"}}
    message = f"1 <= min_k <= max_k <= n_d - 1 = {n_d - 1}"
    path = tmp_path / "spec.yaml"
    save_spec(spec, path)
    with pytest.raises(ValueError, match=message):
        load_spec(path)
    with pytest.raises(ValueError, match=message):
        run_experiment(spec, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_a_spec_file_must_hold_a_mapping(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text("- name: tiny\n")
    with pytest.raises(ValueError, match="a spec maps keys to values, got list"):
        load_spec(path)


def test_override_values_are_copied():
    # A variant replacing a whole section and a sweep writing inside it: each
    # sweep point must get its own copy, and the spec must stay as written.
    params = {"area": [1.0, 1.0]}
    first = experiments._apply_overrides({}, {"mobility.params": params,
                                              "mobility.params.area": [2.0, 2.0]})
    second = experiments._apply_overrides({}, {"mobility.params": params,
                                               "mobility.params.area": [3.0, 3.0]})
    assert first["mobility"]["params"]["area"] == [2.0, 2.0]
    assert second["mobility"]["params"]["area"] == [3.0, 3.0]
    assert params == {"area": [1.0, 1.0]}


# -- one schema from spec to summary ---------------------------------------------

# sha256 of json.dumps(preset(name).to_dict(), sort_keys=True): a change to a
# preset builder or a spec default must not move any preset.
PRESET_DIGESTS = {
    "fig3": "e09357da854ae783705ae1e6b2838b4cc42e953230e87720710cafa8ee933162",
    "fig4": "c10b5c1f77b94664d28c215e0ffe0f9a58660d5b98c2680540aa638ffdfb90b1",
    "fig5": "f3e7c1de375751c14d5a1f4405945ec69fdca302a0872801b7ffb9e4218a2a41",
    "fig6": "7479a3559a0d068b4202d1cb51b2fb303ca85abcdd494e723b05a01e175751a8",
    "fig7": "43cb00d794ffc6506529b4953f14b87f8c05d9c0e1782c55eee56b12304639b1",
    "fig8": "4d40a52b38dfeeaaab14356d71af943f68190cf2ec629979f5a29e1b9527ac78",
    "fig9": "855632a12931d9d104c7385ecd9d2e10f25fbe53b9b7aac92fadd2a59a771c6e",
    "fig10": "24ffbc954a5fe3fda469bc4dc911b202211c96f352aede7fe8e2f301f98f6de2",
    "fig11": "ff06e3ebb067eb668402480ca438668ebc09acbb05ae3e289a3f804dd90b3813",
    "fig13": "4acb6b768c66a1fff7c331921db278ecdfdef17c986ff2d8a82ed748fa69d6f2",
    "fig14": "f571f43877848377c6466051ea2fbbc6c9ed3b7d2d74e7a572192cd3ed684d03",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_dicts_are_pinned(name):
    text = json.dumps(preset(name).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[name]


def test_prepare_run_fills_defaults_from_the_spec_class():
    spec = tiny_spec()
    minimal = {"name": spec.name, "mobility": spec.mobility, "catalog": spec.catalog,
               "pattern": spec.pattern}
    full = ExperimentSpec(**minimal).to_dict()
    assert set(full) > set(minimal)
    config, contacts = experiments.prepare_run(minimal, seed=1)
    config_full, contacts_full = experiments.prepare_run(full, seed=1)
    assert config == config_full
    assert config.placement == config_full.placement
    assert np.array_equal(contacts.events, contacts_full.events)


def _write_gps_log(tmp_path):
    path = tmp_path / "gps.csv"
    rows = ["user,time,x,y"]
    for t in range(0, 1800, 45):
        rows.append(f"a,{t},{t * 0.1:.1f},0")
        if not 600 <= t < 1500:  # a gap longer than 600 s for b
            rows.append(f"b,{t},0,{t * 0.2:.1f}")
    path.write_text("\n".join(rows) + "\n")
    return [str(path)]


@pytest.mark.parametrize("params", [{}, {"max_gap": 2000.0, "truncate_to": 1200.0}])
def test_gps_files_spec_calls_ingest_gps_log(tmp_path, params):
    paths = _write_gps_log(tmp_path)
    mob = {"model": "gps-files", "paths": paths, "sample_interval": 60.0, "params": params}
    trace = experiments.make_trace(mob, seed=0)
    want = ingest_gps_log(paths, sample_interval=60.0, **params)
    assert np.array_equal(trace.positions, want.positions, equal_nan=True)
    assert ((trace.sample_interval, trace.width, trace.height)
            == (want.sample_interval, want.width, want.height))


def test_gps_files_spec_rejects_misspelled_params(tmp_path):
    mob = {"model": "gps-files", "paths": _write_gps_log(tmp_path),
           "params": {"max_gapp": 60.0}}
    with pytest.raises(ValueError, match="max_gapp; valid keys: area_mapping, truncate_to, "
                                         "split_multiday, max_gap$"):
        experiments.make_trace(mob, seed=0)


def _six_node_trace_file(tmp_path):
    params = LevyWalkParams(area=(300.0, 300.0), speed_classes=((3, (1.0, 1.0)), (3, (10.0, 10.0))))
    path = tmp_path / "six.csv"
    save_trace_csv(generate_levy(params, 6, 1800.0, seed=1), path)
    return str(path)


@pytest.mark.parametrize("model", ["trace-file", "gps-files"])
def test_trace_runs_take_the_node_count_from_the_trace(tmp_path, model):
    if model == "trace-file":
        mobility, n = {"model": model, "path": _six_node_trace_file(tmp_path)}, 6
    else:
        mobility, n = {"model": model, "paths": _write_gps_log(tmp_path)}, 2
    spec = tiny_spec(mobility=mobility).to_dict()
    config, contacts = experiments.prepare_run(spec, seed=0)
    assert contacts.n_nodes == n
    assert {v for hosts in config.placement.by_service.values() for v in hosts} <= set(range(n))
    assert run(config, contacts)
    spec["mobility"]["n_nodes"] = n
    assert experiments.prepare_run(spec, seed=0)[0] == config


def test_node_count_that_disagrees_with_the_trace_raises(tmp_path):
    mobility = {"model": "trace-file", "path": _six_node_trace_file(tmp_path), "n_nodes": 20}
    with pytest.raises(ValueError, match="n_nodes is 20 but the trace has 6 nodes"):
        experiments.prepare_run(tiny_spec(mobility=mobility).to_dict(), seed=0)


@pytest.mark.parametrize("duration", [None, 1800.0, 1800])
def test_trace_file_duration_may_be_restated(tmp_path, duration):
    mobility = {"model": "trace-file", "path": _six_node_trace_file(tmp_path)}
    if duration is not None:
        mobility["duration"] = duration
    config, contacts = experiments.prepare_run(tiny_spec(mobility=mobility).to_dict(), seed=0)
    assert contacts.duration == 1800.0


@pytest.mark.parametrize("model", ["trace-file", "gps-files"])
def test_duration_that_disagrees_with_the_trace_raises(tmp_path, model):
    if model == "trace-file":
        mobility = {"model": model, "path": _six_node_trace_file(tmp_path)}
    else:
        mobility = {"model": model, "paths": _write_gps_log(tmp_path)}
    lasts = experiments.make_trace(mobility, seed=0).duration
    mobility["duration"] = 100.0
    with pytest.raises(ValueError, match=f"duration is 100.0 s but the trace lasts {lasts} s"):
        experiments.prepare_run(tiny_spec(mobility=mobility).to_dict(), seed=0)


def test_manifest_keeps_commas_in_error_text(tmp_path, monkeypatch):
    error = ValueError("no path from 1 to 7, at node 3, after 2 hops")

    def fail(config, contacts):
        raise error

    monkeypatch.setattr(experiments, "run_sim", fail)
    with pytest.raises(RuntimeError, match="at node 3, after 2 hops"):
        run_experiment(tiny_spec(seeds=1), tmp_path / "out")
    rows = experiments.read_rows(tmp_path / "out" / "manifest.csv")
    assert [(r["variant"], r["seed"], r["file"], r["error"]) for r in rows] == [
        ("base", "0", "", repr(error))]
    assert experiments.read_rows(tmp_path / "out" / "summary.csv") == []


def test_unset_spec_values_take_their_consumers_defaults(tmp_path):
    # Left out of a spec, the sample interval, the pattern kind and the ring
    # flag are whatever the generator, build_pattern and enumerate_services
    # take when not given them.
    mob = {"model": "hcmm", "n_nodes": 4, "duration": 600.0, "params": {}}
    trace = experiments.make_trace(mob, seed=3)
    want = generate_hcmm(HcmmParams(), 4, 600.0, 3)
    assert np.array_equal(trace.positions, want.positions)
    assert trace.sample_interval == want.sample_interval
    paths = _write_gps_log(tmp_path)
    gps = experiments.make_trace({"model": "gps-files", "paths": paths}, seed=0)
    assert gps.sample_interval == ingest_gps_log(paths).sample_interval
    assert ServiceCatalog.from_dict({"n_d": 5}) == enumerate_services(5)
    catalog = enumerate_services(5)
    assert build_pattern(catalog, {"k": 2}) == build_pattern(catalog, {"kind": "min_k", "k": 2})


# -- the benchmark's inputs --------------------------------------------------------

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
# sha256 of each benchmark workload's seed-0 ``positions.tobytes()`` and
# contact ``events.tobytes()``: a set-up change moving one bit fails here.
WORKLOAD_INPUTS = {
    "levy-n20-rate1": ("09ce213fbd92a84c648110856069481c9a611a989426328791cfc1723f33ebed",
                       "182979f3fabfa27b146b9b5f0293270bc61f64f42a79d6d0e3548d7ee0241eef"),
    "levy-n80": ("9b894620da94bdf33cff23a9f14d745991430df8a5022f953f6a5ec6f052a4d8",
                 "24a0ddc5c877c42cfc7469c94515b4f81e7c40001e670c678b5c99cc9b67725a"),
    "hcmm-n40-global": ("f879ae06393c5af6859f54b40e33637c9d35da5df067d21697bbe72cfca527eb",
                        "5429940cef0af6c149e4bff75a0d619bc9f80e2f37ea774ad4495eb2b717b70a"),
}


@pytest.mark.parametrize("name", WORKLOAD_INPUTS)
def test_benchmark_inputs_are_pinned(name):
    # The benchmark applies each workload's dotted overrides to the fig6 preset.
    workloads = json.loads(WORKLOADS.read_text())["workloads"]
    assert sorted(workloads) == sorted(WORKLOAD_INPUTS)
    spec = preset("fig6").to_dict()
    for dotted, value in workloads[name]["overrides"].items():
        *parents, leaf = dotted.split(".")
        node = spec
        for key in parents:
            node = node[key]
        node[leaf] = value
    trace = experiments.make_trace(spec["mobility"], 0)
    events = contacts_from_positions(trace, spec["range_m"]).events
    positions, contacts = WORKLOAD_INPUTS[name]
    assert hashlib.sha256(trace.positions.tobytes()).hexdigest() == positions
    assert hashlib.sha256(events.tobytes()).hexdigest() == contacts
