import math
from pathlib import Path

import pytest
import yaml

from oppcompose import experiments
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
from oppcompose.service_model import Service, ServiceCatalog


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
    rows = experiments.read_summary(summary_path)
    assert {r["variant"] for r in rows} == {"multihop", "direct"}
    for row in rows:
        assert 0.0 <= float(row["completion_mean"]) <= 1.0
        assert float(row["completion_min"]) <= float(row["completion_mean"]) <= float(row["completion_max"])


def test_summary_rates_match_run_files(tmp_path):
    spec = tiny_spec()
    summary_path = run_experiment(spec, tmp_path / "out")
    rows = experiments.read_summary(summary_path)
    manifest = experiments._read_manifest(tmp_path / "out")
    from oppcompose.sim_core import read_records_csv

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
    rows = experiments.read_summary(summary_path)
    assert len(rows) == 2
    assert {r["point"] for r in rows} == {"repetition=1", "repetition=2"}


def test_trace_cache_reused(tmp_path):
    spec = tiny_spec(seeds=1)
    run_experiment(spec, tmp_path / "out")
    traces = list((tmp_path / "out" / "traces").glob("*.csv"))
    assert len(traces) == 1  # one (params, seed) combination


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


def test_summary_estimate_columns_match_compare_estimate_accuracy():
    rows = [dict(r, created_s=0.0, hops=0, stages="", opportunistic_stages=0)
            for r in ESTIMATE_ROWS]
    rep = compare_estimate_accuracy(rows, timeout_s=900.0)
    # Two seeds' records, pooled by the summary.
    m = summarize_group([rows[:4], rows[4:]], timeout_s=900.0, warmup_s=0.0)
    # Incomplete requests without an estimate are left out: 1/2, not 1/3.
    assert m["est_incomplete_accurate_frac"] == rep["incomplete_over_timeout_frac"] == 0.5
    assert m["est_within_4min_frac"] == rep["within_4min_frac"] == 1.0
    assert m["est_diff_abs_median_s"] == 80.0  # median of |300 - 450| and |100 - 110|


def test_completion_bound_check_arithmetic():
    report = completion_bound_check({1: 0.8, 2: 0.6, 3: 0.4})
    assert report["p1"] == 0.8
    assert math.isclose(report["bound_len2"], 0.64)
    assert math.isclose(report["bound_len3"], 0.512)
    assert report["under_bound_len2"]
    assert report["under_bound_len3"]


def test_failed_runs_reported(tmp_path):
    spec = tiny_spec(seeds=1)
    spec.catalog = {"n_d": 1, "excluded": [], "ring": False}  # invalid
    with pytest.raises(RuntimeError):
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
    spec = tiny_spec(sim={"awareness": "global", "scheme": "EBR", "replan_on_relay": False,
                          "exec_deterministic": True, "load_alpha": 0.25, "radius": 40.0})
    config, _ = experiments.prepare_run(spec.to_dict(), seed=3)
    assert config.awareness == "global"
    assert config.scheme.kind == "EBR"
    assert config.replan_on_relay is False
    assert config.exec_deterministic is True
    assert config.load_alpha == 0.25
    assert config.radius == 40.0
    assert config.seed == 3


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


def test_every_preset_run_passes_key_checks():
    for name in PRESET_NAMES:
        spec = preset(name)
        base = spec.to_dict()
        for variant in spec.variants:
            for point in spec.points():
                experiments._check_spec_keys(
                    experiments._apply_overrides(base, {**variant["overrides"], **point}))


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
