import inspect
import os
from pathlib import Path

import pytest
import yaml

from oppcompose.cli import main
from oppcompose.experiments import load_spec
from oppcompose.mobility import generate_hcmm, load_trace_csv


def test_preset_writes_spec(tmp_path):
    rc = main(["preset", "fig3", "--out", str(tmp_path)])
    assert rc == 0
    spec = load_spec(tmp_path / "fig3.yaml")
    assert spec.name == "fig3"


def test_unknown_preset_exit_code(tmp_path):
    assert main(["preset", "fig99", "--out", str(tmp_path)]) == 2


def test_gen_trace(tmp_path):
    params = tmp_path / "levy.yaml"
    params.write_text(yaml.safe_dump({
        "n_nodes": 6,
        "duration": 1800.0,
        "area": [300.0, 300.0],
        "speed_classes": [[3, [1.0, 1.0]], [3, [10.0, 10.0]]],
    }))
    rc = main(["gen-trace", "levy", str(params), "--out", str(tmp_path), "--seed", "4",
               "--contacts"])
    assert rc == 0
    trace = load_trace_csv(tmp_path / "levy_seed4.csv")
    assert trace.n_nodes == 6
    assert (tmp_path / "levy_seed4_contacts.csv").exists()


def test_run_and_analyze_round_trip(tmp_path, monkeypatch):
    spec_file = tmp_path / "tiny.yaml"
    spec_file.write_text(yaml.safe_dump({
        "name": "tinycli",
        "mobility": {"model": "levy", "n_nodes": 8, "duration": 3600.0,
                     "sample_interval": 30.0,
                     "params": {"area": [300.0, 300.0],
                                "speed_classes": [[4, [1.0, 1.0]], [4, [10.0, 10.0]]]}},
        "catalog": {"n_d": 4, "excluded": [], "ring": False},
        "pattern": {"kind": "min_k", "k": 2},
        "sim": {"delay_warmup_s": 0.0},
        "repetition": 2,
        "variants": [{"name": "base", "overrides": {}}],
        "sweep": {},
        "seeds": 1,
    }))
    monkeypatch.setenv("OPPCOMPOSE_OUT", str(tmp_path))
    rc = main(["run", str(spec_file)])
    assert rc == 0
    summary = tmp_path / "tinycli" / "summary.csv"
    assert summary.exists()
    rc = main(["analyze", str(tmp_path / "tinycli"), "--estimate-accuracy"])
    assert rc == 0


def test_analyze_bound_check(tmp_path, capsys):
    spec_file = tmp_path / "ring.yaml"
    spec_file.write_text(yaml.safe_dump({
        "name": "ringcli",
        "mobility": {"model": "levy", "n_nodes": 8, "duration": 3600.0,
                     "sample_interval": 30.0,
                     "params": {"area": [250.0, 250.0],
                                "speed_classes": [[8, [2.0, 2.0]]]}},
        "catalog": {"n_d": 6, "excluded": [], "ring": True},
        "pattern": {"kind": "fixed_length", "length": 1},
        "sim": {"delay_warmup_s": 0.0},
        "repetition": 2,
        "variants": [{"name": "levy", "overrides": {}}],
        "sweep": {"pattern.length": [1, 2]},
        "seeds": 1,
    }))
    rc = main(["run", str(spec_file), "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["analyze", str(tmp_path / "ringcli"), "--bound-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "levy" in out and "p1" in out


def test_analyze_without_a_manifest_reports_an_error(tmp_path, capsys):
    # It used to end in a FileNotFoundError traceback.
    assert main(["analyze", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.csv" in err


@pytest.mark.parametrize("interval", [None, 60.0])
def test_gen_trace_sample_interval(tmp_path, interval):
    # Unset, the interval is the generator's default.
    params = {"n_nodes": 3, "duration": 600.0}
    if interval is not None:
        params["sample_interval"] = interval
    (tmp_path / "hcmm.yaml").write_text(yaml.safe_dump(params))
    assert main(["gen-trace", "hcmm", str(tmp_path / "hcmm.yaml"), "--out", str(tmp_path)]) == 0
    trace = load_trace_csv(tmp_path / "hcmm_seed0.csv")
    default = inspect.signature(generate_hcmm).parameters["sample_interval"].default
    assert trace.sample_interval == (default if interval is None else interval)


@pytest.mark.parametrize("change, message", [
    ({"seedz": 2}, "unknown spec key(s) seedz"),
    ({"sweep": {"sim.timeout": [600.0]}}, "unknown sim key(s) timeout"),
    # These failed every run inside build_pattern, the second as KeyError('length').
    ({"pattern": {"kind": "fixed_lenght", "length": 1}},
     "unknown request pattern kind 'fixed_lenght'; choose from min_k, fixed_length"),
    ({"pattern": {"kind": "fixed_length"}}, "pattern (fixed_length) lacks key length"),
])
def test_run_reports_a_misspelled_key_before_any_run(tmp_path, capsys, change, message):
    spec = {"name": "badkey",
            "mobility": {"model": "levy", "n_nodes": 4, "duration": 1800.0,
                         "params": {"area": [200.0, 200.0], "speed_classes": [[4, [1.0, 1.0]]]}},
            "catalog": {"n_d": 3}, "pattern": {"kind": "min_k", "k": 1}, "seeds": 1, **change}
    spec_file = tmp_path / "bad.yaml"
    spec_file.write_text(yaml.safe_dump(spec))
    assert main(["run", str(spec_file), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    # The first ended in a ValueError traceback, the second in an AttributeError one.
    ("n_nodes: 4\nduration: 600.0\naera: [150.0, 150.0]\n",
     "unknown mobility.params (levy) key(s) aera"),
    ("- 4\n- 600.0\n", "generator parameters map keys to values, got list"),
])
def test_gen_trace_reports_bad_params(tmp_path, capsys, text, message):
    (tmp_path / "levy.yaml").write_text(text)
    out = tmp_path / "out"
    assert main(["gen-trace", "levy", str(tmp_path / "levy.yaml"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_a_seed_count_below_one_is_an_error(tmp_path, capsys, seeds):
    # --seeds 0 used to run nothing, write an empty summary and exit 0.
    # Without --run, it wrote the bad count to fig4.yaml and exited 0.
    out = tmp_path / "out"
    for run in (["--run"], []):
        assert main(["preset", "fig4", "--seeds", seeds, *run, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"got {int(seeds)}" in captured.err
        assert captured.out == ""
        assert not (out / "fig4").exists() and not (out / "fig4.yaml").exists()
    # The same through run, from the flag and from the spec file.
    assert main(["preset", "fig4", "--out", str(out)]) == 0
    assert main(["run", str(out / "fig4.yaml"), "--seeds", seeds, "--out", str(out)]) == 1
    spec = yaml.safe_load((out / "fig4.yaml").read_text())
    (out / "fig4.yaml").write_text(yaml.safe_dump({**spec, "seeds": int(seeds)}))
    assert main(["run", str(out / "fig4.yaml"), "--out", str(out)]) == 1
    assert "seeds must be an integer of at least 1" in capsys.readouterr().err
    assert not (out / "fig4").exists()


@pytest.mark.parametrize("verb", [["run"], ["gen-trace", "levy"]])
@pytest.mark.parametrize("text, message", [
    # Each ended in a traceback: FileNotFoundError, then yaml's parser error.
    (None, "No such file or directory"),
    ("bad: [\n", "while parsing a flow"),
])
def test_an_unreadable_input_file_is_an_error(tmp_path, capsys, verb, text, message):
    path = tmp_path / "input.yaml"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert main([*verb, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("change, section", [
    # Each wrote fig6's manifest, summary and runs/ and failed the run, but
    # the string k, which failed up front without naming its section.
    ({"sim": {"awareness": "globl"}}, "sim"),
    ({"sim": {"scheme": "mt"}}, "sim"),
    ({"sim": {"timeout_s": "900"}}, "sim"),
    ({"catalog": {"n_d": "7"}}, "catalog"),
    ({"catalog": {"n_d": 1}}, "catalog"),
    ({"pattern": {"k": "4"}}, "pattern"),
    ({"pattern": {"kind": "fixed_length", "length": 1, "start_weights": {1: -1}}}, "pattern"),
], ids=["awareness", "scheme", "timeout_s", "n_d-string", "n_d-1", "k-string", "start_weights"])
def test_run_reports_a_bad_value_before_any_run(tmp_path, capsys, change, section):
    assert main(["preset", "fig6", "--out", str(tmp_path)]) == 0
    spec = yaml.safe_load((tmp_path / "fig6.yaml").read_text())
    spec["mobility"]["duration"] = 1800.0
    spec["seeds"] = 1
    for key, values in change.items():
        spec[key] = values if key == "pattern" else {**spec[key], **values}
    (tmp_path / "fig6.yaml").write_text(yaml.safe_dump(spec))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", str(tmp_path / "fig6.yaml"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {section}: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    # Each wrote fig6's manifest, summary, runs/ and traces/, then failed
    # every run; the start weight was ignored.
    ("distribution", "unifrom", "unknown distribution 'unifrom'"),
    ("repetition", 0, "repetition must be an integer >= 1, got 0"),
    ("range_m", "100", "range_m must be a finite number > 0, got '100'"),
    ("mobility.n_nodes", "20", "mobility.n_nodes must be an integer, got '20'"),
    ("pattern", {"kind": "fixed_length", "length": 2, "start_weights": {25: 3.0}},
     "pattern: start_weights keys [25] are not types 1..7"),
    # An empty axis or variant list ran nothing, wrote an empty manifest and
    # summary and exited 0; a scalar axis ended in "'int' object is not
    # iterable".
    ("sweep.repetition", [], "sweep.repetition must be a non-empty list, got []"),
    ("sweep.repetition", 2, "sweep.repetition must be a non-empty list, got 2"),
    ("variants", [], "variants must be a non-empty list, got []"),
])
def test_run_reports_a_bad_spec_value_before_any_run(tmp_path, capsys, key, value, message):
    assert main(["preset", "fig6", "--out", str(tmp_path)]) == 0
    spec = yaml.safe_load((tmp_path / "fig6.yaml").read_text())
    *parents, name = key.split(".")
    section = spec
    for part in parents:
        section = section[part]
    section[name] = value
    (tmp_path / "fig6.yaml").write_text(yaml.safe_dump(spec))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", str(tmp_path / "fig6.yaml"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    # The first ended in numpy's "negative dimensions are not allowed"; the
    # others wrote a header-only and a one-sample trace and exited 0.
    ("n_nodes: -3\n", "mobility.n_nodes must be >= 1, got -3"),
    ("n_nodes: 0\n", "mobility.n_nodes must be >= 1, got 0"),
    ("duration: -10\n", "mobility.duration must be >= 0, got -10"),
])
def test_gen_trace_rejects_an_empty_population_or_a_negative_duration(tmp_path, capsys,
                                                                      text, message):
    (tmp_path / "levy.yaml").write_text(text)
    out = tmp_path / "out"
    assert main(["gen-trace", "levy", str(tmp_path / "levy.yaml"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_run_reports_a_mistyped_functionality_before_any_run(tmp_path, capsys):
    # The functionality range is checked before any run, so a k that is not
    # a number fails there too, not in every run.
    assert main(["preset", "fig3", "--out", str(tmp_path)]) == 0
    spec = yaml.safe_load((tmp_path / "fig3.yaml").read_text())
    spec["pattern"]["k"] = "4"
    (tmp_path / "fig3.yaml").write_text(yaml.safe_dump(spec))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "fig3.yaml"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
