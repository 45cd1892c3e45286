"""Self-test of the benchmark on a tiny scenario.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402
from oppcompose.sim_core import read_records_csv  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

TINY = {
    "seed_s": 1.0,
    "overrides": {
        "mobility.n_nodes": 10,
        "mobility.duration": 5400.0,
        "mobility.params.speed_classes": [[5, [1.0, 1.0]], [5, [10.0, 10.0]]],
        "sim.delay_warmup_s": 0.0,
    },
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(monkeypatch, capsys, trace: int) -> tuple[list[str], dict]:
    monkeypatch.setattr(bench, "load_workloads", lambda: {"tiny": TINY})
    code = bench.main(["--workload", "tiny", "--seed", "0", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, group):
    lines, result = run_tiny(monkeypatch, capsys, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines), name


def test_workloads_match_benchmark_json():
    assert sorted(bench.load_workloads()) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.fixture(scope="module")
def tiny_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    path = out / "records.csv"
    report = worker.run_job({"overrides": TINY["overrides"], "seed": 0, "trace": False,
                             "out": str(path)})
    assert report["errors"] == []
    rows = read_records_csv(path)
    assert any(r["status"] == "completed" for r in rows)
    return rows


def corrupt(rows, index, **changes):
    bad = [dict(r) for r in rows]
    bad[index].update(changes)
    return bad


def test_check_accepts_clean_records(tiny_rows):
    assert worker.check_records(tiny_rows, 900.0) == []


def test_check_flags_hand_corrupted_records(tiny_rows):
    done = next(i for i, r in enumerate(tiny_rows) if r["status"] == "completed")
    rec = tiny_rows[done]
    late = rec["created_s"] + 901.0
    cases = [
        corrupt(tiny_rows, done, status="in-flight"),
        corrupt(tiny_rows, done, completed_s=late),
        corrupt(tiny_rows, done, completed_s=rec["created_s"] - 1.0),
        corrupt(tiny_rows, done, stages=f"{rec['in'] + 1}-{rec['out']}@0"),
        corrupt(tiny_rows, done, stages=f"{rec['in']}-{rec['out'] + 1}@0"),
        corrupt(tiny_rows, done, stages=""),
        corrupt(tiny_rows, done, id=rec["id"] + 1),
        tiny_rows[1:],
    ]
    for bad in cases:
        assert worker.check_records(bad, 900.0)


def test_missing_wrap_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.patch(types.SimpleNamespace(__name__="gone"), "in_contact", "in_contact")
    assert tracer.missing == ["gone.in_contact"]
    assert not any(name.startswith("contact_engine.in_contact") for name in layer_metrics(tracer))


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "levy-n80",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
