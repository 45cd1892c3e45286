"""Sweep-point benchmark for the oppcompose simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is one sweep point (``workloads.json``): overrides on the fig6
preset and its nominal host seconds per seed.  A run takes request seeds N, N+1, ... until the
nominal times fill S seconds.  Each seed is one repetition: a fresh
single-threaded worker process turns the spec into a records CSV, so peak
memory belongs to that repetition and no warmed state carries over.

Host times and peak memory are medians over the repetitions (set-up time
over every set-up, as each untraced repetition sets up more than once);
completion rate and median delay are pooled over the records of all seeds.
A repetition that raises or fails the records check counts as failed.
``--trace 1`` runs half as many seeds, each untraced and then traced, and
reports the per-layer metrics of the traced repetitions, the tracing
overhead, and a failure for any traced records that differ from the
untraced ones.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

# Metric name -> unit, as declared; host seconds are wall time.
UNITS = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}

REP_TIMEOUT_S = 170
# One thread per process: numpy's BLAS pools would otherwise compete for the cores.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)["workloads"]


def run_rep(job: dict) -> dict:
    """Run one repetition in a fresh worker process and return its report."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S,
                              env={**os.environ, **WORKER_ENV}, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"seed": job["seed"], "errors": [f"worker exceeded {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": job["seed"],
                "errors": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def seed_count(workload: dict, seconds: float, trace: bool) -> int:
    """Seeds that fill ``seconds`` at the workload's nominal time per seed.

    The count depends on the nominal time, not on the measured one, so a
    faster program runs the same seeds.  A traced run takes each seed twice.
    """
    n = max(1, round(seconds / workload["seed_s"]))
    return max(1, n // 2) if trace else n


def measure(workload: dict, seed: int, seconds: float, trace: bool, tmp: Path) -> list:
    """One untraced (and, with ``trace``, one traced) repetition per seed.

    Returns ``[(untraced report, traced report or None), ...]``.
    """
    def rep(s: int, kind: str) -> dict:
        return run_rep({"overrides": workload["overrides"], "seed": s,
                        "trace": kind == "traced", "out": str(tmp / f"{kind}_seed{s}.csv")})

    runs = []
    for s in range(seed, seed + seed_count(workload, seconds, trace)):
        runs.append((rep(s, "records"), rep(s, "traced") if trace else None))
    return runs


def verify(runs: list) -> tuple[int, int]:
    """Print every failed repetition; return (attempted, failed)."""
    attempted = failed = 0
    for plain, traced in runs:
        for label, report in (("untraced", plain), ("traced", traced)):
            if report is None:
                continue
            errors = list(report["errors"])
            if label == "traced" and report.get("sha256") != plain.get("sha256"):
                errors.append("traced records differ from the untraced records")
            attempted += 1
            failed += bool(errors)
            for error in errors:
                print(f"FAILED {label} seed {report['seed']}: {error}")
    return attempted, failed


def pooled_outcomes(reports: list, tmp: Path) -> dict:
    """Completion rate and median delay over the records of all seeds."""
    sys.path.insert(0, str(ROOT / "src"))
    from oppcompose.experiments import summarize_group
    from oppcompose.sim_core import read_records_csv

    runs = [read_records_csv(tmp / f"records_seed{r['seed']}.csv") for r in reports]
    summary = summarize_group(runs, reports[0]["timeout_s"], reports[0]["warmup_s"])
    completed = sum(r["status"] == "completed" for rows in runs for r in rows)
    return {"completion_rate": completed / summary["n_requests"],
            "delay_median_s": summary["delay_median_s"]}


def median_of(reports: list, key: str) -> float:
    return statistics.median(r[key] for r in reports)


def main(argv=None) -> int:
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "oppcompose" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runs = measure(workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
        attempted, failed = verify(runs)
        # Timings only from repetitions that wrote their records.
        plain = [p for p, _ in runs if "sha256" in p]
        traced = [t for _, t in runs if t is not None and "sha256" in t]
        if not plain or (args.trace and not traced):
            print("error: no repetition wrote its records", file=sys.stderr)
            return 1
        outcomes = {} if args.trace else pooled_outcomes(plain, Path(tmp))
    for report in plain:
        print(f"records {args.workload} seed={report['seed']} sha256={report['sha256']}")

    if args.trace:
        for name in sorted({m for r in traced for m in r["missing"]}):
            print(f"missing span target: {name}")
        layers = [r["layers"] for r in traced]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in LAYER_METRICS if all(name in layer for layer in layers)}
        values["trace_overhead_frac"] = median_of(traced, "run_s") / median_of(plain, "run_s") - 1
    else:
        values = {key: median_of(plain, key) for key in ("run_s", "sim_s")}
        values["setup_s"] = statistics.median(t for r in plain for t in r["setup_s"])
        values["peak_rss_mb"] = median_of(plain, "peak_rss_mb")
        values.update(outcomes)
    print(f"{args.workload}: {len(runs)} seeds from {args.seed}, "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    for name, value in values.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
