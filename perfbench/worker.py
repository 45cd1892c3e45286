"""One benchmark repetition: turn a workload spec into one checked records CSV.

Run as ``python3 perfbench/worker.py < job.json``; the job holds
``overrides`` (dotted spec keys applied to the fig6 preset), ``seed``,
``trace`` and ``out`` (the records path).  The run goes through the
public steps a sweep takes per (config, seed): ``experiments.prepare_run``,
``sim_core.run`` and ``sim_core.write_records_csv``; the records are then
read back, summarised with ``experiments.summarize_group`` and checked.  The
last stdout line is a JSON report.

Host times run from the first set-up to the written records in untraced
and traced repetitions alike.  After that, an untraced repetition sets up
again (see ``SETUP_MIN``) and reports every set-up time.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

BASE_PRESET = "fig6"
# The scenario (placement and mobility) is fixed and the benchmark seed drives
# only the request stream: with mobility drawn per seed, completion rate and
# delay moved by 20-50 % between seeds and would hide any change.
SCENARIO_SEED = 0
# After its run, an untraced repetition sets up again until it has made
# SETUP_MIN set-ups and spent SETUP_BUDGET_S on them.  Set-up times swing by
# a quarter from second to second on a shared machine, so the set-up median of
# a run needs several samples per seed, and many where one takes 0.1 s.
SETUP_MIN = 3
SETUP_BUDGET_S = 0.5
FINAL = ("completed", "timed-out")


def resolve_spec(experiments, overrides: dict) -> dict:
    """The base preset's spec dict with ``{"a.b": value}`` overrides applied."""
    spec = experiments.preset(BASE_PRESET).to_dict()
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        node = spec
        for key in parents:
            node = node[key]
        node[leaf] = value
    return spec


def check_records(rows: list[dict], timeout_s: float) -> list[str]:
    """Defects in one run's records; an empty list means the run is valid.

    Generation stops ``timeout_s`` before the end of the run, so every
    request must have completed or timed out by then.
    """
    errors = []
    if not rows:
        errors.append("no requests were generated")
    for i, r in enumerate(rows):
        where = f"record {i}"
        if r["id"] != i:
            errors.append(f"{where}: id {r['id']}, expected ids 0..N-1 in order")
        if r["status"] not in FINAL:
            errors.append(f"{where}: status {r['status']!r} is not final")
        if r["status"] != "completed":
            continue
        done = r["completed_s"]
        # Times are written with 3 decimals; allow that rounding.
        if done is None or not r["created_s"] <= done <= r["created_s"] + timeout_s + 1e-3:
            errors.append(f"{where}: completed at {done}, outside "
                          f"[{r['created_s']}, {r['created_s'] + timeout_s}]")
        stages = [s.rstrip("*").split("@")[0].split("-") for s in r["stages"].split("|") if s]
        if not stages:
            errors.append(f"{where}: completed without stages")
        elif int(stages[0][0]) != r["in"] or int(stages[-1][1]) != r["out"]:
            errors.append(f"{where}: stages {r['stages']} do not run {r['in']} -> {r['out']}")
    return errors


def run_job(job: dict) -> dict:
    """Run one seed of a workload and return its timings, checks and digest."""
    import oppcompose
    import oppcompose.experiments as experiments
    import oppcompose.sim_core as sim_core

    prepare_run, run_sim = experiments.prepare_run, sim_core.run
    write_csv = sim_core.write_records_csv

    def summarize(path, timeout_s, warmup_s):
        rows = sim_core.read_records_csv(path)
        return rows, experiments.summarize_group([rows], timeout_s, warmup_s)

    tracer = None
    if job["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer, oppcompose)
        run_sim = tracer.wrap("run", run_sim)
        write_csv = tracer.wrap("write", write_csv)
        summarize = tracer.wrap("summarize", summarize)

    spec = resolve_spec(experiments, job["overrides"])
    path = Path(job["out"])
    report = {"seed": job["seed"], "errors": []}

    def setup():
        gc.collect()  # every set-up starts from a collected heap
        t0 = perf_counter()
        config, contacts = prepare_run(spec, SCENARIO_SEED, cache_dir=None)
        return config, contacts, t0, perf_counter()

    try:
        config, contacts, t0, t1 = setup()
        config = dataclasses.replace(config, seed=job["seed"])
        result = run_sim(config, contacts)
        t2 = perf_counter()
        write_csv(result, path)
        t3 = perf_counter()
        rows, summary = summarize(path, config.timeout_s, config.delay_warmup_s)
        del result, contacts
        setups = [t1 - t0]
        while not tracer and (len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S):
            _, _, s0, s1 = setup()
            setups.append(s1 - s0)
    except Exception:  # noqa: BLE001 - a failing run is reported, not fatal
        report["errors"].append(traceback.format_exc())
        return report
    report["errors"] += check_records(rows, config.timeout_s)
    if summary["n_requests"] != len(rows):
        report["errors"].append(f"summarize_group counted {summary['n_requests']} requests, "
                                f"the records hold {len(rows)}")
    report.update(
        setup_s=setups, sim_s=t2 - t1, run_s=t3 - t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
        timeout_s=config.timeout_s, warmup_s=config.delay_warmup_s)
    if tracer is not None:
        from tracing import layer_metrics
        tracer.restore()
        report["layers"] = layer_metrics(tracer)
        report["missing"] = tracer.missing
    return report


if __name__ == "__main__":
    print(json.dumps(run_job(json.load(sys.stdin))))
