"""Command-line harness.

Verbs:
    run <spec.yaml>                run an experiment spec end to end
    preset <name>                  write a built-in experiment spec file
    analyze <run-dir>              (re-)aggregate saved runs; optional reports
    gen-trace <model> <params>     generate a mobility trace CSV

The default output directory comes from $OPPCOMPOSE_OUT (falling back to
the current directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import yaml

from . import experiments, mobility
from .contact_engine import contacts_from_positions, save_contacts_csv
from .sim_core import read_records_csv


def _default_out() -> str:
    return os.environ.get(experiments.DEFAULT_OUT_ENV, ".")


def _error(exc: Exception | str) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _run_and_report(spec: experiments.ExperimentSpec, out: Path, workers: int | None) -> int:
    """Run ``spec`` into ``out``; print the summary path, or the error and exit 1."""
    try:
        summary = experiments.run_experiment(spec, out, workers=workers)
    except (RuntimeError, ValueError) as exc:
        return _error(exc)
    print(f"summary written to {summary}")
    return 0


def _cmd_run(args) -> int:
    try:
        spec = experiments.load_spec(args.spec)
    except (OSError, ValueError, TypeError, yaml.YAMLError) as exc:
        return _error(exc)
    if args.seeds is not None:
        spec.seeds = args.seeds
    return _run_and_report(spec, Path(args.out or _default_out()) / spec.name, args.workers)


def _cmd_preset(args) -> int:
    try:
        spec = experiments.preset(args.name, seeds=args.seeds)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:  # before the spec file is written
        return _error(exc)
    out = Path(args.out or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.name}.yaml"
    experiments.save_spec(spec, path)
    print(f"spec written to {path}")
    return _run_and_report(spec, out / spec.name, args.workers) if args.run else 0


def _cmd_analyze(args) -> int:
    out = Path(args.run_dir)
    try:
        summary = experiments.aggregate(out)
    except (FileNotFoundError, ValueError) as exc:  # no manifest; a run file missing or malformed
        return _error(exc)
    print(f"summary written to {summary}")
    if args.estimate_accuracy:
        for row in experiments.read_rows(out / "manifest.csv"):
            if row.get("error") or not row.get("file"):
                continue
            rows = read_records_csv(out / "runs" / row["file"])
            rep = experiments.compare_estimate_accuracy(rows, float(row["timeout_s"]))
            print(f"{row['variant']}/{row['point']}/seed{row['seed']}: "
                  f"within 4 min {rep['within_4min_frac']:.1%} of {rep['completed_samples']} completed; "
                  f"incomplete over-timeout {rep['incomplete_over_timeout_frac']:.1%}")
    if args.bound_check:
        rates: dict[str, dict[int, float]] = {}
        for row in experiments.read_rows(summary):
            point = row["point"]
            if "length=" in point:
                length = int(point.split("length=")[1].split("_")[0])
                rates.setdefault(row["variant"], {})[length] = float(row["completion_mean"])
        for variant in sorted(rates):
            report = experiments.completion_bound_check(rates[variant])
            print(f"{variant}: {report}")
    return 0


def _cmd_gen_trace(args) -> int:
    try:
        with open(args.params) as fh:
            params = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        return _error(exc)
    if not isinstance(params, dict):
        return _error(f"{args.params}: generator parameters map keys to values, "
                      f"got {type(params).__name__}")
    mob = {"model": args.model, "n_nodes": params.pop("n_nodes", 20),
           "duration": params.pop("duration", 36000.0)}
    if "sample_interval" in params:
        mob["sample_interval"] = params.pop("sample_interval")
    mob["params"] = params
    try:
        trace = experiments.make_trace(mob, seed=args.seed)
        contacts = contacts_from_positions(trace, args.range_m) if args.contacts else None
    except ValueError as exc:
        return _error(exc)
    out = Path(args.out or _default_out())
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{args.model}_seed{args.seed}.csv"
    mobility.save_trace_csv(trace, trace_path)
    print(f"trace written to {trace_path}")
    if contacts is not None:
        contacts_path = out / f"{args.model}_seed{args.seed}_contacts.csv"
        save_contacts_csv(contacts, contacts_path)
        print(f"contacts written to {contacts_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oppcompose",
                                     description="Opportunistic service composition simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--seeds", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="materialize a built-in experiment spec")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--seeds", type=int, default=None)
    p_preset.add_argument("--run", action="store_true", help="also run the spec")
    p_preset.add_argument("--workers", type=int, default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_an = sub.add_parser("analyze", help="re-aggregate a run directory")
    p_an.add_argument("run_dir")
    p_an.add_argument("--estimate-accuracy", action="store_true")
    p_an.add_argument("--bound-check", action="store_true")
    p_an.set_defaults(func=_cmd_analyze)

    p_gen = sub.add_parser("gen-trace", help="generate a mobility trace")
    p_gen.add_argument("model", choices=list(experiments._GENERATORS))
    p_gen.add_argument("params", help="YAML file of generator parameters")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--contacts", action="store_true", help="also extract contacts")
    p_gen.add_argument("--range-m", type=float, default=100.0)
    p_gen.set_defaults(func=_cmd_gen_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
