"""Records digests of the ROADMAP's Baseline recipes, at scenario and request
seed 0.

    python -m pytest pins -q

Each case runs one recipe under one setting and pins the sha256 of its
records CSV, so a change moving one record byte fails; a deliberate semantic
change updates the pin and names it in CHANGES.md.  The runs take about 30 s
on a 2-vCPU machine, so this suite sits outside tier-1's ``testpaths``.

- The Baseline recipe at n=160 (levy-n80's overrides with 160 nodes, 120
  slow and 40 fast) under every awareness level, and under ``local`` with
  the TT, EBR and direct relay rules, which no workload runs, so every rule
  a sweep takes is pinned.  Its co-located groups span about 150 nodes, far
  more than any workload's.
- The density-faithful recipe at n=80 (levy-n80's overrides on a 1 400 m
  square with repetition 8, so every node hosts two copies: 160 service
  copies, where no workload or other pin has more than 40), under ``local``
  and ``perfect``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
from oppcompose import experiments, sim_core  # noqa: E402

BASELINE_160 = {
    "mobility.n_nodes": 160, "mobility.duration": 9000.0,
    "mobility.params.speed_classes": [[120, [1.0, 1.0]], [40, [10.0, 10.0]]],
    "sim.delay_warmup_s": 1800.0,
}
FAITHFUL_80 = {
    "mobility.n_nodes": 80, "mobility.duration": 9000.0,
    "mobility.params.speed_classes": [[60, [1.0, 1.0]], [20, [10.0, 10.0]]],
    "mobility.params.area": [1400.0, 1400.0], "repetition": 8,
    "sim.delay_warmup_s": 1800.0,
}

# (case, recipe, overrides, records sha256)
PINS = [
    ("baseline-n160-local", BASELINE_160, {"sim.awareness": "local"},
     "86b25d58102be1b044955a3c85cdb9eba05bb3417bf7d8906620d7f6cc705331"),
    ("baseline-n160-global", BASELINE_160, {"sim.awareness": "global"},
     "8da9ecdcf38b8d002cfcc7f46c8bb08e3f367ca4c36a7013dd1df69cde435c05"),
    ("baseline-n160-minimal", BASELINE_160, {"sim.awareness": "minimal"},
     "6573e77990d6f33c17444ee60fd8453d8505ca2360b5c45748c425dde7e431f1"),
    ("baseline-n160-perfect", BASELINE_160, {"sim.awareness": "perfect"},
     "6a300be70a8f22f51729e460d1068cead888e92b004e9b34398f78adc287e0ae"),
    ("baseline-n160-TT", BASELINE_160, {"sim.awareness": "local", "sim.scheme": "TT"},
     "ed87151ff4d3995f7122f5c02df4cff11661f3232039746d4605fd42e4f88b07"),
    ("baseline-n160-EBR", BASELINE_160, {"sim.awareness": "local", "sim.scheme": "EBR"},
     "cf28d6f3f04ef4aad5c4144612a7261d9073d30ef9d3a0d3ae4eea32cfbb8f0f"),
    ("baseline-n160-direct", BASELINE_160, {"sim.awareness": "local", "sim.scheme": "direct"},
     "672e9d00bda6438af29c038b53063c36808de27a30128b7c7e5e097bc576a28c"),
    ("faithful-n80-local", FAITHFUL_80, {"sim.awareness": "local"},
     "a93817764dc8455029101bbd6c375369f7c1250143dfdadfbb57c04728bdbc6a"),
    ("faithful-n80-perfect", FAITHFUL_80, {"sim.awareness": "perfect"},
     "2b6ecbddde5ab199fc77a4cb7aad3027817acb00a901892b13406e1d4054fdc4"),
]


@pytest.mark.parametrize("recipe, overrides, pin", [case[1:] for case in PINS],
                         ids=[case[0] for case in PINS])
def test_records_digest(tmp_path, recipe, overrides, pin):
    spec = worker.resolve_spec(experiments, {**recipe, **overrides})
    config, contacts = experiments.prepare_run(spec, 0, cache_dir=None)
    path = tmp_path / "records.csv"
    sim_core.write_records_csv(sim_core.run(config, contacts), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pin
