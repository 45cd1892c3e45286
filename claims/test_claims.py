"""The abstract's claims, checked on fig3 and fig5 at five seeds.

    python -m pytest claims -q

The golden digests pin byte streams; these checks pin what the paper
claims.  Composition with multi-hop forwarding completes more requests than
composition with one-hop forwarding, which completes more than exact
single-service matching (fig3).  Local knowledge comes close to the
centralised ``perfect`` level, and so does gossiped ``global`` knowledge,
while ``minimal`` knowledge falls well short; more service copies complete
more requests at every level (fig5).  Both presets run at seeds 0-4 on two
worker processes, about 45 s wall on a 2-vCPU machine, so this suite sits
outside tier-1's ``testpaths``.

Each threshold sits inside the margin measured on every seed (the measured
extreme and the headroom are stated beside it).  A change that moves
semantics keeps these checks passing without loosening them: a claim that
stops holding is a finding to report, not a bound to move.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from oppcompose.experiments import preset, read_rows, run_experiment
from oppcompose.sim_core import read_records_csv

SEEDS = 5
WORKERS = 2
REPETITIONS = (1, 2, 3, 4)  # fig5's sweep

# fig3, per seed.  Measured minima 0.055 and 0.076: headroom 0.025 and 0.036.
DIRECT_OVER_EXACT = 0.03
MULTIHOP_OVER_DIRECT = 0.04
# fig5, per seed and repetition unless said otherwise.
# |local - perfect|: measured at most 0.022 per seed (headroom 0.018) and
# 0.014 between the means over seeds (headroom 0.011).
LOCAL_PERFECT_GAP = 0.04
LOCAL_PERFECT_MEAN_GAP = 0.025
# |global - perfect|: measured at most 0.014 (headroom 0.016).
GLOBAL_PERFECT_GAP = 0.03
# local - minimal: measured at least 0.065 (headroom 0.035).
LOCAL_OVER_MINIMAL = 0.03


def completion_by_seed(out: Path) -> dict[tuple[str, str], np.ndarray]:
    """Per (variant, sweep point) of a run directory: each seed's completed
    share of its requests, in seed order."""
    rates: dict[tuple[str, str], list[float]] = {}
    for row in sorted(read_rows(out / "manifest.csv"), key=lambda r: int(r["seed"])):
        records = read_records_csv(out / "runs" / row["file"])
        done = sum(r["status"] == "completed" for r in records)
        rates.setdefault((row["variant"], row["point"]), []).append(done / len(records))
    return {key: np.array(seeds) for key, seeds in rates.items()}


def run_preset(name: str, out: Path) -> dict[tuple[str, str], np.ndarray]:
    run_experiment(preset(name, seeds=SEEDS), out, workers=WORKERS)
    rates = completion_by_seed(out)
    assert all(len(seeds) == SEEDS for seeds in rates.values())
    return rates


@pytest.fixture(scope="module")
def fig3(tmp_path_factory) -> dict[str, np.ndarray]:
    """Per variant: each seed's completion rate."""
    rates = run_preset("fig3", tmp_path_factory.mktemp("fig3"))
    return {variant: seeds for (variant, _), seeds in rates.items()}


@pytest.fixture(scope="module")
def fig5(tmp_path_factory) -> dict[str, np.ndarray]:
    """Per awareness level: completion rates, one row per repetition, one
    column per seed."""
    rates = run_preset("fig5", tmp_path_factory.mktemp("fig5"))
    return {level: np.array([rates[level, f"repetition={r}"] for r in REPETITIONS])
            for level in ("minimal", "local", "global", "perfect")}


def test_multihop_composition_beats_one_hop_beats_exact_matching(fig3):
    assert (fig3["direct"] - fig3["exact"] >= DIRECT_OVER_EXACT).all(), fig3
    assert (fig3["multihop"] - fig3["direct"] >= MULTIHOP_OVER_DIRECT).all(), fig3


def test_local_knowledge_comes_close_to_perfect(fig5):
    gap = fig5["local"] - fig5["perfect"]
    assert (abs(gap) <= LOCAL_PERFECT_GAP).all(), gap
    assert (abs(gap.mean(axis=1)) <= LOCAL_PERFECT_MEAN_GAP).all(), gap.mean(axis=1)


def test_global_knowledge_comes_close_to_perfect(fig5):
    gap = fig5["global"] - fig5["perfect"]
    assert (abs(gap) <= GLOBAL_PERFECT_GAP).all(), gap


def test_minimal_knowledge_falls_short_of_local(fig5):
    gap = fig5["local"] - fig5["minimal"]
    assert (gap >= LOCAL_OVER_MINIMAL).all(), gap


def test_completion_rises_with_repetition_at_every_level(fig5):
    # Measured: each step up in repetition adds at least 0.055.
    for level, rates in fig5.items():
        assert (np.diff(rates, axis=0) > 0).all(), (level, rates)
