import math

import numpy as np
import pytest

from oppcompose.forwarding import (EBR_WINDOW, MT_MARGIN, TT_MARGIN, EncounterStats,
                                   should_relay)
from oppcompose.sim_core import SimConfig


def test_scheme_parameters():
    assert TT_MARGIN == 20.0
    assert MT_MARGIN == 1.0
    assert EBR_WINDOW == 600.0
    with pytest.raises(ValueError,
                       match="unknown scheme 'flooding'; choose from direct, TT, MT, EBR"):
        SimConfig(catalog=None, placement=None, pattern=None, scheme="flooding").validate()


def test_direct_relays_only_to_destination():
    assert should_relay("direct", 0, 2, 2, math.inf, math.inf, None, 0.0)
    assert not should_relay("direct", 0, 1, 2, math.inf, math.inf, None, 0.0)


def test_destination_always_accepted_any_scheme():
    for scheme in ("direct", "TT", "EBR", "MT"):
        assert should_relay(scheme, 0, 2, 2, math.inf, math.inf, EncounterStats(3), 0.0)


def test_timer_rule_relays_on_big_improvement():
    carrier, candidate = 40.0, 10.0
    assert should_relay("TT", 0, 1, 2, carrier, candidate, None, 0.0)  # 10 < 40 - 20
    assert should_relay("MT", 0, 1, 2, carrier, candidate, None, 0.0)


def test_timer_rule_guard():
    carrier, candidate = 25.0, 10.0
    assert not should_relay("TT", 0, 1, 2, carrier, candidate, None, 0.0)  # 10 >= 25 - 20
    assert should_relay("MT", 0, 1, 2, carrier, candidate, None, 0.0)  # 10 < 25 - 1


def test_timer_rule_shift_invariant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = float(rng.integers(0, 60)), float(rng.integers(0, 60))
        shift = float(rng.integers(1, 100))
        base = should_relay("MT", 0, 1, 2, a, b, None, 0.0)
        shifted = should_relay("MT", 0, 1, 2, a + shift, b + shift, None, 0.0)
        assert base == shifted


def test_unknown_timers_relay_toward_knowledge():
    carrier = math.inf                  # knows nothing about 2
    candidate = 5.0
    assert should_relay("MT", 0, 1, 2, carrier, candidate, None, 0.0)
    assert not should_relay("MT", 0, 1, 2, candidate, carrier, None, 0.0)


def test_encounter_window_counts():
    stats = EncounterStats(2)
    for t in (0.0, 100.0, 200.0):
        stats.record(0, t)
    assert stats.rate(0, 200.0) == 3
    assert stats.rate(0, 650.0) == 2  # the t=0 encounter has left the window
    assert stats.rate(1, 200.0) == 0


def test_ebr_compares_rates():
    stats = EncounterStats(3)
    for t in (10.0, 20.0, 30.0):
        stats.record(1, t)
    stats.record(0, 10.0)
    assert should_relay("EBR", 0, 1, 2, math.inf, math.inf, stats, 40.0)
    assert not should_relay("EBR", 1, 0, 2, math.inf, math.inf, stats, 40.0)


def test_ebr_flips_after_burst():
    stats = EncounterStats(2)
    stats.record(0, 0.0)
    stats.record(0, 10.0)
    stats.record(1, 20.0)
    assert not should_relay("EBR", 0, 1, 2, math.inf, math.inf, stats, 30.0)
    for t in (40.0, 50.0, 60.0):
        stats.record(1, t)
    assert should_relay("EBR", 0, 1, 2, math.inf, math.inf, stats, 70.0)
