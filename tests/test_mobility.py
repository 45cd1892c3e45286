import hashlib
import math
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from oppcompose.mobility import (
    HcmmParams,
    LevyWalkParams,
    PositionTrace,
    SlawParams,
    generate_hcmm,
    generate_levy,
    generate_slaw,
    ingest_gps_log,
    load_trace_csv,
    save_trace_csv,
)
from oppcompose.mobility._dist import choice_cdf, pareto_map
from oppcompose.mobility.hcmm import home_communities
from oppcompose.mobility.slaw import waypoint_field


def in_bounds(trace):
    """True when every recorded sample lies inside the trace's area."""
    p = trace.positions
    finite = np.isfinite(p).all(axis=2)
    x, y = p[..., 0], p[..., 1]
    ok_x = (x[finite] >= -1e-9) & (x[finite] <= trace.width + 1e-9)
    ok_y = (y[finite] >= -1e-9) & (y[finite] <= trace.height + 1e-9)
    return bool(ok_x.all() and ok_y.all())


def fit_truncated_power_law(samples, low, high):
    """Independent max-likelihood fit of the exponent of a density
    ~ x^-(1+a) truncated to [low, high]."""
    samples = np.asarray(samples)
    log_ratio = np.log(samples / low).mean()
    r = low / high

    def score(a):
        # d/da of the truncated log-likelihood, averaged per sample.
        return 1.0 / a - log_ratio + (r ** a) * math.log(r) / (1.0 - r ** a)

    return brentq(score, 1e-3, 50.0)


def truncated_pareto(rng, exponent, low, high, size=None):
    """Draw from a power law with density ~ x^-(1+exponent) on [low, high]."""
    low, tail, power = pareto_map(exponent, low, high)
    return low * (1.0 - rng.random(size) * tail) ** power


def flight_lengths(params: LevyWalkParams, n_flights: int, seed: int) -> np.ndarray:
    """Flight lengths from the generator's power law (for distribution checks)."""
    rng = np.random.default_rng(seed)
    return truncated_pareto(rng, params.flight_exponent, *params.flight_bounds, size=n_flights)


# -- Levy walk ---------------------------------------------------------------

def test_levy_default_trace_shape_and_bounds():
    params = LevyWalkParams()
    trace = generate_levy(params, 20, 36000, seed=1)
    assert trace.n_nodes == 20
    assert trace.n_samples == 1201
    assert trace.duration == 36000
    assert in_bounds(trace)


def test_levy_zero_duration_gives_initial_positions():
    trace = generate_levy(LevyWalkParams(), 20, 0, seed=2)
    assert trace.n_samples == 1
    assert in_bounds(trace)


def test_levy_deterministic_per_seed():
    a = generate_levy(LevyWalkParams(), 20, 3600, seed=5)
    b = generate_levy(LevyWalkParams(), 20, 3600, seed=5)
    c = generate_levy(LevyWalkParams(), 20, 3600, seed=6)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


# sha256 of the positions' bytes, recorded from the generator that drew each
# value with its own numpy call: drawing in blocks must not move a bit.
LEVY_DIGESTS = [
    (LevyWalkParams(), 20, 7200.0, 11,
     "9ad1b8796dc7c6ce26727246db7e3ad2fce7eb62baa2f960280d8f8ea6a17329"),
    (LevyWalkParams(speed_classes=((3, (0.5, 2.0)), (2, (4.0, 12.0)))), 5, 7200.0, 12,
     "c026ace9a1a9cb6d8184a592deab63e3ecc010d43ee514433064ad22bd487d5d"),
    (LevyWalkParams(area=(1000.0, 250.0)), 20, 7200.0, 13,
     "9f86e22d09f55782050dca7c76fb508aa4a7eb395572c614450da3348f2d65c0"),
    (LevyWalkParams(), 20, 0.0, 14,
     "f35fcfec7f9c0f4f2c1dd91c035fec7b072e9abd3b4d694bac80d496771ff251"),
    # An area smaller than most flights: many crossings per flight.
    (LevyWalkParams(area=(40.0, 25.0)), 20, 7200.0, 15,
     "f9b3e1e43e7880a11cf1e40d59204f4e13f2e29149e014dd21a650d32288de07"),
    (LevyWalkParams(speed_classes=((60, (1.0, 1.0)), (20, (10.0, 10.0)))), 80, 3600.0, 16,
     "7103da50a0356572c2b8afe7ff063efc81169b60cffade728d9dfa56b5421d99"),
]


@pytest.mark.parametrize("params, n, duration, seed, digest", LEVY_DIGESTS,
                         ids=["default", "speed-range", "non-square", "zero-duration",
                              "small-area", "slow-fast-60-20"])
def test_levy_positions_pinned(params, n, duration, seed, digest):
    trace = generate_levy(params, n, duration, seed=seed)
    assert hashlib.sha256(trace.positions.tobytes()).hexdigest() == digest


def test_levy_flight_exponent_recovered_by_independent_fit():
    params = LevyWalkParams(flight_exponent=1.5)
    flights = flight_lengths(params, 20000, seed=3)
    fitted = fit_truncated_power_law(flights, *params.flight_bounds)
    assert abs(fitted - 1.5) < 0.2


@pytest.mark.parametrize("exponent", [0.8, 1.2, 1.9])
def test_levy_flight_exponent_other_values(exponent):
    params = LevyWalkParams(flight_exponent=exponent)
    flights = flight_lengths(params, 20000, seed=4)
    fitted = fit_truncated_power_law(flights, *params.flight_bounds)
    assert abs(fitted - exponent) < 0.2


def test_levy_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_levy(LevyWalkParams(flight_exponent=2.5), 20, 600, seed=1)
    with pytest.raises(ValueError):
        generate_levy(LevyWalkParams(area=(0, 700)), 20, 600, seed=1)
    with pytest.raises(ValueError, match="speed class counts sum to 20, expected 7"):
        generate_levy(LevyWalkParams(speed_classes=((10, (1.0, 1.0)), (10, (10.0, 10.0)))),
                      7, 600, seed=1)


# A zero speed divides by zero mid-walk and a negative one never ends the walk,
# so these are checked through ``validate`` only.

@pytest.mark.parametrize("speeds", [(0.0, 0.0), (-1.0, -1.0), (-2.0, 3.0), (5.0, 2.0)])
def test_levy_rejects_bad_speed_class(speeds):
    params = LevyWalkParams(speed_classes=((10, (1.0, 1.0)), (10, speeds)))
    with pytest.raises(ValueError, match="LevyWalkParams"):
        params.validate(20)


@pytest.mark.parametrize("params_cls", [HcmmParams, SlawParams])
@pytest.mark.parametrize("speed", [0.0, -1.0, math.nan])
def test_hcmm_and_slaw_reject_non_positive_speed(params_cls, speed):
    with pytest.raises(ValueError, match=params_cls.__name__):
        params_cls(speed=speed).validate()


# -- SLAW --------------------------------------------------------------------

def test_slaw_default_trace():
    trace = generate_slaw(SlawParams(), 20, 36000, seed=1)
    assert trace.n_nodes == 20
    assert in_bounds(trace)


# sha256 of the positions' bytes, recorded from the generator that drew each
# pause through its own truncated-power-law call.
SLAW_DIGESTS = {
    "default": (SlawParams(), 12, 7200.0, 31,
                "9d4a34280390ad14c487ef00ee505942cf6da36201509329101fa5e3cca0bd5e"),
    "hurst-0.55-a500": (SlawParams(hurst=0.55, area=(500.0, 500.0)), 10, 7200.0, 32,
                        "a435f7aa3055920ca1490d4a0f734e7491dd299eba5a8d3ba5a50b5ad03d4df0"),
    "hurst-0.85-a900": (SlawParams(hurst=0.85, area=(900.0, 900.0)), 10, 7200.0, 33,
                        "0c856dc94d69bfc8a6520ac796c44aa88b25fad475376891f3b92882592d3388"),
    "pause-range": (SlawParams(pause_exponent=0.9, pause_bounds=(5.0, 900.0), speed=2.5),
                    8, 7200.0, 34,
                    "2addbf65c165f93bb9341c0b08552d90de28b354fa58d7158077a5ceeb1ed6ae"),
    "single-waypoint": (SlawParams(n_waypoints=1), 5, 3600.0, 35,
                        "b89864c4dfe82e724328946523f5c32f40ca4af8b44d3344cec4dbd48ee26984"),
    "zero-duration": (SlawParams(), 10, 0.0, 36,
                      "a5433d5df224ed776365f45728ca09c2b836cd7bd75fabed53f4b8491ddbfc9a"),
}


@pytest.mark.parametrize("params, n, duration, seed, digest", SLAW_DIGESTS.values(),
                         ids=SLAW_DIGESTS.keys())
def test_slaw_positions_pinned(params, n, duration, seed, digest):
    trace = generate_slaw(params, n, duration, seed=seed)
    assert hashlib.sha256(trace.positions.tobytes()).hexdigest() == digest


def test_slaw_deterministic_per_seed():
    a = generate_slaw(SlawParams(), 10, 3600, seed=7)
    b = generate_slaw(SlawParams(), 10, 3600, seed=7)
    assert np.array_equal(a.positions, b.positions)


def test_slaw_rejects_bad_hurst():
    with pytest.raises(ValueError):
        generate_slaw(SlawParams(hurst=0.4), 10, 600, seed=1)
    with pytest.raises(ValueError):
        generate_slaw(SlawParams(hurst=1.0), 10, 600, seed=1)


def test_slaw_single_waypoint_keeps_nodes_stationary():
    params = SlawParams(n_waypoints=1)
    trace = generate_slaw(params, 5, 3600, seed=2)
    for node in range(5):
        assert np.allclose(trace.positions[node], trace.positions[node, 0])


def test_slaw_clustering_grows_with_hurst():
    # Higher self-similarity concentrates waypoints; measure mean distance
    # to each waypoint's nearest neighbor (drops as clusters tighten).
    def mean_nn(hurst, seed):
        field = waypoint_field(SlawParams(hurst=hurst, n_waypoints=400),
                               np.random.default_rng(seed))
        d2 = ((field[:, None, :] - field[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        return float(np.sqrt(d2.min(axis=1)).mean())

    low = np.mean([mean_nn(0.55, s) for s in range(6)])
    high = np.mean([mean_nn(0.85, s) for s in range(6)])
    assert high < low


def test_slaw_long_flights_spread_with_hurst():
    # The tail of the flight-length distribution grows with the Hurst
    # parameter: tours hop between ever more separated clusters.  A flight
    # is one maximal run of movement samples; its length is the distance
    # between the run's endpoints (per-sample steps are speed-capped).
    def tail_flight(hurst, seed):
        trace = generate_slaw(SlawParams(hurst=hurst), 10, 18000, seed=seed)
        flights = []
        for node in range(trace.n_nodes):
            pos = trace.positions[node]
            moving = np.linalg.norm(np.diff(pos, axis=0), axis=1) > 0.5
            start = None
            for i, m in enumerate(moving):
                if m and start is None:
                    start = i
                elif not m and start is not None:
                    flights.append(float(np.linalg.norm(pos[i] - pos[start])))
                    start = None
        return float(np.quantile(flights, 0.9)) if flights else 0.0

    low = np.mean([tail_flight(0.55, s) for s in range(4)])
    high = np.mean([tail_flight(0.85, s) for s in range(4)])
    assert high > low


# -- HCMM --------------------------------------------------------------------

def community_index(params: HcmmParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Community cell containing each (x, y) position."""
    rows, cols = params.grid
    ci = np.minimum((np.asarray(x) / params.area[0] * cols).astype(int), cols - 1)
    ri = np.minimum((np.asarray(y) / params.area[1] * rows).astype(int), rows - 1)
    return ri * cols + ci


def test_hcmm_zero_rewiring_keeps_nodes_home():
    params = HcmmParams(grid=(2, 2), rewiring_p=0.0)
    trace = generate_hcmm(params, 12, 36000, seed=3)
    homes = home_communities(params, 12, seed=3)
    for node in range(12):
        cells = community_index(params, trace.positions[node, :, 0], trace.positions[node, :, 1])
        assert (cells == homes[node]).all()


def test_hcmm_two_communities_back_and_forth():
    params = HcmmParams(grid=(1, 2), rewiring_p=0.1)
    trace = generate_hcmm(params, 10, 36000, seed=4)
    crossings = 0
    for node in range(10):
        cells = community_index(params, trace.positions[node, :, 0], trace.positions[node, :, 1])
        crossings += int((np.diff(cells) != 0).sum())
    assert crossings > 0


def test_hcmm_travel_increases_with_rewiring():
    def crossings(p_r):
        total = 0
        for seed in range(4):
            params = HcmmParams(grid=(2, 2), rewiring_p=p_r)
            trace = generate_hcmm(params, 12, 18000, seed=seed)
            for node in range(12):
                cells = community_index(params, trace.positions[node, :, 0],
                                        trace.positions[node, :, 1])
                total += int((np.diff(cells) != 0).sum())
        return total

    c0, c1, c2 = crossings(0.0), crossings(0.2), crossings(0.8)
    assert c0 == 0
    assert c0 < c1 < c2


def test_hcmm_rejects_bad_rewiring():
    with pytest.raises(ValueError):
        generate_hcmm(HcmmParams(rewiring_p=1.5), 10, 600, seed=1)


def test_hcmm_deterministic_per_seed():
    a = generate_hcmm(HcmmParams(), 10, 3600, seed=9)
    b = generate_hcmm(HcmmParams(), 10, 3600, seed=9)
    assert np.array_equal(a.positions, b.positions)


# sha256 of the positions' bytes, recorded from the generator that drew each
# value with its own numpy call (rng.uniform, rng.choice, rng.random).
HCMM_DIGESTS = {
    "rewire-0": (HcmmParams(rewiring_p=0.0), 12, 7200.0, 21,
                 "566e099a40e333947af4c2eb075796b1bd890555cc68459e6a8c6d077bf8fe06"),
    "rewire-0.1": (HcmmParams(rewiring_p=0.1), 12, 7200.0, 22,
                   "3b0f886beb98150d5dcf745c3458b86a0e4463084ab542b3bce5eda30ad016d8"),
    "rewire-0.5": (HcmmParams(rewiring_p=0.5), 12, 7200.0, 23,
                   "a28af25a0ffe2b442370afccd3c0441d1cc25e587fe3619fcab5ce7b76596c87"),
    "rewire-1": (HcmmParams(rewiring_p=1.0), 12, 7200.0, 24,
                 "baf75fa30a7294776169907d1a86010b1310eb1e9fffd544921938a34a8234f0"),
    "grid-1x1": (HcmmParams(grid=(1, 1)), 6, 7200.0, 25,
                 "1743a81d110734525beb63cca2023332d66b7f4f9e98c143f02747f360e0adcc"),
    # 8 nodes in 6 cells: four nodes alone at home, without links.
    "grid-3x2": (HcmmParams(grid=(3, 2), rewiring_p=0.3), 8, 7200.0, 26,
                 "7e39f444efc05ed3cdbea50dbdf51023f62a3a931a5912bfa6d6e29ca3c1c756"),
    "non-square": (HcmmParams(area=(1000.0, 300.0), rewiring_p=0.2), 10, 7200.0, 27,
                   "fd5a16a701bb2c2401049f638fa0285839c7ee765a3a789bf17e51932aa22fd9"),
    "uneven-homes": (HcmmParams(rewiring_p=0.2), 13, 7200.0, 28,
                     "ff8688e75f4f15bcf462cd0abf3e84cbca903b0a5db82547dcd2cafde03757fa"),
    "zero-duration": (HcmmParams(), 12, 0.0, 29,
                      "a41e0883cab55612cec000d737e322f032ed67c06a997cb414ecefd0394300ad"),
    "off-grid-duration": (HcmmParams(), 12, 7210.0, 30,
                          "8974030275fd05b608f9c33b3438258f0593adb4a4a630cb12e6b77e48bf62f2"),
    # Travel times from math.hypot instead of np.hypot move this trace.
    "hypot-rounding": (HcmmParams(), 12, 7200.0, 2,
                       "29bf8f3122968c47f0d1210eefaefae9ec5cd37403257af32cf7ee2be46e9467"),
}


@pytest.mark.parametrize("params, n, duration, seed, digest", HCMM_DIGESTS.values(),
                         ids=HCMM_DIGESTS.keys())
def test_hcmm_positions_pinned(params, n, duration, seed, digest):
    trace = generate_hcmm(params, n, duration, seed=seed)
    assert hashlib.sha256(trace.positions.tobytes()).hexdigest() == digest


weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=9).filter(any)


@settings(max_examples=150, deadline=None)
@given(w=weights, seed=st.integers(0, 2**32 - 1))
@example(w=[0.0, 0.0, 2.5, 0.0], seed=0)
@example(w=[1.0, 0.0, 0.0, 1.0, 0.0], seed=1)
def test_choice_cdf_replays_generator_choice(w, seed):
    # HCMM picks goal communities by bisect_right into choice_cdf instead of
    # rng.choice; a numpy release that changes Generator.choice fails here.
    w = np.asarray(w)
    p = w / w.sum()
    cdf = choice_cdf(p)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        assert bisect_right(cdf, rng_a.random()) == rng_b.choice(len(w), p=p)


doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None)
@given(dx=doubles, dy=doubles)
@example(dx=0.0, dy=-0.0)
@example(dx=-0.0, dy=-0.0)
@example(dx=5e-324, dy=-5e-324)
@example(dx=2.2250738585072014e-308, dy=1e-310)
@example(dx=1e308, dy=1e308)
@example(dx=-1.7976931348623157e308, dy=0.0)
@example(dx=1.7976931348623157e308, dy=1.7976931348623157e308)
@example(dx=1e300, dy=1e-300)
def test_complex_abs_is_numpys_hypot(dx, dy):
    # HCMM and SLAW time a trip as abs(complex(dx, dy)), and their pinned
    # positions hold only while that rounds as np.hypot does: both call libm's
    # hypot.  Where hypot overflows, numpy returns inf and complex abs raises.
    with np.errstate(over="ignore"):
        want = float(np.hypot(dx, dy))
    if want == math.inf:
        with pytest.raises(OverflowError):
            abs(complex(dx, dy))
    else:
        assert abs(complex(dx, dy)).hex() == want.hex()


# -- trace CSV round trip ------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    trace = generate_levy(LevyWalkParams(), 20, 1800, seed=1)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    again = load_trace_csv(path)
    assert again.n_nodes == trace.n_nodes
    assert again.sample_interval == trace.sample_interval
    assert np.allclose(again.positions, trace.positions, atol=1e-3)


TRACE_HEAD = "# interval=30.0 width=100.0 height=100.0\ntime_s,node_id,x_m,y_m\n"


def write_trace(tmp_path, rows, head=TRACE_HEAD):
    path = tmp_path / "trace.csv"
    path.write_text(head + "".join(row + "\n" for row in rows))
    return path


@pytest.mark.parametrize("bad, message", [
    ("30.0,-1,9,9", r"line 5: node_id must be nonnegative, got -1"),
    ("-30.0,0,7,7", r"line 5: time_s must be nonnegative, got -30.0"),
    ("nan,0,7,7", r"line 5: time_s must be nonnegative, got nan"),
    ("30.0,1,5,6", r"line 5: node 1 already has sample 1 \(line 4\)"),
    ("60.0,1,5", r"line 5: expected time_s,node_id,x_m,y_m, got '60.0,1,5'"),
    ("60.0,1.5,5,6", r"line 5: expected time_s,node_id,x_m,y_m"),
])
def test_trace_csv_rejects_malformed_rows(tmp_path, bad, message):
    # Negative ids and times used to wrap into other nodes' or samples'
    # slots, and a repeated (node, sample) silently replaced the first.
    path = write_trace(tmp_path, ["0.0,0,1,2", "30.0,1,5,6", bad, "60.0,0,1,1"])
    with pytest.raises(ValueError, match=message):
        load_trace_csv(path)


@pytest.mark.parametrize("time_s", ["44.0", "45.0", "29.9"])
def test_trace_csv_rejects_a_time_off_the_sample_grid(tmp_path, time_s):
    # Such a time used to be moved silently to the nearest sample.
    path = write_trace(tmp_path, ["0.0,0,1,2", "30.0,1,5,6", f"{time_s},0,7,7"])
    with pytest.raises(ValueError, match=f"line 5: time_s {time_s} is off the 30.0 s sample grid"):
        load_trace_csv(path)


def test_trace_csv_rejects_a_time_between_fine_samples(tmp_path):
    # Half-way between 0.05 s samples 2 and 3, within the 0.05 s that one
    # decimal place may round: it used to load as sample 2.
    head = "# interval=0.05 width=100.0 height=100.0\ntime_s,node_id,x_m,y_m\n"
    path = write_trace(tmp_path, ["0.0,0,1,2", "0.05,0,5,6", "0.125,0,7,7"], head=head)
    with pytest.raises(ValueError, match="line 5: time_s 0.125 is off the 0.05 s sample grid"):
        load_trace_csv(path)


def test_trace_csv_round_trip_below_the_written_resolution(tmp_path):
    # At a 0.25 s interval the times are written with two decimal places;
    # the loader also allows the 0.05 s rounding of one decimal place.
    pos = np.round(np.random.default_rng(3).uniform(0, 100, size=(3, 41, 2)), 3)
    pos[1, 7] = np.nan
    trace = PositionTrace(pos, 0.25, 100.0, 100.0)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    again = load_trace_csv(path)
    assert again.sample_interval == 0.25 and again.n_samples == 41
    assert np.array_equal(again.positions, trace.positions, equal_nan=True)


@pytest.mark.parametrize("interval, times", [
    (0.05, ["0.00", "0.05", "0.10", "0.15", "0.20"]),
    (30.0, ["0.0", "30.0", "60.0", "90.0", "120.0"]),
])
def test_trace_csv_writes_times_that_name_their_sample(tmp_path, interval, times):
    # Written with one decimal place, 0.05 s samples 1 and 2 both read 0.1,
    # and the loader refused the file: "node 0 already has sample 2".
    pos = np.round(np.random.default_rng(5).uniform(0, 100, size=(1, 5, 2)), 3)
    trace = PositionTrace(pos, interval, 100.0, 100.0)
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    assert [line.split(",")[0] for line in path.read_text().splitlines()[2:]] == times
    again = load_trace_csv(path)
    assert again.sample_interval == interval and again.n_samples == 5
    assert np.array_equal(again.positions, trace.positions)


@pytest.mark.parametrize("interval", ["0", "-30.0", "nan"])
def test_trace_csv_rejects_a_nonpositive_interval(tmp_path, interval):
    path = write_trace(tmp_path, ["0.0,0,1,2"], head=f"# interval={interval}\n")
    with pytest.raises(ValueError, match="interval must be positive"):
        load_trace_csv(path)


def test_trace_csv_names_the_file_and_line_of_a_malformed_header(tmp_path):
    path = write_trace(tmp_path, ["0.0,0,1,2"], head="# interval=30.0 width=wide\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 1: cannot read width='wide' as float$"):
        load_trace_csv(path)


# -- GPS ingestion --------------------------------------------------------------

def _write_fair_logs(tmp_path, users=9, days=2):
    # Synthetic multi-day logs in the style of a GPS field collection:
    # per-user fixes every 30 s, several users per day.
    path = tmp_path / "fair.csv"
    rows = ["user,time,x,y"]
    rng = np.random.default_rng(0)
    for day in range(days):
        day_base = day * 86400 + 36000
        for u in range(users):
            x, y = rng.uniform(0, 500, size=2)
            for k in range(0, 240):
                t = day_base + k * 30
                x += rng.normal(0, 5)
                y += rng.normal(0, 5)
                rows.append(f"u{u},{t},{x:.1f},{y:.1f}")
    path.write_text("\n".join(rows) + "\n")
    return [str(path)]


def test_gps_multiday_split_yields_user_days(tmp_path):
    files = _write_fair_logs(tmp_path, users=9, days=2)
    trace = ingest_gps_log(files, truncate_to=5400.0, split_multiday=True)
    assert trace.n_nodes == 18
    assert trace.sample_interval == 30.0


def test_gps_without_split_keeps_users(tmp_path):
    files = _write_fair_logs(tmp_path, users=9, days=2)
    trace = ingest_gps_log(files, truncate_to=5400.0, split_multiday=False)
    assert trace.n_nodes == 9


def test_gps_single_sample(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("user,time,x,y\nalice,1000,50,60\n")
    trace = ingest_gps_log([str(path)], truncate_to=600.0)
    assert trace.n_nodes == 1
    finite = np.isfinite(trace.positions[0, :, 0])
    assert finite.sum() == 1


def test_gps_linear_interpolation_midpoint(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("user,time,x,y\nu,0,0,0\nu,60,60,30\n")
    trace = ingest_gps_log([str(path)], truncate_to=600.0)
    assert np.allclose(trace.positions[0, 1], (30.0, 15.0))


def test_gps_gap_breaks_interpolation(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("user,time,x,y\nu,0,0,0\nu,30,10,0\nu,2000,20,0\n")
    trace = ingest_gps_log([str(path)], truncate_to=3600.0, max_gap=600.0)
    # Samples inside the 30..2000 gap are absent.
    assert np.isnan(trace.positions[0, 10, 0])


def test_gps_reports_bad_rows_with_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,time,x,y\nu,0,0,0\nu,notatime,1,1\n")
    with pytest.raises(ValueError) as err:
        ingest_gps_log([str(path)])
    assert ":3:" in str(err.value)


def test_gps_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("user,time,x,y\n")
    with pytest.raises(ValueError):
        ingest_gps_log([str(path)])
