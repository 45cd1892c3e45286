import math
import re
import tracemalloc

import numpy as np
import pytest

from oppcompose.contact_engine import (
    EVENT_DTYPE,
    ContactTrace,
    contacts_from_positions,
    load_contacts_csv,
    save_contacts_csv,
)
from oppcompose import contact_engine
from oppcompose.mobility import LevyWalkParams, PositionTrace, generate_levy

from contact_reference import (GRID_THRESHOLD, contact_sequence_oracle, contacts_per_sample,
                               relay_cost_oracle)


def make_trace(positions, interval=30.0, width=1000.0, height=1000.0):
    return PositionTrace(np.asarray(positions, dtype=float), interval, width, height)


def test_stationary_pair_in_range_single_event():
    # Two nodes 50 m apart for 600 s at 30 s sampling.
    n_samples = 21
    pos = np.zeros((2, n_samples, 2))
    pos[1, :, 0] = 50.0
    contacts = contacts_from_positions(make_trace(pos), 100.0)
    assert len(contacts.events) == 1
    start, end, _, _ = contacts.events[0].tolist()
    assert (start, end) == (0.0, 600.0)


def test_stationary_pair_out_of_range_no_events():
    pos = np.zeros((2, 21, 2))
    pos[1, :, 0] = 150.0
    contacts = contacts_from_positions(make_trace(pos), 100.0)
    assert len(contacts.events) == 0


def test_crossing_nodes_three_samples_in_range():
    # Node 1 fixed at x=0; node 0 moves along x from -250 at 60 m per
    # sample: in range (<=100) at samples 3,4,5 only (x=-70, -10, +50).
    n_samples = 10
    pos = np.zeros((2, n_samples, 2))
    pos[0, :, 0] = -250.0 + 60.0 * np.arange(n_samples)
    contacts = contacts_from_positions(PositionTrace(pos, 30.0, 1000.0, 1000.0), 100.0)
    assert len(contacts.events) == 1
    start, end, _, _ = contacts.events[0].tolist()
    assert start == 90.0 and end == 150.0
    assert end - start == 2 * 30.0


def test_single_sample_contact_is_dropped():
    # In range at exactly one sample: no usable window at this resolution.
    pos = np.zeros((2, 5, 2))
    pos[0, :, 0] = [-300.0, -150.0, 0.0, 150.0, 300.0]
    pos[1, :, 0] = 0.0
    contacts = contacts_from_positions(make_trace(pos), 100.0)
    assert len(contacts.events) == 0


def test_in_contact_queries_match_position_oracle():
    params = LevyWalkParams(area=(300.0, 300.0), speed_classes=((5, (1.0, 1.0)), (5, (10.0, 10.0))))
    trace = generate_levy(params, 10, 3600, seed=8)
    contacts = contacts_from_positions(trace, 100.0)
    times = trace.sample_times()
    for ti in range(0, trace.n_samples, 7):
        pos = trace.positions[:, ti, :]
        for a in range(10):
            for b in range(a + 1, 10):
                dist = float(np.linalg.norm(pos[a] - pos[b]))
                expected = dist <= 100.0
                got = contacts.in_contact(a, b, times[ti])
                if expected != got:
                    # Single-sample runs are dropped; only those may differ.
                    assert expected and not got
                assert contacts.in_contact(a, b, times[ti]) == contacts.in_contact(b, a, times[ti])


def test_in_contact_between_events_false():
    events = [(0.0, 60.0, 0, 1), (300.0, 360.0, 0, 1)]
    trace = ContactTrace(events, 2, 600.0)
    assert trace.in_contact(0, 1, 30.0)
    assert not trace.in_contact(0, 1, 120.0)
    assert trace.in_contact(1, 0, 330.0)


def test_events_maximal_no_overlap():
    with pytest.raises(ValueError):
        ContactTrace([(0.0, 60.0, 0, 1), (60.0, 120.0, 0, 1)], 2, 600.0)


@pytest.mark.parametrize("row", [(0.0, 60.0, -1, 2), (0.0, 60.0, 2, -1), (0.0, 60.0, 0, 3),
                                 (0.0, 60.0, 5, 1), (0.0, 60.0, 1, 1), (60.0, 60.0, 0, 1)])
def test_invalid_rows_rejected(row):
    # Ids outside [0, n_nodes) would alias other nodes in the engine's arrays.
    with pytest.raises(ValueError):
        ContactTrace([(0.0, 30.0, 0, 1), row], 3, 600.0)


def test_a_contact_starting_before_zero_is_rejected(tmp_path):
    # Both used to be accepted; load_trace_csv already refused negative times.
    with pytest.raises(ValueError, match=r"contact \(-60.0, 30.0, 1, 2\) starts before 0"):
        ContactTrace([(-60.0, 30.0, 1, 2)], 3, 600.0)
    path = tmp_path / "contacts.csv"
    path.write_text("node_a,node_b,start_s,end_s\n0,1,0.0,30.0\n2,1,-60.0,30.0\n")
    with pytest.raises(ValueError, match="starts before 0"):
        load_contacts_csv(path)


def test_rows_stored_sorted_with_lower_id_first():
    trace = ContactTrace([(90.0, 120.0, 2, 0), (0.0, 60.0, 1, 2), (0.0, 30.0, 0, 2),
                          (0.0, 30.0, 1, 0)], 3, 600.0)
    assert trace.events.tolist() == [(0.0, 30.0, 0, 1), (0.0, 30.0, 0, 2), (0.0, 60.0, 1, 2),
                                     (90.0, 120.0, 0, 2)]


def wandering_trace(n, n_samples, seed, gap_frac=0.05):
    """Random walks in a small box, with NaN gaps: runs of every length."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, 300, size=(n, 1, 2)) + rng.normal(0, 25, size=(n, n_samples, 2)).cumsum(axis=1)
    pos[rng.random((n, n_samples)) < gap_frac] = np.nan
    return make_trace(pos, width=300.0, height=300.0)


def edge_case_trace():
    """Pairs at exactly the range, a single-sample run, a NaN gap splitting a
    run, runs still open at the last sample and a node never present."""
    pos = np.zeros((5, 9, 2))
    pos[1, :, 0] = [150, 100, 100, 100, 150, 100, 150, 100, 100]  # 100 m from node 0 or not
    pos[2] = [0.0, 300.0]
    pos[3] = [60.0, 380.0]  # 100 m from node 2: a 60-80-100 triangle
    pos[3, 4] = np.nan
    pos[4] = np.nan
    return make_trace(pos)


@pytest.mark.parametrize("n, seed", [(3, 0), (12, 1), (GRID_THRESHOLD, 2), (GRID_THRESHOLD + 6, 3)])
def test_streamed_extraction_matches_per_sample_reference(n, seed):
    # Up to GRID_THRESHOLD nodes the reference scans all pairs, above it a grid.
    trace = wandering_trace(n, 240, seed)
    expected = contacts_per_sample(trace, 60.0).events
    assert len(expected) and np.array_equal(contacts_from_positions(trace, 60.0).events, expected)


def test_edge_cases_match_per_sample_reference():
    trace = edge_case_trace()
    got = contacts_from_positions(trace, 100.0).events
    assert np.array_equal(got, contacts_per_sample(trace, 100.0).events)
    assert [e for e in got.tolist() if e[2] == 0] == [(30.0, 90.0, 0, 1), (210.0, 240.0, 0, 1)]
    assert [(s, e) for s, e, a, b in got.tolist() if (a, b) == (2, 3)] == [
        (0.0, 90.0), (150.0, 240.0)]


def row_end_runs_trace():
    """Around node 0, runs at the ends of the pairs' rows: one sample at the
    last (0, 1) and the first (0, 2), one-sample pieces cut by NaN gaps
    around a two-sample run (0, 3), and two-sample runs at both ends (0, 4).
    A block lays its pairs' rows end to end."""
    pos = np.zeros((5, 6, 2))
    pos[1:, :, 0] = [[500, 500, 500, 500, 500, 50], [50, 500, 500, 500, 500, 500],
                     [50, np.nan, 50, 50, np.nan, 50], [50, 50, 500, 500, 50, 50]]
    pos[1:, :, 1] = np.arange(1, 5)[:, None] * 7.0
    return make_trace(pos)


def test_infinite_and_overflowing_positions_are_out_of_range():
    # inf - inf is NaN and 1e200**2 overflows; neither is in range, and
    # neither warns (the suite turns warnings into errors).
    pos = np.zeros((3, 6, 2))
    pos[0, 2] = pos[1, 2] = np.inf
    pos[2, 3] = 1e200
    pos[1, 4] = np.nan
    got = contacts_from_positions(make_trace(pos), 100.0).events.tolist()
    assert got == [(0.0, 30.0, 0, 1), (0.0, 30.0, 0, 2), (0.0, 30.0, 1, 2), (120.0, 150.0, 0, 2)]


@pytest.mark.parametrize("pairs_per_block", [1, 2, 3])
def test_runs_spanning_block_edges(pairs_per_block, monkeypatch):
    for trace, range_m in ((wandering_trace(10, 60, 4), 60.0), (edge_case_trace(), 100.0),
                           (row_end_runs_trace(), 100.0)):
        monkeypatch.setattr(contact_engine, "BLOCK_PAIR_SAMPLES", pairs_per_block * trace.n_samples)
        monkeypatch.setattr(contact_engine, "CHUNK_BLOCKS", 2)  # chunks, and blocks left over
        expected = contacts_per_sample(trace, range_m).events
        assert np.array_equal(contacts_from_positions(trace, range_m).events, expected)


def test_contact_trace_leaves_the_callers_rows_as_given():
    rows = [(90.0, 120.0, 2, 0), (0.0, 60.0, 1, 2), (0.0, 30.0, 1, 0)]
    given = np.array(rows, dtype=EVENT_DTYPE)
    for source in (list(rows), given):
        trace = ContactTrace(source, 3, 600.0)
        assert trace.events.tolist() == [(0.0, 30.0, 0, 1), (0.0, 60.0, 1, 2),
                                         (90.0, 120.0, 0, 2)]
        assert not np.shares_memory(trace.events, given)
    assert given.tolist() == rows == [(90.0, 120.0, 2, 0), (0.0, 60.0, 1, 2), (0.0, 30.0, 1, 0)]


def test_extraction_peaks_under_three_times_its_events():
    # With the block arrays, the pair tables and two copies of the events
    # alive at once, an extraction peaks near 6.6 times its events here.
    trace = wandering_trace(150, 120, 7)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        events = contacts_from_positions(trace, 100.0).events
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(events) > 15_000 and peak <= 3 * events.nbytes


@pytest.mark.parametrize("shape", [(1, 20), (4, 1), (0, 20)], ids=["one-node", "one-sample",
                                                                  "no-nodes"])
def test_extraction_without_pairs_or_runs_finds_no_events(shape):
    # No pair or a single sample: no block, or blocks without a usable run.
    trace = make_trace(np.zeros(shape + (2,)))
    contacts = contacts_from_positions(trace, 100.0)
    assert contacts.events.dtype == contact_engine.EVENT_DTYPE and len(contacts.events) == 0
    assert contacts.n_nodes == shape[0]


def test_oracle_zero_when_in_contact():
    trace = ContactTrace([(0.0, 120.0, 0, 1)], 2, 600.0)
    assert contact_sequence_oracle(trace, 0, 1, 60.0) == 0.0


def test_oracle_infinite_without_contacts():
    trace = ContactTrace([], 3, 600.0)
    assert contact_sequence_oracle(trace, 0, 2, 500.0) == math.inf


def test_oracle_three_node_relay_chain():
    # a-b contact ending at t=100, b-c ending at t=200: information
    # leaving a at 100 reaches c at 200; queried at t=300 the most recent
    # such departure is 100, so 200 s have elapsed.
    trace = ContactTrace(
        [(70.0, 100.0, 0, 1), (170.0, 200.0, 1, 2)], 3, 600.0)
    assert contact_sequence_oracle(trace, 0, 2, 300.0) == 200.0
    # The reverse direction has no valid ordering (b-c before a-b).
    assert contact_sequence_oracle(trace, 2, 0, 300.0) == math.inf


def test_oracle_self_distance_zero():
    trace = ContactTrace([], 2, 600.0)
    assert contact_sequence_oracle(trace, 1, 1, 100.0) == 0.0


def test_oracle_monotone_under_added_contacts():
    rng = np.random.default_rng(11)
    base_events = []
    t = 0.0
    for _ in range(12):
        t += float(rng.integers(1, 5)) * 30.0
        a, b = rng.choice(5, size=2, replace=False)
        base_events.append((t, t + 30.0, int(min(a, b)), int(max(a, b))))
    extra = (t + 60.0, t + 90.0, 0, 4)
    small = ContactTrace(base_events, 5, t + 200.0)
    big = ContactTrace(base_events + [extra], 5, t + 200.0)
    for s in range(5):
        for d in range(5):
            assert (contact_sequence_oracle(big, s, d, t + 150.0)
                    <= contact_sequence_oracle(small, s, d, t + 150.0))


def test_relay_cost_oracle_reduces_to_plain_oracle():
    trace = ContactTrace(
        [(70.0, 100.0, 0, 1), (170.0, 200.0, 1, 2)], 3, 600.0)
    assert relay_cost_oracle(trace, 0, 2, 300.0, 0.0) == contact_sequence_oracle(trace, 0, 2, 300.0)


def test_relay_cost_oracle_charges_hops():
    trace = ContactTrace(
        [(70.0, 100.0, 0, 1), (170.0, 200.0, 1, 2)], 3, 600.0)
    # Two transfers (a->b, b->c): elapsed 200 plus 2 hops at 15 s each.
    assert relay_cost_oracle(trace, 0, 2, 300.0, 15.0) == 230.0


def test_relay_cost_oracle_prefers_fewer_hops_when_cheaper():
    # Direct late contact vs an earlier 2-hop chain: with a large hop cost
    # the single-hop route wins even though its elapsed time is longer.
    events = [
        (10.0, 40.0, 0, 1),
        (50.0, 80.0, 1, 2),
        (100.0, 130.0, 0, 2),
    ]
    trace = ContactTrace(events, 3, 600.0)
    t = 200.0
    assert relay_cost_oracle(trace, 0, 2, t, 0.0) == t - 130.0
    assert relay_cost_oracle(trace, 0, 2, t, 1000.0) == (t - 130.0) + 1000.0


def test_contacts_csv_round_trip(tmp_path):
    params = LevyWalkParams(area=(400.0, 400.0), speed_classes=((5, (1.0, 1.0)), (5, (10.0, 10.0))))
    trace = generate_levy(params, 10, 3600, seed=2)
    contacts = contacts_from_positions(trace, 100.0)
    path = tmp_path / "contacts.csv"
    save_contacts_csv(contacts, path)
    again = load_contacts_csv(path)
    assert again.n_nodes == contacts.n_nodes
    assert len(again.events) == len(contacts.events)
    assert np.array_equal(again.events, contacts.events)


def test_contacts_csv_round_trip_at_a_twentieth_of_a_second(tmp_path):
    # Written with one decimal place, the contact from 0.05 to 0.1 s read
    # "0.1,0.1", and the loader refused it as not start < end.
    x = [500.0, 50.0, 50.0, 500.0, 500.0, 50.0, 50.0, 500.0]
    pos = np.zeros((2, len(x), 2))
    pos[1, :, 0] = x
    contacts = contacts_from_positions(PositionTrace(pos, 0.05, 600.0, 600.0), 100.0)
    path = tmp_path / "contacts.csv"
    save_contacts_csv(contacts, path)
    assert path.read_text().splitlines()[2:] == ["0,1,0.05,0.10", "0,1,0.25,0.30"]
    again = load_contacts_csv(path)
    assert again.events[["a", "b"]].tolist() == contacts.events[["a", "b"]].tolist()
    for name in ("start", "end"):
        assert np.array_equal(np.round(again.events[name] / 0.05), [[1, 5], [2, 6]][name == "end"])
        assert np.allclose(again.events[name], contacts.events[name], rtol=0, atol=1e-12)


@pytest.mark.parametrize("interval", ["0", "0.0", "-30.0"])
def test_contacts_csv_rejects_a_nonpositive_interval(tmp_path, interval):
    # An explicit interval of 0 used to be read as the 30 s default.
    path = tmp_path / "contacts.csv"
    path.write_text(f"# nodes=3 duration=600.0 interval={interval}\n"
                    "node_a,node_b,start_s,end_s\n0,1,0.0,30.0\n")
    with pytest.raises(ValueError, match=f"interval must be positive, got {float(interval)}"):
        load_contacts_csv(path)


@pytest.mark.parametrize("head, message", [
    ("# nodes=x duration=600.0", r"line 1: cannot read nodes='x' as int"),
    ("# nodes=3\n# interval=abc", r"line 2: cannot read interval='abc' as float"),
])
def test_contacts_csv_names_the_file_and_line_of_a_malformed_header(tmp_path, head, message):
    # A bare int() or float() raised "invalid literal …", naming no file.
    path = tmp_path / "contacts.csv"
    path.write_text(f"{head}\nnode_a,node_b,start_s,end_s\n0,1,0.0,30.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {message}$"):
        load_contacts_csv(path)


@pytest.mark.parametrize("duration, message", [
    ("nan", "duration must be finite and >= 0, got nan"),
    ("inf", "duration must be finite and >= 0, got inf"),
    ("-5", "duration must be finite and >= 0, got -5.0"),
    ("10", "duration=10.0 ends before a contact ending at 30.0"),
])
def test_contacts_csv_rejects_a_duration_no_run_can_use(tmp_path, duration, message):
    # Each loaded; a run over nan or inf then failed naming neither file nor key.
    path = tmp_path / "contacts.csv"
    path.write_text(f"# nodes=3 duration={duration} interval=30.0\n"
                    "node_a,node_b,start_s,end_s\n0,1,0.0,30.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_contacts_csv(path)


def test_contacts_csv_header_is_optional(tmp_path):
    path = tmp_path / "contacts.csv"
    path.write_text("node_a,node_b,start_s,end_s\n2,0,60.0,90.0\n\n0,1,0.0,30.0\n")
    contacts = load_contacts_csv(path)
    assert (contacts.n_nodes, contacts.duration, contacts.sample_interval) == (3, 90.0, 30.0)
    assert contacts.events.tolist() == [(0.0, 30.0, 0, 1), (60.0, 90.0, 0, 2)]


@pytest.mark.parametrize("row", ["0,1,0.0", "0,1,0.0,60.0,9", "0,b,0.0,60.0", "0,1,0.0,1e"])
def test_contacts_csv_names_the_line_of_a_malformed_row(tmp_path, row):
    path = tmp_path / "contacts.csv"
    path.write_text(f"# nodes=3 duration=600.0 interval=30.0\nnode_a,node_b,start_s,end_s\n"
                    f"0,1,0.0,30.0\n\n{row}\n")
    with pytest.raises(ValueError, match=f"line 5: expected node_a,node_b,start_s,end_s, "
                                         f"got '{row}'"):
        load_contacts_csv(path)


def test_contacts_csv_rejects_ids_outside_the_header_count(tmp_path):
    path = tmp_path / "contacts.csv"
    for row in ("0,5,0.0,60.0", "-1,2,0.0,60.0"):
        path.write_text(f"# nodes=3 duration=600.0 interval=30.0\nnode_a,node_b,start_s,end_s\n"
                        f"0,1,0.0,30.0\n{row}\n")
        with pytest.raises(ValueError, match=r"in \[0, 3\)"):
            load_contacts_csv(path)
