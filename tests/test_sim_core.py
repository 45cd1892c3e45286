import gc
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oppcompose import sim_core
from oppcompose.contact_engine import (ContactTrace, contacts_from_positions, load_contacts_csv,
                                      save_contacts_csv)
from oppcompose.forwarding import SCHEMES, should_relay
from oppcompose.mobility import LevyWalkParams, generate_levy
from oppcompose.service_model import Service, enumerate_services, assign_services
from oppcompose.sim_core import (
    _Engine,
    RequestPattern,
    RequestRecord,
    SimConfig,
    read_records_csv,
    run,
    write_records_csv,
)
from contact_reference import boundary_pairs
from scripted import run_scripted, scripted_engine


def small_catalog():
    return enumerate_services(4)


def placement_of(assignments):
    from oppcompose.service_model import ServicePlacement

    by_node = {n: tuple(sorted(s)) for n, s in assignments.items()}
    inv = {}
    for n, svcs in by_node.items():
        for s in svcs:
            inv.setdefault(s, []).append(n)
    return ServicePlacement(by_node=by_node,
                            by_service={s: tuple(sorted(v)) for s, v in inv.items()},
                            repetition=1)


def path_hosts(path):
    return tuple(n for _, n in path.stages)


def stage_list(rec):
    """A record's stages text parsed: one (service, node, opportunistic) per stage."""
    stages = []
    for text in filter(None, rec["stages"].split("|")):
        service, node = text.rstrip("*").split("@")
        req_in, req_out = service.split("-")
        stages.append((Service(int(req_in), int(req_out)), int(node), text.endswith("*")))
    return stages


def full_contact_trace(n, duration):
    events = [(0.0, duration, a, b) for a in range(n) for b in range(a + 1, n)]
    return ContactTrace(events, n, duration)


def no_contact_trace(n, duration):
    return ContactTrace([], n, duration)


def default_config(**kw):
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    rng = np.random.default_rng(99)
    placement = assign_services(catalog, list(range(20)), 2, rng)
    pattern = RequestPattern.min_functionality(catalog, 4)
    base = dict(catalog=catalog, placement=placement, pattern=pattern, seed=3)
    base.update(kw)
    return SimConfig(**base)


def levy_contacts(seed=3, area=500.0, duration=18000.0):
    params = LevyWalkParams(area=(area, area))
    return contacts_from_positions(generate_levy(params, 20, duration, seed=seed), 100.0)


# -- patterns -----------------------------------------------------------------

def test_pattern_min_k_enumeration():
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    pattern = RequestPattern.min_functionality(catalog, 4)
    assert set(pattern.pairs) == {(1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (3, 7)}


def test_pattern_fixed_length_ring():
    catalog = enumerate_services(20, ring=True)
    pattern = RequestPattern.fixed_length(catalog, 2)
    assert (1, 3) in pattern.pairs and (19, 1) in pattern.pairs
    assert len(pattern.pairs) == 20


def test_pattern_rejects_empty():
    with pytest.raises(ValueError):
        RequestPattern(pairs=())


def test_pattern_rejects_a_pair_that_keeps_its_type():
    # compute_path finds no composition for such a pair, so none completes.
    with pytest.raises(ValueError, match="request pairs must change the type"):
        RequestPattern(pairs=((1, 2), (3, 3)))


@pytest.mark.parametrize("weights", [{1: -1.0}, {1: math.nan}, {1: math.inf},
                                     {x: 0.0 for x in range(1, 21)}])
def test_pattern_rejects_weights_it_cannot_draw_from(weights):
    # These failed only at the first draw, mid-run, in numpy's choice.
    catalog = enumerate_services(20, ring=True)
    with pytest.raises(ValueError, match="weights must be finite, nonnegative and not all zero"):
        RequestPattern.fixed_length(catalog, 2, start_weights=weights)


@pytest.mark.parametrize("weights", [{25: 3.0, 0: 2.0}, {"25": 3.0, "0": 2.0, "3": 2.0}])
def test_pattern_rejects_start_weights_for_no_type(weights):
    # On fig14's 20-type ring these keys name no input type, and every
    # weight stayed 1.0, so a typo drew requests uniformly.
    catalog = enumerate_services(20, ring=True)
    with pytest.raises(ValueError, match=r"start_weights keys \[0, 25\] are not types 1..20"):
        RequestPattern.fixed_length(catalog, 2, start_weights=weights)


def test_weighted_draws_match_per_draw_normalisation():
    # The weights are normalised once, at construction; a seeded generator
    # must draw what normalising on every draw drew.
    catalog = enumerate_services(20, ring=True)
    pattern = RequestPattern.fixed_length(
        catalog, 2, start_weights={x: (3.0 if x <= 10 else 1.0) for x in range(1, 21)})
    w = np.asarray(pattern.weights, dtype=float)
    ours, theirs = np.random.default_rng(42), np.random.default_rng(42)
    for _ in range(500):
        expected = pattern.pairs[int(theirs.choice(len(pattern.pairs), p=w / w.sum()))]
        assert pattern.draw(ours) == expected


def test_expected_request_volume():
    # 0.4/min over 20 nodes for the generation window of a 10 h trace.
    cfg = default_config()
    contacts = no_contact_trace(20, 36000.0)
    records = run(cfg, contacts)
    window_min = (36000.0 - cfg.timeout_s) / 60.0
    expected = 0.4 * 20 * window_min
    assert abs(len(records) - expected) / expected < 0.1


def test_zero_rate_zero_records():
    cfg = default_config(request_rate_per_min=0.0)
    records = run(cfg, no_contact_trace(20, 3600.0))
    assert len(records) == 0


# Generation stops ``timeout_s`` before the end: with no time left a Poisson
# stream would write no record and the run would read as completion 0.

@pytest.mark.parametrize("timeout_s", [3600.0, 5000.0])
def test_poisson_stream_needs_time_before_its_timeout(timeout_s):
    contacts = no_contact_trace(20, 3600.0)
    with pytest.raises(ValueError, match=f"timeout_s {timeout_s} .* duration 3600.0"):
        run(default_config(timeout_s=timeout_s), contacts)
    # Scripted and empty streams do not generate on that clock.
    assert len(run_scripted(default_config(timeout_s=timeout_s), contacts, ((0.0, 0, 1, 5),))) == 1
    assert len(run(default_config(timeout_s=timeout_s, request_rate_per_min=0.0), contacts)) == 0
    run(default_config(timeout_s=3000.0), contacts)


# A NaN rate or timeout ran no request, and an infinite rate drew every gap
# as 0, so generation never left t=0.

@pytest.mark.parametrize("key, value", [
    ("request_rate_per_min", -0.5), ("request_rate_per_min", math.nan),
    ("request_rate_per_min", math.inf), ("timeout_s", 0.0), ("timeout_s", math.nan),
    ("timeout_s", math.inf), ("delay_warmup_s", -1.0), ("delay_warmup_s", math.nan),
    ("delay_warmup_s", math.inf),
])
def test_rate_timeout_and_warmup_must_be_finite(key, value):
    with pytest.raises(ValueError, match=key):
        run(default_config(**{key: value}), no_contact_trace(20, 3600.0))


# Knowledge parameters out of range would run to a silently wrong completion.

@pytest.mark.parametrize("t_av", [0.0, -1.0, math.nan])
def test_t_av_must_be_positive(t_av):
    with pytest.raises(ValueError, match="t_av"):
        default_config(t_av=t_av).validate()


@pytest.mark.parametrize("unit_s", [0.0, -30.0])
def test_unit_s_must_be_positive(unit_s):
    with pytest.raises(ValueError, match="unit_s"):
        run(default_config(unit_s=unit_s), no_contact_trace(20, 3600.0))


# An infinite unit or mean execution time ran silently (the latter completing
# no request), and an infinite t_av ended in OverflowError.

@pytest.mark.parametrize("key", ["unit_s", "mean_exec_s", "t_av"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_unit_exec_time_and_t_av_must_be_finite(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        run(default_config(**{key: value}), no_contact_trace(20, 3600.0))


# A negative mean execution time runs the event heap backwards in time, and
# either value makes loads, and so edge costs under Dijkstra, negative.

@pytest.mark.parametrize("mean_exec_s", [-30.0, -1e-9, math.nan])
def test_mean_exec_must_be_nonnegative(mean_exec_s):
    with pytest.raises(ValueError, match="mean_exec_s"):
        default_config(mean_exec_s=mean_exec_s).validate()
    default_config(mean_exec_s=0.0).validate()


@pytest.mark.parametrize("load_alpha", [-0.25, 1.5, math.nan])
def test_load_alpha_must_lie_in_unit_interval(load_alpha):
    with pytest.raises(ValueError, match="load_alpha"):
        default_config(load_alpha=load_alpha).validate()
    for alpha in (0.0, 1.0):
        default_config(load_alpha=alpha).validate()


# -- local execution ------------------------------------------------------------

def test_local_exact_service_completes_with_zero_hops():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = ((60.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        seed=1,
    )
    records = run_scripted(cfg, no_contact_trace(1, 3600.0), script)
    rec = records[0]
    assert rec["status"] == "completed"
    assert rec["hops"] == 0
    assert stage_list(rec)[0][0] == Service(1, 4)
    assert rec["delay_s"] > 0


def test_deterministic_exec_time_exact():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = ((60.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        seed=1,
    )
    rec = run_scripted(cfg, no_contact_trace(1, 3600.0), script, fixed_exec=True)[0]
    assert rec["delay_s"] == 30.0


def test_fifo_queueing_two_simultaneous_requests():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = ((60.0, 0, 1, 4), (60.0, 0, 1, 4))
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        seed=1,
    )
    recs = sorted(run_scripted(cfg, no_contact_trace(1, 3600.0), script, fixed_exec=True),
                  key=lambda r: r["id"])
    assert recs[0]["delay_s"] == 30.0
    assert recs[1]["delay_s"] == 60.0  # waits for the first to finish


def test_exec_sampler_mean():
    # Single node, no contention: delays are raw execution samples.
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = tuple((600.0 * (k + 1), 0, 1, 4) for k in range(50))
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        timeout_s=590.0,
        seed=7,
    )
    recs = run_scripted(cfg, no_contact_trace(1, 40000.0), script)
    delays = [r["delay_s"] for r in recs if r["status"] == "completed"]
    assert len(delays) >= 45
    assert 20.0 < float(np.mean(delays)) < 40.0


# -- multi-stage over a fully connected static network ----------------------------

def test_fully_connected_chain_exact_delay():
    catalog = small_catalog()
    placement = placement_of({
        0: [],
        1: [Service(1, 2)],
        2: [Service(2, 3)],
        3: [Service(3, 4)],
    })
    script = ((300.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        awareness="perfect",
        seed=1,
    )
    records = run_scripted(cfg, full_contact_trace(4, 7200.0), script, fixed_exec=True)
    rec = records[0]
    assert rec["status"] == "completed"
    # Three stages, each 30 s, transfers instantaneous over live contacts.
    assert rec["delay_s"] == 90.0
    assert rec["hops"] >= 2
    assert [s.input for s, _, _ in stage_list(rec)] == [1, 2, 3]


def test_stage_advances_input_type():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 3)], 1: [Service(3, 4)]})
    script = ((60.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        awareness="perfect",
        seed=1,
    )
    rec = run_scripted(cfg, full_contact_trace(2, 3600.0), script, fixed_exec=True)[0]
    assert rec["status"] == "completed"
    assert [(s.input, s.output) for s, _, _ in stage_list(rec)] == [(1, 3), (3, 4)]


# -- deadlines ----------------------------------------------------------------------

def test_unreachable_request_times_out():
    catalog = small_catalog()
    placement = placement_of({0: [], 1: [Service(1, 4)]})
    script = ((60.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        seed=1,
    )
    rec = run_scripted(cfg, no_contact_trace(2, 3600.0), script)[0]
    assert rec["status"] == "timed-out"
    assert rec["completed_s"] is None


def test_queued_requests_time_out_under_overload():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = tuple((60.0, 0, 1, 4) for _ in range(40))
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        timeout_s=300.0,
        seed=1,
    )
    records = run_scripted(cfg, no_contact_trace(1, 7200.0), script, fixed_exec=True)
    counts = Counter(rec["status"] for rec in records)
    assert counts["completed"] == 10  # 300 s window at 30 s per execution
    assert counts["timed-out"] == 30
    for rec in records:
        if rec["status"] == "completed":
            assert rec["completed_s"] <= rec["created_s"] + cfg.timeout_s


def test_result_in_transit_at_deadline_not_counted():
    # Provider meets the requester only after the deadline has passed.
    catalog = small_catalog()
    placement = placement_of({0: [], 1: [Service(1, 4)]})
    events = [(0.0, 30.0, 0, 1), (1500.0, 1560.0, 0, 1)]
    script = ((30.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        timeout_s=900.0,
        scheme="direct",
        seed=1,
    )
    records = run_scripted(cfg, ContactTrace(events, 2, 3600.0), script, fixed_exec=True)
    rec = records[0]
    assert rec["status"] == "timed-out"
    assert len(stage_list(rec)) == 1  # executed remotely, result never made it home


def test_result_routes_home_on_next_contact():
    catalog = small_catalog()
    placement = placement_of({0: [], 1: [Service(1, 4)]})
    events = [(0.0, 30.0, 0, 1), (600.0, 660.0, 0, 1)]
    script = ((30.0, 0, 1, 4),)
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scheme="direct",
        seed=1,
    )
    rec = run_scripted(cfg, ContactTrace(events, 2, 3600.0), script, fixed_exec=True)[0]
    assert rec["status"] == "completed"
    assert rec["completed_s"] == 600.0
    assert rec["hops"] == 2  # request out, result back


def test_remote_completion_needs_at_least_two_hops():
    cfg = default_config()
    records = run(cfg, levy_contacts())
    for rec in records:
        if rec["status"] != "completed":
            continue
        if any(node != rec["origin"] for _, node, _ in stage_list(rec)):
            assert rec["hops"] >= 2
        if rec["hops"] == 0:
            assert all(node == rec["origin"] for _, node, _ in stage_list(rec))


def test_stale_completion_of_a_cancelled_request_leaves_its_successor_running():
    # A starts at 60 s for 110 s and is cancelled at its 160 s deadline; B,
    # queued since 100 s, starts then for 30 s.  A's completion event still
    # fires at 170 s and must not end B's execution.
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = ((60.0, 0, 1, 4), (100.0, 0, 1, 4))
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        timeout_s=100.0,
        seed=1,
    )
    engine = scripted_engine(cfg, no_contact_trace(1, 3600.0), script)
    draws = iter([110.0, 30.0])
    engine.rng = SimpleNamespace(exponential=lambda mean: next(draws))
    a, b = sorted(engine.run(), key=lambda r: r["id"])
    assert a["status"] == "timed-out" and a["stages"] == ""
    assert b["status"] == "completed" and b["completed_s"] == 190.0
    assert [node for _, node, _ in stage_list(b)] == [0]


# -- request lifecycle invariant --------------------------------------------------------

# The engine's handlers, in the order they run at one instant: the event
# kinds' priority order, with the sweeps (not heap events) before deadlines.
HANDLERS = ("on_contact_start", "on_boundary", "on_completion", "on_generate", "sweep",
            "on_deadline", "on_contact_end")


def places_held(engine):
    """id(request) -> every (place, node) that holds it, read from the containers."""
    places = {}
    for node in range(engine.n):
        # The head of a node's queue is the request in service, and a carried
        # request that holds its output type is a result.
        queue = engine.queues[node]
        held = [("executing", rec) for rec in queue[:1]]
        held += [("queued", rec) for rec in queue[1:]]
        held += [("result" if rec.current_input == rec.output else "carried", rec)
                 for rec in engine.carried[node]]
        for where, rec in held:
            places.setdefault(id(rec), []).append((where, node))
    return places


def check_lifecycle(engine, requests):
    places = places_held(engine)
    for rec in requests:
        where = places.pop(id(rec), [])
        status = engine.records[rec.id]["status"]
        if where:
            assert status == "in-flight"
            assert len(where) == 1 and where[0][1] == rec.location
        else:
            assert status in ("completed", "timed-out")
    assert places == {}  # nothing is held that is not a request


def test_request_lifecycle_invariant_after_every_event():
    # After every event a live request sits in exactly one place, at its
    # location, and its row is in flight; a finished request sits nowhere
    # and its row's status is final.
    catalog = enumerate_services(5)
    placement = assign_services(catalog, list(range(8)), 2, np.random.default_rng(4))
    params = LevyWalkParams(area=(500.0, 500.0), speed_classes=((4, (1.0, 1.0)), (4, (10.0, 10.0))))
    contacts = contacts_from_positions(generate_levy(params, 8, 3600.0, seed=2), 100.0)
    cancelled_in = set()
    relayed = opportunistic = stalls_resolved = 0
    for scheme in ("MT", "TT", "EBR", "direct"):
        cfg = SimConfig(catalog=catalog, placement=placement,
                        pattern=RequestPattern.min_functionality(catalog, 2),
                        scheme=scheme, request_rate_per_min=0.5, timeout_s=600.0,
                        mean_exec_s=60.0, seed=5)
        engine = _Engine(cfg, contacts)
        requests = []  # every request, from the deadline its generation pushes
        push = engine.push

        def collecting_push(t, prio, *payload):
            if prio == sim_core._P_DEADLINE:
                requests.append(payload[0])
            push(t, prio, *payload)

        def checked(handler):
            def wrapper(t, *payload):
                handler(t, *payload)
                check_lifecycle(engine, requests)
            return wrapper

        for name in HANDLERS:
            setattr(engine, name, checked(getattr(engine, name)))
        on_deadline, next_stage = engine.on_deadline, engine._next_stage

        def deadline(t, rec):
            cancelled_in.update(where for where, _ in places_held(engine).get(id(rec), []))
            on_deadline(t, rec)

        def counted_next_stage(item, node):
            nonlocal stalls_resolved
            stalled = item.destination is None and item in engine.carried[node]
            stage = next_stage(item, node)
            stalls_resolved += stalled and stage is not None
            return stage

        engine.on_deadline, engine._next_stage = deadline, counted_next_stage
        engine.push = collecting_push
        records = engine.run()
        # One row per request the checks followed, in id order.
        ids = [rec.id for rec in requests]
        assert ids == [r["id"] for r in records] == list(range(len(records)))
        assert all(r["status"] != "in-flight" for r in records)
        relayed += sum(r["hops"] for r in records)
        opportunistic += sum(r["opportunistic_stages"] for r in records)
    # The runs reach every place a deadline can cancel in, relay requests and
    # results, run stages opportunistically and find a stage for a stalled
    # request.
    assert {"carried", "queued", "executing", "result"} <= cancelled_in
    assert relayed > 0 and opportunistic > 0 and stalls_resolved > 0


# -- conservation and determinism ----------------------------------------------------

def test_conservation_every_run():
    for seed in (1, 2, 3):
        cfg = default_config(seed=seed)
        records = run(cfg, levy_contacts(seed=seed))
        counts = Counter(rec["status"] for rec in records)
        assert counts["completed"] + counts["timed-out"] + counts["in-flight"] == len(records)
        for rec in records:
            if rec["status"] == "completed":
                assert rec["completed_s"] <= rec["created_s"] + cfg.timeout_s + 1e-9


def test_identical_config_reproduces_csv_bytes(tmp_path):
    contacts = levy_contacts(seed=5)
    paths = []
    for tag in ("a", "b"):
        cfg = default_config(seed=5)
        records = run(cfg, contacts)
        path = tmp_path / f"run_{tag}.csv"
        write_records_csv(records, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_reloaded_contacts_csv_reproduces_csv_bytes(tmp_path):
    contacts = levy_contacts(seed=5)
    save_contacts_csv(contacts, tmp_path / "contacts.csv")
    again = load_contacts_csv(tmp_path / "contacts.csv")
    assert np.array_equal(again.events, contacts.events)
    assert ((again.n_nodes, again.duration, again.sample_interval)
            == (contacts.n_nodes, contacts.duration, contacts.sample_interval))
    blobs = []
    for tag, trace in (("written", contacts), ("reloaded", again)):
        path = tmp_path / f"run_{tag}.csv"
        write_records_csv(run(default_config(seed=5), trace), path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_different_seed_differs(tmp_path):
    contacts = levy_contacts(seed=5)
    blobs = []
    for seed in (5, 6):
        cfg = default_config(seed=seed)
        records = run(cfg, contacts)
        path = tmp_path / f"run_{seed}.csv"
        write_records_csv(records, path)
        blobs.append(path.read_bytes())
    assert blobs[0] != blobs[1]


def test_records_csv_round_trip(tmp_path):
    cfg = default_config()
    records = run(cfg, levy_contacts())
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    rows = read_records_csv(path)
    assert [row["id"] for row in rows] == [rec["id"] for rec in records] == list(range(len(rows)))

    def approx(value):
        return pytest.approx(value, abs=1e-3) if isinstance(value, float) else value

    for row, rec in zip(rows, records):
        assert row == {name: approx(value) for name, value in rec.items()}
        if rec["status"] == "completed":
            assert rec["delay_s"] == rec["completed_s"] - rec["created_s"]
        assert rec["opportunistic_stages"] == sum(opp for _, _, opp in stage_list(rec))


def synthetic_records(n, seed=0):
    """``n`` finished requests' rows shaped like a run's: about half
    completed, a few dozen distinct stage lists, every time a float."""
    rng = np.random.default_rng(seed)
    services = enumerate_services(7).services
    paths = [tuple((services[int(rng.integers(len(services)))], int(rng.integers(20)),
                    bool(rng.random() < 0.2)) for _ in range(int(rng.integers(1, 4))))
             for _ in range(40)]
    texts = ["|".join(f"{s.input}-{s.output}@{node}" + ("*" if opp else "")
                      for s, node, opp in path) for path in paths]
    columns = sim_core._record_columns()
    for i in range(n):
        created = float(rng.uniform(0.0, 36000.0))
        row = [i, int(rng.integers(20)), int(rng.integers(1, 8)), int(rng.integers(1, 8)),
               created, "timed-out", math.nan, math.nan, int(rng.integers(8)), "", 0,
               float(rng.uniform(0.0, 2000.0))]
        if rng.random() < 0.5:
            k = int(rng.integers(len(paths)))
            completed = created + float(rng.uniform(0.0, 900.0))
            row[5:8] = "completed", completed, completed - created
            row[9:11] = texts[k], sum(opp for _, _, opp in paths[k])
        for column, value in zip(columns, row):
            column.append(value)
    return sim_core._RecordRows(columns)


def int32_extremes():
    """Synthetic rows whose second holds 2**31 - 1 in every integer field and
    whose third holds -2**31: the extremes of the int32 columns."""
    records = synthetic_records(10)
    for column, parse in zip(records._columns, sim_core._RECORD_PARSERS):
        if parse is int:
            column[1], column[2] = 2**31 - 1, -2**31
    return records


def test_records_rewrite_to_the_bytes_they_were_read_from(tmp_path):
    # A run's file and synthetic ones, each read back and written again,
    # give the bytes they were read from (the golden files do too).
    sources = {"run": run(default_config(), levy_contacts(duration=3600.0)),
               "synthetic": synthetic_records(500), "int32-extremes": int32_extremes()}
    for name, records in sources.items():
        path, again = tmp_path / f"{name}.csv", tmp_path / f"{name}_again.csv"
        write_records_csv(records, path)
        write_records_csv(read_records_csv(path), again)
        assert again.read_bytes() == path.read_bytes(), name


def test_records_read_back_as_read_only_mappings_in_column_order(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(synthetic_records(300), path)
    rows = read_records_csv(path)
    for row in rows:
        assert list(row) == sim_core.RECORD_FIELDS.split(",")
        assert dict(row) == row and row == dict(row)
        assert row != {**row, "hops": row["hops"] + 1}
    blank = next(row for row in rows if row["status"] == "timed-out")
    assert blank["completed_s"] is None and blank["delay_s"] is None and blank["stages"] == ""
    assert blank.get("no such column") is None and "no such column" not in blank
    with pytest.raises(TypeError):
        blank["status"] = "completed"
    with pytest.raises(TypeError):
        del blank["status"]
    for name in ("status", "stages"):
        assert len({id(row[name]) for row in rows}) == len({row[name] for row in rows}) > 1
    # A read-only sequence whose rows are views: indexing and slicing give
    # the same rows as iterating.
    listed = list(rows)
    assert rows[-1] == listed[-1] == dict(rows[len(rows) - 1])
    assert list(rows[10:40:3]) == listed[10:40:3] and len(rows[5:]) == len(rows) - 5
    with pytest.raises(IndexError):
        rows[len(rows)]
    with pytest.raises(TypeError):
        rows[0] = listed[1]


def test_run_records_take_under_100_bytes_a_request():
    # What dropping a run's records frees.  With an object per request, its
    # slots and values and the stage tuples they share, this run freed about
    # 320 B a request, and 220 with the deadline left to created + timeout_s
    # and stages a shared tuple; with one row per request in columns (floats
    # and ints in arrays, status and stages text shared) about 115, and with
    # the ints in 4-byte arrays about 90.
    config, contacts = default_config(), levy_contacts(duration=3600.0)
    tracemalloc.start()
    try:
        records = run(config, contacts)
        count = len(records)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        del records
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count > 300
    assert freed / count <= 100


def test_read_back_records_take_under_85_bytes_a_row(tmp_path):
    # A dict per row takes about 660 B and a tuple of parsed values about
    # 280; one column per field (floats and ints in arrays, the repeated
    # status and stages text shared) about 100, and with the ints in 4-byte
    # arrays about 77.
    path = tmp_path / "records.csv"
    write_records_csv(synthetic_records(4000), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = read_records_csv(path)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == 4000
    assert used / len(rows) <= 85


def _on_line(number, edit):
    """An edit of one line of a records file, the header being line 1."""
    return lambda lines: [edit(line) if i == number else line for i, line in enumerate(lines, 1)]


def _cut_last_field(line):
    return line.rsplit(",", 1)[0]


def _set_field(line, index, value):
    cells = line.split(",")
    cells[index] = value
    return ",".join(cells)


MALFORMED_RECORDS = {
    "missing-column": (lambda lines: [_cut_last_field(line) for line in lines], "line 1: header"),
    "short-row": (_on_line(4, _cut_last_field), "line 4: 11 fields, expected 12"),
    "extra-column": (lambda lines: [line + ",x" for line in lines], "line 1: header"),
    "long-row": (_on_line(3, lambda line: line + ",0"), "line 3: 13 fields, expected 12"),
    "bad-number": (_on_line(6, lambda line: "x" + line), "line 6: invalid literal"),
    "other-header": (_on_line(1, lambda line: "id"), "line 1: header"),
    # A float column keeps its blanks as NaN, so a NaN cell is refused, and
    # the writer writes no infinity either.
    "nan-cell": (_on_line(5, lambda line: _cut_last_field(line) + ",nan"),
                 "line 5: estimated_cost_s is 'nan'"),
    "inf-cell": (_on_line(2, lambda line: _set_field(line, 4, "inf")),
                 "line 2: created_s is 'inf'; a records file holds no NaN or infinity"),
    # Integer columns are arrays of int32, which hold no blank and no
    # larger number.
    "blank-int": (_on_line(7, lambda line: "," + line.split(",", 1)[1]),
                  "line 7: id is blank"),
    "int-overflow": (_on_line(8, lambda line: f"{2**31}," + line.split(",", 1)[1]),
                     f"line 8: id is {2**31}, outside the int32 range"),
}


@pytest.mark.parametrize("edit, message", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS)
def test_a_malformed_records_file_names_its_line(tmp_path, capsys, edit, message):
    from oppcompose.cli import main

    runs = tmp_path / "runs"
    runs.mkdir()
    path = runs / "base_seed0.csv"
    write_records_csv(synthetic_records(10), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"base_seed0.csv, {message}"):
        read_records_csv(path)
    (tmp_path / "manifest.csv").write_text(
        "variant,point,seed,file,timeout_s,warmup_s,error\nbase,p0,0,base_seed0.csv,900.0,0.0,\n")
    assert main(["analyze", str(tmp_path), "--estimate-accuracy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "summary.csv").exists()


# -- single copy invariant -------------------------------------------------------------

def test_single_copy_every_request_single_position():
    # Every executed stage sequence chains correctly, which would break if
    # two copies of one request advanced independently.
    cfg = default_config()
    records = run(cfg, levy_contacts())
    for rec in records:
        cur = rec["in"]
        for service, _, _ in stage_list(rec):
            assert service.input == cur
            cur = service.output
        if rec["status"] == "completed":
            assert cur == rec["out"]


def test_estimated_cost_recorded_when_path_exists():
    cfg = default_config(awareness="perfect")
    records = run(cfg, levy_contacts())
    with_est = [r for r in records if r["estimated_cost_s"] is not None]
    assert len(with_est) > 0.8 * len(records)
    assert all(r["estimated_cost_s"] >= 0 for r in with_est)


# -- neighbour index -------------------------------------------------------------------

def test_neighbor_index_matches_in_contact_at_interval_edges():
    # Contacts are closed intervals: a sweep at a contact's start or end sees
    # the peer, one just after the end does not.  Every probe must agree with
    # the trace's own interval lookup.  The probes are generation events,
    # which run after an instant's contact starts and before its contact
    # ends, as sweeps do; the request rate is 0, so no other generation runs.
    rng = np.random.default_rng(11)
    n, duration = 20, 3600.0
    events = []
    for a in range(6):
        for b in range(a + 1, 6):
            t = float(rng.integers(0, 300))
            while True:
                start, end = t, t + float(rng.integers(1, 200))
                if end > duration - 10.0:
                    break
                events.append((start, end, a, b))
                t = end + float(rng.integers(2, 400))
    # Node 10 meets 11 over [100, 200]; 12 joins at 150; both contacts end
    # at exactly t=200.
    events += [(100.0, 200.0, 10, 11), (150.0, 200.0, 10, 12)]
    trace = ContactTrace(events, n, duration)
    engine = _Engine(default_config(request_rate_per_min=0.0), trace)
    seen = {}

    def probe(t, node):
        seen[(t, node)] = list(engine._neighbors(node, t))  # a copy: the list is live

    engine.on_generate = probe
    probes = set()
    for start, end, a, b in trace.events.tolist():
        for t in (start, end, end + 0.5, (start + end) / 2):
            for node in (a, b):
                probes.add((t, node))
                engine.push(t, sim_core._P_GENERATE, node)
    engine.run()
    assert set(seen) == probes
    for (t, node), peers in seen.items():
        assert peers == [m for m in range(n) if m != node and trace.in_contact(node, m, t)]
    for start, end, a, b in trace.events.tolist():
        assert b in seen[(start, a)] and a in seen[(start, b)]
        assert b in seen[(end, a)] and a in seen[(end, b)]
        assert b not in seen[(end + 0.5, a)]
    assert seen[(100.0, 10)] == [11]
    assert seen[(150.0, 10)] == [11, 12]
    assert seen[(200.0, 10)] == [11, 12]
    assert seen[(200.5, 10)] == []


def recorded_run(engine, names, width=None):
    """Run ``engine`` with its handlers ``names`` wrapped to log each call as
    ``(t, name, payload[:width])``; the log, in call order."""
    calls = []

    def recorded(name):
        handler = getattr(engine, name)

        def wrapper(t, *payload):
            calls.append((t, name, payload[:width]))
            handler(t, *payload)
        return wrapper

    for name in names:
        setattr(engine, name, recorded(name))
    engine.run()
    return calls


def test_events_at_one_instant_run_by_kind_then_push_order():
    # Every kind of event falls at t=60: two contact starts, the unit
    # boundary, the completion of a 30 s stage begun at t=30, two scripted
    # requests, the sweep a carried request asks for, the deadlines of the
    # two requests made at t=0, and the end of a contact begun at t=0.  The
    # handlers run kind by kind in HANDLERS order, so a contact ends after
    # the sweeps and deadlines at its instant, and events of one kind in the
    # order they were pushed: the scripted requests in script order, not by
    # origin.  Each generation event carries its origin only.
    catalog = enumerate_services(3)
    placement = placement_of({0: [Service(1, 2)], 2: [Service(2, 3)]})
    script = ((0.0, 2, 1, 2), (0.0, 3, 1, 2), (30.0, 0, 1, 2),
              (60.0, 3, 1, 2), (60.0, 1, 1, 2))
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 2),)), awareness="minimal",
                       timeout_s=60.0, mean_exec_s=30.0)
    trace = ContactTrace([(60.0, 120.0, 1, 2), (60.0, 90.0, 0, 3), (0.0, 60.0, 1, 3)], 4, 300.0)
    engine = scripted_engine(config, trace, script, fixed_exec=True)
    calls = recorded_run(engine, HANDLERS)
    at_60 = [(name, payload) for t, name, payload in calls if t == 60.0]
    names = [name for name, _ in at_60]
    assert set(names) == set(HANDLERS)
    assert names == sorted(names, key=HANDLERS.index)
    assert names.count("on_deadline") == 2
    assert [p for name, p in at_60 if name == "on_contact_start"] == [(0, 3, 90.0),
                                                                       (1, 2, 120.0)]
    assert [p for name, p in at_60 if name == "on_generate"] == [(3,), (1,)]
    assert [p for name, p in at_60 if name == "on_contact_end"] == [(1, 3)]


def test_sweeps_at_one_instant_run_once_each_in_the_order_asked():
    # Node 1 hosts the only service.  Request a (origin 0) reaches relay 2
    # at t=20, and request b rests at its origin 3.  At t=60 the contact
    # starts ask for the sweeps of 2 and 3, and the boundary after them asks
    # again, in id order, which adds no sweep.  Sweep 2 hands a to its host
    # 1, whose zero-length stage completes before sweep 3 runs and asks for
    # sweep 1; sweep 1 hands the result back to relay 2 (which met origin 0
    # at t=30), and that asks for 2's second sweep, the instant's last.
    catalog = enumerate_services(2)
    placement = placement_of({0: [], 1: [Service(1, 2)], 2: [], 3: [], 4: []})
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 2),)), awareness="minimal",
                       scheme="MT", mean_exec_s=0.0)
    trace = ContactTrace([(0.0, 10.0, 1, 2), (20.0, 40.0, 0, 2), (60.0, 90.0, 1, 2),
                          (60.0, 90.0, 3, 4)], 5, 300.0)
    engine = scripted_engine(config, trace, ((0.0, 0, 1, 2), (0.0, 3, 1, 2)), fixed_exec=True)
    calls = recorded_run(engine, ("on_boundary", "on_contact_start", "on_completion", "sweep"), 2)
    assert [(t, name, p) for t, name, p in calls if t == 20.0] == [
        (20.0, "on_contact_start", (0, 2)), (20.0, "sweep", (0,))]
    assert [(name, p) for t, name, p in calls if t == 60.0] == [
        ("on_contact_start", (1, 2)),
        ("on_contact_start", (3, 4)),
        ("on_boundary", (2,)),
        ("sweep", (2,)),
        ("on_completion", (1, engine.carried[2][0])),
        ("sweep", (3,)),
        ("sweep", (1,)),
        ("sweep", (2,)),
    ]
    a, b = engine.carried[2][0], engine.carried[3][0]
    assert (a.origin, a.current_input, a.hops) == (0, 2, 3)
    assert (b.origin, b.current_input, b.hops) == (3, 1, 0)


def test_a_boundary_runs_the_sweeps_of_its_nodes_in_id_order():
    # Node 4 hosts the only service and meets no one, so the requests of
    # nodes 0-3 stay carried.  At t=60 the contacts start in (start, end, a,
    # b) order, (1, 3) before (0, 2), and ask for sweeps in that order; the
    # boundary after them asks for the sweeps of every node in contact that
    # carries an item, and they run in id order.
    catalog = enumerate_services(2)
    placement = placement_of({0: [], 1: [], 2: [], 3: [], 4: [Service(1, 2)]})
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 2),)), awareness="minimal")
    trace = ContactTrace([(60.0, 120.0, 0, 2), (60.0, 90.0, 1, 3)], 5, 300.0)
    engine = scripted_engine(config, trace, [(0.0, node, 1, 2) for node in range(4)])
    calls = recorded_run(engine, ("on_boundary", "on_contact_start", "sweep"), 2)
    assert [(name, p) for t, name, p in calls if t == 60.0] == [
        ("on_contact_start", (1, 3)),
        ("on_contact_start", (0, 2)),
        ("on_boundary", (2,)),
        ("sweep", (0,)),
        ("sweep", (1,)),
        ("sweep", (2,)),
        ("sweep", (3,)),
    ]


def settled_pairs(config, trace):
    """The (time, sorted pairs) of each ``exchange_all`` call a run of
    ``config`` over ``trace`` makes: one per unit boundary."""
    calls = []

    original = sim_core.exchange_all

    def recorded(know, pairs, now):
        calls.append((now, sorted(map(tuple, pairs))))
        return original(know, pairs, now=now)

    with mock.patch.object(sim_core, "exchange_all", recorded):
        _Engine(config, trace).run()
    return calls


def one_host_config(**kw):
    """A config whose one service is hosted by node 0, so any node count fits."""
    catalog = enumerate_services(2)
    return SimConfig(catalog=catalog, placement=placement_of({0: [Service(1, 2)]}),
                     pattern=RequestPattern(pairs=((1, 2),)), request_rate_per_min=0.0, **kw)


def test_boundaries_settle_contacts_as_closed_intervals():
    # A contact that starts or ends on a boundary takes part in it; one that
    # ends 1e-10 s before a boundary or starts 1e-4 s after it does not, and
    # a contact running past the duration takes part up to the last boundary.
    rows = [(0.0, 59.9999999999, 0, 1), (60.0001, 90.0, 0, 2), (30.0, 90.0, 1, 3),
            (100.0, 400.0, 1, 2)]
    assert settled_pairs(one_host_config(), ContactTrace(rows, 4, 150.0)) == [
        (0.0, [(0, 1)]), (1.0, [(0, 1), (1, 3)]), (2.0, [(1, 3)]), (3.0, [(0, 2), (1, 3)]),
        (4.0, [(1, 2)]), (5.0, [(1, 2)])]


@st.composite
def contact_rows(draw):
    """Disjoint, non-abutting intervals per pair on a quarter-unit grid, so
    that some start or end on a boundary, some nudged just off the grid
    (but not below 0), and some past the end."""
    n = draw(st.integers(2, 6))
    duration = 30.0 * draw(st.integers(0, 8))
    nudges = st.sampled_from([0.0, 0.0, 1e-11, -1e-11, 1e-7, -1e-7])
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            ticks = sorted(draw(st.sets(st.integers(0, 4 * int(duration / 30.0) + 8),
                                        max_size=6)))
            for lo, hi in zip(ticks[:len(ticks) // 2 * 2:2], ticks[1::2]):
                start = max(0.0, lo * 7.5 + draw(nudges) * 30.0)
                end = hi * 7.5 + draw(nudges) * 30.0
                rows.append((start, end) + ((a, b) if draw(st.booleans()) else (b, a)))
    return n, duration, rows


@settings(max_examples=150, deadline=None)
@given(case=contact_rows())
def test_each_boundary_settles_the_pairs_in_contact_at_its_instant(case):
    n, duration, rows = case
    trace = ContactTrace(rows, n, duration)
    want = boundary_pairs(trace, 30.0)
    assert settled_pairs(one_host_config(), trace) == [(float(k), pairs)
                                                       for k, pairs in enumerate(want)]


def test_contacts_with_equal_starts_start_in_sorted_order():
    # Whatever order the rows come in, contacts starting together are
    # handled in (start, end, a, b) order, with the lower id as a.
    rows = [(60.0, 120.0, 3, 1), (60.0, 90.0, 2, 0), (60.0, 90.0, 1, 0), (0.0, 30.0, 0, 1),
            (60.0, 120.0, 0, 4), (60.0, 90.0, 0, 3)]
    engine = _Engine(default_config(request_rate_per_min=0.0), ContactTrace(rows, 20, 600.0))
    started = []
    engine.on_contact_start = lambda t, a, b, end: started.append((t, end, a, b))
    engine.run()
    assert started == [(0.0, 30.0, 0, 1), (60.0, 90.0, 0, 1), (60.0, 90.0, 0, 2),
                       (60.0, 90.0, 0, 3), (60.0, 120.0, 0, 4), (60.0, 120.0, 1, 3)]


def test_the_heap_holds_at_most_one_contact():
    # Contacts go on the heap as the clock reaches them, not all up front,
    # yet every one of them starts.
    contacts = levy_contacts(duration=3600.0)
    engine = _Engine(default_config(), contacts)
    on_heap, started = [], []

    def checked(handler):
        def wrapper(t, *payload):
            on_heap.append(sum(entry[1] == sim_core._P_CONTACT for entry in engine.heap))
            handler(t, *payload)
        return wrapper

    for name in HANDLERS:
        setattr(engine, name, checked(getattr(engine, name)))
    on_contact_start = engine.on_contact_start
    engine.on_contact_start = lambda t, a, b, end: (started.append((t, end, a, b)),
                                                    on_contact_start(t, a, b, end))
    engine.run()
    assert len(contacts.events) > 100 and started == contacts.events.tolist()
    assert max(on_heap) == 1 and not engine.heap


def test_the_heap_holds_at_most_one_boundary():
    # Boundaries go on the heap as the clock reaches them, not all up front,
    # yet every unit's boundary runs once, in order.
    config = default_config()
    engine = _Engine(config, levy_contacts(duration=3600.0))
    on_heap, ran = [], []

    def checked(handler):
        def wrapper(t, *payload):
            on_heap.append(sum(entry[1] == sim_core._P_BOUNDARY for entry in engine.heap))
            handler(t, *payload)
        return wrapper

    for name in HANDLERS:
        setattr(engine, name, checked(getattr(engine, name)))
    on_boundary = engine.on_boundary
    engine.on_boundary = lambda t, k: (ran.append((t, k)), on_boundary(t, k))
    engine.run()
    n_units = round(3600.0 / config.unit_s)
    assert n_units > 10 and ran == [(k * config.unit_s, k) for k in range(n_units + 1)]
    assert max(on_heap) == 1 and not engine.heap


# -- per-unit reuse of prices and plans ---------------------------------------------------

def test_perfect_awareness_prices_live_backlog_on_every_search():
    # Nodes 1 and 2 both host s_12, one unit from the owner 0 either way.
    # A request queued at node 1 between two searches in the same unit must
    # reach the second search: perfect awareness prices the live backlog.
    catalog = enumerate_services(2)
    placement = placement_of({0: [], 1: [Service(1, 2)], 2: [Service(1, 2)]})
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 2),)), awareness="perfect",
                       request_rate_per_min=0.0)
    engine = _Engine(config, no_contact_trace(3, 600.0))
    engine.know.timers[:] = 1.0
    np.fill_diagonal(engine.know.timers, 0.0)
    first = engine.compute_path(0, 1, 2)
    assert path_hosts(first) == (1,) and first.cost == 2.0  # tie: lower host
    engine.queues[1].append(object())  # one request ahead: mean_exec_s / unit_s = 1 unit
    second = engine.compute_path(0, 1, 2)
    assert path_hosts(second) == (2,) and second.cost == 2.0
    engine.queues[1].clear()
    engine.queues[2].extend([object(), object()])
    third = engine.compute_path(0, 1, 2)
    assert path_hosts(third) == (1,) and third.cost == 2.0


def test_minimal_draws_no_tie_order_for_a_request_without_a_path():
    # The tie permutation is drawn only once a search will run: an
    # unreachable output or an output equal to the input leaves tie_rng as
    # it was, so the decisions after it see the same tie orders.
    catalog = enumerate_services(4)
    placement = placement_of({0: [Service(1, 2)], 1: [Service(3, 4)]})
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 2),)), awareness="minimal",
                       request_rate_per_min=0.0)
    engine = _Engine(config, no_contact_trace(2, 600.0))
    state = engine.tie_rng.bit_generator.state
    assert engine.compute_path(0, 1, 4) is None
    assert engine.compute_path(0, 2, 2) is None
    assert engine.tie_rng.bit_generator.state == state
    assert path_hosts(engine.compute_path(0, 1, 2)) == (0,)
    assert engine.tie_rng.bit_generator.state != state


# -- relay decision per (sweep, destination) ---------------------------------------------

def per_item_receiver(engine, node, item, t):
    """The neighbour the per-item relay loop handed ``item`` to, if any."""
    cfg = engine.cfg
    dest = item.destination
    if dest in engine._neighbors(node, t):
        return dest
    carrier_age = (t - engine.last_enc[node][dest]) / cfg.unit_s
    for peer in engine._neighbors(node, t):
        peer_age = (t - engine.last_enc[peer][dest]) / cfg.unit_s
        if should_relay(cfg.scheme, node, peer, dest, carrier_age, peer_age,
                        engine.stats, t):
            return peer
    return None


@pytest.mark.parametrize("scheme", ["MT", "TT", "EBR"])
def test_relay_decided_once_per_destination(scheme, monkeypatch):
    # Node 0 carries four items bound for node 4 and one bound for node 3;
    # its neighbours are 1 and 2.  Neighbour 1 fails the rule and neighbour
    # 2 passes it, under MT/TT (2 met node 4 just now, 0 and 1 never did)
    # and under EBR (2 met more nodes lately than 0, 1 fewer).  Node 1
    # hosts s_12, the planned stage of one item, which still goes where its
    # destination's items go.
    catalog = enumerate_services(4)
    placement = placement_of({0: [], 1: [Service(1, 2)], 2: [],
                              3: [Service(2, 3)], 4: [Service(1, 2), Service(2, 3)]})
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 3),)), scheme=scheme,
                       request_rate_per_min=0.0)
    engine = _Engine(config, no_contact_trace(5, 3600.0))
    t = 600.0
    for when in (400.0, 500.0, 550.0):
        engine.stats.record(2, when)
    engine.stats.record(0, 450.0)
    engine.on_contact_start(t, 0, 1, 700.0)
    engine.on_contact_start(t, 0, 2, 700.0)
    engine.last_enc[2][4] = engine.last_enc[2][3] = t
    items = []
    for k, (stage, dest) in enumerate([(Service(2, 3), 4), (Service(1, 2), 4),
                                       (Service(2, 3), 4), (Service(2, 3), 3),
                                       (Service(2, 3), 4)]):
        item = RequestRecord(id=k, origin=0, current_input=stage.input, output=3)
        item.planned_stage, item.destination = stage, dest
        engine._carry(0, item)
        items.append(item)
    expected = [per_item_receiver(engine, 0, item, t) for item in items]
    assert expected.count(2) >= 3 and expected[1] == 2

    checks = []

    def counted(scheme, carrier, candidate, destination, *rest):
        checks.append((candidate, destination))
        return should_relay(scheme, carrier, candidate, destination, *rest)

    monkeypatch.setattr(sim_core, "should_relay", counted)
    engine.sweep(t, 0)
    assert [item.location for item in items] == expected
    assert all(item.hops == 1 for item in items)
    # One decision per destination: each neighbour is asked once about it,
    # in id order, up to the first that passes.
    assert checks == [(1, 4), (2, 4), (1, 3), (2, 3)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_destination_in_contact_takes_its_items(scheme):
    # Node 0 carries a result home to node 3 and is in contact with nodes 1
    # and 3.  Node 1 comes first in id order and met more nodes lately than
    # node 0, so it passes EBR's rule; yet under every scheme the result
    # goes straight home, as should_relay accepts the destination always.
    catalog = enumerate_services(2)
    config = SimConfig(catalog=catalog, placement=placement_of({0: [Service(1, 2)]}),
                       pattern=RequestPattern(pairs=((1, 2),)), scheme=scheme,
                       request_rate_per_min=0.0)
    engine = _Engine(config, no_contact_trace(5, 3600.0))
    for when in (100.0, 150.0):
        engine.stats.record(1, when)
    t = 300.0
    engine.on_contact_start(t, 0, 1, 400.0)
    engine.on_contact_start(t, 0, 3, 400.0)
    assert engine.stats.rate(1, t) > engine.stats.rate(0, t)
    assert should_relay(scheme, 0, 1, 3, 0.0, math.inf, engine.stats, t) == (scheme == "EBR")
    item = RequestRecord(id=0, origin=3, current_input=1, output=2)
    engine._open_row(item, 0.0, math.nan)
    item.current_input, item.destination, item.location = 2, 3, 0  # a result at node 0
    engine._carry(0, item)
    engine.sweep(t, 0)
    row = engine.records[0]
    assert item.location == 3 and row["status"] == "completed" and row["hops"] == 1
