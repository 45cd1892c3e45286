import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from oppcompose import sim_core
from oppcompose.contact_engine import (ContactTrace, contacts_from_positions, load_contacts_csv,
                                      save_contacts_csv)
from oppcompose.forwarding import should_relay
from oppcompose.mobility import LevyWalkParams, generate_levy
from oppcompose.service_model import Service, enumerate_services, assign_services
from oppcompose.sim_core import (
    _Engine,
    _Item,
    RequestPattern,
    RequestRecord,
    SimConfig,
    read_records_csv,
    run,
    write_records_csv,
)


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
    assert records == []


# Generation stops ``timeout_s`` before the end: with no time left a Poisson
# stream would write no record and the run would read as completion 0.

@pytest.mark.parametrize("timeout_s", [3600.0, 5000.0])
def test_poisson_stream_needs_time_before_its_timeout(timeout_s):
    contacts = no_contact_trace(20, 3600.0)
    with pytest.raises(ValueError, match=f"timeout_s {timeout_s} .* duration 3600.0"):
        run(default_config(timeout_s=timeout_s), contacts)
    # Scripted and empty streams do not generate on that clock.
    scripted = default_config(timeout_s=timeout_s, scripted_requests=((0.0, 0, 1, 5),))
    assert len(run(scripted, contacts)) == 1
    assert run(default_config(timeout_s=timeout_s, request_rate_per_min=0.0), contacts) == []
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
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((60.0, 0, 1, 4),),
        seed=1,
    )
    records = run(cfg, no_contact_trace(1, 3600.0))
    rec = records[0]
    assert rec.status == "completed"
    assert rec.hops == 0
    assert rec.stages[0][0] == Service(1, 4)
    assert rec.delay > 0


def test_deterministic_exec_time_exact():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((60.0, 0, 1, 4),),
        exec_deterministic=True,
        seed=1,
    )
    rec = run(cfg, no_contact_trace(1, 3600.0))[0]
    assert rec.delay == 30.0


def test_fifo_queueing_two_simultaneous_requests():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((60.0, 0, 1, 4), (60.0, 0, 1, 4)),
        exec_deterministic=True,
        seed=1,
    )
    recs = sorted(run(cfg, no_contact_trace(1, 3600.0)), key=lambda r: r.id)
    assert recs[0].delay == 30.0
    assert recs[1].delay == 60.0  # waits for the first to finish


def test_exec_sampler_mean():
    # Single node, no contention: delays are raw execution samples.
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = tuple((600.0 * (k + 1), 0, 1, 4) for k in range(50))
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=script,
        timeout_s=590.0,
        seed=7,
    )
    recs = run(cfg, no_contact_trace(1, 40000.0))
    delays = [r.delay for r in recs if r.status == "completed"]
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
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((300.0, 0, 1, 4),),
        exec_deterministic=True,
        awareness="perfect",
        seed=1,
    )
    records = run(cfg, full_contact_trace(4, 7200.0))
    rec = records[0]
    assert rec.status == "completed"
    # Three stages, each 30 s, transfers instantaneous over live contacts.
    assert rec.delay == 90.0
    assert rec.hops >= 2
    assert [s.input for s, _, _ in rec.stages] == [1, 2, 3]


def test_stage_advances_input_type():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 3)], 1: [Service(3, 4)]})
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((60.0, 0, 1, 4),),
        exec_deterministic=True,
        awareness="perfect",
        seed=1,
    )
    rec = run(cfg, full_contact_trace(2, 3600.0))[0]
    assert rec.status == "completed"
    assert [(s.input, s.output) for s, _, _ in rec.stages] == [(1, 3), (3, 4)]


# -- deadlines ----------------------------------------------------------------------

def test_unreachable_request_times_out():
    catalog = small_catalog()
    placement = placement_of({0: [], 1: [Service(1, 4)]})
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((60.0, 0, 1, 4),),
        seed=1,
    )
    rec = run(cfg, no_contact_trace(2, 3600.0))[0]
    assert rec.status == "timed-out"
    assert rec.completed is None


def test_queued_requests_time_out_under_overload():
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    script = tuple((60.0, 0, 1, 4) for _ in range(40))
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=script,
        exec_deterministic=True,
        timeout_s=300.0,
        seed=1,
    )
    records = run(cfg, no_contact_trace(1, 7200.0))
    counts = Counter(rec.status for rec in records)
    assert counts["completed"] == 10  # 300 s window at 30 s per execution
    assert counts["timed-out"] == 30
    for rec in records:
        if rec.status == "completed":
            assert rec.completed <= rec.deadline


def test_result_in_transit_at_deadline_not_counted():
    # Provider meets the requester only after the deadline has passed.
    catalog = small_catalog()
    placement = placement_of({0: [], 1: [Service(1, 4)]})
    events = [(0.0, 30.0, 0, 1), (1500.0, 1560.0, 0, 1)]
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((30.0, 0, 1, 4),),
        exec_deterministic=True,
        timeout_s=900.0,
        scheme="direct",
        seed=1,
    )
    records = run(cfg, ContactTrace(events, 2, 3600.0))
    rec = records[0]
    assert rec.status == "timed-out"
    assert len(rec.stages) == 1  # executed remotely, result never made it home


def test_result_routes_home_on_next_contact():
    catalog = small_catalog()
    placement = placement_of({0: [], 1: [Service(1, 4)]})
    events = [(0.0, 30.0, 0, 1), (600.0, 660.0, 0, 1)]
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((30.0, 0, 1, 4),),
        exec_deterministic=True,
        scheme="direct",
        seed=1,
    )
    rec = run(cfg, ContactTrace(events, 2, 3600.0))[0]
    assert rec.status == "completed"
    assert rec.completed == 600.0
    assert rec.hops == 2  # request out, result back


def test_remote_completion_needs_at_least_two_hops():
    cfg = default_config()
    records = run(cfg, levy_contacts())
    for rec in records:
        if rec.status != "completed":
            continue
        if any(node != rec.origin for _, node, _ in rec.stages):
            assert rec.hops >= 2
        if rec.hops == 0:
            assert all(node == rec.origin for _, node, _ in rec.stages)


def test_stale_completion_of_a_cancelled_request_leaves_its_successor_running():
    # A starts at 60 s for 110 s and is cancelled at its 160 s deadline; B,
    # queued since 100 s, starts then for 30 s.  A's completion event still
    # fires at 170 s and must not end B's execution.
    catalog = small_catalog()
    placement = placement_of({0: [Service(1, 4)]})
    cfg = SimConfig(
        catalog=catalog, placement=placement,
        pattern=RequestPattern(pairs=((1, 4),)),
        scripted_requests=((60.0, 0, 1, 4), (100.0, 0, 1, 4)),
        timeout_s=100.0,
        seed=1,
    )
    engine = _Engine(cfg, no_contact_trace(1, 3600.0))
    draws = iter([110.0, 30.0])
    engine.rng = SimpleNamespace(exponential=lambda mean: next(draws))
    a, b = sorted(engine.run(), key=lambda r: r.id)
    assert a.status == "timed-out" and a.stages == []
    assert b.status == "completed" and b.completed == 190.0
    assert [node for _, node, _ in b.stages] == [0]


# -- request lifecycle invariant --------------------------------------------------------

# The engine's event handlers, in the priority order of their event kinds.
HANDLERS = ("on_boundary", "on_contact_start", "on_completion", "on_generate", "sweep",
            "on_deadline")


def check_lifecycle(engine, items):
    places = {}  # id(item) -> every (where, node) that holds it
    for node in range(engine.n):
        # The head of a node's queue is the request in service.
        queue = engine.queues[node]
        for where, held in (("carried", engine.carried[node]), ("queued", queue[1:]),
                            ("executing", queue[:1])):
            for item in held:
                places.setdefault(id(item), []).append((where, node))
    for item in items:
        where = places.pop(id(item), [])
        if item.phase == "done":
            assert where == [] and item.record.status != "in-flight"
            continue
        assert item.record.status == "in-flight"
        expected = "carried" if item.phase in ("carried", "result") else item.phase
        assert where == [(expected, item.location)]
    assert places == {}  # nothing is held that is not a request


def test_request_lifecycle_invariant_after_every_event():
    # After every event a live request sits in exactly one place, the one
    # its phase names at its location; a done request sits nowhere; and the
    # record stays in flight exactly until the request is done.
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
        items = []  # every request, from the deadline its generation pushes
        push = engine.push

        def collecting_push(t, prio, *payload):
            if prio == sim_core._P_DEADLINE:
                items.append(payload[0])
            push(t, prio, *payload)

        def checked(handler):
            def wrapper(t, *payload):
                handler(t, *payload)
                check_lifecycle(engine, items)
            return wrapper

        for name in HANDLERS:
            setattr(engine, name, checked(getattr(engine, name)))
        on_deadline, next_stage = engine.on_deadline, engine._next_stage

        def deadline(t, item):
            cancelled_in.add(item.phase)
            on_deadline(t, item)

        def counted_next_stage(item, node):
            nonlocal stalls_resolved
            stalled = item.destination is None and item in engine.carried[node]
            stage = next_stage(item, node)
            stalls_resolved += stalled and stage is not None
            return stage

        engine.on_deadline, engine._next_stage = deadline, counted_next_stage
        engine.push = collecting_push
        records = engine.run()
        assert [item.record for item in items] == records
        assert all(r.status != "in-flight" for r in records)
        relayed += sum(r.hops for r in records)
        opportunistic += sum(r.opportunistic_stages for r in records)
    # The runs reach every phase a deadline can cancel, relay requests and
    # results, run stages opportunistically and find a stage for a stalled
    # request.
    assert {"carried", "queued", "executing", "result"} <= cancelled_in
    assert relayed > 0 and opportunistic > 0 and stalls_resolved > 0


# -- conservation and determinism ----------------------------------------------------

def test_conservation_every_run():
    for seed in (1, 2, 3):
        cfg = default_config(seed=seed)
        records = run(cfg, levy_contacts(seed=seed))
        counts = Counter(rec.status for rec in records)
        assert counts["completed"] + counts["timed-out"] + counts["in-flight"] == len(records)
        for rec in records:
            if rec.status == "completed":
                assert rec.completed <= rec.deadline + 1e-9


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
    assert len(rows) == len(records)
    by_id = {r.id: r for r in records}
    for row in rows:
        rec = by_id[row["id"]]
        assert row["status"] == rec.status
        assert row["hops"] == rec.hops
        if rec.delay is not None:
            assert abs(row["delay_s"] - rec.delay) < 1e-3


# -- single copy invariant -------------------------------------------------------------

def test_single_copy_every_request_single_position():
    # Every executed stage sequence chains correctly, which would break if
    # two copies of one request advanced independently.
    cfg = default_config()
    records = run(cfg, levy_contacts())
    for rec in records:
        cur = rec.input
        for service, _, _ in rec.stages:
            assert service.input == cur
            cur = service.output
        if rec.status == "completed":
            assert cur == rec.output


def test_estimated_cost_recorded_when_path_exists():
    cfg = default_config(awareness="perfect")
    records = run(cfg, levy_contacts())
    with_est = [r for r in records if r.estimated_cost_s is not None]
    assert len(with_est) > 0.8 * len(records)
    assert all(r.estimated_cost_s >= 0 for r in with_est)


# -- neighbour index -------------------------------------------------------------------

def test_neighbor_index_matches_in_contact_at_interval_edges():
    # Contacts are closed intervals: a sweep at a contact's start or end sees
    # the peer, one just after the end does not.  Every probe must agree with
    # the trace's own interval lookup.
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
    # Node 10 meets 11 over [100, 200]; 12 joins at 150 while node 10's list
    # from t=100 is cached; both contacts end at exactly t=200.
    events += [(100.0, 200.0, 10, 11), (150.0, 200.0, 10, 12)]
    trace = ContactTrace(events, n, duration)
    engine = _Engine(default_config(request_rate_per_min=0.0), trace)
    seen = {}
    starts_over_cached_list = 0

    def probe(t, node):
        seen[(t, node)] = engine._neighbors(node, t)

    def contact_start(t, a, b, end):
        nonlocal starts_over_cached_list
        for x, y in ((a, b), (b, a)):
            cached = engine._peer_list[x]
            starts_over_cached_list += cached is not None and y not in cached[1]
        on_contact_start(t, a, b, end)

    engine.sweep = probe
    on_contact_start = engine.on_contact_start
    engine.on_contact_start = contact_start
    probes = set()
    for start, end, a, b in trace.events.tolist():
        for t in (start, end, end + 0.5, (start + end) / 2):
            for node in (a, b):
                probes.add((t, node))
                engine.schedule_sweep(node, t)
    engine.run()
    assert set(seen) == probes
    for (t, node), peers in seen.items():
        assert peers == [m for m in range(n) if m != node and trace.in_contact(node, m, t)]
    for start, end, a, b in trace.events.tolist():
        assert b in seen[(start, a)] and a in seen[(start, b)]
        assert b in seen[(end, a)] and a in seen[(end, b)]
        assert b not in seen[(end + 0.5, a)]
    assert starts_over_cached_list > 0
    assert seen[(100.0, 10)] == [11]
    assert seen[(150.0, 10)] == [11, 12]
    assert seen[(200.0, 10)] == [11, 12]
    assert seen[(200.5, 10)] == []


def test_events_at_one_instant_run_by_kind_then_push_order():
    # Every kind of event falls at t=60: the unit boundary, two contact
    # starts, the completion of a 30 s stage begun at t=30, two scripted
    # requests, the sweep a carried request asks for, and the deadlines of
    # the two requests made at t=0.  The handlers run kind by kind in
    # HANDLERS order, and events of one kind in the order they were pushed:
    # the scripted requests in script order, not by origin.
    catalog = enumerate_services(3)
    placement = placement_of({0: [Service(1, 2)], 2: [Service(2, 3)]})
    script = ((0.0, 2, 1, 2), (0.0, 3, 1, 2), (30.0, 0, 1, 2),
              (60.0, 3, 1, 2), (60.0, 1, 1, 2))
    config = SimConfig(catalog=catalog, placement=placement,
                       pattern=RequestPattern(pairs=((1, 2),)), awareness="minimal",
                       timeout_s=60.0, mean_exec_s=30.0, exec_deterministic=True,
                       scripted_requests=script)
    trace = ContactTrace([(60.0, 120.0, 1, 2), (60.0, 90.0, 0, 3)], 4, 300.0)
    engine = _Engine(config, trace)
    calls = []

    def recorded(name):
        handler = getattr(engine, name)

        def wrapper(t, *payload):
            calls.append((t, name, payload))
            handler(t, *payload)
        return wrapper

    for name in HANDLERS:
        setattr(engine, name, recorded(name))
    engine.run()
    at_60 = [(name, payload) for t, name, payload in calls if t == 60.0]
    names = [name for name, _ in at_60]
    assert set(names) == set(HANDLERS)
    assert names == sorted(names, key=HANDLERS.index)
    assert names.count("on_deadline") == 2
    assert [p for name, p in at_60 if name == "on_contact_start"] == [(0, 3, 90.0),
                                                                       (1, 2, 120.0)]
    assert [p for name, p in at_60 if name == "on_generate"] == [((3, 1, 2),), ((1, 1, 2),)]


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
    carrier_age = (t - engine.last_enc[node][dest]) / cfg.unit_s
    for peer in engine._neighbors(node, t):
        if peer == dest:
            return peer
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
    engine.contact_end[0].update({1: 700.0, 2: 700.0})
    engine.last_enc[2][4] = engine.last_enc[2][3] = t
    for when in (400.0, 500.0, 550.0):
        engine.stats.record(2, when)
    engine.stats.record(0, 450.0)
    items = []
    for k, (stage, dest) in enumerate([(Service(2, 3), 4), (Service(1, 2), 4),
                                       (Service(2, 3), 4), (Service(2, 3), 3),
                                       (Service(2, 3), 4)]):
        item = _Item(RequestRecord(id=k, origin=0, input=stage.input, output=3,
                                   created=0.0, deadline=3000.0))
        item.current_input, item.planned_stage, item.destination = stage.input, stage, dest
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
    assert all(item.record.hops == 1 for item in items)
    # One decision per destination: each neighbour is asked once about it,
    # in id order, up to the first that passes.
    assert checks == [(1, 4), (2, 4), (1, 3), (2, 3)]
