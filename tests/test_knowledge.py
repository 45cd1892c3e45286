import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oppcompose.contact_engine import ContactEvent, ContactTrace
from oppcompose.knowledge import (
    AWARENESS_LEVELS,
    KnowledgeStore,
    LoadTracker,
    edge_ends,
    edge_prices,
    exchange,
    exchange_all,
)
from oppcompose.service_model import Service, ServicePlacement, enumerate_services
from oppcompose.sim_core import _GraphTemplate
from contact_reference import contact_sequence_oracle, relay_cost_oracle
from pricing_reference import cost_matrices, edge_costs

UNIT = 30.0


def propagate(events, n_nodes, t_av, duration, radius=None, track_matrix=False):
    """Drive stores over a contact script exactly like the simulator: tick
    every unit, then run co-located exchanges to a fixpoint."""
    stores = [KnowledgeStore(i, n_nodes, t_av=t_av, radius=radius,
                             track_matrix=track_matrix) for i in range(n_nodes)]
    trace = ContactTrace(events, n_nodes, duration)
    per_boundary = trace.boundary_pairs(UNIT)
    for k, pairs in enumerate(per_boundary):
        if k:
            for s in stores:
                s.tick(1.0)
        exchange_all(stores, pairs, now=float(k))
    return stores


# -- tick --------------------------------------------------------------------

def test_tick_increments_all_but_self():
    store = KnowledgeStore(0, 3)
    store.timers[1] = 3.0
    store.tick(1.0)
    assert store.timers[1] == 4.0
    assert store.timers[0] == 0.0
    assert math.isinf(store.timers[2])


def test_two_ticks_equal_one_double_tick():
    a = KnowledgeStore(0, 3)
    b = KnowledgeStore(0, 3)
    a.timers[1] = b.timers[1] = 5.0
    a.tick(1.0)
    a.tick(1.0)
    b.tick(2.0)
    assert np.array_equal(a.timers, b.timers)


def test_tick_rejects_nonpositive():
    with pytest.raises(ValueError):
        KnowledgeStore(0, 2).tick(0.0)


# -- contact update rule -------------------------------------------------------

def test_contact_rule_adopts_when_smaller_by_margin():
    a = KnowledgeStore(0, 3, t_av=0.5)
    b = KnowledgeStore(1, 3, t_av=0.5)
    a.timers[2] = 50.0
    a.loads[2] = 7.0
    b.timers[2] = 10.0
    b.loads[2] = 3.0
    exchange(a, b)
    assert a.timers[2] == 10.5
    assert a.loads[2] == 3.0


def test_contact_rule_guard_blocks_small_improvements():
    a = KnowledgeStore(0, 3, t_av=0.5)
    b = KnowledgeStore(1, 3, t_av=0.5)
    a.timers[2] = 10.0
    b.timers[2] = 9.8
    exchange(a, b)
    assert a.timers[2] == 10.0  # 9.8 < 10 - 0.5 fails


def test_contact_sets_peer_timer_to_t_av():
    a = KnowledgeStore(0, 2, t_av=0.5)
    b = KnowledgeStore(1, 2, t_av=0.5)
    exchange(a, b)
    assert a.timers[1] == 0.5
    assert b.timers[0] == 0.5
    # A second exchange leaves it pinned at t_av.
    exchange(a, b)
    assert a.timers[1] == 0.5


def test_missing_entries_always_adopted():
    a = KnowledgeStore(0, 4, t_av=0.5)
    b = KnowledgeStore(1, 4, t_av=0.5)
    b.timers[3] = 12.0
    b.loads[3] = 9.0
    exchange(a, b)
    assert a.timers[3] == 12.5
    assert a.loads[3] == 9.0


def test_exchange_is_order_symmetric():
    def build():
        a = KnowledgeStore(0, 4, t_av=0.5)
        b = KnowledgeStore(1, 4, t_av=0.5)
        a.timers[2], b.timers[2] = 4.0, 9.0
        a.timers[3], b.timers[3] = 20.0, 3.0
        return a, b

    a1, b1 = build()
    exchange(a1, b1)
    a2, b2 = build()
    exchange(b2, a2)
    assert np.array_equal(a1.timers, a2.timers)
    assert np.array_equal(b1.timers, b2.timers)


def test_radius_pruning_drops_far_entries():
    a = KnowledgeStore(0, 3, t_av=0.5, radius=10.0)
    b = KnowledgeStore(1, 3, t_av=0.5, radius=10.0)
    b.timers[2] = 30.0
    exchange(a, b)
    assert math.isinf(a.timers[2])  # 30.5 exceeds the radius, not stored
    a.timers[2] = 9.0
    a.tick(1.0)
    a.tick(1.0)
    assert math.isinf(a.timers[2])  # ticked past the radius, dropped


def test_three_node_chain_matches_oracle_plus_hops():
    # i=2 meets node 1 during [0, 30]; node 1 meets node 0 during [150, 180].
    # Queried at t=300 the best chain leaves node 2 at 30 (elapsed 270)
    # using 2 transfers.
    events = [ContactEvent(0.0, 30.0, 1, 2), ContactEvent(150.0, 180.0, 0, 1)]
    t_av = 0.5
    stores = propagate(events, 3, t_av, duration=300.0)
    t_query = 300.0
    oracle = contact_sequence_oracle(ContactTrace(events, 3, 300.0), 2, 0, t_query)
    assert oracle == 270.0
    assert stores[0].timers[2] * UNIT == oracle + 2 * t_av * UNIT


# -- timer correctness against the oracle ---------------------------------------

def random_script(rng, n_nodes, n_events, horizon_units):
    """Non-overlapping unit-aligned contact events for a small node set."""
    per_pair = {}
    for _ in range(n_events):
        a, b = sorted(rng.choice(n_nodes, size=2, replace=False))
        start = int(rng.integers(0, horizon_units - 2)) * UNIT
        end = start + int(rng.integers(1, 4)) * UNIT
        ivs = per_pair.setdefault((int(a), int(b)), [])
        if any(not (end < s or start > e) for s, e in ivs):
            continue
        ivs.append((start, end))
    events = [ContactEvent(s, e, a, b)
              for (a, b), ivs in per_pair.items() for s, e in ivs]
    return events


@pytest.mark.parametrize("t_av", [0.5, 1.0])
def test_timers_bounded_by_oracle(t_av):
    rng = np.random.default_rng(17)
    horizon_units = 40
    duration = horizon_units * UNIT
    for _ in range(30):
        n = int(rng.integers(3, 7))
        events = random_script(rng, n, 14, horizon_units)
        trace = ContactTrace(events, n, duration)
        stores = propagate(events, n, t_av, duration)
        for a in range(n):
            for i in range(n):
                if i == a:
                    continue
                timer_s = stores[a].timers[i] * UNIT
                lo = contact_sequence_oracle(trace, i, a, duration)
                hi = relay_cost_oracle(trace, i, a, duration, hop_cost=t_av * UNIT)
                if math.isinf(lo):
                    assert math.isinf(timer_s)
                else:
                    assert timer_s >= lo - 1e-9
                    assert timer_s <= hi + 1e-9


# -- load tracker ---------------------------------------------------------------

def test_load_update_rule():
    tracker = LoadTracker(mean_exec=30.0, alpha=0.5, l_old=4.0)
    assert tracker.update(pending_count=2) == 0.5 * 60.0 + 0.5 * 4.0


def test_load_decays_geometrically_when_idle():
    tracker = LoadTracker(mean_exec=30.0, alpha=0.5, l_old=16.0)
    values = [tracker.update(0) for _ in range(4)]
    assert values == [8.0, 4.0, 2.0, 1.0]


def test_load_converges_to_backlog():
    tracker = LoadTracker(mean_exec=30.0, alpha=0.5)
    for _ in range(60):
        value = tracker.update(1)
    assert abs(value - 30.0) < 1e-6


def test_load_closed_form_on_scripted_backlog():
    # l_k = a*c_k + (1-a)*l_{k-1} unrolls to a weighted sum of backlogs.
    alpha = 0.5
    backlog = [3, 0, 2, 5, 1, 0, 4]
    tracker = LoadTracker(mean_exec=30.0, alpha=alpha)
    for c in backlog:
        value = tracker.update(c)
    expected = 0.0
    for c in backlog:
        expected = alpha * (c * 30.0) + (1 - alpha) * expected
    assert value == expected


# -- estimates -------------------------------------------------------------------

def priced(level, stores, now=0.0, live_loads=None):
    """Node 0's (dist, load); one-second units keep loads in seconds."""
    return cost_matrices(level, stores, 0, now, 1.0, live_loads)


def test_minimal_level_constant():
    dist, load = priced("minimal", [KnowledgeStore(i, 5) for i in range(5)])
    assert dist[1, 3] == 1.0
    assert load[3] == 0.0


def test_local_level_own_timer():
    stores = [KnowledgeStore(i, 5) for i in range(5)]
    stores[0].timers[3] = 7.0
    dist, _ = priced("local", stores)
    assert dist[0, 3] == 7.0
    assert dist[3, 0] == 7.0


def test_local_level_sum_for_other_pairs():
    stores = [KnowledgeStore(i, 5) for i in range(5)]
    stores[0].timers[1] = 3.0
    stores[0].timers[2] = 4.0
    assert priced("local", stores)[0][1, 2] == 7.0


def test_unknown_peer_is_unreachable():
    stores = [KnowledgeStore(i, 5) for i in range(5)]
    stores[0].timers[1] = 3.0
    assert math.isinf(priced("local", stores)[0][1, 2])


def test_perfect_level_reads_live_stores():
    stores = [KnowledgeStore(i, 3) for i in range(3)]
    stores[1].timers[2] = 5.0
    dist, load = priced("perfect", stores, live_loads=np.array([0.0, 0.0, 42.0]))
    assert dist[1, 2] == 5.0
    assert load[2] == 42.0


def test_global_level_uses_aged_rows():
    stores = [KnowledgeStore(i, 3, track_matrix=True) for i in range(3)]
    a, b = stores[0], stores[1]
    b.timers[2] = 2.0
    exchange(a, b, now=10.0)
    # Row for node 1 observed at t=10 says t_1(2) = 2; four units later the
    # estimate has aged accordingly.
    assert priced("global", stores, now=14.0)[0][1, 2] == 6.0


def test_local_sum_brackets_oracle_under_recurring_contacts():
    # With periodically repeating meetings every pair stays mutually
    # reachable, and the sum of own timers upper-bounds the elapsed-time
    # oracle between two other nodes.
    events = []
    for k in range(0, 36, 3):
        events.append(ContactEvent(k * UNIT, (k + 1) * UNIT, 0, 1))
        events.append(ContactEvent((k + 1) * UNIT, (k + 2) * UNIT, 0, 2))
    duration = 40 * UNIT
    trace = ContactTrace(events, 3, duration)
    stores = propagate(events, 3, 0.5, duration)
    t = duration
    true_12 = contact_sequence_oracle(trace, 1, 2, t)
    approx = priced("local", stores)[0][1, 2] * UNIT
    spread = abs(stores[0].timers[1] - stores[0].timers[2]) * UNIT
    assert spread - 2 * 0.5 * UNIT <= true_12 <= approx + 2 * 0.5 * UNIT


# -- edge prices against the n x n reference ---------------------------------------

TIMERS = st.one_of(st.just(math.inf), st.floats(0.0, 60.0), st.integers(0, 40).map(float))
AMOUNTS = st.one_of(st.floats(0.0, 1e4), st.integers(0, 300).map(float))


@st.composite
def pricing_cases(draw):
    """An owner's graph and every node's knowledge, as the engine holds them."""
    n = draw(st.integers(3, 6))
    owner = draw(st.integers(0, n - 1))
    catalog = enumerate_services(4)
    hosts = {s: set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
             for s in catalog.services}
    # The owner hosts a first stage (owner-incident s == d edges); another
    # node hosts two chained services (an s == d edge between other nodes,
    # and owner-incident edges to a second device), and a third node the
    # next stage (an edge between two nodes other than the owner).
    both, third = draw(st.permutations([v for v in range(n) if v != owner]))[:2]
    hosts[Service(1, 2)] |= {owner, both}
    hosts[Service(2, 3)].add(both)
    hosts[Service(3, 4)].add(third)
    by_node = {v: tuple(sorted(s for s, h in hosts.items() if v in h)) for v in range(n)}
    placement = ServicePlacement(by_node=by_node,
                                 by_service={s: tuple(sorted(h)) for s, h in hosts.items()},
                                 repetition=1)
    radius = draw(st.one_of(st.none(), st.floats(5.0, 40.0)))
    now = draw(st.integers(20, 40))
    stores = []
    for i in range(n):
        store = KnowledgeStore(i, n, radius=radius, track_matrix=True)
        store.timers[:] = draw(st.lists(TIMERS, min_size=n, max_size=n))
        store.timers[i] = 0.0
        store.tick(1.0)  # ages every entry and prunes those past the radius
        store.loads[:] = draw(st.lists(AMOUNTS, min_size=n, max_size=n))
        for row in range(n):
            kind = draw(st.sampled_from(("unobserved", "observed", "infinite")))
            if kind == "unobserved":
                continue
            store.matrix_obs[row] = draw(st.floats(0.0, float(now)))
            if kind == "observed":
                store.matrix[row] = draw(st.lists(TIMERS, min_size=n, max_size=n))
        stores.append(store)
    live_loads = np.array(draw(st.lists(AMOUNTS, min_size=n, max_size=n)))
    unit_s = draw(st.sampled_from((1.0, 7.0, 30.0)))
    return _GraphTemplate(placement, 4, single_stage=False), stores, owner, now, unit_s, live_loads


@pytest.mark.parametrize("level", AWARENESS_LEVELS)
@settings(max_examples=75, deadline=None)
@given(case=pricing_cases(), load_aware=st.booleans())
def test_edge_prices_match_reference_matrices(level, case, load_aware):
    template, stores, owner, now, unit_s, live_loads = case
    dist, load = cost_matrices(level, stores, owner, now, unit_s, live_loads)
    expected = edge_costs(template, owner, dist, load, load_aware)
    loaded = np.flatnonzero(template.e_load) if load_aware else None
    ends = edge_ends(owner, template.e_sdev, template.e_ddev, loaded)
    src, dst = ends.src, ends.dst
    assert any(src == dst) and any((src == owner) & (dst != owner)) and len(ends.others)
    timers = np.stack([s.timers for s in stores])
    got = edge_prices(level, stores, owner, ends, now, unit_s, timers, live_loads).tolist()
    assert got == expected
    assert np.array(got).tobytes() == np.array(expected).tobytes()
