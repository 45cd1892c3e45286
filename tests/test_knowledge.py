import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oppcompose.contact_engine import ContactTrace
from oppcompose.knowledge import (
    AWARENESS_LEVELS,
    Knowledge,
    close_load_window,
    exchange,
    exchange_all,
    owner_view,
)
from oppcompose.service_model import Service, ServicePlacement, enumerate_services
from oppcompose.sim_core import _GraphTemplate
from contact_reference import contact_sequence_oracle, relay_cost_oracle
from pricing_reference import cost_matrices, edge_costs, matrix_view, row_table

UNIT = 30.0


def propagate(events, n_nodes, t_av, duration, track_matrix=False):
    """Drive knowledge over a contact script exactly like the simulator:
    tick every unit, then run co-located exchanges to a fixpoint."""
    know = Knowledge(n_nodes, t_av=t_av, track_matrix=track_matrix)
    trace = ContactTrace(events, n_nodes, duration)
    per_boundary = trace.boundary_pairs(UNIT)
    for k, pairs in enumerate(per_boundary):
        if k:
            know.tick()
        exchange_all(know, pairs, now=float(k))
    return know


# -- tick --------------------------------------------------------------------

def test_tick_increments_all_but_self():
    know = Knowledge(3)
    know.timers[0, 1] = 3.0
    know.tick()
    assert know.timers[0, 1] == 4.0
    assert know.timers[0, 0] == 0.0
    assert math.isinf(know.timers[0, 2])


# -- contact update rule -------------------------------------------------------

def test_contact_rule_adopts_when_smaller_by_margin():
    know = Knowledge(3, t_av=0.5)
    know.timers[0, 2] = 50.0
    know.loads[0, 2] = 7.0
    know.timers[1, 2] = 10.0
    know.loads[1, 2] = 3.0
    exchange(know, 0, 1)
    assert know.timers[0, 2] == 10.5
    assert know.loads[0, 2] == 3.0


def test_contact_rule_guard_blocks_small_improvements():
    know = Knowledge(3, t_av=0.5)
    know.timers[0, 2] = 10.0
    know.timers[1, 2] = 9.8
    exchange(know, 0, 1)
    assert know.timers[0, 2] == 10.0  # 9.8 < 10 - 0.5 fails


def test_contact_sets_peer_timer_to_t_av():
    know = Knowledge(2, t_av=0.5)
    exchange(know, 0, 1)
    assert know.timers[0, 1] == 0.5
    assert know.timers[1, 0] == 0.5
    # A second exchange leaves it pinned at t_av.
    exchange(know, 0, 1)
    assert know.timers[0, 1] == 0.5


def test_missing_entries_always_adopted():
    know = Knowledge(4, t_av=0.5)
    know.timers[1, 3] = 12.0
    know.loads[1, 3] = 9.0
    exchange(know, 0, 1)
    assert know.timers[0, 3] == 12.5
    assert know.loads[0, 3] == 9.0


def test_exchange_is_order_symmetric():
    def build():
        know = Knowledge(4, t_av=0.5)
        know.timers[0, 2], know.timers[1, 2] = 4.0, 9.0
        know.timers[0, 3], know.timers[1, 3] = 20.0, 3.0
        return know

    first = build()
    exchange(first, 0, 1)
    second = build()
    exchange(second, 1, 0)
    assert np.array_equal(first.timers[0], second.timers[0])
    assert np.array_equal(first.timers[1], second.timers[1])


def test_three_node_chain_matches_oracle_plus_hops():
    # i=2 meets node 1 during [0, 30]; node 1 meets node 0 during [150, 180].
    # Queried at t=300 the best chain leaves node 2 at 30 (elapsed 270)
    # using 2 transfers.
    events = [(0.0, 30.0, 1, 2), (150.0, 180.0, 0, 1)]
    t_av = 0.5
    know = propagate(events, 3, t_av, duration=300.0)
    t_query = 300.0
    oracle = contact_sequence_oracle(ContactTrace(events, 3, 300.0), 2, 0, t_query)
    assert oracle == 270.0
    assert know.timers[0, 2] * UNIT == oracle + 2 * t_av * UNIT


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
    events = [(s, e, a, b)
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
        know = propagate(events, n, t_av, duration)
        for a in range(n):
            for i in range(n):
                if i == a:
                    continue
                timer_s = know.timers[a, i] * UNIT
                lo = contact_sequence_oracle(trace, i, a, duration)
                hi = relay_cost_oracle(trace, i, a, duration, hop_cost=t_av * UNIT)
                if math.isinf(lo):
                    assert math.isinf(timer_s)
                else:
                    assert timer_s >= lo - 1e-9
                    assert timer_s <= hi + 1e-9


# -- load window ----------------------------------------------------------------

def test_load_update_rule():
    assert close_load_window(4.0, 2, mean_exec=30.0, alpha=0.5) == 0.5 * 60.0 + 0.5 * 4.0


def test_load_decays_geometrically_when_idle():
    values, value = [], 16.0
    for _ in range(4):
        value = close_load_window(value, 0, mean_exec=30.0, alpha=0.5)
        values.append(value)
    assert values == [8.0, 4.0, 2.0, 1.0]


def test_load_converges_to_backlog():
    value = 0.0
    for _ in range(60):
        value = close_load_window(value, 1, mean_exec=30.0, alpha=0.5)
    assert abs(value - 30.0) < 1e-6


def test_load_closed_form_on_scripted_backlog():
    # l_k = a*c_k + (1-a)*l_{k-1} unrolls to a weighted sum of backlogs.
    alpha = 0.5
    backlog = [3, 0, 2, 5, 1, 0, 4]
    value = 0.0
    for c in backlog:
        value = close_load_window(value, c, mean_exec=30.0, alpha=alpha)
    expected = 0.0
    for c in backlog:
        expected = alpha * (c * 30.0) + (1 - alpha) * expected
    assert value == expected


def test_load_window_closes_every_node_at_once():
    # The engine closes all nodes' windows in one array call; each entry
    # equals the scalar rule on that node's backlog.
    l_old = np.array([0.0, 4.0, 16.0, 7.5])
    pending = np.array([0, 2, 0, 3])
    closed = close_load_window(l_old, pending, mean_exec=30.0, alpha=0.3)
    assert closed.tolist() == [close_load_window(float(old), int(p), 30.0, 0.3)
                               for old, p in zip(l_old, pending)]


# -- estimates -------------------------------------------------------------------

def priced(level, know, now=0.0, live_loads=None):
    """Node 0's (dist, load); one-second units keep loads in seconds."""
    return cost_matrices(level, know, 0, now, 1.0, live_loads)


def test_minimal_level_constant():
    dist, load = priced("minimal", Knowledge(5))
    assert dist[1, 3] == 1.0
    assert load[3] == 0.0


def test_local_level_own_timer():
    know = Knowledge(5)
    know.timers[0, 3] = 7.0
    dist, _ = priced("local", know)
    assert dist[0, 3] == 7.0
    assert dist[3, 0] == 7.0


def test_local_level_sum_for_other_pairs():
    know = Knowledge(5)
    know.timers[0, 1] = 3.0
    know.timers[0, 2] = 4.0
    assert priced("local", know)[0][1, 2] == 7.0


def test_unknown_peer_is_unreachable():
    know = Knowledge(5)
    know.timers[0, 1] = 3.0
    assert math.isinf(priced("local", know)[0][1, 2])


def test_perfect_level_reads_live_stores():
    know = Knowledge(3)
    know.timers[1, 2] = 5.0
    dist, load = priced("perfect", know, live_loads=np.array([0.0, 0.0, 42.0]))
    assert dist[1, 2] == 5.0
    assert load[2] == 42.0


def test_gossip_keeps_one_copy_per_observed_row():
    # An n x n x n array of gossiped rows alone would take 64 MB at n=200.
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        know = Knowledge(200, track_matrix=True)
        for k in range(8):
            pairs = {tuple(sorted(int(v) for v in rng.choice(200, 2, replace=False)))
                     for _ in range(60)}
            exchange_all(know, sorted(pairs), now=float(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_global_level_uses_aged_rows():
    know = Knowledge(3, track_matrix=True)
    know.timers[1, 2] = 2.0
    exchange(know, 0, 1, now=10.0)
    # Row for node 1 observed at t=10 says t_1(2) = 2; four units later the
    # estimate has aged accordingly.
    assert priced("global", know, now=14.0)[0][1, 2] == 6.0
    row, age = owner_view("global", know, 0, 14.0, 1.0)[2][1]
    assert (row[2], age) == (2.0, 4.0)


def test_owners_share_gossip_rows_over_host_columns():
    # Nodes 1, 2 and 4 host services; 0 and 3 host none.  Views span the
    # three columns plus the slot of an owner without one, and every owner
    # reads the same stored row object with its age: the search prices an
    # edge into the owner from T alone, so no view patches the owner's
    # entry in a row.
    know = Knowledge(5, track_matrix=True, columns=[4, 1, 2])
    assert know.timers.shape == (5, 3) and know.columns.tolist() == [1, 2, 4]
    assert know.slots.tolist() == [3, 0, 1, 3, 2]
    exchange_all(know, [(0, 1), (1, 2), (2, 3), (3, 4)], now=1.0)
    know.tick()
    views = {owner: owner_view("global", know, owner, 3.0, 1.0) for owner in (0, 3, 4)}
    for timers, loads, _ in views.values():
        assert len(timers) == len(loads) == 4
    assert views[0][0][3] == 0.0 and views[4][0][2] == 0.0  # each owner's own slot
    row, age = views[0][2][0]  # node 1's row, observed at 1 and aged by 2 units
    assert row is know.rows[1.0, know.slots[1]] and age == 2.0
    for owner in (3, 4):
        assert views[owner][2][0][0] is row and views[owner][2][0][1] == age
    assert not math.isnan(row[2])  # its entry about node 4, an owner here, stays
    assert views[4][2][2] == views[0][2][3] == (None, 0.0)  # no row of one's own
    assert views[4][2][1][0] is views[0][2][1][0]


def test_gossip_is_keyed_by_host_column():
    # Nodes 1, 3 and 4 host services.  A group with non-host members 0 and
    # 2 observes and files only the rows of hosts 1 and 3, by column, with
    # NaN for no estimate.
    know = Knowledge(6, track_matrix=True, columns=[1, 3, 4])
    assert know.matrix_obs.shape == (6, 3)
    exchange_all(know, [(2, 3), (1, 2), (0, 1)], now=1.0)
    assert list(know.rows) == [(1.0, 0), (1.0, 1)]
    block = np.array([know.rows[1.0, c] for c in (0, 1)])
    assert np.isnan(block[:, 2]).all() and np.isinf(know.timers[[1, 3], 2]).all()
    assert np.array_equal(block[:, :2], know.timers[[1, 3], :2])
    assert know.matrix_obs[:4].tolist() == [[1.0, 1.0, -math.inf]] * 4
    # A group that hosts nothing files no row, yet merges observations.
    know.tick()
    exchange_all(know, [(0, 5)], now=2.0)
    assert list(know.rows) == [(1.0, 0), (1.0, 1)]
    assert know.matrix_obs[5].tolist() == [1.0, 1.0, -math.inf]


def test_local_sum_brackets_oracle_under_recurring_contacts():
    # With periodically repeating meetings every pair stays mutually
    # reachable, and the sum of own timers upper-bounds the elapsed-time
    # oracle between two other nodes.
    events = []
    for k in range(0, 36, 3):
        events.append((k * UNIT, (k + 1) * UNIT, 0, 1))
        events.append(((k + 1) * UNIT, (k + 2) * UNIT, 0, 2))
    duration = 40 * UNIT
    trace = ContactTrace(events, 3, duration)
    know = propagate(events, 3, 0.5, duration)
    t = duration
    true_12 = contact_sequence_oracle(trace, 1, 2, t)
    approx = priced("local", know)[0][1, 2] * UNIT
    spread = abs(know.timers[0, 1] - know.timers[0, 2]) * UNIT
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
    now = draw(st.integers(20, 40))
    know = Knowledge(n, track_matrix=True)
    for i in range(n):
        know.timers[i] = draw(st.lists(TIMERS, min_size=n, max_size=n))
        know.timers[i, i] = 0.0
    know.tick()  # ages every entry
    # Gossip holds one row per (row, observation time): whole times make
    # several nodes share an observation.
    drawn = {}
    matrix = np.full((n, n, n), math.inf)
    for i in range(n):
        know.loads[i] = draw(st.lists(AMOUNTS, min_size=n, max_size=n))
        for row in range(n):
            kind = draw(st.sampled_from(("unobserved", "observed", "infinite")))
            if kind == "unobserved":
                continue
            seen = draw(st.one_of(st.floats(0.0, float(now)), st.integers(0, now).map(float)))
            if (row, seen) not in drawn:
                drawn[row, seen] = (draw(st.lists(TIMERS, min_size=n, max_size=n))
                                    if kind == "observed" else [math.inf] * n)
            know.matrix_obs[i, row] = seen
            matrix[i, row] = drawn[row, seen]
    know.rows = row_table(matrix, know.matrix_obs)
    live_loads = np.array(draw(st.lists(AMOUNTS, min_size=n, max_size=n)))
    unit_s = draw(st.sampled_from((1.0, 7.0, 30.0)))
    return _GraphTemplate(placement, 4, single_stage=False), know, owner, now, unit_s, live_loads


@pytest.mark.parametrize("level", AWARENESS_LEVELS)
@settings(max_examples=75, deadline=None)
@given(case=pricing_cases(), load_aware=st.booleans())
def test_owner_view_matches_reference_matrices(level, case, load_aware):
    template, know, owner, now, unit_s, live_loads = case
    dist, load = cost_matrices(level, know, owner, now, unit_s, live_loads)
    base = template.n_service_vertices
    device = [template.devices[v] if v < base else owner for v in range(template.n_vertices)]
    ends = [(device[u], device[v]) for u, heads in enumerate(template.heads) for v in heads]
    assert any(s == d for s, d in ends) and any(s == owner != d for s, d in ends)
    assert any(s != d and owner not in (s, d) for s, d in ends)
    timers, loads, pairs = owner_view(level, know, owner, now, unit_s, live_loads)
    n = know.n_nodes
    others = [(s, d) for s in range(n) for d in range(n) if s != d]

    def distance(s, d, view=(timers, loads, pairs), owner=owner):
        t, _, p = view
        if d == owner:
            return t[s]
        row, age = (None, 0.0) if p is None else p[s]
        w = math.nan if row is None else row[d] + age
        return t[s] + t[d] if math.isnan(w) else w

    got = [distance(s, d) for s, d in others]
    expected = [dist[s, d] for s, d in others]
    assert got == expected
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    # Every owner's view in the same unit, with all rows built before any is
    # read: owners share gossip rows, yet each prices as its own reference.
    views = [owner_view(level, know, o, now, unit_s, live_loads) for o in range(n)]
    for _, _, p in views:
        if p is not None:
            for s in range(n):
                p[s]  # a row is built on first read
    for o, view in enumerate(views):
        ref = cost_matrices(level, know, o, now, unit_s, live_loads)[0]
        mine = [distance(s, d, view, o) for s, d in others]
        assert np.array(mine).tobytes() == np.array([ref[s, d] for s, d in others]).tobytes()
    # Every node keeps a column here; local and global views add the slot
    # of an owner with none.
    assert len(timers) == (n if level == "perfect" else n + 1)
    if level == "minimal":
        assert loads is None
    else:
        assert np.array(loads[:n]).tobytes() == load.tobytes()
    # Searches on the view price every edge as the reference does.
    view = timers, loads if load_aware else None, pairs
    reference = matrix_view(owner, dist, load, load_aware)
    costs = edge_costs(template, owner, dist, load, load_aware)
    vertex = {copy: v for v, copy in enumerate(template.copies)}
    for req_in in range(1, 5):
        for req_out in range(1, 5):
            path = template.shortest(owner, req_in, req_out, view)
            assert path == template.shortest(owner, req_in, req_out, reference)
            if path is None:
                continue
            walk = ([template.type_vertex[req_in]] + [vertex[stage] for stage in path.stages]
                    + [template.type_vertex[req_out]])
            total = 0.0
            for u, v in zip(walk, walk[1:]):
                total += costs[u, v]
            assert np.float64(total).tobytes() == np.float64(path.cost).tobytes()
