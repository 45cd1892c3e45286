"""Differential tests of the one-shot knowledge closure.

The first reference is the rule the closure replaces: symmetric pairwise
exchanges over every co-located pair, repeated until no timer changes.
Each boundary starts both from the same state, so a tie resolved
differently at one boundary cannot mask a difference at the next.  The
second is the dense closure: a hop-count matrix by BFS, then every member
a source for every receiver in every column, ranked in float.  It carries
its state across boundaries beside the closure, in replays, on random
groups and in whole engine runs.  Both keep gossiped timer rows as an
n x n x n ``matrix`` (``matrix[i, r]``: the row of r that node i last
observed) and are compared, on the closure's columns, with its observation
times and row table through ``observed_rows``.
"""

import copy
import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oppcompose import knowledge, sim_core
from oppcompose.contact_engine import ContactTrace, contacts_from_positions
from oppcompose.knowledge import Knowledge, exchange, exchange_all
from oppcompose.mobility import LevyWalkParams, generate_levy
from oppcompose.service_model import assign_services, enumerate_services
from oppcompose.sim_core import RequestPattern, SimConfig, run, write_records_csv
from contact_reference import boundary_pairs
from pricing_reference import observed_rows, row_table

UNIT = 30.0


def t_av_id(t_av):
    """Case id of a t_av value.  The "-None" is the unset gossip radius the
    cases were once also parametrised by; it keeps their ids unchanged."""
    return f"{t_av}-None"


def with_matrix(know):
    """A deep copy of ``know`` whose gossiped rows are also spread into the
    n x n x n ``matrix`` the references merge (None without tracking)."""
    out = copy.deepcopy(know)
    out.matrix = None if know.matrix_obs is None else observed_rows(know)
    return out


# -- pairwise fixed point (reference) -------------------------------------------

def _adopt(know, i, peer_timers, peer_loads):
    """Node i adopts the peer's entries smaller by more than t_av, charging t_av."""
    timers, loads = know.timers[i], know.loads[i]
    candidate = peer_timers + know.t_av
    mask = peer_timers < timers - know.t_av
    mask[i] = False
    if not mask.any():
        return False
    timers[mask] = candidate[mask]
    loads[mask] = peer_loads[mask]
    return True


def _merge_matrix(know, i, now, peer_matrix, peer_obs, peer_id, peer_timers):
    matrix, obs = know.matrix[i], know.matrix_obs[i]
    newer = peer_obs > obs
    newer[i] = False
    matrix[newer] = peer_matrix[newer]
    obs[newer] = peer_obs[newer]
    matrix[peer_id] = peer_timers
    obs[peer_id] = now
    matrix[i] = know.timers[i]
    obs[i] = now


def pairwise_exchange(know, a, b, now=0.0):
    ta, la = know.timers[a].copy(), know.loads[a].copy()
    tb, lb = know.timers[b].copy(), know.loads[b].copy()
    changed = _adopt(know, a, tb, lb)
    changed |= _adopt(know, b, ta, la)
    if know.matrix is not None:
        ma, oa = know.matrix[a].copy(), know.matrix_obs[a].copy()
        _merge_matrix(know, a, now, know.matrix[b], know.matrix_obs[b], b, tb)
        _merge_matrix(know, b, now, ma, oa, a, ta)
    return changed


def pairwise_fixpoint(know, pairs, now=0.0):
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            changed |= pairwise_exchange(know, i, j, now)


# -- brute-force closure with the pinned tie order --------------------------------

def hop_counts(pairs, source):
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def expected_closure(before, pairs, now):
    """Per member: (timers, loads, matrix, matrix_obs, sources) after the closure.

    ``sources[k]`` lists every source whose candidate equals the adopted
    minimum, so a test can tell unique minima from ties.
    """
    out = {}
    members = sorted({v for p in pairs for v in p})
    for i in members:
        hops = hop_counts(pairs, i)
        timers, loads = before.timers[i].copy(), before.loads[i].copy()
        sources = {}
        for k in range(before.n_nodes):
            if k == i:
                continue
            cand = {j: before.timers[j, k] + h * before.t_av for j, h in hops.items()}
            best = min(cand.values())
            ranked = sorted(hops, key=lambda j: (cand[j], hops[j], j))
            winner = ranked[0]
            if winner != i:
                timers[k] = best
                loads[k] = before.loads[winner, k]
                sources[k] = [j for j in ranked if cand[j] == best]
        out[i] = {"timers": timers, "loads": loads, "sources": sources, "hops": hops}
    if before.matrix is None:
        return out
    for i in members:
        hops = out[i]["hops"]
        matrix, obs = before.matrix[i].copy(), before.matrix_obs[i].copy()
        for r in range(before.n_nodes):
            if r in hops:
                matrix[r] = out[r]["timers"]
                obs[r] = now
                continue
            winner = sorted(hops, key=lambda j: (-before.matrix_obs[j, r], hops[j], j))[0]
            matrix[r] = before.matrix[winner, r]
            obs[r] = before.matrix_obs[winner, r]
        out[i]["matrix"], out[i]["obs"] = matrix, obs
    return out


# -- dense closure (reference) ------------------------------------------------------

def _hop_counts(m: int, ia: list[int], ib: list[int]) -> np.ndarray:
    """All-pairs hop counts of the undirected graph on ``m`` vertices with
    edges ``(ia[e], ib[e])``; infinity between components.

    Each BFS level is one boolean frontier times adjacency product, done
    as a float32 matmul (counts stay far below 2**24); a pair's count is
    the number of levels it stays unreached.
    """
    adj = np.zeros((m, m), dtype=np.float32)
    adj[ia, ib] = adj[ib, ia] = 1.0
    frontier = np.eye(m, dtype=np.float32)
    unseen = frontier == 0
    hops = np.zeros((m, m))
    while True:
        new = frontier @ adj > 0
        new &= unseen
        if not new.any():
            hops[unseen] = math.inf
            return hops
        hops += unseen
        unseen ^= new
        frontier = new.astype(np.float32)


def dense_exchange_all(know, pairs, now=0.0):
    """Every member a source for every receiver, in every column."""
    if not len(pairs):
        return False
    nodes = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(nodes)}
    hops = _hop_counts(len(nodes), [index[a] for a, _ in pairs], [index[b] for _, b in pairs])
    nodes = np.array(nodes)
    m = len(nodes)
    timers, loads = know.timers[nodes], know.loads[nodes]
    same = np.isfinite(hops)
    # Sources per receiver in tie order: itself, then by hops, then by id.
    order = np.argsort(np.minimum(hops, m), axis=1, kind="stable")
    hops = np.take_along_axis(hops, order, axis=1)
    cost = np.where(np.isfinite(hops), hops * know.t_av, math.inf)
    new_timers, new_loads = timers.copy(), loads.copy()
    cols = np.arange(know.n_nodes)
    for i in range(m):
        width = same[i].sum()
        cand = timers[order[i, :width]] + cost[i, :width, None]
        first = cand.argmin(axis=0)
        best = cand[first, cols]
        adopt = first > 0
        adopt[nodes[i]] = False
        new_timers[i] = np.where(adopt, best, timers[i])
        new_loads[i] = np.where(adopt, loads[order[i, first], cols], loads[i])
    know.timers[nodes] = new_timers
    know.loads[nodes] = new_loads
    if know.matrix_obs is not None:
        if not hasattr(know, "matrix"):  # a Knowledge no dense merge has touched
            know.matrix = observed_rows(know)
        for lowest in np.flatnonzero(same.argmax(axis=1) == np.arange(m)):
            merge_dense_rows(know, nodes[same[lowest]], now)
        # What the engine's owner views read.
        know.rows = row_table(know.matrix, know.matrix_obs)
    return bool((new_timers != timers).any())


def merge_dense_rows(know, group, now):
    """Give each member of ``group`` the group's freshest row per node, then
    make its rows about members their settled timers, observed at ``now``."""
    obs = know.matrix_obs[group]
    holder = obs.argmax(axis=0)  # per row, the lowest member holding the freshest
    freshest = obs[holder, np.arange(know.n_nodes)]
    member, row = np.nonzero(obs < freshest)
    know.matrix[group[member], row] = know.matrix[group[holder[row]], row]
    know.matrix_obs[group[member], row] = freshest[row]
    know.matrix[group[:, None], group] = know.timers[group]
    know.matrix_obs[group[:, None], group] = now


# -- scripts ---------------------------------------------------------------------

def random_script(rng, n_nodes, n_events, horizon_units):
    """Non-overlapping unit-aligned contact events, dense enough for groups."""
    per_pair = {}
    for _ in range(n_events):
        a, b = sorted(int(x) for x in rng.choice(n_nodes, size=2, replace=False))
        start = int(rng.integers(0, horizon_units - 2)) * UNIT
        end = start + int(rng.integers(1, 5)) * UNIT
        ivs = per_pair.setdefault((a, b), [])
        if any(not (end < s or start > e) for s, e in ivs):
            continue
        ivs.append((start, end))
    return [(s, e, a, b) for (a, b), ivs in per_pair.items() for s, e in ivs]


@pytest.mark.parametrize("track_matrix", [False, True])
@pytest.mark.parametrize("t_av", [0.5, 1.0], ids=t_av_id)
def test_closure_matches_pairwise_fixpoint(t_av, track_matrix):
    rng = np.random.default_rng(23)
    horizon = 30
    counts = {"unique": 0, "tied": 0, "multihop": 0}
    for _ in range(12):
        n = int(rng.integers(3, 9))
        events = random_script(rng, n, 4 * n, horizon)
        per_boundary = boundary_pairs(ContactTrace(events, n, horizon * UNIT), UNIT)
        know = Knowledge(n, t_av=t_av, track_matrix=track_matrix)
        for k, pairs in enumerate(per_boundary):
            if k:
                know.tick()
            for i in range(n):
                # Distinct loads make each adopted load name its source.
                know.loads[i, i] = float(rng.integers(1, 10**6))
            if not len(pairs):
                continue
            before = with_matrix(know)
            oracle = with_matrix(know)
            pairwise_fixpoint(oracle, pairs, now=float(k))
            want = expected_closure(before, pairs, float(k))
            exchange_all(know, pairs, now=float(k))
            matrix = observed_rows(know) if track_matrix else None
            counts["multihop"] += any(max(w["hops"].values()) > 1 for w in want.values())
            for i in range(n):
                # Bit-identical timers.
                assert np.array_equal(know.timers[i], oracle.timers[i])
                if i not in want:
                    assert np.array_equal(know.loads[i], before.loads[i])
                    continue
                assert np.array_equal(know.timers[i], want[i]["timers"])
                # Loads: pinned tie order everywhere, the reference's where unique.
                assert np.array_equal(know.loads[i], want[i]["loads"])
                for peer, sources in want[i]["sources"].items():
                    if len(sources) == 1:
                        counts["unique"] += 1
                        assert know.loads[i, peer] == oracle.loads[i, peer]
                    else:
                        counts["tied"] += 1
                if track_matrix:
                    assert np.array_equal(matrix[i], want[i]["matrix"])
                    assert np.array_equal(know.matrix_obs[i], want[i]["obs"])
            if track_matrix:
                # One observation time names one row: the merge's premise.
                for r in range(n):
                    seen = know.matrix_obs[:, r]
                    for when in set(seen[np.isfinite(seen)].tolist()):
                        rows = matrix[seen == when, r]
                        assert (rows == rows[0]).all()
    # The scripts exercise both unique and tied minima, and multi-hop groups.
    assert counts["unique"] > 100 and counts["tied"] > 10 and counts["multihop"] > 10


def test_tie_prefers_fewer_hops_then_lower_id():
    know = Knowledge(10, t_av=0.5)
    # Star 0-1-2: nodes 0 and 2 offer node 1 the same entry for 9 at one
    # hop each; the lower id wins.
    know.timers[0, 9], know.loads[0, 9] = 4.0, 100.0
    know.timers[2, 9], know.loads[2, 9] = 4.0, 200.0
    # Chain 5-6-7-8: node 8 gets 4.5 both from node 7 (one hop) and from
    # node 5 (three hops); the nearer source wins.
    know.timers[5, 9], know.loads[5, 9] = 3.0, 300.0
    know.timers[7, 9], know.loads[7, 9] = 4.0, 400.0
    exchange_all(know, [(0, 1), (1, 2), (5, 6), (6, 7), (7, 8)])
    assert (know.timers[1, 9], know.loads[1, 9]) == (4.5, 100.0)
    assert (know.timers[8, 9], know.loads[8, 9]) == (4.5, 400.0)
    assert (know.timers[6, 9], know.loads[6, 9]) == (3.5, 300.0)


def test_own_entry_wins_a_tie():
    know = Knowledge(3, t_av=1.0)
    know.timers[0, 2], know.loads[0, 2] = 5.0, 7.0
    know.timers[1, 2], know.loads[1, 2] = 4.0, 9.0
    assert exchange(know, 0, 1) is True  # node 0 learns node 1's timer for itself
    assert know.timers[0, 2] == 5.0 and know.loads[0, 2] == 7.0


def test_exchange_all_without_pairs_changes_nothing():
    know = Knowledge(3)
    before = copy.deepcopy(know)
    assert exchange_all(know, []) is False
    assert np.array_equal(know.timers, before.timers)
    assert np.array_equal(know.loads, before.loads)


@pytest.mark.parametrize("track_matrix", [False, True])
def test_a_pair_listed_twice_settles_as_once(track_matrix):
    # exchange_all takes any pair list, one that names a pair twice included.
    rng = np.random.default_rng(3)
    once = Knowledge(6, t_av=0.5, track_matrix=track_matrix)
    once.timers[:] = rng.integers(1, 8, size=(6, 6))
    np.fill_diagonal(once.timers, 0.0)
    once.loads[:] = rng.integers(1, 100, size=(6, 6))
    twice = copy.deepcopy(once)
    pairs = [(0, 1), (1, 2), (2, 3), (4, 5)]
    changed = exchange_all(once, np.array(pairs), now=1.0)
    assert changed
    assert exchange_all(twice, np.array(pairs[:2] + [(1, 2)] + pairs[2:]), now=1.0) == changed
    for name in ("timers", "loads", "matrix_obs"):
        assert np.array_equal(getattr(twice, name), getattr(once, name))
    if track_matrix:
        assert np.array_equal(observed_rows(twice), observed_rows(once))


def test_matrix_merge_must_come_later_than_the_last():
    # The per-group merge relies on one observation time naming one row.
    know = Knowledge(4, track_matrix=True)
    exchange_all(know, [(0, 1)], now=3.0)
    for now in (3.0, 2.0):
        with pytest.raises(ValueError, match="not after"):
            exchange_all(know, [(2, 3)], now=now)
    exchange_all(know, [(2, 3)], now=4.0)
    untracked = Knowledge(4)
    exchange_all(untracked, [(0, 1)], now=3.0)
    exchange_all(untracked, [(0, 1)], now=3.0)


# -- chained replays -----------------------------------------------------------------

def drifting_pairs(rng, n_nodes, n_boundaries):
    """Per boundary, the sorted pairs in contact: each boundary some pairs
    part and others meet, so groups merge and split; now and then all part."""
    pairs, out = set(), []
    for _ in range(n_boundaries):
        if rng.random() < 0.05:
            pairs = set()
        pairs = {p for p in pairs if rng.random() > 0.15}
        for _ in range(int(rng.integers(0, 13))):
            pairs.add(tuple(sorted(int(v) for v in rng.choice(n_nodes, 2, replace=False))))
        out.append(sorted(pairs))
    return out


@pytest.mark.parametrize("columns", ["all", "odd"])
@pytest.mark.parametrize("track_matrix", [False, True])
@pytest.mark.parametrize("t_av", [0.5, 1.0, 0.3], ids=t_av_id)
def test_seeded_closure_matches_dense_across_boundaries(t_av, track_matrix, columns):
    # Both carry their own state from boundary to boundary, ticking and
    # writing own loads alike.  The boundaries keep groups whose members met
    # no one new, as well as parted pairs and multi-hop groups.
    n = 40
    rng = np.random.default_rng(11)
    kept = None if columns == "all" else np.arange(1, n, 2)
    know = Knowledge(n, t_av=t_av, track_matrix=track_matrix, columns=kept)
    oracle = Knowledge(n, t_av=t_av, track_matrix=track_matrix)
    cols = know.columns
    counts = {"carried": 0, "parted": 0, "multihop": 0, "changed": 0}
    previous = None
    for k, pairs in enumerate(drifting_pairs(rng, n, 80)):
        if k:
            know.tick()
            oracle.tick()
        own = rng.integers(1, 10**6, size=n).astype(float)
        know.loads[know.own] = own[cols]
        oracle.loads[np.arange(n), np.arange(n)] = own
        changed = exchange_all(know, pairs, now=float(k))
        dense_changed = dense_exchange_all(oracle, pairs, now=float(k))
        members = {v for p in pairs for v in p}
        fresh = {v for p in set(pairs) - set(previous or ()) for v in p}
        counts["carried"] += len(fresh) < len(members)
        counts["parted"] += bool(set(previous or ()) - set(pairs))
        hops = _hop_counts(n, [a for a, _ in pairs], [b for _, b in pairs])
        counts["multihop"] += bool((hops[np.isfinite(hops)] > 2).any())
        counts["changed"] += changed
        assert np.array_equal(know.timers, oracle.timers[:, cols])
        assert np.array_equal(know.loads, oracle.loads[:, cols])
        if columns == "all":
            assert changed == dense_changed
        if track_matrix:
            # Gossip is kept for the kept columns' rows only.
            assert np.array_equal(observed_rows(know), oracle.matrix[:, cols][:, :, cols])
            assert np.array_equal(know.matrix_obs, oracle.matrix_obs[:, cols])
        previous = pairs
    assert min(counts.values()) > 40


# -- random groups ---------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closure_matches_dense_on_random_groups(data):
    n = data.draw(st.integers(2, 12), label="n")
    t_av = data.draw(st.sampled_from([0.25, 0.5, 1.0, 0.3, 2.0]), label="t_av")
    track = data.draw(st.booleans(), label="track_matrix")
    kept = data.draw(st.sets(st.integers(0, n - 1)), label="columns")
    know = Knowledge(n, t_av=t_av, track_matrix=track, columns=kept)
    oracle = Knowledge(n, t_av=t_av, track_matrix=track)
    cols = know.columns
    # Timers on the grid, whole ticks plus t_av per hop, from few values so
    # that sources tie often.
    grid = [math.inf] + [ticks + hops * know.t_av
                         for ticks in (1.0, 2.0, 4.0) for hops in (0, 1, 2)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for k in range(data.draw(st.integers(1, 3), label="boundaries")):
        if k:
            know.tick()
            oracle.tick()
        cells = st.lists(st.sampled_from(grid), min_size=n * n, max_size=n * n)
        timers = np.array(data.draw(cells, label="timers")).reshape(n, n)
        np.fill_diagonal(timers, 0.0)
        loads = np.array(data.draw(st.permutations(range(1, n * n + 1)), label="loads"), float)
        drawn = data.draw(st.lists(pair, min_size=1, max_size=2 * n), label="pairs")
        pairs = {tuple(sorted(p)) for p in drawn}
        if n >= 4:
            # A forced tie: two peers of the hub offer it equal entries about
            # a fourth node, at one hop each.
            hub, a, b, c = data.draw(st.permutations(range(n)), label="tie")[:4]
            pairs |= {tuple(sorted((hub, a))), tuple(sorted((hub, b)))}
            timers[b, c] = timers[a, c]
        oracle.timers[:], oracle.loads[:] = timers, loads.reshape(n, n)
        know.timers[:], know.loads[:] = oracle.timers[:, cols], oracle.loads[:, cols]
        pairs = sorted(pairs)
        # The pairs as an int array, as the engine passes them, settle alike.
        arrayed = copy.deepcopy(know)
        changed = exchange_all(know, pairs, now=float(k))
        assert exchange_all(arrayed, np.array(pairs), now=float(k)) == changed
        for name in ("timers", "loads", "matrix_obs"):
            assert np.array_equal(getattr(arrayed, name), getattr(know, name))
        dense_changed = dense_exchange_all(oracle, pairs, now=float(k))
        assert np.array_equal(know.timers, oracle.timers[:, cols])
        assert np.array_equal(know.loads, oracle.loads[:, cols])
        if len(cols) == n:
            assert changed == dense_changed
        if track:
            assert np.array_equal(observed_rows(know), oracle.matrix[:, cols][:, :, cols])
            assert np.array_equal(know.matrix_obs, oracle.matrix_obs[:, cols])


@pytest.mark.parametrize("track_matrix", [False, True])
def test_column_blocks_settle_alike(track_matrix, monkeypatch):
    # Columns settle independently, so relaxing them a few at a time (as a
    # column per node does at scale) changes nothing, the group column included.
    n = 30
    rng = np.random.default_rng(4)
    whole = Knowledge(n, t_av=0.5, track_matrix=track_matrix)
    blocks = Knowledge(n, t_av=0.5, track_matrix=track_matrix)
    for k, pairs in enumerate(drifting_pairs(rng, n, 20)):
        if k:
            whole.tick()
            blocks.tick()
        whole.loads[whole.own] = blocks.loads[blocks.own] = rng.integers(1, 10**6, size=n)
        changed = exchange_all(whole, pairs, now=float(k))
        with monkeypatch.context() as patch:
            patch.setattr(knowledge, "_BLOCK_ELEMS", 1)
            assert exchange_all(blocks, pairs, now=float(k)) == changed
        assert np.array_equal(blocks.timers, whole.timers)
        assert np.array_equal(blocks.loads, whole.loads)
        if track_matrix:
            assert np.array_equal(blocks.matrix_obs, whole.matrix_obs)


def test_t_av_is_kept_on_the_grid():
    # 0.3 moves by less than 2**-21; a value rounding to zero is refused.
    assert Knowledge(2, t_av=0.3).t_av == 314573 / 2**20
    assert Knowledge(2, t_av=0.5).t_av == 0.5
    with pytest.raises(ValueError, match="t_av"):
        Knowledge(2, t_av=2**-22)


def test_a_label_past_the_int64_bound_raises():
    # With n = 2 a label is value * 4 + hops * 2 + source, below 2**62.
    know = Knowledge(2)
    know.timers[0, 1] = 2.0**60
    with pytest.raises(ValueError, match="int64"):
        exchange_all(know, [(0, 1)])
    know.timers[0, 1] = 2.0**59
    assert exchange_all(know, [(0, 1)]) is True
    assert know.timers[0, 1] == know.timers[1, 0] == 1.0


# -- whole engine runs -------------------------------------------------------------

N_ENGINE = 14


@pytest.fixture(scope="module")
def engine_scenario():
    """Levy contacts among 14 nodes; six services, one copy each, so at
    least eight nodes host none and pricing reads only some columns."""
    params = LevyWalkParams(area=(450.0, 450.0), speed_classes=((10, (1.0, 1.0)),
                                                                (4, (10.0, 10.0))))
    contacts = contacts_from_positions(generate_levy(params, N_ENGINE, 2400.0, seed=5), 100.0)
    catalog = enumerate_services(4)
    placement = assign_services(catalog, list(range(N_ENGINE)), 1, np.random.default_rng(5))
    assert len({v for hosts in placement.by_service.values() for v in hosts}) <= 6
    base = dict(catalog=catalog, placement=placement,
                pattern=RequestPattern.min_functionality(catalog, 2),
                request_rate_per_min=1.0, timeout_s=600.0, delay_warmup_s=0.0, seed=1)
    return contacts, base


def dense_on_kept_columns():
    """A stand-in for ``sim_core.exchange_all`` that settles the engine's
    knowledge by the dense closure on an n x n copy, carried from boundary to
    boundary, ticked and given own loads as the engine's is, and writes the
    engine's kept columns back from it."""
    dense = None

    def settle(know, pairs, now):
        nonlocal dense
        if dense is None:
            dense = Knowledge(know.n_nodes, t_av=know.t_av,
                              track_matrix=know.matrix_obs is not None)
        else:
            dense.tick()
        cols = know.columns
        dense.loads[cols, cols] = know.loads[know.own]
        changed = dense_exchange_all(dense, pairs, now)
        know.timers[:] = dense.timers[:, cols]
        know.loads[:] = dense.loads[:, cols]
        if know.matrix_obs is not None:
            know.matrix_obs[:] = dense.matrix_obs[:, cols]
            know.rows = row_table(dense.matrix[:, cols][:, :, cols], dense.matrix_obs[:, cols])
        return changed

    return settle


def records_digest(config, contacts, tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(run(config, contacts), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("t_av", [0.5, 1.0, 0.3], ids=t_av_id)
@pytest.mark.parametrize("awareness", ["minimal", "local", "global", "perfect"])
def test_engine_records_match_the_dense_closure(awareness, t_av, engine_scenario,
                                                monkeypatch, tmp_path):
    contacts, base = engine_scenario
    config = SimConfig(**base, awareness=awareness, t_av=t_av)
    closures = []
    exchange_all = sim_core.exchange_all

    def counted(know, pairs, now):
        closures.append(len(pairs) > 0)
        return exchange_all(know, pairs, now)

    monkeypatch.setattr(sim_core, "exchange_all", counted)
    digest = records_digest(config, contacts, tmp_path)
    assert (sum(closures) > 40) == (awareness != "minimal")
    monkeypatch.setattr(sim_core, "exchange_all", dense_on_kept_columns())
    assert records_digest(config, contacts, tmp_path) == digest
