"""Differential tests of the one-shot knowledge closure.

The reference is the rule the closure replaces: symmetric pairwise
exchanges over every co-located pair, repeated until no timer changes.
Each boundary starts both from the same state, so a tie resolved
differently at one boundary cannot mask a difference at the next.
"""

import copy
import math
from collections import deque

import numpy as np
import pytest

from oppcompose.contact_engine import ContactEvent, ContactTrace
from oppcompose.knowledge import KnowledgeStore, exchange, exchange_all

UNIT = 30.0


# -- pairwise fixed point (reference) -------------------------------------------

def _adopt(store, peer_timers, peer_loads):
    """Adopt the peer's entries smaller by more than t_av, charging t_av."""
    candidate = peer_timers + store.t_av
    mask = peer_timers < store.timers - store.t_av
    mask[store.owner] = False
    if store.radius is not None:
        mask &= candidate <= store.radius
    if not mask.any():
        return False
    store.timers[mask] = candidate[mask]
    store.loads[mask] = peer_loads[mask]
    return True


def _merge_matrix(store, now, peer_matrix, peer_obs, peer_id, peer_timers):
    newer = peer_obs > store.matrix_obs
    newer[store.owner] = False
    store.matrix[newer] = peer_matrix[newer]
    store.matrix_obs[newer] = peer_obs[newer]
    store.matrix[peer_id] = peer_timers
    store.matrix_obs[peer_id] = now
    store.matrix[store.owner] = store.timers
    store.matrix_obs[store.owner] = now


def pairwise_exchange(a, b, now=0.0):
    ta, la = a.timers.copy(), a.loads.copy()
    tb, lb = b.timers.copy(), b.loads.copy()
    changed = _adopt(a, tb, lb)
    changed |= _adopt(b, ta, la)
    if a.matrix is not None and b.matrix is not None:
        ma, oa = a.matrix.copy(), a.matrix_obs.copy()
        _merge_matrix(a, now, b.matrix, b.matrix_obs, b.owner, tb)
        _merge_matrix(b, now, ma, oa, a.owner, ta)
    return changed


def pairwise_fixpoint(stores, pairs, now=0.0):
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            changed |= pairwise_exchange(stores[i], stores[j], now)


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
        own = before[i]
        hops = hop_counts(pairs, i)
        timers, loads = own.timers.copy(), own.loads.copy()
        sources = {}
        for k in range(own.n_nodes):
            if k == i:
                continue
            cand = {j: before[j].timers[k] + h * own.t_av for j, h in hops.items()}
            best = min(cand.values())
            ranked = sorted(hops, key=lambda j: (cand[j], hops[j], j))
            winner = ranked[0]
            radius = math.inf if own.radius is None else own.radius
            if winner != i and best <= radius:
                timers[k] = best
                loads[k] = before[winner].loads[k]
                sources[k] = [j for j in ranked if cand[j] == best]
        out[i] = {"timers": timers, "loads": loads, "sources": sources, "hops": hops}
    if before[members[0]].matrix is None:
        return out
    for i in members:
        hops = out[i]["hops"]
        own = before[i]
        matrix, obs = own.matrix.copy(), own.matrix_obs.copy()
        for r in range(own.n_nodes):
            if r in hops:
                matrix[r] = out[r]["timers"]
                obs[r] = now
                continue
            winner = sorted(hops, key=lambda j: (-before[j].matrix_obs[r], hops[j], j))[0]
            matrix[r] = before[winner].matrix[r]
            obs[r] = before[winner].matrix_obs[r]
        out[i]["matrix"], out[i]["obs"] = matrix, obs
    return out


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
    return [ContactEvent(s, e, a, b) for (a, b), ivs in per_pair.items() for s, e in ivs]


@pytest.mark.parametrize("track_matrix", [False, True])
@pytest.mark.parametrize("radius", [None, 6.0])
@pytest.mark.parametrize("t_av", [0.5, 1.0])
def test_closure_matches_pairwise_fixpoint(t_av, radius, track_matrix):
    rng = np.random.default_rng(23)
    horizon = 30
    counts = {"unique": 0, "tied": 0, "multihop": 0}
    for _ in range(12):
        n = int(rng.integers(3, 9))
        events = random_script(rng, n, 4 * n, horizon)
        per_boundary = ContactTrace(events, n, horizon * UNIT).boundary_pairs(UNIT)
        stores = [KnowledgeStore(i, n, t_av=t_av, radius=radius, track_matrix=track_matrix)
                  for i in range(n)]
        for k, pairs in enumerate(per_boundary):
            if k:
                for s in stores:
                    s.tick(1.0)
            for s in stores:
                # Distinct loads make each adopted load name its source.
                s.loads[s.owner] = float(rng.integers(1, 10**6))
            if not pairs:
                continue
            before = copy.deepcopy(stores)
            oracle = copy.deepcopy(stores)
            pairwise_fixpoint(oracle, pairs, now=float(k))
            want = expected_closure(before, pairs, float(k))
            exchange_all(stores, pairs, now=float(k))
            counts["multihop"] += any(max(w["hops"].values()) > 1 for w in want.values())
            for i, s in enumerate(stores):
                # Bit-identical timers.
                assert np.array_equal(s.timers, oracle[i].timers)
                if i not in want:
                    assert np.array_equal(s.loads, before[i].loads)
                    continue
                assert np.array_equal(s.timers, want[i]["timers"])
                # Loads: pinned tie order everywhere, the reference's where unique.
                assert np.array_equal(s.loads, want[i]["loads"])
                for peer, sources in want[i]["sources"].items():
                    if len(sources) == 1:
                        counts["unique"] += 1
                        assert s.loads[peer] == oracle[i].loads[peer]
                    else:
                        counts["tied"] += 1
                if track_matrix:
                    assert np.array_equal(s.matrix, want[i]["matrix"])
                    assert np.array_equal(s.matrix_obs, want[i]["obs"])
    # The scripts exercise both unique and tied minima, and multi-hop groups.
    assert counts["unique"] > 100 and counts["tied"] > 10 and counts["multihop"] > 10


def test_tie_prefers_fewer_hops_then_lower_id():
    stores = [KnowledgeStore(i, 10, t_av=0.5) for i in range(10)]
    # Star 0-1-2: nodes 0 and 2 offer node 1 the same entry for 9 at one
    # hop each; the lower id wins.
    stores[0].timers[9], stores[0].loads[9] = 4.0, 100.0
    stores[2].timers[9], stores[2].loads[9] = 4.0, 200.0
    # Chain 5-6-7-8: node 8 gets 4.5 both from node 7 (one hop) and from
    # node 5 (three hops); the nearer source wins.
    stores[5].timers[9], stores[5].loads[9] = 3.0, 300.0
    stores[7].timers[9], stores[7].loads[9] = 4.0, 400.0
    exchange_all(stores, [(0, 1), (1, 2), (5, 6), (6, 7), (7, 8)])
    assert (stores[1].timers[9], stores[1].loads[9]) == (4.5, 100.0)
    assert (stores[8].timers[9], stores[8].loads[9]) == (4.5, 400.0)
    assert (stores[6].timers[9], stores[6].loads[9]) == (3.5, 300.0)


def test_own_entry_wins_a_tie():
    a = KnowledgeStore(0, 3, t_av=1.0)
    b = KnowledgeStore(1, 3, t_av=1.0)
    a.timers[2], a.loads[2] = 5.0, 7.0
    b.timers[2], b.loads[2] = 4.0, 9.0
    assert exchange(a, b) is True  # a learns b's timer for itself
    assert a.timers[2] == 5.0 and a.loads[2] == 7.0


def test_exchange_all_without_pairs_changes_nothing():
    stores = [KnowledgeStore(i, 3) for i in range(3)]
    before = copy.deepcopy(stores)
    assert exchange_all(stores, []) is False
    for s, b in zip(stores, before):
        assert np.array_equal(s.timers, b.timers) and np.array_equal(s.loads, b.loads)
