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
from oppcompose.knowledge import Knowledge, exchange, exchange_all

UNIT = 30.0


# -- pairwise fixed point (reference) -------------------------------------------

def _adopt(know, i, peer_timers, peer_loads):
    """Node i adopts the peer's entries smaller by more than t_av, charging t_av."""
    timers, loads = know.timers[i], know.loads[i]
    candidate = peer_timers + know.t_av
    mask = peer_timers < timers - know.t_av
    mask[i] = False
    if know.radius is not None:
        mask &= candidate <= know.radius
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
            radius = math.inf if before.radius is None else before.radius
            if winner != i and best <= radius:
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
        know = Knowledge(n, t_av=t_av, radius=radius, track_matrix=track_matrix)
        for k, pairs in enumerate(per_boundary):
            if k:
                know.tick(1.0)
            for i in range(n):
                # Distinct loads make each adopted load name its source.
                know.loads[i, i] = float(rng.integers(1, 10**6))
            if not pairs:
                continue
            before = copy.deepcopy(know)
            oracle = copy.deepcopy(know)
            pairwise_fixpoint(oracle, pairs, now=float(k))
            want = expected_closure(before, pairs, float(k))
            exchange_all(know, pairs, now=float(k))
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
                    assert np.array_equal(know.matrix[i], want[i]["matrix"])
                    assert np.array_equal(know.matrix_obs[i], want[i]["obs"])
            if track_matrix:
                # One observation time names one row: the merge's premise.
                for r in range(n):
                    seen = know.matrix_obs[:, r]
                    for when in set(seen[np.isfinite(seen)].tolist()):
                        rows = know.matrix[seen == when, r]
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
