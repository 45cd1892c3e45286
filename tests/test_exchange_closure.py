"""Differential tests of the one-shot knowledge closure.

The first reference is the rule the closure replaces: symmetric pairwise
exchanges over every co-located pair, repeated until no timer changes.
Each boundary starts both from the same state, so a tie resolved
differently at one boundary cannot mask a difference at the next.  The
second is the dense closure, every member a source in every column; it
carries its state across boundaries beside the seeded closure, in replays
and in whole engine runs.  Both keep gossiped timer rows as an n x n x n
``matrix`` (``matrix[i, r]``: the row of r that node i last observed) and
are compared with the closure's observation times and row table through
``observed_rows``.
"""

import copy
import hashlib
import math
from collections import deque

import numpy as np
import pytest

from oppcompose import knowledge, sim_core
from oppcompose.contact_engine import ContactTrace, contacts_from_positions
from oppcompose.knowledge import Knowledge, _hop_counts, exchange, exchange_all
from oppcompose.mobility import LevyWalkParams, generate_levy
from oppcompose.service_model import assign_services, enumerate_services
from oppcompose.sim_core import RequestPattern, SimConfig, run, write_records_csv
from pricing_reference import observed_rows, row_table

UNIT = 30.0


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


# -- dense closure (reference) ------------------------------------------------------

def dense_exchange_all(know, pairs, now=0.0, previous=None):
    """Every member a source for every receiver, in every column.

    ``previous`` is accepted and ignored, so this can stand in for
    ``sim_core.exchange_all``.
    """
    if not pairs:
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
    radius = math.inf if know.radius is None else know.radius
    new_timers, new_loads = timers.copy(), loads.copy()
    cols = np.arange(know.n_nodes)
    for i in range(m):
        width = same[i].sum()
        cand = timers[order[i, :width]] + cost[i, :width, None]
        first = cand.argmin(axis=0)
        best = cand[first, cols]
        adopt = (first > 0) & (best <= radius)
        adopt[nodes[i]] = False
        new_timers[i] = np.where(adopt, best, timers[i])
        new_loads[i] = np.where(adopt, loads[order[i, first], cols], loads[i])
    know.timers[nodes] = new_timers
    know.loads[nodes] = new_loads
    if know.matrix_obs is not None:
        if not hasattr(know, "matrix"):  # a Knowledge fresh from the engine
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
@pytest.mark.parametrize("t_av, radius", [(0.5, None), (1.0, None), (0.3, None), (1.0, 6.0)])
def test_seeded_closure_matches_dense_across_boundaries(t_av, radius, track_matrix, columns):
    # Both carry their own state from boundary to boundary, ticking and
    # writing own loads alike; only the seeded closure is told the last pairs.
    n = 40
    rng = np.random.default_rng(11)
    kept = None if columns == "all" else np.arange(1, n, 2)
    know = Knowledge(n, t_av=t_av, radius=radius, track_matrix=track_matrix, columns=kept)
    oracle = Knowledge(n, t_av=t_av, radius=radius, track_matrix=track_matrix)
    cols = know.columns
    counts = {"seeded": 0, "parted": 0, "multihop": 0, "changed": 0}
    previous = None
    for k, pairs in enumerate(drifting_pairs(rng, n, 80)):
        if k:
            know.tick(1.0)
            oracle.tick(1.0)
        own = rng.integers(1, 10**6, size=n).astype(float)
        know.loads[np.arange(n), np.arange(n)] = oracle.loads[np.arange(n), np.arange(n)] = own
        changed = exchange_all(know, pairs, now=float(k), previous=previous)
        dense_changed = dense_exchange_all(oracle, pairs, now=float(k))
        members = {v for p in pairs for v in p}
        fresh = {v for p in set(pairs) - set(previous or ()) for v in p}
        counts["seeded"] += len(fresh) < len(members)
        counts["parted"] += bool(set(previous or ()) - set(pairs))
        hops = _hop_counts(n, [a for a, _ in pairs], [b for _, b in pairs])
        counts["multihop"] += bool((hops[np.isfinite(hops)] > 2).any())
        counts["changed"] += changed
        assert np.array_equal(know.timers[:, cols], oracle.timers[:, cols])
        assert np.array_equal(know.loads[:, cols], oracle.loads[:, cols])
        if columns == "all":
            assert changed == dense_changed
        if track_matrix:
            assert np.array_equal(observed_rows(know)[:, :, cols], oracle.matrix[:, :, cols])
            assert np.array_equal(know.matrix_obs, oracle.matrix_obs)
        previous = pairs
    assert min(counts.values()) > 40


@pytest.mark.parametrize("drop_a_seed", [True, False])
def test_radius_replay_needs_every_seed(drop_a_seed, monkeypatch):
    # With ``radius`` set the seeded closure takes the same sources as
    # without it; the replay can tell when one of them is missing.
    if drop_a_seed:
        closure = knowledge._closure

        def one_seed_fewer(know, nodes, hops, seeds, now):
            return closure(know, nodes, hops, seeds[1:] if len(seeds) < len(nodes) else seeds, now)

        monkeypatch.setattr(knowledge, "_closure", one_seed_fewer)
    n = 40
    rng = np.random.default_rng(11)
    know = Knowledge(n, t_av=1.0, radius=6.0)
    oracle = Knowledge(n, t_av=1.0, radius=6.0)
    matched, previous = [], None
    for k, pairs in enumerate(drifting_pairs(rng, n, 80)):
        if k:
            know.tick(1.0)
            oracle.tick(1.0)
        exchange_all(know, pairs, now=float(k), previous=previous)
        dense_exchange_all(oracle, pairs, now=float(k))
        matched.append(np.array_equal(know.timers, oracle.timers))
        previous = pairs
    assert all(matched) != drop_a_seed


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


def records_digest(config, contacts, tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(run(config, contacts), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("radius", [None, 5.0])
@pytest.mark.parametrize("t_av", [0.5, 1.0, 0.3])
@pytest.mark.parametrize("awareness", ["minimal", "local", "global", "perfect"])
def test_engine_records_match_the_dense_closure(awareness, t_av, radius, engine_scenario,
                                                monkeypatch, tmp_path):
    contacts, base = engine_scenario
    config = SimConfig(**base, awareness=awareness, t_av=t_av, radius=radius)
    chained = []
    exchange_all = sim_core.exchange_all

    def counted(know, pairs, now, previous=None):
        chained.append(previous is not None and len(pairs) > 0)
        return exchange_all(know, pairs, now, previous=previous)

    monkeypatch.setattr(sim_core, "exchange_all", counted)
    digest = records_digest(config, contacts, tmp_path)
    assert (sum(chained) > 40) == (awareness != "minimal")
    monkeypatch.setattr(sim_core, "exchange_all", dense_exchange_all)
    assert records_digest(config, contacts, tmp_path) == digest
