"""References for the contact layer.

The per-sample contact scan is the reference for
``contact_engine.contacts_from_positions``: each sample's in-range pairs
come from all-pairs distances, or, with more than ``GRID_THRESHOLD`` nodes,
from a grid of range-sized cells; runs of in-range samples are then tracked
one sample at a time.  The streamed extraction must give the same events.

:func:`boundary_pairs` scans every event at every unit boundary: it is the
reference for the pairs the engine settles there, which it reads from the
peer lists that contact starts and ends keep.

The shortest-temporal-distance oracles validate the distributed timer
estimates: the minimum elapsed time over which some sequence of contacts
could have relayed information between two nodes.
"""

from __future__ import annotations

import math

import numpy as np

from oppcompose.contact_engine import ContactTrace

GRID_THRESHOLD = 64


def contacts_per_sample(trace, range_m: float) -> ContactTrace:
    """Maximal contact events of ``trace``, built one sample at a time."""
    n, t_count = trace.n_nodes, trace.n_samples
    interval = trace.sample_interval
    scan = pairs_in_range_grid if n > GRID_THRESHOLD else pairs_in_range_dense
    events: list[tuple[float, float, int, int]] = []
    open_runs: dict[tuple[int, int], tuple[float, float]] = {}
    for ti in range(t_count):
        pairs_now = scan(trace.positions[:, ti, :], range_m)
        t = ti * interval
        for pair in pairs_now:
            start = open_runs[pair][0] if pair in open_runs else t
            open_runs[pair] = (start, t)
        for pair in [p for p in open_runs if p not in pairs_now]:
            start, end = open_runs.pop(pair)
            if end > start:
                events.append((start, end, pair[0], pair[1]))
    for pair, (start, end) in open_runs.items():
        if end > start:
            events.append((start, end, pair[0], pair[1]))
    return ContactTrace(events, n, trace.duration, interval)


def pairs_in_range_dense(pos: np.ndarray, range_m: float) -> set[tuple[int, int]]:
    finite = np.isfinite(pos).all(axis=1)
    idx = np.nonzero(finite)[0]
    if len(idx) < 2:
        return set()
    p = pos[idx]
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    ai, bi = np.nonzero(d2 <= range_m * range_m)
    return {(int(idx[i]), int(idx[j])) for i, j in zip(ai, bi) if i < j}


def pairs_in_range_grid(pos: np.ndarray, range_m: float) -> set[tuple[int, int]]:
    """Bucket nodes into range-sized cells; compare only neighbouring cells."""
    finite = np.isfinite(pos).all(axis=1)
    cells: dict[tuple[int, int], list[int]] = {}
    for i in np.nonzero(finite)[0]:
        cx, cy = int(pos[i, 0] // range_m), int(pos[i, 1] // range_m)
        cells.setdefault((cx, cy), []).append(int(i))
    out: set[tuple[int, int]] = set()
    r2 = range_m * range_m
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = cells.get((cx + dx, cy + dy))
                if not other:
                    continue
                for i in members:
                    for j in other:
                        if i < j:
                            d2 = (pos[i, 0] - pos[j, 0]) ** 2 + (pos[i, 1] - pos[j, 1]) ** 2
                            if d2 <= r2:
                                out.add((i, j))
    return out


def boundary_pairs(trace: ContactTrace, unit: float) -> list[list[tuple[int, int]]]:
    """For each multiple k of ``unit`` in [0, duration], the pairs ``(a, b)``,
    ``a < b``, of the events that cover ``k * unit`` as closed intervals
    (``start <= k * unit <= end``), sorted."""
    events = trace.events.tolist()
    return [sorted((a, b) for start, end, a, b in events if start <= k * unit <= end)
            for k in range(int(round(trace.duration / unit)) + 1)]


def _latest_departures(contacts: ContactTrace, target: int, t: float) -> list[dict[int, float]]:
    """Per relay-hop-count latest departure times toward ``target`` by ``t``.

    Element h maps node v -> the latest time T such that information held
    by v from T onward reaches the target by time t using at most h
    transfers.  The list stops growing once extra hops stop helping.
    """
    relevant = [ev for ev in contacts.events.tolist() if ev[0] <= t]
    frontier = {target: t}
    levels = [dict(frontier)]
    while True:
        nxt = dict(levels[-1])
        for start, end, a, b in relevant:
            for v, u in ((a, b), (b, a)):
                if u in levels[-1]:
                    candidate = min(levels[-1][u], end, t)
                    if candidate >= start and candidate > nxt.get(v, -math.inf):
                        nxt[v] = candidate
        if nxt == levels[-1]:
            return levels
        levels.append(nxt)


def contact_sequence_oracle(contacts: ContactTrace, source: int, target: int, t: float) -> float:
    """Exact shortest temporal distance from ``source`` to ``target`` at time ``t``.

    The minimum elapsed time since information leaving the source could
    have reached the target through some sequence of contacts (epidemic
    relaying, transfers instantaneous); infinity when no such sequence
    exists since the start of the trace.
    """
    if source == target:
        return 0.0
    levels = _latest_departures(contacts, target, t)
    best = levels[-1].get(source, -math.inf)
    return t - best if best > -math.inf else math.inf


def relay_cost_oracle(contacts: ContactTrace, source: int, target: int, t: float,
                      hop_cost: float) -> float:
    """Minimum over contact sequences of elapsed time + hops * hop_cost.

    With ``hop_cost`` 0 this equals :func:`contact_sequence_oracle`; with a
    positive per-transfer cost it is the tightest value any hop-penalized
    relay estimate can achieve.
    """
    if source == target:
        return 0.0
    levels = _latest_departures(contacts, target, t)
    best = math.inf
    for hops, level in enumerate(levels):
        if source in level:
            best = min(best, (t - level[source]) + hops * hop_cost)
    return best
