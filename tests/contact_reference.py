"""The per-sample contact scan, kept as the reference for
``contact_engine.contacts_from_positions``.

Each sample's in-range pairs come from all-pairs distances, or, with more
than ``GRID_THRESHOLD`` nodes, from a grid of range-sized cells; runs of
in-range samples are then tracked one sample at a time.  The streamed
extraction must give the same events.
"""

from __future__ import annotations

import numpy as np

from oppcompose.contact_engine import ContactEvent, ContactTrace

GRID_THRESHOLD = 64


def contacts_per_sample(trace, range_m: float) -> ContactTrace:
    """Maximal contact events of ``trace``, built one sample at a time."""
    n, t_count = trace.n_nodes, trace.n_samples
    interval = trace.sample_interval
    scan = pairs_in_range_grid if n > GRID_THRESHOLD else pairs_in_range_dense
    events: list[ContactEvent] = []
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
                events.append(ContactEvent(start, end, pair[0], pair[1]))
    for pair, (start, end) in open_runs.items():
        if end > start:
            events.append(ContactEvent(start, end, pair[0], pair[1]))
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
