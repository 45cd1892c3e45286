"""Contact extraction and temporal-distance ground truth.

A contact event is a maximal interval during which two nodes are within
transmission range, evaluated at the trace's sample resolution.  The
module also provides the exact shortest-temporal-distance oracle used to
validate the distributed timer estimates: the minimum elapsed time over
which some sequence of contacts could have relayed information between
two nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .mobility.trace import PositionTrace

__all__ = [
    "ContactEvent",
    "ContactTrace",
    "contacts_from_positions",
    "contact_sequence_oracle",
    "relay_cost_oracle",
    "save_contacts_csv",
    "load_contacts_csv",
]

# With more nodes than this, a sample's in-range pairs come from a range-sized
# grid rather than from all-pairs distances.
GRID_THRESHOLD = 64


@dataclass(frozen=True, order=True)
class ContactEvent:
    """Interval [start, end] during which nodes a and b can communicate."""

    start: float
    end: float
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a contact needs two distinct nodes")
        if not self.start < self.end:
            raise ValueError(f"contact must have start < end, got [{self.start}, {self.end}]")


class ContactTrace:
    """Time-sorted contact events with per-pair lookup."""

    def __init__(self, events: list[ContactEvent], n_nodes: int, duration: float,
                 sample_interval: float = 30.0):
        self.events = sorted(events)
        self.n_nodes = n_nodes
        self.duration = duration
        self.sample_interval = sample_interval
        self._by_pair: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for ev in self.events:
            key = (min(ev.a, ev.b), max(ev.a, ev.b))
            self._by_pair.setdefault(key, []).append((ev.start, ev.end))
        for key, ivs in self._by_pair.items():
            ivs.sort()
            for (s0, e0), (s1, _) in zip(ivs, ivs[1:]):
                if s1 <= e0:
                    raise ValueError(f"overlapping/abutting events for pair {key}")

    def pair_intervals(self, a: int, b: int) -> list[tuple[float, float]]:
        return self._by_pair.get((min(a, b), max(a, b)), [])

    def in_contact(self, a: int, b: int, t: float) -> bool:
        """True iff some event for (a, b) covers t."""
        if a == b:
            return False
        ivs = self.pair_intervals(a, b)
        i = bisect_right(ivs, (t, math.inf)) - 1
        return i >= 0 and ivs[i][0] <= t <= ivs[i][1]

    def boundary_pairs(self, unit: float) -> list[list[tuple[int, int]]]:
        """For each multiple of ``unit`` in [0, duration], the active pairs.

        Precomputed once per simulation run so the event loop avoids
        repeated interval searches.
        """
        n_units = int(round(self.duration / unit)) + 1
        out: list[list[tuple[int, int]]] = [[] for _ in range(n_units)]
        for pair, ivs in sorted(self._by_pair.items()):
            for s, e in ivs:
                k0 = max(0, math.ceil(s / unit - 1e-9))
                k1 = min(n_units - 1, math.floor(e / unit + 1e-9))
                for k in range(k0, k1 + 1):
                    out[k].append(pair)
        return out


def contacts_from_positions(trace: PositionTrace, range_m: float) -> ContactTrace:
    """Extract maximal contact events from a position trace.

    A pair is in range at a sample iff their Euclidean distance is at most
    ``range_m``; consecutive in-range samples merge into one event spanning
    those sample times.  Runs covering a single sample carry no usable
    window at this resolution and are discarded.
    """
    if range_m <= 0:
        raise ValueError("transmission range must be positive")
    n, t_count = trace.n_nodes, trace.n_samples
    interval = trace.sample_interval
    use_grid = n > GRID_THRESHOLD
    in_range_prev: dict[tuple[int, int], float] = {}
    events: list[ContactEvent] = []
    open_runs: dict[tuple[int, int], tuple[float, float]] = {}

    for ti in range(t_count):
        pos = trace.positions[:, ti, :]
        if use_grid:
            pairs_now = _pairs_in_range_grid(pos, range_m)
        else:
            pairs_now = _pairs_in_range_dense(pos, range_m)
        t = ti * interval
        for pair in pairs_now:
            if pair in open_runs:
                start, _ = open_runs[pair]
                open_runs[pair] = (start, t)
            else:
                open_runs[pair] = (t, t)
        for pair in [p for p in open_runs if p not in pairs_now]:
            start, end = open_runs.pop(pair)
            if end > start:
                events.append(ContactEvent(start, end, pair[0], pair[1]))
    for pair, (start, end) in open_runs.items():
        if end > start:
            events.append(ContactEvent(start, end, pair[0], pair[1]))
    return ContactTrace(events, n, trace.duration, interval)


def _pairs_in_range_dense(pos: np.ndarray, range_m: float) -> set[tuple[int, int]]:
    finite = np.isfinite(pos).all(axis=1)
    idx = np.nonzero(finite)[0]
    if len(idx) < 2:
        return set()
    p = pos[idx]
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    ai, bi = np.nonzero(d2 <= range_m * range_m)
    return {(int(idx[i]), int(idx[j])) for i, j in zip(ai, bi) if i < j}


def _pairs_in_range_grid(pos: np.ndarray, range_m: float) -> set[tuple[int, int]]:
    """Bucket nodes into range-sized cells; compare only neighboring cells."""
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


def _latest_departures(contacts: ContactTrace, target: int, t: float) -> list[dict[int, float]]:
    """Per relay-hop-count latest departure times toward ``target`` by ``t``.

    Element h maps node v -> the latest time T such that information held
    by v from T onward reaches the target by time t using at most h
    transfers.  The list stops growing once extra hops stop helping.
    """
    relevant = [ev for ev in contacts.events if ev.start <= t]
    frontier = {target: t}
    levels = [dict(frontier)]
    while True:
        nxt = dict(levels[-1])
        for ev in relevant:
            for v, u in ((ev.a, ev.b), (ev.b, ev.a)):
                if u in levels[-1]:
                    candidate = min(levels[-1][u], ev.end, t)
                    if candidate >= ev.start and candidate > nxt.get(v, -math.inf):
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


def save_contacts_csv(contacts: ContactTrace, path) -> None:
    """Write ``node_a,node_b,start_s,end_s`` rows."""
    with open(path, "w") as fh:
        fh.write(f"# nodes={contacts.n_nodes} duration={contacts.duration} "
                 f"interval={contacts.sample_interval}\n")
        fh.write("node_a,node_b,start_s,end_s\n")
        for ev in contacts.events:
            a, b = min(ev.a, ev.b), max(ev.a, ev.b)
            fh.write(f"{a},{b},{ev.start:.1f},{ev.end:.1f}\n")


def load_contacts_csv(path) -> ContactTrace:
    """Read a contact trace written by :func:`save_contacts_csv` (or external data)."""
    n_nodes = duration = interval = None
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    k, _, v = tok.partition("=")
                    if k == "nodes":
                        n_nodes = int(v)
                    elif k == "duration":
                        duration = float(v)
                    elif k == "interval":
                        interval = float(v)
                continue
            if line.startswith("node_a"):
                continue
            a, b, s, e = line.split(",")
            events.append(ContactEvent(float(s), float(e), int(a), int(b)))
    if n_nodes is None:
        n_nodes = max(max(ev.a, ev.b) for ev in events) + 1 if events else 0
    if duration is None:
        duration = max((ev.end for ev in events), default=0.0)
    return ContactTrace(events, n_nodes, duration, interval or 30.0)
