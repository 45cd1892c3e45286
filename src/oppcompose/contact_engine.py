"""Contact extraction and temporal-distance ground truth.

A contact event is a maximal interval during which two nodes are within
transmission range, evaluated at the trace's sample resolution: a pair is in
range at a sample iff ``dx*dx + dy*dy <= range_m**2``, and a NaN (absent)
position is never in range.  One extraction streams the trace in blocks of
samples, testing all pairs at once per block and carrying the runs still
open at a block's end into the next.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .mobility.trace import PositionTrace

__all__ = [
    "ContactEvent",
    "ContactTrace",
    "contacts_from_positions",
    "save_contacts_csv",
    "load_contacts_csv",
]

# Pair-samples tested per block (at least one sample).  The block's arrays
# are transient, but a set-up made after a run adds them to the run's peak
# memory: 1 << 16 raised levy-n80's peak RSS by ~2.5 MB, 1 << 12 did not.
BLOCK_PAIR_SAMPLES = 1 << 12


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
        # Each pair's list is in start order, as the events are.
        for key, ivs in self._by_pair.items():
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

    Consecutive in-range samples merge into one event spanning those sample
    times.  Runs covering a single sample carry no usable window at this
    resolution and are discarded.
    """
    if range_m <= 0:
        raise ValueError("transmission range must be positive")
    n, t_count = trace.n_nodes, trace.n_samples
    interval = trace.sample_interval
    first, second = np.triu_indices(n, 1)
    r2 = range_m * range_m
    block = max(1, BLOCK_PAIR_SAMPLES // max(1, len(first)))
    was_in = np.zeros(len(first), dtype=bool)  # in range at the previous block's last sample
    run_start = np.zeros(len(first), dtype=np.int64)  # first sample of the run open there
    runs = []  # per block: (pair, first sample, last sample) of the runs that ended
    for t0 in range(0, t_count, block):
        pos = trace.positions[:, t0:t0 + block]
        # Columns: out of range, the previous sample, this block, out of range.
        padded = np.zeros((len(first), pos.shape[1] + 3), dtype=bool)
        padded[:, 1] = was_in
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN: not in range
            d2 = pos[first, :, 0] - pos[second, :, 0]
            d2 *= d2
            dy = pos[first, :, 1] - pos[second, :, 1]
            dy *= dy
            d2 += dy
            padded[:, 2:-1] = d2 <= r2
        # Each pair's changes come in row-major order as (start, end) pairs; a
        # run from the previous sample goes on from where it began.
        pair, col = np.nonzero(padded[:, 1:] != padded[:, :-1])
        pair, begun, last = pair[::2], col[::2] + t0 - 1, col[1::2] + t0 - 2
        carried = begun == t0 - 1
        begun[carried] = run_start[pair[carried]]
        was_in = padded[:, -2]
        still_open = last == t0 + pos.shape[1] - 1
        run_start[pair[still_open]] = begun[still_open]
        runs.append((pair[~still_open], begun[~still_open], last[~still_open]))
    open_pairs = np.nonzero(was_in)[0]
    runs.append((open_pairs, run_start[open_pairs], np.full(len(open_pairs), t_count - 1)))
    pair, begun, last = (np.concatenate(parts) for parts in zip(*runs))
    keep = np.nonzero(last > begun)[0]
    # Listed in ContactTrace's order, which its sort then confirms in one pass.
    keep = keep[np.lexsort((second[pair[keep]], first[pair[keep]], last[keep], begun[keep]))]
    times = [ti * interval for ti in range(t_count)]
    events = [ContactEvent(times[s], times[e], a, b)
              for s, e, a, b in zip(begun[keep].tolist(), last[keep].tolist(),
                                    first[pair[keep]].tolist(), second[pair[keep]].tolist())]
    return ContactTrace(events, n, trace.duration, interval)


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
