"""Contact extraction, and contact traces held as columns.

A contact event is a maximal interval during which two nodes are within
transmission range, evaluated at the trace's sample resolution: a pair is in
range at a sample iff ``dx*dx + dy*dy <= range_m**2``, and a NaN (absent)
position is never in range.  One extraction tests the pairs in blocks, each
block over every sample at once; a pair's runs lie within its own row, so no
state passes from one block to the next.  A block drops its one-sample runs
before it takes the flips, and keeps only their flat positions: the events of
a chunk of blocks are built in one pass, so a few numpy calls per block are
all the extraction pays per item.  A :class:`ContactTrace` sorts its input
with one gather, so an extraction peaks at under three times its events'
bytes above its start.

A :class:`ContactTrace` keeps its events as columns, one structured array
with fields ``start``, ``end``, ``a`` and ``b`` (``a < b``), sorted by
``(start, end, a, b)``.  It checks them with array operations: two distinct
ids in ``[0, n_nodes)``, ``0 <= start < end``, and no two intervals of a pair
that overlap or abut.
"""

from __future__ import annotations

import numpy as np

from .mobility.trace import PositionTrace, read_headed_csv, time_format

__all__ = [
    "EVENT_DTYPE",
    "ContactTrace",
    "check_range",
    "contacts_from_positions",
    "save_contacts_csv",
    "load_contacts_csv",
]

EVENT_DTYPE = np.dtype([("start", np.float64), ("end", np.float64),
                        ("a", np.int64), ("b", np.int64)])

# Pair-samples tested per block: a block holds this many over the sample
# count pairs (at least one).  The block's arrays are transient, but a set-up
# made after a run adds them to the run's peak memory: 1 << 16 raised
# levy-n80's peak RSS by ~2.5 MB and 1 << 14 by ~0.5 MB, 1 << 13 by less
# than its run-to-run spread.
BLOCK_PAIR_SAMPLES = 1 << 13
# Blocks whose events are joined into one chunk as the extraction goes, so
# that the next blocks reuse the memory of the joined ones.  Kept until the
# end, the block arrays of 1 280 nodes' pairs left 33 MB of freed heap that
# the sorted copy could not use: peak RSS 171 MB against 137 MB.
CHUNK_BLOCKS = 256


class ContactTrace:
    """Contact events as sorted columns (see the module docstring).

    ``rows`` are ``(start, end, a, b)`` tuples, in any order and with the
    ids either way round, or an array of :data:`EVENT_DTYPE`; they are left
    as given, and the trace keeps a sorted copy.  Raises ValueError on an
    invalid event.
    """

    def __init__(self, rows, n_nodes: int, duration: float, sample_interval: float = 30.0):
        given = np.asarray(rows, dtype=EVENT_DTYPE)  # an EVENT_DTYPE array is read, not copied
        start, end = given["start"], given["end"]
        lo, hi = np.minimum(given["a"], given["b"]), np.maximum(given["a"], given["b"])

        def first(bad):
            i = np.flatnonzero(bad)[0]
            return float(start[i]), float(end[i]), int(lo[i]), int(hi[i])

        bad = (lo == hi) | (lo < 0) | (hi >= n_nodes)
        if bad.any():
            raise ValueError(f"contact {first(bad)} needs two distinct node ids "
                             f"in [0, {n_nodes})")
        bad = ~(start < end)
        if bad.any():
            raise ValueError(f"contact must have start < end, got {first(bad)}")
        bad = start < 0
        if bad.any():
            raise ValueError(f"contact {first(bad)} starts before 0")
        order = np.lexsort((hi, lo, end, start))
        del start, end, lo, hi, bad
        events = given[order]  # the one gather: the caller's rows stay as given
        del given, order
        a, b = events["a"], events["b"]
        swapped = a > b
        if swapped.any():
            a[swapped], b[swapped] = b[swapped], a[swapped]
        keys = a * n_nodes
        keys += b
        by_pair = np.argsort(keys, kind="stable")  # time order within a pair
        keys = keys[by_pair]
        same = keys[1:] == keys[:-1]
        del keys
        # Only the events that follow one of their own pair are gathered, one
        # column at a time.
        later = by_pair[1:][same]
        earlier = by_pair[:-1][same]
        del by_pair, same
        later = events["start"][later]
        clash = later <= events["end"][earlier]
        if clash.any():
            i = earlier[clash.argmax()]
            raise ValueError(f"overlapping/abutting events for pair {(int(a[i]), int(b[i]))}")
        self.events = events
        self.n_nodes = n_nodes
        self.duration = duration
        self.sample_interval = sample_interval

    def in_contact(self, a: int, b: int, t: float) -> bool:
        """True iff some event for (a, b) covers t."""
        ev = self.events
        return bool(((ev["a"] == min(a, b)) & (ev["b"] == max(a, b))
                     & (ev["start"] <= t) & (t <= ev["end"])).any())


def check_range(range_m) -> None:
    """Raise ValueError unless ``range_m`` is a finite number > 0 (not a bool)."""
    if isinstance(range_m, bool) or not (isinstance(range_m, (int, float)) and 0 < range_m < np.inf):
        raise ValueError(f"range_m must be a finite number > 0, got {range_m!r}")


def contacts_from_positions(trace: PositionTrace, range_m: float) -> ContactTrace:
    """Extract maximal contact events from a position trace.

    Consecutive in-range samples merge into one event spanning those sample
    times.  Runs covering a single sample carry no usable window at this
    resolution and are discarded.
    """
    check_range(range_m)
    t_count = trace.n_samples
    first, second = np.triu_indices(trace.n_nodes, 1)
    # Copied only when not C-contiguous, which ``take`` would copy per block.
    positions = np.ascontiguousarray(trace.positions)
    r2 = range_m * range_m
    times = np.arange(t_count) * trace.sample_interval
    # Out of range before the first sample and after the last, so each pair's
    # flips in time order pair up: a run's first sample, then the sample
    # after its last.  Flat, the pairs' rows run end to end.
    width = t_count + 2
    block = max(1, BLOCK_PAIR_SAMPLES // max(1, t_count))
    starts = range(0, len(first), block)
    chunks = [np.zeros(0, dtype=EVENT_DTYPE)]
    for c0 in range(0, len(starts), CHUNK_BLOCKS):
        # Each block's flips, at their flat positions among all pairs' rows.
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN: not in range
            flips = np.concatenate([
                _block_flips(positions, first[p0:p0 + block], second[p0:p0 + block], r2, width)
                + p0 * width for p0 in starts[c0:c0 + CHUNK_BLOCKS]])
        pair, begun = np.divmod(flips[0::2], width)
        last = flips[1::2] - 1  # a run's last sample: the one before its end flip
        last %= width
        del flips
        events = np.empty(len(pair), dtype=EVENT_DTYPE)
        events["start"], events["end"] = times[begun], times[last]
        events["a"], events["b"] = first[pair], second[pair]
        chunks.append(events)
        del pair, begun, last  # before the next chunk's blocks
    del first, second  # the pair tables, before the trace's own copy
    events = np.concatenate(chunks)
    del chunks
    return ContactTrace(events, trace.n_nodes, trace.duration, trace.sample_interval)


def _block_flips(positions, a, b, r2, width) -> np.ndarray:
    """The flat positions of the range flips of pairs ``(a[i], b[i])``, their
    rows of ``width`` samples (one out-of-range pad at each end) end to end.

    Called once per block, so it makes few numpy calls: x and y are
    gathered together (``take`` on the contiguous positions), and the caller
    sets the error state for a whole chunk."""
    # In place: the pairs' offsets, squared, and one gather at a time.
    d = positions.take(a, axis=0)
    d -= positions.take(b, axis=0)
    d *= d
    inside = np.zeros((len(a), width), dtype=bool)
    np.less_equal(d[..., 0] + d[..., 1], r2, out=inside[:, 1:-1])
    inside = inside.ravel()
    # A sample stays in range only beside another in-range one: one-sample
    # runs go before any flip is taken.
    inside[1:-1] &= inside[:-2] | inside[2:]
    return (inside[1:] != inside[:-1]).nonzero()[0]


def save_contacts_csv(contacts: ContactTrace, path) -> None:
    """Write ``node_a,node_b,start_s,end_s`` rows, times as exact as the sample grid."""
    fmt = time_format(contacts.sample_interval)
    with open(path, "w") as fh:
        fh.write(f"# nodes={contacts.n_nodes} duration={contacts.duration} "
                 f"interval={contacts.sample_interval}\n")
        fh.write("node_a,node_b,start_s,end_s\n")
        fh.writelines(f"{a},{b},{start:{fmt}},{end:{fmt}}\n"
                      for start, end, a, b in contacts.events.tolist())


def load_contacts_csv(path) -> ContactTrace:
    """Read a contact trace written by :func:`save_contacts_csv` (or external data).

    Without a ``nodes=`` header the node count is the largest id plus one,
    and without a ``duration=`` header the duration is the last contact's
    end.  Raises ValueError naming the file line of a row that is not two ids
    and two times, and naming the file on a duration that is not finite and
    >= 0 or that ends before some contact does.
    """
    header, lines = read_headed_csv(path, {"nodes": int, "duration": float, "interval": float},
                                    "node_a")
    rows = []
    for lineno, fields in lines:
        try:
            a, b, start, end = fields
            rows.append((float(start), float(end), int(a), int(b)))
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: expected node_a,node_b,start_s,end_s, "
                             f"got {','.join(fields)!r}") from None
    events = np.array(rows, dtype=EVENT_DTYPE)
    n_nodes, duration = header.get("nodes"), header.get("duration")
    if n_nodes is None:
        n_nodes = int(max(events["a"].max(), events["b"].max())) + 1 if len(events) else 0
    last = float(events["end"].max()) if len(events) else 0.0
    if duration is None:
        duration = last
    elif not 0 <= duration < np.inf:
        raise ValueError(f"{path}: duration must be finite and >= 0, got {duration}")
    elif duration < last:
        raise ValueError(f"{path}: duration={duration} ends before a contact ending at {last}")
    return ContactTrace(events, n_nodes, duration, header.get("interval", 30.0))
