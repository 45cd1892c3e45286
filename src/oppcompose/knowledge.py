"""Distributed network state, every node's in whole arrays.

Every node keeps a timer per service host approximating its temporal
distance (time elapsed since a contact chain could have relayed
information from that host), plus a load estimate per host: row i of
:class:`Knowledge`'s arrays, one column per host, all that pricing reads
(``perfect``: one per node).  Timers tick once per time unit; on contact
two nodes adopt each other's strictly better entries, paying ``t_av`` per
relay hop.  At each unit boundary every group of co-located nodes settles
at once to what repeated contacts would reach,
``T_i[k] = min_j (T_j[k] + t_av * hops(i, j))`` over the group, with the
load taken from the minimising source (ties: own entry, then fewer hops,
then lower node id).  :func:`exchange_all` packs each candidate into one
int64 label whose integer order is that order, and relaxes the labels along
the contacts until they settle; ``t_av`` is kept on the 2**-20 grid so that
every sum is exact.
Under ``global`` awareness nodes also gossip the timer rows of the hosts,
one per column, merged once per group: each member takes the group's latest
observation time of each column, which names the row that time's closure
settled, stored once in the form pricing reads (NaN for no estimate).
:func:`owner_view` turns this state into what an owner knows at each
awareness level (:data:`AWARENESS_LEVELS`), indexed by the columns and an
owner slot: its timers, its loads, and rows of pairwise estimates with
their ages, fetched on first use.  The search prices each
edge it relaxes from that view by one rule, whatever the level.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = [
    "AWARENESS_LEVELS",
    "Knowledge",
    "close_load_window",
    "exchange",
    "exchange_all",
    "owner_view",
]

AWARENESS_LEVELS = ("minimal", "local", "global", "perfect")


class Knowledge:
    """Timers and load estimates of every node about the nodes in ``columns``.

    Row i of ``timers`` and ``loads`` is node i's store, and its column c is
    about node ``columns[c]`` (sorted ids, default every node); ``slots[v]``
    is node v's column, or h = ``len(columns)`` for a node with none.  Timers
    are in time units (one unit = ``unit_s`` seconds); ``math.inf`` marks an
    unknown peer.  A node's entry about itself (the cells ``own``) is pinned
    at zero.  With ``track_matrix`` (the distributed-global level),
    ``matrix_obs[i, c]`` is the time t (in units) node i last observed the
    timer row of column c, ``-inf`` if never; that row is ``rows[t, c]``,
    c's timers as the closure at t settled them, kept while observed, as an
    ``array('d')`` with NaN (no estimate) wherever the timer is infinite.
    ``t_av`` is kept rounded to the nearest multiple of 2**-20 (0.3 moves by
    less than 2**-21), which keeps every closure sum exact; it must not
    round to zero.
    """

    def __init__(self, n_nodes: int, t_av: float = 1.0, track_matrix: bool = False,
                 columns=None):
        self.n_nodes = n_nodes
        self.t_av = round(t_av * 2**20) / 2**20
        if not self.t_av > 0:
            raise ValueError(f"t_av {t_av} is not positive on the 2**-20 grid")
        # Not np.unique: it imports numpy.ma, about 1 MB and 20 ms on first use.
        self.columns = np.array(range(n_nodes) if columns is None else sorted(set(columns)),
                                dtype=np.intp)
        h = len(self.columns)
        self.slots = np.full(n_nodes, h)
        self.slots[self.columns] = np.arange(h)
        self.own = self.columns, np.arange(h)
        self.timers = np.full((n_nodes, h), math.inf)
        self.timers[self.own] = 0.0
        self.loads = np.zeros((n_nodes, h))
        self.matrix_obs = np.full((n_nodes, h), -math.inf) if track_matrix else None
        self.rows: dict[tuple[float, int], array] = {}
        self.swept = 0  # rows left by the last sweep of ``rows``
        self.merged_at = -math.inf  # ``now`` of the last row merge

    def tick(self) -> None:
        """Advance every timer one unit, except the nodes' entries about themselves."""
        self.timers += 1.0
        self.timers[self.own] = 0.0


def close_load_window(l_old, pending, mean_exec: float, alpha: float):
    """The load estimate after a window closes with ``pending`` requests
    queued or running (scalars or arrays, elementwise).

    The paper's windowed estimate blends the closing window's load, the
    backlog times the mean execution time ``l_cw = pending * mean_exec``,
    into the previous estimate: ``l_new = alpha * l_cw + (1 - alpha) * l_old``.
    """
    return alpha * (pending * mean_exec) + (1.0 - alpha) * l_old


# Labels relaxed at once: bounds the (peers, members, columns) temporaries,
# which with a column per node (``perfect``) would grow peak memory.
_BLOCK_ELEMS = 1 << 20


def exchange(know: Knowledge, a: int, b: int, now: float = 0.0) -> bool:
    """Symmetric contact update of nodes ``a`` and ``b``; True if a timer changed.

    The one-pair case of :func:`exchange_all`: each side adopts the other's
    strictly better entries (by more than ``t_av``), computed from the
    entries both held before the call.
    """
    return exchange_all(know, [(a, b)], now)


def exchange_all(know: Knowledge, pairs: np.ndarray | list[tuple[int, int]],
                 now: float = 0.0) -> bool:
    """Settle every group of co-located nodes in one min-plus closure.

    ``pairs`` are the node pairs in contact at this instant, as a (k, 2) id
    array or a list of tuples; their connected components are the
    co-located groups.  Pairwise contacts repeated until nothing changes
    converge to ``T_i[k] = min_j (T_j[k] + t_av * hops(i, j))`` over i's
    group, so this computes that directly, from the entries held before
    the call.  As in a single contact, a candidate replaces the own entry
    only when strictly smaller, and the owner's entry stays zero.  Loads
    follow the minimising source; where several sources tie, the own entry
    wins, then the source with fewer hops, then the lower node id (pairwise
    exchanges left this to the order of the pairs).

    Every timer is whole ticks plus ``t_av`` per hop, so with ``t_av`` on
    the 2**-20 grid (:class:`Knowledge`) it is a whole multiple of 1/den,
    den being ``t_av``'s power-of-two denominator, and every sum is exact.
    So a candidate (value, hops, source) packs into one int64 label,
    ``(value * den) * n**2 + hops * n + source``, with n = ``know.n_nodes``
    and source the member's position in id order; integer order is the tie
    order above.  Each member starts from its own entries at 0 hops, an
    unknown one as a sentinel below 2**62, and every round sets each label to
    the least of its own and its contact peers' plus ``t_av * den * n**2 + n``
    (Bellman-Ford with one edge weight) until a round changes nothing; a
    label whose value would reach the sentinel raises ValueError.  With row
    tracking the same rounds carry each member's lowest group member, at
    weight 0: each member takes its group's latest observation time of every
    column, then the members' columns are observed at ``now``, and
    ``know.rows[now, c]`` keeps the settled row of the member with column c.
    A merge must come later than the previous one (ValueError otherwise):
    only then does an observation time name one row.  Returns True if any
    timer changed.
    """
    pairs = np.asarray(pairs).reshape(-1, 2)
    if not len(pairs):
        return False
    track = know.matrix_obs is not None
    if track:
        if now <= know.merged_at:
            raise ValueError(f"timer rows merged at {now}, not after the last merge "
                             f"at {know.merged_at}")
        know.merged_at = now
    degree = np.bincount(pairs.ravel())  # each node's contacts: its peer count
    nodes = np.flatnonzero(degree)
    m, n, h = len(nodes), know.n_nodes, len(know.columns)
    # Each contact in both directions; ``peers[:, i]`` are receiver i's
    # peers, padded with i itself, whose own label never wins.
    ends = nodes.searchsorted(pairs.T)
    heads, tails = np.concatenate([ends, ends[::-1]], axis=1)
    order = heads.argsort(kind="stable")
    heads, tails = heads[order], tails[order]
    starts = heads.searchsorted(np.arange(m))
    peers = np.repeat(np.arange(m)[None], degree.max(), axis=0)
    peers[np.arange(len(heads)) - starts[heads], heads] = tails
    timers, loads = know.timers[nodes], know.loads[nodes]
    den = know.t_av.as_integer_ratio()[1]
    step, nn = int(know.t_av * den), n * n
    unknown = (1 << 62) // nn - 1  # the value field of the sentinel
    scaled = timers * den
    if int(scaled.max(initial=0.0, where=scaled < math.inf)) + (m - 1) * step >= unknown:
        raise ValueError(f"timers plus {know.t_av} per hop over {m} nodes outgrow "
                         f"the closure's int64 labels")
    labels = np.zeros((m, h + track), dtype=np.int64)
    labels[:, :h] = np.minimum(scaled, unknown)
    labels[:, :h] *= nn
    labels += np.arange(m)[:, None]
    weight = np.full(h + track, step * nn + n)
    weight[h:] = 0
    span = max(1, _BLOCK_ELEMS // peers.size)
    for lo in range(0, h + track, span):
        part, w = labels[:, lo:lo + span], weight[lo:lo + span]
        while True:
            best = np.take(part, peers, axis=0).min(axis=0)
            best += w
            if not (best < part).any():
                break
            np.minimum(part, best, out=part)
    value, source = labels[:, :h] // nn, labels[:, :h] % n
    adopt = source != np.arange(m)[:, None]
    know.timers[nodes] = settled = np.where(adopt, value / den, timers)
    know.loads[nodes] = np.where(adopt, loads[source, np.arange(h)], loads)
    if track:
        # Per group: every column's latest observation, then the host members' at now.
        obs, hosted, lowest = know.matrix_obs, know.slots[nodes], labels[:, h]
        mine = hosted < h  # the members with a column
        for first in np.flatnonzero(lowest == np.arange(m)):
            same = lowest == first
            group = nodes[same]
            obs[group] = obs[group].max(axis=0)
            obs[group[:, None], hosted[same & mine]] = now
        block = settled[mine]
        block[block == math.inf] = math.nan
        for c, row in zip(hosted[mine].tolist(), block):
            know.rows[now, c] = array("d", row.tobytes())
        # Drop unobserved rows once the table has doubled since the last sweep:
        # keep the (time, column) pairs some node holds, each column's distinct times.
        if len(know.rows) > 2 * know.swept + h:
            held = np.sort(obs, axis=0)
            distinct = np.ones(held.shape, dtype=bool)
            distinct[1:] = held[1:] != held[:-1]
            seen = set(zip(held[distinct].tolist(), np.nonzero(distinct)[1].tolist()))
            know.rows = {key: row for key, row in know.rows.items() if key in seen}
            know.swept = len(know.rows)
    return bool(adopt.any())


class _Rows(dict):
    """Rows fetched on first use: ``rows[s]`` is ``row(s)``, kept once fetched."""

    def __init__(self, row):
        super().__init__()
        self._row = row

    def __missing__(self, s):
        value = self[s] = self._row(s)
        return value


def owner_view(level: str, know: Knowledge, owner: int, now: float, unit_s: float,
               live_loads=None) -> tuple:
    """Node ``owner``'s view ``(T, L, P)`` of the network at awareness ``level``.

    All three are indexed by device slot, in time units: slot c is
    ``know``'s column c, and ``know.slots[owner]`` the owner's (one past the
    columns if it has none).  ``T`` holds the owner's timers, ``L`` the
    backlog per slot or None where no load is priced, and ``P`` None or, per
    slot s and fetched on first use, ``(row, age)``: a row of pairwise
    distances from s, estimated ``age`` units ago, or ``(None, 0.0)``.  The
    distance from slot s to another slot d is, into the owner, ``T[s]``;
    else ``row[d] + age`` when the row holds an estimate of d (NaN: none);
    else ``T[s] + T[d]``, an upper bound.

    minimal: every pair at distance 1, no load.  local: the owner's timers
    and loads only.  global: row s is the last timer row of column s the
    owner observed, as stored (``know.rows``), aged by its staleness
    ``now - seen``; none for the owner's own row and a row never observed.
    perfect (``know`` keeps every node's column): ``T`` is every live timer
    about the owner, ``P[s]`` node s's live row at age 0, and ``L``
    ``live_loads``, the true backlog per node in seconds.  An infinite
    distance means no route: unknown peers are unreachable.
    """
    h = len(know.columns)
    if level == "minimal":
        ones = [1.0] * (h + 1)
        return ones, None, [(ones, 0.0)] * (h + 1)
    if level == "perfect":
        rows = _Rows(lambda s: (know.timers[s].tolist(), 0.0))
        return know.timers[:, owner].tolist(), np.divide(live_loads, unit_s).tolist(), rows
    if level not in ("local", "global"):
        raise ValueError(f"unknown awareness level {level!r}")
    timers = know.timers[owner].tolist() + [0.0]
    loads = (know.loads[owner] / unit_s).tolist() + [0.0]
    if level == "local":
        return timers, loads, None
    observed, own = know.matrix_obs[owner].tolist(), int(know.slots[owner])

    def gossip(s):
        seen = -math.inf if s == own else observed[s]
        return (None, 0.0) if seen == -math.inf else (know.rows[seen, s], now - seen)

    return timers, loads, _Rows(gossip)
