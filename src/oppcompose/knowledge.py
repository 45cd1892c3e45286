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
then lower node id), seeded at new contacts (see :func:`exchange_all`).
Under ``global`` awareness nodes also gossip the timer rows of the hosts,
one per column, merged once per group: each member takes the group's latest
observation time of each column, which names the row that time's closure
settled, kept once.
:func:`owner_view` turns this state into what an owner knows at each
awareness level (:data:`AWARENESS_LEVELS`), as Python lists over the
columns and an owner slot: its timers, its loads, and rows of pairwise
estimates built on first use, shared by every owner.  The search prices
each edge it relaxes from that view by one rule, whatever the level.
"""

from __future__ import annotations

import math

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
    unknown or pruned peer.  A node's entry about itself (the cells ``own``)
    is pinned at zero.  When ``radius`` is set, entries whose timer exceeds
    it are dropped, bounding the state kept for far-away nodes.  With
    ``track_matrix`` (the distributed-global level), ``matrix_obs[i, c]`` is
    the time t (in units) node i last observed the timer row of column c,
    ``-inf`` if never; that row is c's in ``rows[t] = (cols, block)``, the
    columns of the members the closure at t settled, ascending, and their
    timer rows after it, kept while observed.  ``t_av`` must be positive.
    """

    def __init__(self, n_nodes: int, t_av: float = 1.0, radius: float | None = None,
                 track_matrix: bool = False, columns=None):
        self.n_nodes = n_nodes
        self.t_av = t_av
        self.radius = radius
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
        self.rows: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.swept = 0  # rows left by the last sweep of ``rows``
        self.merged_at = -math.inf  # ``now`` of the last row merge
        self.aged: dict[tuple, list] = {}  # see ``owner_view``

    def tick(self) -> None:
        """Advance every timer one unit, except the nodes' entries about themselves."""
        self.timers += 1.0
        self.timers[self.own] = 0.0
        self.aged.clear()
        if self.radius is not None:
            far = self.timers > self.radius
            far[self.own] = False
            self.timers[far] = math.inf
            self.loads[far] = 0.0


def close_load_window(l_old, pending, mean_exec: float, alpha: float):
    """The load estimate after a window closes with ``pending`` requests
    queued or running (scalars or arrays, elementwise).

    The paper's windowed estimate blends the closing window's load, the
    backlog times the mean execution time ``l_cw = pending * mean_exec``,
    into the previous estimate: ``l_new = alpha * l_cw + (1 - alpha) * l_old``.
    """
    return alpha * (pending * mean_exec) + (1.0 - alpha) * l_old


# Candidate entries computed at once: bounds the (receivers, sources, nodes)
# temporaries, which for every receiver at once would grow peak memory.
_CHUNK_ELEMS = 1 << 16


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


def _closure(know: Knowledge, nodes: np.ndarray, hops: np.ndarray, seeds: np.ndarray,
             now: float) -> bool:
    """Settle co-located nodes as :func:`exchange_all` describes.

    ``nodes`` are the members in id order and ``hops[i, j]`` is the hop
    count between members i and j, infinite across groups.  Receiver i's
    candidates in the column of node c are its own entry, node c's zero
    entry about itself ``hops(i, c)`` hops away (where c is a member), and
    the entries of the ``seeds`` (member positions) in i's group, all as held
    before the call.  Returns True if any timer changed.
    """
    if know.matrix_obs is not None:
        if now <= know.merged_at:
            raise ValueError(f"timer rows merged at {now}, not after the last merge "
                             f"at {know.merged_at}")
        know.merged_at = now
    m, n = len(nodes), know.n_nodes
    cols, hosted = know.columns, know.slots[nodes]
    h = len(cols)
    mine = hosted < h  # the members with a column
    timers, loads = know.timers[nodes], know.loads[nodes]
    # A candidate's label is (value, hops, source id), compared in that
    # order; ``rank`` = hops * n + id orders the last two.  Each cell starts
    # from its column's own node.
    win_hops = np.full((m, h), math.inf)
    win_hops[:, hosted[mine]] = hops[:, mine]
    win = win_hops * know.t_av
    win_rank = win_hops * n + cols
    win_loads = np.repeat(know.loads[know.own][None], m, axis=0)
    # Seeds per receiver by rank; the first ``size[i]`` are in i's group.
    seed_hops = hops[:, seeds]
    order = np.argsort(seed_hops * n + nodes[seeds], axis=1)
    seed_hops = seed_hops[np.arange(m)[:, None], order]
    seed_rank = seed_hops * n + nodes[seeds[order]]
    cost = seed_hops * know.t_av
    size = np.isfinite(cost).sum(axis=1)
    lanes = np.arange(h)
    # Receivers from the most seeds down, in chunks whose (seeds, receivers,
    # columns) candidates stay within _CHUNK_ELEMS.
    by_size = np.argsort(-size, kind="stable")
    lo = 0
    while lo < m and size[by_size[lo]]:
        width = size[by_size[lo]]
        rows = by_size[lo:lo + max(1, _CHUNK_ELEMS // (width * h))]
        lo += len(rows)
        src = seeds[order[rows, :width].T]
        cand = timers[src]
        cand += cost[rows, :width].T[:, :, None]
        best = cand.min(axis=0)
        first = (cand == best).argmax(axis=0)  # the first minimum has the lowest rank
        init = win[rows]
        take = (best < init) | ((best == init) & (seed_rank[rows[:, None], first] < win_rank[rows]))
        win[rows] = np.where(take, best, init)
        via = src[first, np.arange(len(rows))[:, None]]
        win_loads[rows] = np.where(take, loads[via, lanes], win_loads[rows])
    # The own entry wins every tie: it is the only 0-hop candidate.
    radius = math.inf if know.radius is None else know.radius
    adopt = (win < timers) & (win <= radius) & (cols != nodes[:, None])
    know.timers[nodes] = settled = np.where(adopt, win, timers)
    know.loads[nodes] = np.where(adopt, win_loads, loads)
    if know.matrix_obs is not None:
        # Per group: every column's latest observation, then the host members' at now.
        obs = know.matrix_obs
        same = np.isfinite(hops)
        for lowest in np.flatnonzero(same.argmax(axis=1) == np.arange(m)):
            group = nodes[same[lowest]]
            obs[group] = obs[group].max(axis=0)
            obs[group[:, None], hosted[same[lowest] & mine]] = now
        if mine.any():
            know.rows[now] = hosted[mine], settled[mine]
        # Drop unobserved rows once the table has doubled since the last sweep.
        if sum(len(c) for c, _ in know.rows.values()) > 2 * know.swept + h:
            seen = {t: (obs[:, c] == t).any(axis=0) for t, (c, _) in know.rows.items()}
            know.rows = {t: (c[seen[t]], block[seen[t]])
                         for t, (c, block) in know.rows.items() if seen[t].any()}
            know.swept = sum(int(kept.sum()) for kept in seen.values())
    return bool(adopt.any())


def exchange(know: Knowledge, a: int, b: int, now: float = 0.0) -> bool:
    """Symmetric contact update of nodes ``a`` and ``b``; True if a timer changed.

    The one-pair case of :func:`exchange_all`: each side adopts the other's
    strictly better entries (by more than ``t_av``), computed from the
    entries both held before the call.
    """
    return _closure(know, np.array(sorted((a, b))), np.array([[0.0, 1.0], [1.0, 0.0]]),
                    np.arange(2), now)


def exchange_all(know: Knowledge, pairs: list[tuple[int, int]], now: float = 0.0,
                 previous: list[tuple[int, int]] | None = None) -> bool:
    """Settle every group of co-located nodes in one min-plus closure.

    ``pairs`` are the node pairs in contact at this instant; their
    connected components are the co-located groups.  Pairwise contacts
    repeated until nothing changes converge to
    ``T_i[k] = min_j (T_j[k] + t_av * hops(i, j))`` over i's group, so
    this computes that directly, from the entries held before the call.
    As in a single contact, a candidate replaces the own entry only when
    strictly smaller and within ``radius``, and the owner's entry stays zero.

    ``previous``, if given, are the pairs of the last closure, and no timer
    may have changed since but by one ``tick()``.  Then three kinds of
    source can still win receiver i's entry about k: i itself, node k with
    its zero entry about itself, and the endpoints of the pairs new since
    ``previous``.  That closure left ``T_u[k] <= T_w[k] + t_av`` or
    ``T_w[k] + t_av > radius`` on each of its pairs (u, w), and a tick keeps
    this for every k but w, whose own entry stays zero: both sides grow
    alike, and pruning u's entry means it exceeded ``radius``, so
    ``T_w[k] + t_av`` did too.  So if a source j's first hop toward i, to v,
    were an old pair, either v's entry would offer no more at one hop fewer
    and outrank j, or j's candidate would exceed ``radius`` and never be
    adopted.  Every member is a source when ``previous`` is None and when
    ``t_av`` is not a multiple of 2**-20 (rounded sums may break the
    inequality).

    Timers equal the pairwise fixed point exactly whenever the sums are
    exact (``t_av`` a dyadic value such as 0.5 or 1.0); other values may
    differ by one rounding per hop.  Loads follow the minimising source;
    where several sources tie, the own entry wins, then the source with
    fewer hops, then the lower node id (pairwise exchanges left this to
    the order of the pairs).  With row tracking, each member takes its
    group's latest observation time of every column, then the members'
    columns are observed at ``now``, and ``know.rows[now]`` keeps the
    settled row of every member with a column.  A merge must come later than
    the previous one (ValueError otherwise): only then does an observation
    time name one row.  Returns True if any timer changed.
    """
    if not pairs:
        return False
    nodes = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(nodes)}
    # With t_av a multiple of 2**-20, each timer (whole ticks plus t_av per
    # hop) is one too, and every sum exact.
    if previous is None or float(know.t_av).as_integer_ratio()[1] > 1 << 20:
        seeds = np.arange(len(nodes))
    else:
        old = set(previous)
        seeds = np.fromiter({index[v] for pair in pairs if pair not in old for v in pair},
                            dtype=np.intp)
    hops = _hop_counts(len(nodes), [index[a] for a, _ in pairs],
                       [index[b] for _, b in pairs])
    return _closure(know, np.array(nodes), hops, seeds, now)


class _Rows(dict):
    """Rows built on first use: ``rows[s]`` is ``row(s)``, kept once built."""

    def __init__(self, row):
        super().__init__()
        self._row = row

    def __missing__(self, s):
        value = self[s] = self._row(s)
        return value


def owner_view(level: str, know: Knowledge, owner: int, now: float, unit_s: float,
               live_loads=None) -> tuple:
    """Node ``owner``'s view ``(T, L, P)`` of the network at awareness ``level``.

    All three are Python lists over device slots, in time units: slot c is
    ``know``'s column c, and ``know.slots[owner]`` the owner's (one past the
    columns if it has none).  ``T`` holds the owner's timers, ``L`` the
    backlog per slot or None where no load is priced, and ``P[s]`` a row of
    pairwise distances from slot s (built on first use), or None, with None
    entries where the owner has no estimate.  The distance from slot s to
    another slot d is, into the owner, ``T[s]``; else ``P[s][d]`` when
    present, else ``T[s] + T[d]``, an upper bound.

    minimal: every pair at distance 1, no load.  local: the owner's timers
    and loads only.  global: row s is the last timer row of column s the
    owner observed, aged by its staleness, ``g + (now - seen)``, with None
    where that entry is infinite; None for the owner's own row and a row
    never observed; every owner reads the same row object until a tick
    (``know.aged``).  perfect (``know`` keeps every node's column): ``T`` is
    every live timer about the owner, ``P[s]`` node s's live row, and ``L``
    ``live_loads``, the true backlog per node in seconds.  Unknown (pruned)
    peers are at infinite distance.
    """
    h = len(know.columns)
    if level == "minimal":
        ones = [1.0] * (h + 1)
        return ones, None, [ones] * (h + 1)
    if level == "perfect":
        rows = _Rows(lambda s: know.timers[s].tolist())
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
        if seen == -math.inf:
            return None
        aged = know.aged.get((s, seen, now))
        if aged is None:
            cols, block = know.rows[seen]
            aged = (block[cols.searchsorted(s)] + (now - seen)).tolist()
            if math.inf in aged:
                aged = [None if g == math.inf else g for g in aged]
            know.aged[s, seen, now] = aged
        return aged

    return timers, loads, _Rows(gossip)
