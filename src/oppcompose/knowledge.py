"""Distributed network state, every node's in whole arrays.

Every node keeps a timer per peer approximating its temporal distance
(time elapsed since a contact chain could have relayed information from
that peer), plus a load estimate per peer: row i of :class:`Knowledge`'s
arrays.  Timers tick once per time unit; on contact two nodes adopt each
other's strictly better entries, paying a fixed ``t_av`` per relay hop.  At
each unit boundary every group of co-located nodes settles at once to what
repeated contacts would reach,
``T_i[k] = min_j (T_j[k] + t_av * hops(i, j))`` over the group, with the
load taken from the minimising source (ties: own entry, then fewer hops,
then lower node id).  Only the columns k that pricing reads are settled
(:attr:`Knowledge.columns`), and when the previous boundary's pairs are
known, only sources j at the ends of contacts new since then, plus k
itself, can win (see :func:`exchange_all`).  Under ``global`` awareness
nodes also gossip timer rows, merged once per group: each member takes
the group's latest observation time of each row, which names the row that
time's closure settled, kept once.  :func:`owner_view` turns
this state into what an owner knows at each awareness level
(:data:`AWARENESS_LEVELS`), as Python lists: its timers, its loads, and
rows of pairwise estimates built on first use.  The composition search
prices each edge it relaxes from that view by one rule, whatever the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AWARENESS_LEVELS",
    "Knowledge",
    "LoadTracker",
    "exchange",
    "exchange_all",
    "owner_view",
]

AWARENESS_LEVELS = ("minimal", "local", "global", "perfect")


class Knowledge:
    """Timers and load estimates of every node about every other.

    Row i of ``timers`` and ``loads`` is node i's store.  Timer values are
    in time units (one unit = ``unit_s`` seconds); ``math.inf`` marks an
    unknown or pruned peer.  A node's entry about itself is pinned at zero.
    When ``radius`` is set, entries whose timer exceeds it are dropped,
    bounding the state kept for far-away nodes.  With ``track_matrix`` (the
    distributed-global level), ``matrix_obs[i, r]`` is the time t (in units)
    node i last observed node r's timer row, ``-inf`` if never; the row is
    r's in ``rows[t] = (ids, block)``, the sorted nodes the closure at t
    settled and their timer rows after it, kept while observed.  ``t_av``
    must be positive.  Closures settle only the ``columns`` given (default:
    all); the others keep ticking but are never exchanged, so only the kept
    columns of ``timers``, ``loads`` and the rows mean anything.
    """

    def __init__(self, n_nodes: int, t_av: float = 1.0, radius: float | None = None,
                 track_matrix: bool = False, columns=None):
        self.n_nodes = n_nodes
        self.t_av = t_av
        self.radius = radius
        # Not np.unique: it imports numpy.ma, about 1 MB and 20 ms on first use.
        self.columns = np.array(range(n_nodes) if columns is None else sorted(set(columns)),
                                dtype=np.intp)
        self.timers = np.full((n_nodes, n_nodes), math.inf)
        np.fill_diagonal(self.timers, 0.0)
        self.loads = np.zeros((n_nodes, n_nodes))
        self.matrix_obs = np.full((n_nodes, n_nodes), -math.inf) if track_matrix else None
        self.rows: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.swept = 0  # rows left by the last sweep of ``rows``
        self.merged_at = -math.inf  # ``now`` of the last row merge
        self.aged: dict[tuple, list] = {}  # see ``owner_view``

    def tick(self, elapsed: float = 1.0) -> None:
        """Advance every timer except the nodes' entries about themselves."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        self.timers += elapsed
        np.fill_diagonal(self.timers, 0.0)
        self.aged.clear()
        if self.radius is not None:
            far = self.timers > self.radius
            np.fill_diagonal(far, False)
            self.timers[far] = math.inf
            self.loads[far] = 0.0


@dataclass
class LoadTracker:
    """Moving-window load estimate: pending backlog smoothed by a decay factor."""

    mean_exec: float = 30.0
    alpha: float = 0.5
    l_old: float = 0.0

    def update(self, pending_count: int) -> float:
        """Close a window: blend current backlog into the running estimate."""
        l_cw = pending_count * self.mean_exec
        value = self.alpha * l_cw + (1.0 - self.alpha) * self.l_old
        self.l_old = value
        return value


# Candidate entries computed at once: bounds the (receivers, sources, nodes)
# temporaries, which for every receiver at once would grow peak memory.
_CHUNK_ELEMS = 1 << 16

_PAIR_HOPS = np.array([[0.0, 1.0], [1.0, 0.0]])
_BOTH = np.arange(2)


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
    candidates in kept column c are its own entry, node c's zero entry
    about itself ``hops(i, c)`` hops away (where c is a member), and the
    entries of the ``seeds`` (member positions) in i's group, all as held
    before the call.  Returns True if any timer changed.
    """
    if know.matrix_obs is not None:
        if now <= know.merged_at:
            raise ValueError(f"timer rows merged at {now}, not after the last merge "
                             f"at {know.merged_at}")
        know.merged_at = now
    m, n = len(nodes), know.n_nodes
    cols = know.columns
    cells = nodes[:, None], cols
    timers, loads = know.timers[cells], know.loads[cells]
    # A candidate's label is (value, hops, source id), compared in that
    # order; ``rank`` = hops * n + id orders the last two.  Each cell starts
    # from its column's own node.
    win_hops = np.full((m, n), math.inf)
    win_hops[:, nodes] = hops
    win_hops = win_hops[:, cols]
    win = win_hops * know.t_av
    win_rank = win_hops * n + cols
    win_loads = np.repeat(know.loads[cols, cols][None], m, axis=0)
    # Seeds per receiver by rank; the first ``size[i]`` are in i's group.
    seed_hops = hops[:, seeds]
    order = np.argsort(seed_hops * n + nodes[seeds], axis=1)
    seed_hops = seed_hops[np.arange(m)[:, None], order]
    seed_rank = seed_hops * n + nodes[seeds[order]]
    cost = seed_hops * know.t_av
    size = np.isfinite(cost).sum(axis=1)
    lanes = np.arange(len(cols))
    # Receivers from the most seeds down, in chunks whose (seeds, receivers,
    # columns) candidates stay within _CHUNK_ELEMS.
    by_size = np.argsort(-size, kind="stable")
    lo = 0
    while lo < m and size[by_size[lo]]:
        width = size[by_size[lo]]
        rows = by_size[lo:lo + max(1, _CHUNK_ELEMS // (width * len(cols)))]
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
    know.timers[cells] = np.where(adopt, win, timers)
    know.loads[cells] = np.where(adopt, win_loads, loads)
    if know.matrix_obs is not None:
        # Per group: every row's latest observation, then the members' rows at now.
        obs = know.matrix_obs
        same = np.isfinite(hops)
        for lowest in np.flatnonzero(same.argmax(axis=1) == np.arange(m)):
            group = nodes[same[lowest]]
            obs[group] = obs[group].max(axis=0)
            obs[group[:, None], group] = now
        know.rows[now] = nodes, know.timers[nodes]
        # Drop unobserved rows once the table has doubled since the last sweep.
        if sum(len(ids) for ids, _ in know.rows.values()) > 2 * know.swept + n:
            seen = {t: (obs[:, ids] == t).any(axis=0) for t, (ids, _) in know.rows.items()}
            know.rows = {t: (ids[seen[t]], block[seen[t]])
                         for t, (ids, block) in know.rows.items() if seen[t].any()}
            know.swept = sum(int(kept.sum()) for kept in seen.values())
    return bool(adopt.any())


def exchange(know: Knowledge, a: int, b: int, now: float = 0.0) -> bool:
    """Symmetric contact update of nodes ``a`` and ``b``; True if a timer changed.

    The one-pair case of :func:`exchange_all`: each side adopts the other's
    strictly better entries (by more than ``t_av``), computed from the
    entries both held before the call.
    """
    return _closure(know, np.array(sorted((a, b))), _PAIR_HOPS, _BOTH, now)


def _exact_sums(t_av: float) -> bool:
    """Whether every timer sum is exact: with ``t_av`` a multiple of 2**-20,
    each timer (whole ticks plus ``t_av`` per hop) is one too."""
    return float(t_av).as_integer_ratio()[1] <= 1 << 20


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

    Only ``know.columns`` are settled.  ``previous``, if given, are the
    pairs of the last closure, and no timer may have changed since but by
    one ``tick(1.0)``.  Then three kinds of source can still win receiver
    i's entry about k: i itself, node k with its zero entry about itself,
    and the endpoints of the pairs new since ``previous``.  That closure left
    ``T_u[k] <= T_w[k] + t_av`` or ``T_w[k] + t_av > radius`` on each of its
    pairs (u, w), and a tick keeps this for every k but w, whose own entry
    stays zero: both sides grow alike, and pruning u's entry means it
    exceeded ``radius``, so ``T_w[k] + t_av`` did too.  So if a source j's
    first hop toward i, to v, were an old pair, either v's entry would
    offer no more at one hop fewer and outrank j, or j's candidate would
    exceed ``radius`` and never be adopted.  Every member is a source when
    ``previous`` is None and when ``t_av`` is not a multiple of 2**-20
    (rounded sums may break the inequality).

    Timers equal the pairwise fixed point exactly whenever the sums are
    exact (``t_av`` a dyadic value such as 0.5 or 1.0); other values may
    differ by one rounding per hop.  Loads follow the minimising source;
    where several sources tie, the own entry wins, then the source with
    fewer hops, then the lower node id (pairwise exchanges left this to
    the order of the pairs).  With row tracking, each member takes its
    group's latest observation time of every row, then its rows about
    members are observed at ``now``, and ``know.rows[now]`` keeps every
    member's settled row.  A merge must come later than the previous one
    (ValueError otherwise): only then does an observation time name one
    row.  Returns True if any timer changed.
    """
    if not pairs:
        return False
    nodes = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(nodes)}
    if previous is None or not _exact_sums(know.t_av):
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

    All three are Python lists over devices, in time units: ``T`` the
    owner's timers, ``L`` the backlog per device or None where no load is
    priced, and ``P[s]`` a row of pairwise distances from device s (built on
    first use), or None, with None entries where the owner has no pairwise
    estimate.  The distance from s to another device d is ``P[s][d]`` when
    present, else ``T[s] + T[d]``: an upper bound, exact where one end is the
    owner, whose entry is pinned at zero.

    minimal: every pair at distance 1, no load.  local: the owner's timers
    and loads only.  global: row s is the last timer row of s the owner
    observed, aged by its staleness, ``g + (now - seen)``, with None where
    that entry is infinite or about the owner; None for the owner's own row
    and a row never observed.  Owners share each aged row until a tick
    (``know.aged``).  perfect: every node's live timer row, and
    ``live_loads``, the true backlog per node in seconds.  Unknown (pruned)
    peers are at infinite distance.
    """
    n = know.n_nodes
    if level == "minimal":
        ones = [1.0] * n
        return ones, None, [ones] * n
    if level == "perfect":
        rows = _Rows(lambda s: know.timers[s].tolist())
        return rows[owner], np.divide(live_loads, unit_s).tolist(), rows
    if level not in ("local", "global"):
        raise ValueError(f"unknown awareness level {level!r}")
    timers = know.timers[owner].tolist()
    loads = (know.loads[owner] / unit_s).tolist()
    if level == "local":
        return timers, loads, None
    observed = know.matrix_obs[owner].tolist()

    def gossip(s):
        seen = observed[s]
        if s == owner or seen == -math.inf:
            return None
        aged = know.aged.get((s, seen, now))
        if aged is None:
            ids, block = know.rows[seen]
            aged = (block[ids.searchsorted(s)] + (now - seen)).tolist()
            if math.inf in aged:
                aged = [None if g == math.inf else g for g in aged]
            know.aged[s, seen, now] = aged
        row = aged.copy()
        row[owner] = None
        return row

    return timers, loads, _Rows(gossip)
