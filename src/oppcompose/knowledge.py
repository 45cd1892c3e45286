"""Per-node distributed network state.

Every node keeps a timer per peer approximating its temporal distance
(time elapsed since a contact chain could have relayed information from
that peer), plus a load estimate per peer.  Timers tick once per time
unit; on contact two nodes adopt each other's strictly better entries,
paying a fixed ``t_av`` per relay hop.  At each unit boundary every group
of co-located nodes settles at once to what repeated contacts would reach,
``T_i[k] = min_j (T_j[k] + t_av * hops(i, j))`` over the group, with the
load taken from the minimising source (ties: own entry, then fewer hops,
then lower node id).  :func:`edge_prices` turns this state into the
cost of every composition graph edge an owner prices, one rule per
awareness level (:data:`AWARENESS_LEVELS`): the owner's vectors are read
at the edges' device endpoints only, never spread into an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "AWARENESS_LEVELS",
    "KnowledgeStore",
    "LoadTracker",
    "exchange",
    "exchange_all",
    "EdgeEnds",
    "edge_ends",
    "edge_prices",
]

AWARENESS_LEVELS = ("minimal", "local", "global", "perfect")


class KnowledgeStore:
    """Timers and load estimates one node keeps about all others.

    Timer values are in time units (one unit = ``unit_s`` seconds);
    ``math.inf`` marks an unknown or pruned peer.  The entry for the owner
    itself is pinned at zero.  When ``radius`` is set, entries whose timer
    exceeds it are dropped, bounding the state kept for far-away nodes.
    """

    __slots__ = ("owner", "n_nodes", "t_av", "radius", "timers", "loads",
                 "matrix", "matrix_obs", "dirty")

    def __init__(self, owner: int, n_nodes: int, t_av: float = 1.0,
                 radius: float | None = None, track_matrix: bool = False):
        self.owner = owner
        self.n_nodes = n_nodes
        self.t_av = t_av
        self.radius = radius
        self.timers = np.full(n_nodes, math.inf)
        self.timers[owner] = 0.0
        self.loads = np.zeros(n_nodes)
        # Full timer matrix for the distributed-global level: row i holds
        # the last observed timer vector of node i plus its observation
        # time (in units).  Row ``owner`` is implicit (live timers).
        self.matrix = np.full((n_nodes, n_nodes), math.inf) if track_matrix else None
        self.matrix_obs = np.full(n_nodes, -math.inf) if track_matrix else None
        self.dirty = False

    def tick(self, elapsed: float = 1.0) -> None:
        """Advance all timers except the owner's own entry."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        self.timers += elapsed
        self.timers[self.owner] = 0.0
        self._prune()

    def _prune(self) -> None:
        if self.radius is not None:
            far = self.timers > self.radius
            far[self.owner] = False
            self.timers[far] = math.inf
            self.loads[far] = 0.0


@dataclass
class LoadTracker:
    """Moving-window load estimate: pending backlog smoothed by a decay factor."""

    mean_exec: float = 30.0
    alpha: float = 0.5
    window: float = 30.0
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


def _hop_counts(m: int, ia: list[int], ib: list[int]) -> np.ndarray:
    """All-pairs hop counts of the undirected graph on ``m`` vertices with
    edges ``(ia[e], ib[e])``; infinity between components.

    Each BFS level is one boolean frontier times adjacency product, done
    as a float32 matmul (counts stay far below 2**24).
    """
    adj = np.zeros((m, m), dtype=np.float32)
    adj[ia, ib] = adj[ib, ia] = 1.0
    hops = np.full((m, m), math.inf)
    np.fill_diagonal(hops, 0.0)
    frontier = np.eye(m, dtype=np.float32)
    level = 0
    while True:
        level += 1
        new = (frontier @ adj > 0) & np.isinf(hops)
        if not new.any():
            return hops
        hops[new] = level
        frontier = new.astype(np.float32)


def _closure(members: list[KnowledgeStore], hops: np.ndarray, now: float) -> bool:
    """Settle co-located stores as :func:`exchange_all` describes.

    ``members`` are in node id order and ``hops[i, j]`` is the hop count
    between members i and j, infinite across groups.  All candidates come
    from the entries held before the call.  Returns True if any timer
    changed.
    """
    m = len(members)
    timers = np.array([s.timers for s in members])
    loads = np.array([s.loads for s in members])
    owners = np.array([s.owner for s in members])
    t_av = np.array([s.t_av for s in members])
    radius = np.array([math.inf if s.radius is None else s.radius for s in members])
    track = all(s.matrix is not None for s in members)
    # Sources per receiver in tie order: itself (the only 0-hop entry), then
    # by hops, then by node id (a stable sort of id-ordered members; small
    # integer keys sort by radix).  The first ``size[i]`` are i's component.
    keys = np.minimum(hops, m).astype(np.min_scalar_type(m))
    order = np.argsort(keys, axis=1, kind="stable")
    hops = np.take_along_axis(hops, order, axis=1)
    linked = np.isfinite(hops)
    size = linked.sum(axis=1)
    cost = np.full_like(hops, math.inf)
    np.multiply(hops, t_av[:, None], out=cost, where=linked)
    new_timers, new_loads = timers.copy(), loads.copy()
    if track:
        obs = np.array([s.matrix_obs for s in members])
        freshest = np.empty_like(timers, dtype=np.intp)
    n = timers.shape[1]
    cols = np.arange(n)
    # Receivers from the largest components down, in chunks whose
    # (receivers, sources, nodes) candidates stay within _CHUNK_ELEMS.
    by_size = np.argsort(-size, kind="stable")
    lo = 0
    while lo < m:
        width = size[by_size[lo]]
        rows = by_size[lo:lo + max(1, _CHUNK_ELEMS // (width * n))]
        lo += len(rows)
        pick = np.arange(len(rows))[:, None]
        src = order[rows, :width]
        cand = timers[src]
        cand += cost[rows, :width, None]
        first = cand.argmin(axis=1)  # first minimum: the tie order above
        best = cand[pick, first, cols]
        adopt = (first > 0) & (best <= radius[rows, None])
        adopt[pick[:, 0], owners[rows]] = False
        new_timers[rows] = np.where(adopt, best, timers[rows])
        new_loads[rows] = np.where(adopt, loads[src[pick, first], cols], loads[rows])
        if track:
            seen = obs[src]
            seen[~linked[rows, :width]] = -math.inf
            freshest[rows] = src[pick, seen.argmax(axis=1)]
    adopted = (new_timers != timers).any(axis=1)
    for i in np.flatnonzero(adopted):
        store = members[i]
        store.timers[:] = new_timers[i]
        store.loads[:] = new_loads[i]
        store.dirty = True
    if track:
        matrix = np.array([s.matrix for s in members])
        for i, store in enumerate(members):
            newer = np.flatnonzero(freshest[i] != i)
            store.matrix[newer] = matrix[freshest[i, newer], newer]
            store.matrix_obs[newer] = obs[freshest[i, newer], newer]
            group = order[i, :size[i]]
            store.matrix[owners[group]] = new_timers[group]
            store.matrix_obs[owners[group]] = now
    return bool(adopted.any())


def exchange(a: KnowledgeStore, b: KnowledgeStore, now: float = 0.0) -> bool:
    """Symmetric contact update between two stores; True if any timer changed.

    The one-pair case of :func:`exchange_all`: each side adopts the other's
    strictly better entries (by more than ``t_av``), computed from the
    entries both held before the call.
    """
    return _closure(sorted((a, b), key=lambda s: s.owner), _PAIR_HOPS, now)


def exchange_all(stores: list[KnowledgeStore], pairs: list[tuple[int, int]],
                 now: float = 0.0) -> bool:
    """Settle every group of co-located nodes in one min-plus closure.

    ``pairs`` are the node pairs in contact at this instant; their
    connected components are the co-located groups.  Pairwise contacts
    repeated until nothing changes converge to
    ``T_i[k] = min_j (T_j[k] + t_av * hops(i, j))`` over i's group, so
    this computes that directly: hop counts by BFS, then one vectorised
    minimum per receiver over the entries held before the call.  As in a
    single contact, a candidate replaces the own entry only when strictly
    smaller and within ``radius``, and the owner's entry stays zero.

    Timers equal the pairwise fixed point exactly whenever the sums are
    exact (``t_av`` a dyadic value such as 0.5 or 1.0); other values may
    differ by one rounding per hop.  Loads follow the minimising source;
    where several sources tie, the own entry wins, then the source with
    fewer hops, then the lower node id (pairwise exchanges left this to
    the order of the pairs).  With matrix tracking, each member's rows
    about its group become those members' final timers observed at
    ``now``; every other row takes the freshest observation held in the
    group, ties resolved in the same order.  Returns True if any timer
    changed.
    """
    if not pairs:
        return False
    nodes = sorted({v for pair in pairs for v in pair})
    index = {v: i for i, v in enumerate(nodes)}
    hops = _hop_counts(len(nodes), [index[a] for a, _ in pairs],
                       [index[b] for _, b in pairs])
    return _closure([stores[v] for v in nodes], hops, now)


class EdgeEnds(NamedTuple):
    """One owner's composition graph edges as device index arrays.

    ``src[e]`` and ``dst[e]`` are edge e's device endpoints, the owner's id
    in place of the graph's own ends; ``loaded`` lists the edges that pay
    their destination's load (``None``: none does).  ``same`` lists the
    edges with ``src == dst``, ``others`` those with distinct ends of which
    neither is the owner.  Built once per owner by :func:`edge_ends`.
    """

    src: np.ndarray
    dst: np.ndarray
    loaded: np.ndarray | None
    same: np.ndarray
    others: np.ndarray


def edge_ends(owner: int, sdev: np.ndarray, ddev: np.ndarray,
              loaded: np.ndarray | None) -> EdgeEnds:
    """``owner``'s :class:`EdgeEnds` for edges from device ``sdev[e]`` to
    ``ddev[e]``, where a negative id stands for the owner."""
    src = np.where(sdev < 0, owner, sdev)
    dst = np.where(ddev < 0, owner, ddev)
    others = np.flatnonzero((src != dst) & (src != owner) & (dst != owner))
    return EdgeEnds(src, dst, loaded, np.flatnonzero(src == dst), others)


def edge_prices(level: str, stores: list[KnowledgeStore], owner: int, ends: EdgeEnds,
                now: float, unit_s: float, timers: np.ndarray | None = None,
                live_loads: np.ndarray | None = None) -> np.ndarray:
    """Edge costs, in time units, as node ``owner`` prices them at ``level``.

    Each edge of ``ends`` costs the estimated temporal distance between its
    devices s and d, plus the backlog at d if it is ``loaded``.  minimal:
    distance 1 between two devices, no load.  local: the owner's own
    timers, the sum ``t(s) + t(d)`` (an upper bound; exact where one end is
    the owner, whose entry is pinned at zero).  global: for s and d other
    than the owner with a finite gossiped entry about d in s's row, that
    entry aged by the row's staleness ``now - observed``; the local sum
    elsewhere.  At these three levels ``s == d`` costs 0.  perfect: every
    node's live timers (``timers``, all stores' timer vectors stacked) and
    ``live_loads``, the true backlog per node in seconds.  Unknown (pruned)
    peers are at infinite distance.
    """
    src, dst = ends.src, ends.dst
    if level == "minimal":
        costs = np.ones(len(src))
        costs[ends.same] = 0.0
        return costs
    if level == "perfect":
        costs = timers[src, dst]
        load = live_loads
    elif level in ("local", "global"):
        store = stores[owner]
        t = store.timers
        costs = t[src] + t[dst]
        if level == "global":
            rows = src[ends.others]
            gossip = store.matrix[rows, dst[ends.others]]
            seen = store.matrix_obs[rows]
            use = np.isfinite(gossip) & (seen > -math.inf)
            costs[ends.others[use]] = gossip[use] + (now - seen[use])
        costs[ends.same] = 0.0
        load = store.loads
    else:
        raise ValueError(f"unknown awareness level {level!r}")
    loaded = ends.loaded
    if loaded is not None:
        costs[loaded] += load[dst[loaded]] / unit_s
    return costs
