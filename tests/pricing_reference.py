"""The n x n pricing, kept as the reference for ``knowledge.owner_view``.

:func:`cost_matrices` spreads an owner's knowledge into a full device
distance matrix and a load vector.  ``owner_view`` must give the same
distance for every ordered pair s != d, bit for bit, at every awareness
level: ``T[s]`` into the owner, else ``row[d] + age`` from ``(row, age) =
P[s]`` where the row holds an estimate (not NaN), else ``T[s] + T[d]``; and
the same loads.  :func:`graph_heads` lists a graph template's every edge from
its copies' types, :func:`edge_costs` prices them from the matrices, each
edge's devices read from its vertices, and :func:`matrix_view` wraps the
matrices as a view (every ``dist`` row in ``P`` at age 0, the owner's column
in ``T``) for ``shortest``.
:func:`observed_rows` spreads the gossip, observation times over
``Knowledge.rows``, into the n x h x h array of the rows of each column
each node observed (h columns; n x n x n when every node keeps one), and
:func:`row_table` packs such an array back into that table.
"""

from __future__ import annotations

import math
from array import array

import numpy as np


def cost_matrices(level, know, owner, now, unit_s, live_loads=None):
    """Edge-cost inputs as node ``owner`` prices them at awareness ``level``.

    Returns ``(dist, load)`` in time units: ``dist[i, j]`` estimates the
    temporal distance between devices i and j, ``load[j]`` the backlog at
    device j.  minimal: distance 1 between any two devices, no load.
    local: own timers; for two other nodes the sum t(i) + t(j), an upper
    bound on their mutual distance.  global: node i's gossiped timer row,
    aged by its staleness ``now - observed`` (the local sum where no row
    was observed).  perfect: every node's live timers, and ``live_loads``,
    the true backlog per node in seconds.  Unknown (pruned) peers are at
    infinite distance.
    """
    n = know.n_nodes
    if level == "minimal":
        dist = np.ones((n, n))
        np.fill_diagonal(dist, 0.0)
        load = np.zeros(n)
    elif level == "perfect":
        dist = know.timers.copy()
        load = live_loads / unit_s
    elif level in ("local", "global"):
        ta = know.timers[owner]
        dist = ta[:, None] + ta[None, :]
        if level == "global":
            matrix, obs = observed_rows(know)[owner], know.matrix_obs[owner]
            seen = obs > -math.inf
            if seen.any():
                age = now - obs[seen]
                rows = matrix[seen] + age[:, None]
                dist[seen] = np.where(np.isfinite(matrix[seen]), rows, dist[seen])
        dist[owner, :] = ta
        dist[:, owner] = ta
        np.fill_diagonal(dist, 0.0)
        load = know.loads[owner] / unit_s
    else:
        raise ValueError(f"unknown awareness level {level!r}")
    return dist, load


def graph_heads(template, single_stage=False):
    """Per vertex of ``template``, the head of each outgoing edge, unpruned:
    a type vertex leads to each copy that takes the type, and a copy to its
    output's type vertex, then (unless ``single_stage``) to each copy that
    takes its output, copies in vertex order."""
    heads = [[] for _ in range(template.n_vertices)]
    for u, (s, _) in enumerate(template.copies):
        heads[template.type_vertex[s.input]].append(u)
        heads[u].append(template.type_vertex[s.output])
        if not single_stage:
            heads[u].extend(v for v, (s2, _) in enumerate(template.copies)
                            if s.output == s2.input)
    return heads


def edge_costs(template, owner, dist, load, load_aware):
    """Every edge's cost for ``owner``, keyed by its (tail, head) vertices.

    A service copy's device is its host and a type vertex's the owner; an
    edge into a copy pays the copy's load.
    """
    base = template.n_service_vertices
    device = [template.devices[v] if v < base else owner for v in range(template.n_vertices)]
    costs = {}
    for u, heads in enumerate(graph_heads(template)):
        for v in heads:
            cost = float(dist[device[u], device[v]])
            if load_aware and v < base:
                cost += float(load[device[v]])
            costs[u, v] = cost
    return costs


def matrix_view(owner, dist, load, load_aware=True):
    """``(T, L, P)`` as ``shortest`` reads it, with every ``dist`` row in ``P``
    at age 0 and the distances into the owner, its column, in ``T``."""
    dist = np.asarray(dist, dtype=float)
    return (dist[:, owner].tolist(), np.asarray(load, dtype=float).tolist() if load_aware else None,
            [(row, 0.0) for row in dist.tolist()])


def observed_rows(know):
    """``matrix[i, r]``: the timer row of column r that node i last observed
    (over ``know``'s columns), read from ``know.rows`` at
    ``(know.matrix_obs[i, r], r)``, its NaN (no estimate) back to infinite;
    infinite where never observed.  Every observation must find its row
    (KeyError otherwise)."""
    matrix = np.full(know.matrix_obs.shape + (len(know.columns),), math.inf)
    for i, r in zip(*np.nonzero(know.matrix_obs > -math.inf)):
        row = np.frombuffer(know.rows[know.matrix_obs[i, r], r])
        matrix[i, r] = np.where(np.isnan(row), math.inf, row)
    return matrix


def row_table(matrix, obs):
    """The ``Knowledge.rows`` table that holds ``matrix[i, r]`` at
    ``(obs[i, r], r)``, infinite entries as NaN.

    Equal observations of a row must hold equal rows (AssertionError otherwise).
    """
    table = {}
    for i, r in zip(*np.nonzero(obs > -math.inf)):
        row = np.where(np.isinf(matrix[i, r]), math.nan, matrix[i, r])
        held = table.setdefault((float(obs[i, r]), int(r)), array("d", row.tobytes()))
        assert held.tobytes() == row.tobytes()
    return table
