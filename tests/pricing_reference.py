"""The n x n pricing, kept as the reference for ``knowledge.edge_prices``.

:func:`cost_matrices` spreads an owner's knowledge into a full device
distance matrix and a load vector; :func:`edge_costs` gathers a graph
template's edges from them.  ``knowledge.edge_prices`` must give the same
list, bit for bit, at every awareness level.
"""

from __future__ import annotations

import math

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
            matrix, obs = know.matrix[owner], know.matrix_obs[owner]
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


def edge_costs(template, owner, dist, load, load_aware):
    """Every edge's cost for ``owner``, as the list ``template.shortest`` reads."""
    sdev = np.where(template.e_sdev < 0, owner, template.e_sdev)
    ddev = np.where(template.e_ddev < 0, owner, template.e_ddev)
    costs = dist[sdev, ddev].astype(float)
    if load_aware:
        costs = costs + np.where(template.e_load, load[ddev], 0.0)
    return costs.tolist()
