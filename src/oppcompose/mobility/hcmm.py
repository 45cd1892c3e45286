"""Community-based trace generator with social rewiring.

The area is split into a grid of community cells and every node gets one
home community.  Social links start as a clique inside each community;
each link is rewired with probability ``rewiring_p`` to a node of another
community.  A node picks its next goal community with probability
proportional to the total link weight toward that community's members, so
with zero rewiring nobody ever leaves home, and travel between
communities becomes more frequent as the rewiring probability grows.

One generator serves the whole trace, drawn in a fixed order: first the
link rewiring (with ``rewiring_p`` > 0, a ``rng.random`` per link and a
``rng.integers`` per rewired one), then one stream of doubles
(``_dist.uniforms``, fetched in blocks of 1 024) that gives per node its
start x and y and, per trip, its pause, its goal community (only when the
node has links) and the goal's x and y.  The stream starts after the
rewiring: a block reads ahead, so no other draw may follow its first fetch.

The walk maps each double on Python floats, as numpy's scalar calls map it:
``low + (high - low) * u`` for ``rng.uniform(low, high)``,
``low * (1.0 - u * tail) ** power`` for a truncated power law (``**`` on
libm, not numpy's SIMD ``power``, which rounds differently on some CPUs),
and ``bisect_right`` into the node's ``choice_cdf`` for
``rng.choice(n_comms, p=...)``.  The travel time is libm's ``hypot`` of the
trip's legs over the speed, the value ``np.hypot`` gives, taken as
``abs(complex(dx, dy))``: CPython computes that by the same libm call,
without numpy's per-call overhead.  ``math.hypot`` has its own algorithm,
rounds differently and would move positions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._dist import choice_cdf, pareto_map, uniforms
from .trace import PositionTrace, sample_segments

__all__ = ["HcmmParams", "generate_hcmm", "home_communities"]


@dataclass(frozen=True)
class HcmmParams:
    grid: tuple[int, int] = (2, 2)
    rewiring_p: float = 0.1
    area: tuple[float, float] = (700.0, 700.0)
    speed: float = 1.0
    pause_exponent: float = 1.5
    pause_bounds: tuple[float, float] = (10.0, 300.0)

    def validate(self) -> None:
        if not (0.0 <= self.rewiring_p <= 1.0):
            raise ValueError(f"rewiring probability must lie in [0, 1], got {self.rewiring_p}")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ValueError("community grid must have at least one cell")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area dimensions must be positive")
        if not self.speed > 0:
            raise ValueError(f"HcmmParams: speed must be positive, got {self.speed}")

    @property
    def n_communities(self) -> int:
        return self.grid[0] * self.grid[1]

    def cell_bounds(self, community: int) -> tuple[float, float, float, float]:
        rows, cols = self.grid
        r, c = divmod(community, cols)
        cw, ch = self.area[0] / cols, self.area[1] / rows
        return c * cw, r * ch, cw, ch


def home_communities(params: HcmmParams, n_nodes: int, seed: int) -> np.ndarray:
    """Home community of each node (balanced random deal, same per seed)."""
    rng = np.random.default_rng(seed)
    homes = np.array([i % params.n_communities for i in range(n_nodes)])
    return homes[rng.permutation(n_nodes)]


def generate_hcmm(
    params: HcmmParams, n_nodes: int, duration: float, seed: int, sample_interval: float = 30.0
) -> PositionTrace:
    """Generate a community-driven trace for ``n_nodes`` over ``duration`` seconds."""
    params.validate()
    rng = np.random.default_rng(seed)
    homes = home_communities(params, n_nodes, seed)

    # Social links: clique within each home community, each link rewired
    # with probability rewiring_p to a node in some other community.  A
    # node's attraction to a community is its link count there over the
    # community's size.
    # Counted in Python lists: a numpy scalar update per link costs more
    # than the link's draws.
    home = homes.tolist()
    n_comms = params.n_communities
    members = [[m for m in range(n_nodes) if home[m] == c] for c in range(n_comms)]
    outside = [[m for m in range(n_nodes) if home[m] != c] for c in range(n_comms)]
    links = [[0.0] * n_comms for _ in range(n_nodes)]
    for node in range(n_nodes):
        others = outside[home[node]]
        for peer in members[home[node]]:  # in id order, as the draws go
            if peer == node:
                continue
            if params.rewiring_p > 0 and rng.random() < params.rewiring_p and others:
                peer = others[int(rng.integers(len(others)))]
            links[node][home[peer]] += 1.0
    attraction = np.array(links) / np.maximum(np.bincount(homes, minlength=n_comms), 1.0)

    n_samples = int(round(duration / sample_interval)) + 1
    positions = np.empty((n_nodes, n_samples, 2))
    low, tail, power = pareto_map(params.pause_exponent, *params.pause_bounds)
    speed = params.speed
    # Per cell: (x0, x1 - x0, y0, y1 - y0), the offset and range
    # rng.uniform(x0, x1) scales its double by.
    cells = []
    for community in range(n_comms):
        x0, y0, cw, ch = params.cell_bounds(community)
        cells.append((x0, (x0 + cw) - x0, y0, (y0 + ch) - y0))
    draws = uniforms(rng)
    for node in range(n_nodes):
        x0, xr, y0, yr = cells[home[node]]
        x = x0 + xr * next(draws)
        y = y0 + yr * next(draws)
        if duration <= 0:
            positions[node, 0] = (x, y)
            continue
        kt, kx, ky = [0.0], [x], [y]
        t = 0.0
        weights = attraction[node]
        total = weights.sum()
        if total > 0:
            cdf, goals, picks = choice_cdf(weights / total), cells, draws
        else:  # no links: every trip goes home, and no double picks it
            cdf, goals, picks = [1.0], [cells[home[node]]], repeat(0.0)
        # Per trip: pause, goal community, goal x, goal y.
        for u_pause, u_goal, u_x, u_y in zip(draws, picks, draws, draws):
            t += low * (1.0 - u_pause * tail) ** power
            kt.append(t)
            kx.append(x)
            ky.append(y)
            gx0, gxr, gy0, gyr = goals[bisect_right(cdf, u_goal)]
            nx = gx0 + gxr * u_x
            ny = gy0 + gyr * u_y
            t += abs(complex(nx - x, ny - y)) / speed
            x, y = nx, ny
            kt.append(t)
            kx.append(x)
            ky.append(y)
            if t >= duration:
                break
        positions[node] = sample_segments(kt, kx, ky, duration, sample_interval)
    return PositionTrace(positions, sample_interval, params.area[0], params.area[1])
