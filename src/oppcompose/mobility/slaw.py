"""SLAW-style trace generator.

Waypoints form a self-similar field whose clustering is controlled by a
Hurst parameter; each node owns a random subset of waypoints and tours it
by always flying to the nearest not-yet-visited one (least-action trip
planning), pausing a heavy-tailed time at each stop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import pareto_map
from .trace import PositionTrace, sample_segments

__all__ = ["SlawParams", "generate_slaw", "waypoint_field"]

# Depth of the waypoint cascade, and how many of its first splits are even.
CASCADE_LEVELS = 7
FLAT_LEVELS = 2


@dataclass(frozen=True)
class SlawParams:
    hurst: float = 0.75
    n_waypoints: int = 800
    area: tuple[float, float] = (700.0, 700.0)
    waypoint_fraction: float = 0.05
    speed: float = 1.0
    pause_exponent: float = 1.5
    pause_bounds: tuple[float, float] = (10.0, 300.0)

    def validate(self) -> None:
        if not (0.5 < self.hurst < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0.5, 1), got {self.hurst}")
        if self.n_waypoints < 1:
            raise ValueError("need at least one waypoint")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area dimensions must be positive")
        if not self.speed > 0:
            raise ValueError(f"SlawParams: speed must be positive, got {self.speed}")


def waypoint_field(params: SlawParams, rng: np.random.Generator) -> np.ndarray:
    """Generate the self-similar waypoint field, shape (n_waypoints, 2).

    A multiplicative quadrant cascade deals waypoint counts into cells;
    the unevenness of each 4-way split grows with the Hurst parameter, so
    higher values concentrate waypoints into tighter, denser clusters.
    The first ``FLAT_LEVELS`` splits are even, which keeps the clusters
    spread over the whole area instead of collapsing into one corner.
    """
    gamma = 4.0 * (2.0 * params.hurst - 1.0)
    cells = [(0.0, 0.0, params.area[0], params.area[1], params.n_waypoints)]
    for level in range(CASCADE_LEVELS):
        nxt = []
        for x0, y0, cw, ch, count in cells:
            if count == 0:
                continue
            if level < FLAT_LEVELS:
                weights = np.full(4, 0.25)
            else:
                raw = rng.random(4) ** gamma
                weights = raw / raw.sum()
            split = rng.multinomial(count, weights)
            half_w, half_h = cw / 2.0, ch / 2.0
            for qi, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
                if split[qi]:
                    nxt.append((x0 + dx * half_w, y0 + dy * half_h, half_w, half_h, int(split[qi])))
        cells = nxt
    points = []
    for x0, y0, cw, ch, count in cells:
        xs = rng.uniform(x0, x0 + cw, size=count)
        ys = rng.uniform(y0, y0 + ch, size=count)
        points.append(np.stack([xs, ys], axis=1))
    field = np.concatenate(points, axis=0)
    return field[rng.permutation(len(field))]


def generate_slaw(
    params: SlawParams, n_nodes: int, duration: float, seed: int, sample_interval: float = 30.0
) -> PositionTrace:
    """Generate a SLAW trace for ``n_nodes`` over ``duration`` seconds."""
    params.validate()
    rng = np.random.default_rng(seed)
    field = waypoint_field(params, rng)
    subset_size = max(1, int(round(params.waypoint_fraction * len(field))))
    p_low, p_tail, p_power = pareto_map(params.pause_exponent, *params.pause_bounds)

    n_samples = int(round(duration / sample_interval)) + 1
    positions = np.empty((n_nodes, n_samples, 2))
    for node in range(n_nodes):
        subset = field[rng.choice(len(field), size=min(subset_size, len(field)), replace=False)]
        current = int(rng.integers(len(subset)))
        x, y = subset[current]
        if duration == 0:
            positions[node, 0] = (x, y)
            continue
        visited = {current}
        knots = [(0.0, x, y)]
        t = 0.0
        while t < duration:
            t += p_low * (1.0 - rng.random() * p_tail) ** p_power
            knots.append((t, x, y))
            if len(subset) == 1:
                continue
            if len(visited) == len(subset):
                visited = {current}
            remaining = [i for i in range(len(subset)) if i not in visited]
            d2 = ((subset[remaining] - (x, y)) ** 2).sum(axis=1)
            current = remaining[int(np.argmin(d2))]
            visited.add(current)
            nx, ny = subset[current]
            t += abs(complex(nx - x, ny - y)) / params.speed
            x, y = nx, ny
            knots.append((t, x, y))
        positions[node] = sample_segments(*zip(*knots), duration, sample_interval)
    return PositionTrace(positions, sample_interval, params.area[0], params.area[1])
