"""Levy walk trace generator.

Nodes alternate straight-line flights and pauses; flight lengths and pause
times are drawn from truncated power laws, flight directions are uniform.
The area boundary reflects, which keeps the spatial distribution of users
roughly uniform over the area.

One generator serves the whole trace, drawn in a fixed order: the speeds of
each speed class with v_min < v_max, then per node its start x and y and,
per flight, its length, angle and pause.  That order is what keeps a seed's
trace reproducible, so the walk reads the uniforms in blocks, in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._dist import pareto_from_uniform, truncated_pareto
from .trace import PositionTrace, sample_segments

__all__ = ["LevyWalkParams", "generate_levy", "flight_lengths"]


@dataclass(frozen=True)
class LevyWalkParams:
    """Parameters of the Levy walk generator.

    ``speed_classes`` lists (node count, (v_min, v_max)) populations, e.g.
    a slow walking group and a fast vehicle-like group; counts must sum to
    the requested node count.
    """

    flight_exponent: float = 1.5
    pause_exponent: float = 1.5
    speed_classes: tuple[tuple[int, tuple[float, float]], ...] = ((10, (1.0, 1.0)), (10, (10.0, 10.0)))
    area: tuple[float, float] = (700.0, 700.0)
    flight_bounds: tuple[float, float] = (5.0, 500.0)
    pause_bounds: tuple[float, float] = (10.0, 300.0)

    def validate(self, n_nodes: int) -> None:
        if not (0 < self.flight_exponent <= 2 and 0 < self.pause_exponent <= 2):
            raise ValueError("exponents must lie in (0, 2] for the heavy-tailed regime")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area dimensions must be positive")
        total = sum(c for c, _ in self.speed_classes)
        if total != n_nodes:
            raise ValueError(f"speed class counts sum to {total}, expected {n_nodes}")


def _reflect(v: float, limit: float) -> float:
    """Fold a coordinate back into [0, limit] by mirror reflection."""
    period = 2.0 * limit
    v = v % period
    return v if v <= limit else period - v


def _uniforms(rng: np.random.Generator):
    """The doubles scalar ``rng.random()`` calls would draw, fetched in blocks."""
    while True:
        yield from rng.random(1024).tolist()


def generate_levy(
    params: LevyWalkParams, n_nodes: int, duration: float, seed: int, sample_interval: float = 30.0
) -> PositionTrace:
    """Generate a Levy walk trace for ``n_nodes`` over ``duration`` seconds."""
    params.validate(n_nodes)
    rng = np.random.default_rng(seed)
    w, h = params.area

    speeds = []
    for count, (v_lo, v_hi) in params.speed_classes:
        speeds.extend(rng.uniform(v_lo, v_hi, size=count).tolist() if v_hi > v_lo else [v_lo] * count)

    flight = pareto_from_uniform(params.flight_exponent, *params.flight_bounds)
    pause = pareto_from_uniform(params.pause_exponent, *params.pause_bounds)
    draw = _uniforms(rng).__next__
    two_pi = 2 * math.pi
    n_samples = int(round(duration / sample_interval)) + 1
    positions = np.empty((n_nodes, n_samples, 2))
    for node in range(n_nodes):
        x = w * draw()  # as rng.uniform(0, w) scales u: low + (high - low) * u
        y = h * draw()
        if duration == 0:
            positions[node, 0] = (x, y)
            continue
        knots = [(0.0, x, y)]
        t = 0.0
        speed = speeds[node]
        while t < duration:
            length = flight(draw())
            angle = two_pi * draw()
            # Fly along the unfolded line and mirror back into the area,
            # adding a knot at every boundary crossing so the reflected
            # path stays exactly piecewise linear.
            fx = x + length * math.cos(angle)
            fy = y + length * math.sin(angle)
            flight_time = length / speed
            fracs = [1.0]
            if not (0 <= fx <= w and 0 <= fy <= h):  # x, y lie in the area
                fracs += _crossings(x, fx, w) + _crossings(y, fy, h)
                fracs.sort()
            for frac in fracs:
                knots.append((t + frac * flight_time, _reflect(x + frac * (fx - x), w),
                              _reflect(y + frac * (fy - y), h)))
            t += flight_time
            x, y = knots[-1][1], knots[-1][2]
            t += pause(draw())
            knots.append((t, x, y))
        positions[node] = sample_segments(knots, duration, sample_interval)
    return PositionTrace(positions, sample_interval, w, h)


def _crossings(p0: float, p1: float, limit: float) -> list[float]:
    """Fractions along the segment p0->p1 where it crosses a multiple of limit."""
    lo, hi = min(p0, p1), max(p0, p1)
    return [(k * limit - p0) / (p1 - p0)
            for k in range(math.floor(lo / limit) + 1, math.ceil(hi / limit))]


def flight_lengths(
    params: LevyWalkParams, n_flights: int, seed: int
) -> np.ndarray:
    """Draw flight lengths exactly as the generator does (for distribution checks)."""
    rng = np.random.default_rng(seed)
    return np.asarray(truncated_pareto(rng, params.flight_exponent, *params.flight_bounds, size=n_flights))
