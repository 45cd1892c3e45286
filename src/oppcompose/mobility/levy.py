"""Levy walk trace generator.

Nodes alternate straight-line flights and pauses; flight lengths and pause
times are drawn from truncated power laws, flight directions are uniform.
The area boundary reflects, which keeps the spatial distribution of users
roughly uniform over the area.

One generator serves the whole trace, drawn in a fixed order: first the
speeds of each speed class with v_min < v_max (one vector ``rng.uniform``
call per class), then one stream of doubles (``_dist.uniforms``, fetched in
blocks of 1 024) that gives per node its start x and y and, per flight, its
length, angle and pause.  That order is what keeps a seed's trace
reproducible.

The walk maps each double on Python floats, as numpy maps the double of a
scalar call: ``w * u`` for ``rng.uniform(0, w)`` and
``low * (1.0 - u * tail) ** power`` for a truncated power law.  ``**``,
``math.cos`` and ``math.sin`` run on libm, as numpy's scalar paths do;
numpy's vector ``power`` takes SIMD loops that round differently from libm
on some CPUs (on one AVX-512 host it differed on about one input in 20), so
the maps stay scalar and a seed's positions stay bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._dist import pareto_map, uniforms
from .trace import PositionTrace, sample_segments

__all__ = ["LevyWalkParams", "generate_levy"]


@dataclass(frozen=True)
class LevyWalkParams:
    """Parameters of the Levy walk generator.

    ``speed_classes`` lists (node count, (v_min, v_max)) populations, e.g.
    a slow walking group and a fast vehicle-like group; counts must sum to
    the requested node count.  Unset, half the nodes (rounded down) walk at
    1 m/s and the rest move at 10 m/s.
    """

    flight_exponent: float = 1.5
    pause_exponent: float = 1.5
    speed_classes: tuple[tuple[int, tuple[float, float]], ...] | None = None
    area: tuple[float, float] = (700.0, 700.0)
    flight_bounds: tuple[float, float] = (5.0, 500.0)
    pause_bounds: tuple[float, float] = (10.0, 300.0)

    def validate(self, n_nodes: int) -> None:
        if not (0 < self.flight_exponent <= 2 and 0 < self.pause_exponent <= 2):
            raise ValueError("exponents must lie in (0, 2] for the heavy-tailed regime")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area dimensions must be positive")
        for _, (v_lo, v_hi) in self.speed_classes:
            if not 0 < v_lo <= v_hi:
                raise ValueError(f"LevyWalkParams: speed class ({v_lo}, {v_hi}) needs "
                                 "0 < v_min <= v_max")
        total = sum(c for c, _ in self.speed_classes)
        if total != n_nodes:
            raise ValueError(f"speed class counts sum to {total}, expected {n_nodes}")


def _reflect(v: float, limit: float) -> float:
    """Fold a coordinate back into [0, limit] by mirror reflection."""
    period = 2.0 * limit
    v = v % period
    return v if v <= limit else period - v


def generate_levy(
    params: LevyWalkParams, n_nodes: int, duration: float, seed: int, sample_interval: float = 30.0
) -> PositionTrace:
    """Generate a Levy walk trace for ``n_nodes`` over ``duration`` seconds."""
    if params.speed_classes is None:
        params = replace(params, speed_classes=((n_nodes // 2, (1.0, 1.0)),
                                                (n_nodes - n_nodes // 2, (10.0, 10.0))))
    params.validate(n_nodes)
    rng = np.random.default_rng(seed)
    w, h = params.area

    speeds = []
    for count, (v_lo, v_hi) in params.speed_classes:
        speeds.extend(rng.uniform(v_lo, v_hi, size=count).tolist() if v_hi > v_lo else [v_lo] * count)

    f_low, f_tail, f_power = pareto_map(params.flight_exponent, *params.flight_bounds)
    p_low, p_tail, p_power = pareto_map(params.pause_exponent, *params.pause_bounds)
    draws = uniforms(rng)
    cos, sin = math.cos, math.sin
    two_pi = 2 * math.pi
    n_samples = int(round(duration / sample_interval)) + 1
    positions = np.empty((n_nodes, n_samples, 2))
    for node in range(n_nodes):
        x = w * next(draws)  # as rng.uniform(0, w) scales u: low + (high - low) * u
        y = h * next(draws)
        if duration <= 0:
            positions[node, 0] = (x, y)
            continue
        kt, kx, ky = [0.0], [x], [y]
        t = 0.0
        speed = speeds[node]
        for u_length, u_angle, u_pause in zip(draws, draws, draws):
            length = f_low * (1.0 - u_length * f_tail) ** f_power
            angle = two_pi * u_angle
            fx = x + length * cos(angle)
            fy = y + length * sin(angle)
            flight_time = length / speed
            if 0 <= fx <= w and 0 <= fy <= h:  # no crossing: x, y lie in the area
                # The end point as the crossing path below computes it at
                # fraction 1.0; that sum may land a hair outside the area.
                x, y = x + (fx - x), y + (fy - y)
                if not 0 <= x <= w:
                    x = _reflect(x, w)
                if not 0 <= y <= h:
                    y = _reflect(y, h)
                t += flight_time
                kt.append(t)
                kx.append(x)
                ky.append(y)
            else:
                # Fly along the unfolded line and mirror back into the area,
                # adding a knot at every boundary crossing so the reflected
                # path stays exactly piecewise linear.
                fracs = sorted([1.0] + _crossings(x, fx, w) + _crossings(y, fy, h))
                for frac in fracs:
                    kt.append(t + frac * flight_time)
                    kx.append(_reflect(x + frac * (fx - x), w))
                    ky.append(_reflect(y + frac * (fy - y), h))
                t += flight_time
                x, y = kx[-1], ky[-1]
            t += p_low * (1.0 - u_pause * p_tail) ** p_power
            kt.append(t)
            kx.append(x)
            ky.append(y)
            if t >= duration:
                break
        positions[node] = sample_segments(kt, kx, ky, duration, sample_interval)
    return PositionTrace(positions, sample_interval, w, h)


def _crossings(p0: float, p1: float, limit: float) -> list[float]:
    """Fractions along the segment p0->p1 where it crosses a multiple of limit."""
    lo, hi = min(p0, p1), max(p0, p1)
    return [(k * limit - p0) / (p1 - p0)
            for k in range(math.floor(lo / limit) + 1, math.ceil(hi / limit))]
