"""Sampling helpers shared by the trace generators."""

from __future__ import annotations

import numpy as np


def pareto_from_uniform(exponent: float, low: float, high: float):
    """The map from a uniform draw in [0, 1) (a float or an array) to a power
    law with density ~ x^-(1+exponent) on [low, high], by inverse CDF."""
    if exponent <= 0:
        raise ValueError(f"exponent must be > 0, got {exponent}")
    if not (0 < low < high):
        raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
    tail = 1.0 - (low / high) ** exponent
    power = -1.0 / exponent
    return lambda u: low * (1.0 - u * tail) ** power


def truncated_pareto(
    rng: np.random.Generator, exponent: float, low: float, high: float, size=None
) -> np.ndarray | float:
    """Draw from a power law with density ~ x^-(1+exponent) on [low, high]."""
    return pareto_from_uniform(exponent, low, high)(rng.random(size))
