"""Sampling helpers shared by the trace generators.

The walk loops of the Lévy and HCMM generators map uniform doubles on
Python floats: ``uniforms`` hands them the doubles that a run of scalar
``rng.random()`` calls would return, fetched in blocks, and ``pareto_map``
and ``choice_cdf`` give the constants of the maps numpy's scalar calls apply
to such a double.  A walk so pays no numpy call per draw and lands on the
same bits.  SLAW draws each pause with its own ``rng.random()`` and maps it
by ``pareto_map`` as well.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

BLOCK = 1024


def uniforms(rng: np.random.Generator):
    """The doubles scalar ``rng.random()`` calls would draw, fetched in blocks.

    A scalar ``rng.random()``, ``rng.uniform(low, high)`` or
    ``rng.choice(k, p=p)`` each reads the next double, as does each element
    of ``rng.random(BLOCK)``, so the stream replays them in order.  A draw
    made outside the stream once it has started would read past the fetched
    block instead of the stream's next double.
    """
    return chain.from_iterable(iter(lambda: rng.random(BLOCK).tolist(), None))


def pareto_map(exponent: float, low: float, high: float) -> tuple[float, float, float]:
    """``(low, tail, power)`` of the inverse-CDF map ``low * (1.0 - u * tail) ** power``
    from a uniform u in [0, 1) to a power law with density ~ x^-(1+exponent)
    on [low, high]."""
    if exponent <= 0:
        raise ValueError(f"exponent must be > 0, got {exponent}")
    if not (0 < low < high):
        raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
    return low, 1.0 - (low / high) ** exponent, -1.0 / exponent


def choice_cdf(p: np.ndarray) -> list[float]:
    """The CDF that ``rng.choice(len(p), p=p)`` searches: with u its double,
    the pick is ``bisect_right(choice_cdf(p), u)``."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()
