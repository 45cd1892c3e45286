"""Single-copy relay decision schemes.

Four schemes decide, at a contact, whether the node carrying a request
should hand it to the encountered node: direct (only to the destination
itself), timer-based TT and MT (hand over when the peer's timer for the
destination is smaller by more than t_av; MT uses a much smaller t_av,
tuned to short forwarding paths), and encounter-based EBR (hand over to
nodes that currently meet more nodes).  A relayed item always leaves the
sender: exactly one copy exists at any instant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["Scheme", "EncounterStats", "should_relay", "DIRECT", "TT", "EBR", "MT"]


@dataclass(frozen=True)
class Scheme:
    """Forwarding scheme selector with its parameters.

    ``t_av`` is in time units (TT defaults to 20 units = 10 min at 30 s
    units, MT to 1 unit = 0.5 min); ``window`` is the encounter-rate
    window in seconds for EBR.
    """

    kind: str
    t_av: float = 1.0
    window: float = 600.0

    def __post_init__(self):
        if self.kind not in ("direct", "TT", "EBR", "MT"):
            raise ValueError(f"unknown forwarding scheme {self.kind!r}")


DIRECT = Scheme("direct")
TT = Scheme("TT", t_av=20.0)
EBR = Scheme("EBR")
MT = Scheme("MT", t_av=1.0)


class EncounterStats:
    """Sliding-window encounter counts per node."""

    def __init__(self, n_nodes: int, window: float = 600.0):
        self.window = window
        self._times: list[list[float]] = [[] for _ in range(n_nodes)]

    def record(self, node: int, t: float) -> None:
        self._times[node].append(t)

    def rate(self, node: int, t: float) -> int:
        """Encounters of ``node`` within (t - window, t]."""
        times = self._times[node]
        lo = bisect_left(times, t - self.window + 1e-9)
        hi = bisect_left(times, t + 1e-9)
        return hi - lo


def should_relay(
    scheme: Scheme,
    carrier: int,
    candidate: int,
    destination: int,
    carrier_timer: float,
    candidate_timer: float,
    stats: EncounterStats | None,
    t: float,
) -> bool:
    """Decide whether the carrier hands an item addressed to ``destination``
    over to ``candidate`` during a contact at time ``t``.

    ``carrier_timer`` / ``candidate_timer`` are each node's timer for
    ``destination`` (infinite when unknown) as held when the contact began:
    the comparison must happen before the contact's own exchange equalizes
    them (adopting the peer's value caps the difference at exactly t_av,
    which would never trigger).  Only the timer rules (TT, MT) read them.
    """
    if candidate == destination:
        return True
    if scheme.kind == "direct":
        return False
    if scheme.kind in ("TT", "MT"):
        return candidate_timer < carrier_timer - scheme.t_av
    if scheme.kind == "EBR":
        return stats.rate(candidate, t) > stats.rate(carrier, t)
    raise ValueError(f"unknown forwarding scheme {scheme.kind!r}")
