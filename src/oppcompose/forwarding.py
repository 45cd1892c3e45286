"""Single-copy relay decision schemes.

Four schemes, named in :data:`SCHEMES`, decide at a contact whether the
node carrying a request should hand it to the encountered node: ``direct``
(only to the destination itself), the timer rules ``TT`` and ``MT`` (hand
over when the peer met the destination more recently, by more than a margin
of encounter age: :data:`TT_MARGIN`, or the much smaller :data:`MT_MARGIN`
tuned to short forwarding paths), and encounter-based ``EBR`` (hand over to
nodes that met more nodes within the last :data:`EBR_WINDOW` seconds).  A
relayed item always leaves the sender: exactly one copy exists at any instant.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["SCHEMES", "TT_MARGIN", "MT_MARGIN", "EBR_WINDOW", "EncounterStats", "should_relay"]

SCHEMES = ("direct", "TT", "MT", "EBR")
# Encounter-age margins in time units: 20 units is 10 min at 30 s units, 1 unit 0.5 min.
TT_MARGIN = 20.0
MT_MARGIN = 1.0
# The encounter-rate window of EBR, in seconds.
EBR_WINDOW = 600.0


class EncounterStats:
    """Sliding-window encounter counts per node."""

    def __init__(self, n_nodes: int):
        self._times: list[list[float]] = [[] for _ in range(n_nodes)]

    def record(self, node: int, t: float) -> None:
        self._times[node].append(t)

    def rate(self, node: int, t: float) -> int:
        """Encounters of ``node`` within (t - EBR_WINDOW, t]."""
        times = self._times[node]
        lo = bisect_left(times, t - EBR_WINDOW + 1e-9)
        hi = bisect_left(times, t + 1e-9)
        return hi - lo


def should_relay(
    scheme: str,
    carrier: int,
    candidate: int,
    destination: int,
    carrier_age: float,
    candidate_age: float,
    stats: EncounterStats | None,
    t: float,
) -> bool:
    """Decide whether the carrier hands an item addressed to ``destination``
    over to ``candidate`` during a contact at time ``t``.

    ``carrier_age`` / ``candidate_age`` are the time units since each node
    last met ``destination`` directly (infinite if never), not the gossiped
    composition timers: transitive updates keep those near the network
    minimum, which leaves no gradient to relay along.  Only the timer rules
    (TT, MT) read them.  ``scheme`` is one of :data:`SCHEMES`.
    """
    if candidate == destination:
        return True
    if scheme == "MT":
        return candidate_age < carrier_age - MT_MARGIN
    if scheme == "TT":
        return candidate_age < carrier_age - TT_MARGIN
    if scheme == "EBR":
        return stats.rate(candidate, t) > stats.rate(carrier, t)
    return False  # direct
