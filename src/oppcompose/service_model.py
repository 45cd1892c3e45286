"""Service model: typed transformations, chaining rules, and node assignment.

A service transforms an input type into an output type; types are integers
in [1, n_d].  Two services chain when the output type of the first equals
the input type of the second.  A catalog enumerates the available unique
services; a placement maps them onto nodes with a given repetition count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Service",
    "ServiceCatalog",
    "ServicePlacement",
    "enumerate_services",
    "check_placement",
    "assign_services",
]


@dataclass(frozen=True, order=True)
class Service:
    """A typed transformation from ``input`` to ``output``."""

    input: int
    output: int

    def __post_init__(self):
        if self.input < 1 or self.output < 1:
            raise ValueError(f"type ids must be >= 1, got ({self.input}, {self.output})")
        if self.input == self.output:
            raise ValueError("a service must change the type")

    def __str__(self):
        return f"s_{self.input}_{self.output}"


@dataclass(frozen=True)
class ServiceCatalog:
    """Ordered collection of unique services over ``n_d`` input/output types."""

    n_d: int
    services: tuple[Service, ...]
    excluded: frozenset[Service] = frozenset()
    ring: bool = False

    def request_pairs(self, min_k: int = 1, max_k: int | None = None) -> list[tuple[int, int]]:
        """All (input, output) pairs reachable by chaining catalog services
        whose net functionality k satisfies min_k <= k <= max_k.

        For the default (non-ring) catalog every pair with output - input in
        range qualifies; in ring mode pairs wrap modulo n_d.  ValueError
        unless 1 <= min_k <= max_k <= n_d - 1 (k = 0, or n_d on the ring, keeps the type).
        """
        if max_k is None:
            max_k = self.n_d - 1
        if not 1 <= min_k <= max_k <= self.n_d - 1:
            raise ValueError(f"need 1 <= min_k <= max_k <= n_d - 1 = {self.n_d - 1}, "
                             f"got min_k={min_k}, max_k={max_k}")
        pairs = []
        for x in range(1, self.n_d + 1):
            for k in range(min_k, max_k + 1):
                if self.ring:
                    y = (x + k - 1) % self.n_d + 1
                    pairs.append((x, y))
                else:
                    y = x + k
                    if y <= self.n_d:
                        pairs.append((x, y))
        return pairs

    @classmethod
    def from_dict(cls, d: dict) -> "ServiceCatalog":
        kw = dict(d)
        if "excluded" in kw:
            kw["excluded"] = {Service(a, b) for a, b in kw["excluded"]}
        return enumerate_services(**kw)


def enumerate_services(
    n_d: int,
    excluded: set[Service] | frozenset[Service] = frozenset(),
    ring: bool = False,
) -> ServiceCatalog:
    """Build the catalog of all services over ``n_d`` types.

    Default mode: every s_xy with x < y, in (x, y) lexicographic order,
    minus ``excluded``.  Ring mode: the n_d unit services s_{x, x+1} with
    the last one wrapping back to type 1.
    """
    if n_d < 2:
        raise ValueError(f"n_d must be >= 2, got {n_d}")
    excluded = frozenset(excluded)
    for s in excluded:
        if not (1 <= s.input <= n_d and 1 <= s.output <= n_d):
            raise ValueError(f"excluded service {s} outside type range [1, {n_d}]")
        if not ring and s.input >= s.output:
            raise ValueError(f"excluded service {s} is not of valid form (input < output)")
    if ring:
        services = tuple(
            Service(x, x % n_d + 1) for x in range(1, n_d + 1) if Service(x, x % n_d + 1) not in excluded
        )
    else:
        services = tuple(
            Service(x, y)
            for x in range(1, n_d)
            for y in range(x + 1, n_d + 1)
            if Service(x, y) not in excluded
        )
    return ServiceCatalog(n_d=n_d, services=services, excluded=excluded, ring=ring)


@dataclass(frozen=True)
class ServicePlacement:
    """Assignment of service copies to nodes.

    ``by_node`` maps node id -> sorted tuple of hosted services;
    ``by_service`` maps service -> sorted tuple of hosting node ids.
    """

    by_node: dict[int, tuple[Service, ...]]
    by_service: dict[Service, tuple[int, ...]]
    repetition: int

    def services_at(self, node: int) -> tuple[Service, ...]:
        return self.by_node.get(node, ())


def _invert(by_node: dict[int, tuple[Service, ...]]) -> dict[Service, tuple[int, ...]]:
    inv: dict[Service, list[int]] = {}
    for node, svcs in by_node.items():
        for s in svcs:
            inv.setdefault(s, []).append(node)
    return {s: tuple(sorted(nodes)) for s, nodes in inv.items()}


def _deal_copies(
    copies: list[Service], nodes: list[int], rng: np.random.Generator, attempts: int = 2000
) -> dict[int, list[Service]]:
    """Deal service copies onto nodes so that no node hosts the same service
    twice and per-node counts are as equal as possible.

    Randomized dealing with retries; two copies of one service always land on
    distinct nodes.
    """
    n_nodes = len(nodes)
    base, extra = divmod(len(copies), n_nodes)
    for _ in range(attempts):
        order = list(copies)
        rng.shuffle(order)  # type: ignore[arg-type]
        node_order = [nodes[i] for i in rng.permutation(n_nodes)]
        capacity = {node: base + (1 if i < extra else 0) for i, node in enumerate(node_order)}
        assigned: dict[int, list[Service]] = {node: [] for node in nodes}
        ok = True
        for svc in order:
            placed = False
            for node in node_order:
                if capacity[node] > 0 and svc not in assigned[node]:
                    assigned[node].append(svc)
                    capacity[node] -= 1
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return assigned
    raise ValueError("could not find a feasible balanced placement (too many copies per node?)")


def check_placement(repetition, distribution: str, n_nodes: int | None = None) -> None:
    """The checks of :func:`assign_services` that need no catalog: ValueError
    unless ``repetition`` is an integer >= 1 (>= 2 under ``proportional``)
    and ``distribution`` is ``uniform`` or ``proportional``, and, given
    ``n_nodes``, unless ``repetition`` copies (``repetition + 1`` under
    ``proportional``) fit on that many distinct nodes."""
    if type(repetition) is not int or repetition < 1:
        raise ValueError(f"repetition must be an integer >= 1, got {repetition!r}")
    if distribution not in ("uniform", "proportional"):
        raise ValueError(f"unknown distribution {distribution!r}; choose from uniform, proportional")
    if distribution == "proportional" and repetition < 2:
        raise ValueError("proportional distribution needs repetition >= 2")
    if n_nodes is None:
        return
    if repetition > n_nodes:
        raise ValueError(f"repetition {repetition} exceeds node count {n_nodes}")
    if distribution == "proportional" and repetition + 1 > n_nodes:
        raise ValueError("proportional layout needs repetition + 1 <= node count")


def assign_services(
    catalog: ServiceCatalog,
    nodes: list[int],
    repetition: int,
    rng: np.random.Generator,
    distribution: str = "uniform",
    popularity: dict[Service, float] | None = None,
) -> ServicePlacement:
    """Place every catalog service on ``repetition`` distinct random nodes.

    uniform: each service gets exactly ``repetition`` copies.
    proportional: the more-requested half of the catalog gets repetition+1
    copies and the less-requested half repetition-1, keeping the total copy
    count unchanged.  ``popularity`` (service -> weight) is required.

    With a fixed rng state the placement is deterministic.  Per-node hosted
    counts are equal whenever the copy total divides the node count.
    """
    check_placement(repetition, distribution, len(nodes))

    if distribution == "uniform":
        per_service = {s: repetition for s in catalog.services}
    else:
        if popularity is None:
            raise ValueError("proportional distribution needs popularity weights")
        ranked = sorted(catalog.services, key=lambda s: (-popularity.get(s, 0.0), s))
        half = len(ranked) // 2
        per_service = {}
        for i, s in enumerate(ranked):
            per_service[s] = repetition + 1 if i < half else repetition - 1

    copies = [s for s in catalog.services for _ in range(per_service[s])]
    assigned = _deal_copies(copies, sorted(nodes), rng)
    by_node = {node: tuple(sorted(svcs)) for node, svcs in assigned.items()}
    return ServicePlacement(by_node=by_node, by_service=_invert(by_node), repetition=repetition)
