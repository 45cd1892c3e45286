"""Discrete-event simulation of request composition over a contact trace.

The engine advances in time-ordered events: unit boundaries (timer ticks,
one knowledge closure over the co-located groups, load-window updates;
none of these under ``minimal`` awareness; the closure settles only the
service hosts' columns, every column under ``perfect``, and is told the
previous boundary's pairs so it seeds at new contacts only),
contact starts (encounter stats, neighbour index, forwarding attempts),
service completions, Poisson request generation, forwarding sweeps, and
deadline expirations.  Each composition decision is one Dijkstra over a
placement-derived service graph (:class:`_GraphTemplate`) that prices each
edge as it relaxes it, by one rule, from the owner's view of the network
(:func:`knowledge.owner_view`).  Knowledge changes only at unit
boundaries, so an owner's view is built once per unit and, under
``local``/``global`` awareness, a plan is reused for the rest of the unit.
The ``minimal`` view is constant for the whole run, but it draws a fresh
tie order per decision, so it reuses no plan; ``perfect`` reads every
node's timers and the live backlog on every decision.  Each hand-off of a
request (at generation, after a stage, on a relay arrival that re-plans,
on a stalled retry) is queued or carried by :meth:`_Engine._route`, toward
the stage :meth:`_Engine._next_stage` picks; :meth:`_Engine._deliver`
takes results home.  A forwarding sweep
decides once per destination which neighbour, if any, receives the items
bound there (:meth:`_Engine.sweep`).  Identical (config, seed) pairs
reproduce identical results.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .contact_engine import ContactTrace
from .forwarding import EncounterStats, Scheme, MT, should_relay
from .knowledge import AWARENESS_LEVELS, Knowledge, LoadTracker, exchange_all, owner_view
from .service_model import Service, ServiceCatalog, ServicePlacement

__all__ = [
    "CompositionPath",
    "RequestPattern",
    "SimConfig",
    "RequestRecord",
    "RunResult",
    "run",
    "write_records_csv",
    "read_records_csv",
    "RECORD_FIELDS",
]

# Event priorities at equal timestamps.
_P_BOUNDARY = 0
_P_CONTACT = 1
_P_COMPLETION = 2
_P_GENERATE = 3
_P_SWEEP = 4
_P_DEADLINE = 5


@dataclass(frozen=True)
class RequestPattern:
    """Admissible (input, output) request pairs with draw weights."""

    pairs: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None
    # ``weights`` normalised to draw probabilities, once.
    _p: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("request pattern admits no (input, output) pairs")
        if self.weights is not None and len(self.weights) != len(self.pairs):
            raise ValueError("weights must match pairs")
        p = None
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            p = w / w.sum()
        object.__setattr__(self, "_p", p)

    @classmethod
    def min_functionality(cls, catalog: ServiceCatalog, k_min: int) -> "RequestPattern":
        return cls(pairs=tuple(catalog.request_pairs(min_k=k_min)))

    @classmethod
    def fixed_length(cls, catalog: ServiceCatalog, length: int,
                     start_weights: dict[int, float] | None = None) -> "RequestPattern":
        """Requests requiring exactly ``length`` unit services of the catalog."""
        pairs = tuple(catalog.request_pairs(min_k=length, max_k=length))
        if start_weights is None:
            return cls(pairs=pairs)
        weights = tuple(float(start_weights.get(x, 1.0)) for x, _ in pairs)
        return cls(pairs=pairs, weights=weights)

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        if self._p is None:
            return self.pairs[int(rng.integers(len(self.pairs)))]
        return self.pairs[int(rng.choice(len(self.pairs), p=self._p))]


@dataclass
class SimConfig:
    catalog: ServiceCatalog
    placement: ServicePlacement
    pattern: RequestPattern
    awareness: str = "local"
    scheme: Scheme = MT
    request_rate_per_min: float = 0.4
    timeout_s: float = 900.0
    mean_exec_s: float = 30.0
    unit_s: float = 30.0
    t_av: float = 1.0
    radius: float | None = None
    load_alpha: float = 0.5
    delay_warmup_s: float = 7200.0
    opportunistic: str = "relay"  # off | relay | contact
    recompute_per_stage: bool = True
    replan_on_relay: bool = True
    load_aware: bool = True
    exact_match: bool = False
    exec_deterministic: bool = False
    # When set, requests come from this fixed list of
    # (time, origin, input, output) instead of the Poisson stream.
    scripted_requests: tuple[tuple[float, int, int, int], ...] | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.request_rate_per_min < 0:
            raise ValueError("request rate must be nonnegative")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        # A negative mean schedules completions before their start, and either
        # bad value makes the load estimate, and so an edge cost, negative.
        if not self.mean_exec_s >= 0:
            raise ValueError(f"mean_exec_s must be nonnegative, got {self.mean_exec_s}")
        if not 0.0 <= self.load_alpha <= 1.0:
            raise ValueError(f"load_alpha must lie in [0, 1], got {self.load_alpha}")
        # The closure's tie order and its seeding both rest on t_av > 0.
        if not self.t_av > 0:
            raise ValueError("t_av must be positive")
        if not self.unit_s > 0:
            raise ValueError("unit_s must be positive")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.awareness not in AWARENESS_LEVELS:
            raise ValueError(f"unknown awareness level {self.awareness!r}")
        if self.opportunistic not in ("off", "relay", "contact"):
            raise ValueError(f"unknown opportunistic mode {self.opportunistic!r}")


@dataclass
class RequestRecord:
    id: int
    origin: int
    input: int
    output: int
    created: float
    deadline: float
    status: str = "in-flight"
    completed: float | None = None
    hops: int = 0
    stages: list[tuple[Service, int, bool]] = field(default_factory=list)
    estimated_cost_s: float | None = None

    @property
    def delay(self) -> float | None:
        return None if self.completed is None else self.completed - self.created

    @property
    def opportunistic_stages(self) -> int:
        return sum(1 for _, _, opp in self.stages if opp)


@dataclass
class RunResult:
    records: list[RequestRecord]
    duration: float
    config_seed: int


RECORD_FIELDS = ("id,origin,in,out,created_s,status,completed_s,delay_s,hops,"
                 "stages,opportunistic_stages,estimated_cost_s")


def write_records_csv(result: RunResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(RECORD_FIELDS + "\n")
        for r in sorted(result.records, key=lambda r: r.id):
            stages = "|".join(
                f"{s.input}-{s.output}@{node}" + ("*" if opp else "")
                for s, node, opp in r.stages
            )
            completed = f"{r.completed:.3f}" if r.completed is not None else ""
            delay = f"{r.delay:.3f}" if r.delay is not None else ""
            est = f"{r.estimated_cost_s:.3f}" if r.estimated_cost_s is not None else ""
            fh.write(f"{r.id},{r.origin},{r.input},{r.output},{r.created:.3f},{r.status},"
                     f"{completed},{delay},{r.hops},{stages},{r.opportunistic_stages},{est}\n")


def read_records_csv(path) -> list[dict]:
    """Rows back as dicts with numeric fields parsed (None for blanks)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(header, parts))
            row["id"] = int(row["id"])
            row["origin"] = int(row["origin"])
            row["in"] = int(row["in"])
            row["out"] = int(row["out"])
            row["created_s"] = float(row["created_s"])
            row["completed_s"] = float(row["completed_s"]) if row["completed_s"] else None
            row["delay_s"] = float(row["delay_s"]) if row["delay_s"] else None
            row["hops"] = int(row["hops"])
            row["opportunistic_stages"] = int(row["opportunistic_stages"])
            row["estimated_cost_s"] = float(row["estimated_cost_s"]) if row["estimated_cost_s"] else None
            rows.append(row)
    return rows


class _Item:
    """Mutable in-simulation request state."""

    __slots__ = ("record", "current_input", "phase", "location", "destination",
                 "planned_stage", "plan", "opp_flag")

    def __init__(self, record: RequestRecord):
        self.record = record
        self.current_input = record.input
        self.phase = "carried"           # carried | queued | executing | result | done
        self.location = record.origin
        self.destination: int | None = None
        self.planned_stage: Service | None = None
        self.plan: list[tuple[Service, int]] | None = None
        self.opp_flag = False


def _record_id(item: _Item) -> int:
    return item.record.id


@dataclass
class CompositionPath:
    """An ordered stage list with its estimated cost (in time units)."""

    stages: tuple[tuple[Service, int], ...]
    cost: float
    input: int
    output: int

    def hosts(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.stages)


class _GraphTemplate:
    """Placement-derived edge structure shared by every path computation.

    Vertices are ints: hosted service copies first, then one vertex per
    type; only each edge's head is kept.  A copy's device is its host and a
    type vertex's the graph owner, and an edge pays a load exactly when its
    head is a copy, so :meth:`shortest` prices an edge from its two vertices
    and an owner's view, whichever owner it searches for.
    """

    def __init__(self, placement: ServicePlacement, n_d: int, single_stage: bool):
        self.n_d = n_d
        copies = [(s, n) for s in sorted(placement.by_service)
                  for n in placement.by_service[s]]
        self.copies = copies
        self.hosts = [n for _, n in copies]
        self.n_service_vertices = len(copies)
        self.type_vertex = {x: len(copies) + x - 1 for x in range(1, n_d + 1)}
        self.n_vertices = len(copies) + n_d
        # Per vertex: the head vertex of each outgoing edge.
        self.heads: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for vi, (s, _) in enumerate(copies):
            self.heads[self.type_vertex[s.input]].append(vi)
            self.heads[vi].append(self.type_vertex[s.output])
            if not single_stage:
                self.heads[vi].extend(vj for vj, (s2, _) in enumerate(copies)
                                      if s.output == s2.input)
        # Rank of each service vertex in (service, host) order, for ties.
        order = sorted(range(len(copies)), key=lambda i: copies[i])
        self.lex_rank = [0] * len(copies)
        for rank, vi in enumerate(order):
            self.lex_rank[vi] = rank
        self._single_stage = single_stage
        self._reachable: dict[int, frozenset[int]] = {}
        self._toward: dict[int, list[list[int]]] = {}

    def reachable_outputs(self, req_in: int) -> frozenset[int]:
        """Output types attainable from ``req_in`` regardless of costs.

        Requests outside this set can never be routed under this placement,
        so re-planning them is pointless.
        """
        cached = self._reachable.get(req_in)
        if cached is not None:
            return cached
        step: dict[int, set[int]] = {}
        for s, _ in self.copies:
            step.setdefault(s.input, set()).add(s.output)
        if self._single_stage:
            seen = set(step.get(req_in, ()))
        else:
            seen = set()
            frontier = [req_in]
            while frontier:
                for y in step.get(frontier.pop(), ()):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        result = frozenset(seen - {req_in})
        self._reachable[req_in] = result
        return result

    def _heads_toward(self, req_out: int) -> list[list[int]]:
        """Per vertex, its heads that can still reach ``req_out``'s type
        vertex; no other edge can lie on a path there."""
        cached = self._toward.get(req_out)
        if cached is not None:
            return cached
        goal = self.type_vertex[req_out]
        useful = [s.output == req_out or req_out in self.reachable_outputs(s.output)
                  for s, _ in self.copies]
        cached = [[v for v in heads if v == goal or (v < self.n_service_vertices and useful[v])]
                  for heads in self.heads]
        self._toward[req_out] = cached
        return cached

    def shortest(self, owner: int, req_in: int, req_out: int, view: tuple,
                 ranks: list[int] | np.ndarray | None = None) -> CompositionPath | None:
        """Dijkstra from the input-type vertex over ``owner``'s view.

        ``view`` is :func:`knowledge.owner_view`'s ``(T, L, P)``.  An edge's
        devices s and d are its vertices' hosts, a type vertex standing for
        the owner, and it is priced as it is relaxed, by one rule: 0 if
        ``s == d``, else ``P[s][d]`` when present, else ``T[s] + T[d]``; plus
        ``L[d]`` when the head is a service copy (a stage to run there).
        Ties prefer fewer stages, then finishing at the owner, then the
        smallest stage-rank sequence (``ranks`` per service vertex, default
        (service, host) order).  That sequence is one integer in base
        ``n_service_vertices``: labels compare it only at equal stage
        counts, where integer order is the sequences' lexicographic order.
        Infinite edges (unknown hosts) are never taken, nor edges that
        cannot lead to the output type.
        """
        start = self.type_vertex[req_in]
        goal = self.type_vertex[req_out]
        if start == goal:
            return None
        # Python ints: on long chains the key outgrows a numpy int64.
        ranks = self.lex_rank if ranks is None else [int(r) for r in ranks]
        base = self.n_service_vertices
        timers, loads, pairs = view
        device = self.hosts + [owner] * self.n_d
        heads = self._heads_toward(req_out)
        best: list = [None] * self.n_vertices
        pred = [0] * self.n_vertices
        settled = [False] * self.n_vertices
        heap: list = [(0.0, 0, 0, 0, start)]
        while heap:
            cost, n_stages, penalty, key, vertex = heapq.heappop(heap)
            if settled[vertex]:
                continue
            if vertex == goal:
                break
            settled[vertex] = True
            s = device[vertex]
            returned = penalty + (s != owner)
            t_s = timers[s]
            row = None if pairs is None else pairs[s]
            for nxt in heads[vertex]:
                if settled[nxt]:
                    continue
                d = device[nxt]
                if d == s:
                    w = 0.0
                else:
                    w = None if row is None else row[d]
                    if w is None:
                        w = t_s + timers[d]
                if nxt < base and loads is not None:
                    w += loads[d]
                if not w < math.inf:
                    continue
                if nxt < base:
                    label = (cost + w, n_stages + 1, penalty, key * base + ranks[nxt], nxt)
                else:
                    label = (cost + w, n_stages, returned, key, nxt)
                old = best[nxt]
                if old is None or label < old:
                    best[nxt] = label
                    pred[nxt] = vertex
                    heapq.heappush(heap, label)
        else:
            return None  # the output type was never reached
        stages = []
        vertex = pred[goal]
        while vertex != start:
            stages.append(self.copies[vertex])
            vertex = pred[vertex]
        stages.reverse()
        return CompositionPath(stages=tuple(stages), cost=cost, input=req_in, output=req_out)


class _Engine:
    def __init__(self, config: SimConfig, contacts: ContactTrace):
        config.validate()
        if (config.scripted_requests is None and config.request_rate_per_min > 0
                and config.timeout_s >= contacts.duration):
            raise ValueError(f"timeout_s {config.timeout_s} leaves no time to generate "
                             f"requests in a run of duration {contacts.duration}")
        self.cfg = config
        self.contacts = contacts
        self.n = contacts.n_nodes
        self.duration = contacts.duration
        self.rng = np.random.default_rng(config.seed)
        self.tie_rng = np.random.default_rng((config.seed, 0x7ee5))
        self.trackers = [LoadTracker(mean_exec=config.mean_exec_s, alpha=config.load_alpha)
                         for _ in range(self.n)]
        self.stats = EncounterStats(self.n, window=config.scheme.window)
        self.queues: list[list[_Item]] = [[] for _ in range(self.n)]
        self.executing: list[_Item | None] = [None] * self.n
        self.carried: list[list[_Item]] = [[] for _ in range(self.n)]
        self.records: list[RequestRecord] = []
        self.items: dict[int, _Item] = {}
        self.heap: list = []
        self.seq = 0
        self.unit_index = 0
        self.template = _GraphTemplate(config.placement, config.catalog.n_d,
                                       single_stage=config.exact_match)
        # Pricing reads only the hosts' columns; ``perfect`` reads the owner's too.
        self.know = Knowledge(self.n, t_av=config.t_av, radius=config.radius,
                              track_matrix=config.awareness == "global",
                              columns=None if config.awareness == "perfect"
                              else self.template.hosts)
        self.boundary_pairs = contacts.boundary_pairs(config.unit_s)
        # Per unit: each owner's view, and the plans it gave.
        self._dist_cache: dict[int, tuple] = {}
        self._plans: dict[tuple[int, int, int], CompositionPath | None] = {}
        self._reuse_plans = config.awareness in ("local", "global")
        self._pending_sweeps: set[tuple[int, float]] = set()
        # Per node: peer -> end of the contact in progress, filled at contact
        # starts.  Contacts are closed intervals, so an entry lapses only
        # once time passes its end (checked when read).
        self.contact_end: list[dict[int, float]] = [{} for _ in range(self.n)]
        # Per node: (earliest end, sorted peers) as ``_neighbors`` last listed
        # them, or None once a contact starts there.
        self._peer_list: list[tuple[float, list[int]] | None] = [None] * self.n
        # Forwarding-layer state: when each pair last met directly.  The
        # timer relay rules run on these encounter ages, not on the
        # gossiped composition timers (transitive updates keep every
        # node's gossiped value near the network minimum, which would
        # erase the relay gradient entirely).
        self.last_enc = [[-math.inf] * self.n for _ in range(self.n)]

    # -- event plumbing ------------------------------------------------

    def push(self, t: float, prio: int, kind: str, payload=None) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, prio, self.seq, kind, payload))

    def schedule_sweep(self, node: int, t: float) -> None:
        key = (node, t)
        if key not in self._pending_sweeps:
            self._pending_sweeps.add(key)
            self.push(t, _P_SWEEP, "sweep", node)

    # -- owners' views of the network -----------------------------------

    def _distances(self, owner: int) -> tuple:
        """``owner``'s view of the network, from :func:`knowledge.owner_view`.

        Nothing the view reads changes within a unit except the live backlog
        that ``perfect`` awareness prices, so the view is cached per (owner,
        unit) in ``_dist_cache`` (``minimal``: for the whole run), and built
        afresh on every call under ``perfect``.  Rows a search fills stay in
        the cached view for the next.  Without ``load_aware`` no load is priced.
        """
        cached = self._dist_cache.get(owner)
        if cached is not None:
            return cached
        cfg = self.cfg
        live_loads = None
        if cfg.awareness == "perfect":
            live_loads = [self._pending_count(j) * cfg.mean_exec_s for j in range(self.n)]
        timers, loads, pairs = owner_view(cfg.awareness, self.know, owner, self.unit_index,
                                          cfg.unit_s, live_loads)
        view = (timers, loads if cfg.load_aware else None, pairs)
        if live_loads is None:
            self._dist_cache[owner] = view
        return view

    def compute_path(self, node: int, req_in: int, req_out: int) -> CompositionPath | None:
        """The cheapest composition ``node`` sees for ``req_in`` -> ``req_out``.

        Under ``local``/``global`` awareness the answer depends only on the
        unit's costs, so it is kept in ``_plans`` for the rest of the unit.
        ``minimal`` draws a fresh tie permutation per call and ``perfect``
        prices the live backlog, so neither reuses a plan.
        """
        template = self.template
        if req_out not in template.reachable_outputs(req_in):
            return None
        key = (node, req_in, req_out)
        if key in self._plans:
            return self._plans[key]
        ranks = None
        if self.cfg.awareness == "minimal":
            ranks = self.tie_rng.permutation(template.n_service_vertices)
        path = template.shortest(node, req_in, req_out, self._distances(node), ranks)
        if self._reuse_plans:
            self._plans[key] = path
        return path

    # -- queueing and execution -----------------------------------------

    def _pending_count(self, node: int) -> int:
        return len(self.queues[node]) + (1 if self.executing[node] is not None else 0)

    def enqueue(self, node: int, item: _Item, service: Service, opportunistic: bool, t: float) -> None:
        item.phase = "queued"
        item.location = node
        item.destination = None
        item.planned_stage = service
        item.opp_flag = opportunistic
        self.queues[node].append(item)
        if self.executing[node] is None:
            self._start_execution(node, t)

    def _start_execution(self, node: int, t: float) -> None:
        if not self.queues[node]:
            return
        item = self.queues[node].pop(0)
        item.phase = "executing"
        if self.cfg.exec_deterministic:
            dt = self.cfg.mean_exec_s
        else:
            dt = float(self.rng.exponential(self.cfg.mean_exec_s))
        self.executing[node] = item
        self.push(t + dt, _P_COMPLETION, "completion", (node, item))

    def on_completion(self, t: float, node: int, item: _Item) -> None:
        if self.executing[node] is not item:  # cancelled at its deadline: done for good
            return
        self.executing[node] = None
        service = item.planned_stage
        item.current_input = service.output
        item.record.stages.append((service, node, item.opp_flag))
        self._start_execution(node, t)
        if item.current_input == item.record.output:
            item.phase = "result"
            item.destination = item.record.origin
            item.planned_stage = None
            self._deliver(item, node, t)
        else:
            self._route(item, node, t, self._next_stage(item, node), sweep=True)

    # -- routing ---------------------------------------------------------

    def _next_stage(self, item: _Item, node: int) -> tuple[Service, int] | None:
        """The (service, host) ``item`` takes next from ``node``, or None.

        With ``recompute_per_stage`` off a request that still holds a plan
        follows it, skipping stages whose input it no longer holds; if that
        uses the plan up, there is no next stage.  Otherwise ``node`` computes
        a fresh path, whose later stages become the plan when recomputation
        is off.
        """
        plan = item.plan
        if plan and not self.cfg.recompute_per_stage:
            while plan and plan[0][0].input != item.current_input:
                plan.pop(0)
            return plan.pop(0) if plan else None
        path = self.compute_path(node, item.current_input, item.record.output)
        if path is not None and not self.cfg.recompute_per_stage:
            item.plan = list(path.stages[1:])
        return None if path is None else path.stages[0]

    def _route(self, item: _Item, node: int, t: float, stage: tuple[Service, int] | None,
               sweep: bool) -> None:
        """Queue ``item`` at ``node`` if ``node`` hosts ``stage``, else carry it
        toward the stage's host, or hold it stalled when ``stage`` is None.

        ``sweep`` asks for a forwarding attempt at once.  Relay arrivals leave
        it to the next unit boundary, so re-planned destinations cannot
        cascade through several hand-offs within one instant.
        """
        if stage is not None and stage[1] == node:
            self.enqueue(node, item, stage[0], opportunistic=False, t=t)
            return
        item.phase = "carried"
        item.location = node
        item.planned_stage, item.destination = stage or (None, None)
        self._carry(node, item)
        if sweep and stage is not None:
            self.schedule_sweep(node, t)

    def _deliver(self, item: _Item, node: int, t: float) -> None:
        """Hand a result to its requester at ``node``, or carry it on toward there."""
        item.location = node
        if node == item.record.origin:
            item.phase = "done"
            item.record.status = "completed"
            item.record.completed = t
        else:
            self._carry(node, item)
            self.schedule_sweep(node, t)

    def _carry(self, node: int, item: _Item) -> None:
        """Hold ``item`` at ``node``; each node's list stays in record-id order."""
        insort(self.carried[node], item, key=_record_id)

    def _neighbors(self, node: int, t: float) -> list[int]:
        """Peers in contact with ``node`` at ``t``, in id order.

        The list is kept until a contact starts at ``node`` or time passes
        the earliest end among its peers, the only events that change it.
        """
        cached = self._peer_list[node]
        if cached is not None and t <= cached[0]:
            return cached[1]
        peers = self.contact_end[node]
        for peer in [p for p, end in peers.items() if end < t]:
            del peers[peer]
        listed = sorted(peers)
        self._peer_list[node] = (min(peers.values(), default=math.inf), listed)
        return listed

    def _transfer(self, item: _Item, src: int, dst: int, t: float) -> None:
        self.carried[src].remove(item)
        item.record.hops += 1
        if item.phase == "result":
            self._deliver(item, dst, t)
            return
        cfg = self.cfg
        service, host = item.planned_stage, item.destination
        if host != dst and cfg.opportunistic != "off" and service in cfg.placement.services_at(dst):
            self.enqueue(dst, item, service, opportunistic=True, t=t)
        elif host != dst and cfg.replan_on_relay and cfg.recompute_per_stage:
            # The holder changed: re-select the next stage from here, since
            # the topology may now offer a more feasible host.
            self._route(item, dst, t, self._next_stage(item, dst), sweep=False)
        else:  # queue at the planned host, or carry on toward it
            self._route(item, dst, t, (service, host), sweep=True)

    def sweep(self, t: float, node: int) -> None:
        """Hand each item ``node`` carries to the neighbour its rule picks.

        Items bound for one destination all go to the same neighbour: the
        first in id order that is the destination or passes
        :func:`should_relay`.  That rule reads encounter ages and rates and
        the neighbour set, which no transfer changes (a transfer touches
        only the receiver's state), so it is decided once per destination
        per sweep.  In ``contact`` mode an earlier neighbour hosting the
        item's planned stage takes it instead, checked per item.
        """
        self._pending_sweeps.discard((node, t))
        if not self.carried[node]:
            return
        cfg = self.cfg
        unit_s = cfg.unit_s
        scheme = cfg.scheme
        contact_mode = cfg.opportunistic == "contact"
        last_enc = self.last_enc
        neighbors = self._neighbors(node, t)
        receiver: dict[int, int | None] = {}
        for item in self.carried[node][:]:  # a copy: transfers remove items
            if item.destination is None:  # stalled: retry path selection here
                stage = self._next_stage(item, node)
                if stage is None:
                    continue
                self.carried[node].remove(item)  # _route places it afresh
                self._route(item, node, t, stage, sweep=False)
                if item.phase != "carried":
                    continue
            dest = item.destination
            if dest in receiver:
                to = receiver[dest]
            else:
                to = None
                carrier_age = (t - last_enc[node][dest]) / unit_s
                for peer in neighbors:
                    if peer == dest or should_relay(scheme, node, peer, dest, carrier_age,
                                                    (t - last_enc[peer][dest]) / unit_s,
                                                    self.stats, t):
                        to = peer
                        break
                receiver[dest] = to
            if contact_mode and item.phase == "carried":
                for peer in neighbors:
                    if peer == to:
                        break
                    if item.planned_stage in cfg.placement.services_at(peer):
                        to = peer
                        break
            if to is not None:
                self._transfer(item, node, to, t)

    # -- request generation and expiry ------------------------------------

    def on_generate(self, t: float, payload) -> None:
        cfg = self.cfg
        if isinstance(payload, tuple):
            node, req_in, req_out = payload
        else:
            node = payload
            req_in, req_out = cfg.pattern.draw(self.rng)
        rec = RequestRecord(
            id=len(self.records), origin=node, input=req_in, output=req_out,
            created=t, deadline=t + cfg.timeout_s,
        )
        self.records.append(rec)
        item = _Item(rec)
        self.items[rec.id] = item
        self.push(rec.deadline, _P_DEADLINE, "deadline", rec.id)
        # Generation plans the whole path: the record keeps its cost estimate
        # and, without per-stage recomputation, the request keeps the plan.
        path = self.compute_path(node, req_in, req_out)
        stage = None
        if path is not None:
            rec.estimated_cost_s = path.cost * cfg.unit_s
            if not cfg.recompute_per_stage:
                item.plan = list(path.stages)
            stage = path.stages[0]
        self._route(item, node, t, stage, sweep=True)
        if not isinstance(payload, tuple):
            self._schedule_next_generation(node, t)

    def _schedule_next_generation(self, node: int, t: float) -> None:
        if self.cfg.request_rate_per_min <= 0:
            return
        gap = float(self.rng.exponential(60.0 / self.cfg.request_rate_per_min))
        nxt = t + gap
        if nxt <= self.duration - self.cfg.timeout_s:
            self.push(nxt, _P_GENERATE, "generate", node)

    def on_deadline(self, t: float, req_id: int) -> None:
        item = self.items[req_id]
        if item.phase == "done":
            return
        rec = item.record
        rec.status = "timed-out"
        node = item.location
        if item.phase == "queued":
            self.queues[node].remove(item)
        elif item.phase == "executing":
            self.executing[node] = None
            self._start_execution(node, t)
        elif item.phase in ("carried", "result"):
            self.carried[node].remove(item)
        item.phase = "done"

    # -- unit boundaries ---------------------------------------------------

    def on_boundary(self, t: float, k: int) -> None:
        self.unit_index = k
        self._plans.clear()
        pairs = self.boundary_pairs[k]
        for a, b in pairs:
            self.last_enc[a][b] = self.last_enc[b][a] = t
        # minimal prices are constant and read no knowledge, so it is not kept up.
        if self.cfg.awareness != "minimal":
            self._dist_cache.clear()
            know = self.know
            if k > 0:
                know.tick(1.0)
            exchange_all(know, pairs, now=float(k),
                         previous=self.boundary_pairs[k - 1] if k else None)
            for node, tracker in enumerate(self.trackers):
                know.loads[node, node] = tracker.update(self._pending_count(node))
        # The closure changes only the knowledge of nodes in ``pairs``.
        for node in sorted({node for pair in pairs for node in pair}):
            if self.carried[node]:
                self.schedule_sweep(node, t)

    def on_contact_start(self, t: float, a: int, b: int, end: float) -> None:
        self.contact_end[a][b] = self.contact_end[b][a] = end
        self._peer_list[a] = self._peer_list[b] = None
        self.stats.record(a, t)
        self.stats.record(b, t)
        self.last_enc[a][b] = self.last_enc[b][a] = t
        if self.carried[a]:
            self.schedule_sweep(a, t)
        if self.carried[b]:
            self.schedule_sweep(b, t)

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.cfg
        n_units = int(round(self.duration / cfg.unit_s))
        for k in range(n_units + 1):
            self.push(k * cfg.unit_s, _P_BOUNDARY, "boundary", k)
        for start, end, a, b in self.contacts.events.tolist():
            self.push(start, _P_CONTACT, "contact", (a, b, end))
        if cfg.scripted_requests is not None:
            for t, origin, req_in, req_out in cfg.scripted_requests:
                self.push(t, _P_GENERATE, "generate", (origin, req_in, req_out))
        else:
            for node in range(self.n):
                self._schedule_next_generation(node, 0.0)
        while self.heap:
            t, prio, _, kind, payload = heapq.heappop(self.heap)
            if t > self.duration + 1e-9:
                continue
            if kind == "boundary":
                self.on_boundary(t, payload)
            elif kind == "contact":
                self.on_contact_start(t, *payload)
            elif kind == "completion":
                self.on_completion(t, *payload)
            elif kind == "generate":
                self.on_generate(t, payload)
            elif kind == "sweep":
                self.sweep(t, payload)
            elif kind == "deadline":
                self.on_deadline(t, payload)
        return RunResult(records=self.records, duration=self.duration,
                         config_seed=cfg.seed)


def run(config: SimConfig, contacts: ContactTrace) -> RunResult:
    """Simulate one run of ``config`` over ``contacts``."""
    return _Engine(config, contacts).run()
