"""Discrete-event simulation of request composition over a contact trace.

Events are keyed by (time, priority, push order); the priority is the event's
kind and picks its handler, so at one instant unit boundaries (timer ticks,
one knowledge closure over the co-located groups, load-window updates; none
of these under ``minimal`` awareness; knowledge keeps one column per service
host, one per node under ``perfect``, and the closure relaxes every group's
labels along its contacts until they settle) run first, then contact starts
(encounter stats, neighbour index, forwarding attempts), service completions,
Poisson request generation, forwarding sweeps, deadline expirations (each
carrying its request), and last contact ends, so a sweep at a contact's end
still sees the peer.  Contacts are read from the trace as the clock reaches
them: one start is on the heap at a time, each start pushes its end, and each
boundary walks its pairs from the sorted events.  Each composition decision
is one Dijkstra over a placement-derived service graph
(:class:`_GraphTemplate`) that prices each edge as it relaxes it, by one
rule, from the owner's view of the network (:func:`knowledge.owner_view`).
Knowledge changes only at unit boundaries, so an owner's view is built once
per unit and, under ``local``/``global`` awareness, a plan is reused for the
rest of the unit.  ``minimal`` draws a fresh tie order per decision, so it
reuses no plan; ``perfect`` reads every node's timers and the live backlog
(queue lengths, the request in service heading each queue) per decision.  A
request re-plans at each hand-off (generation, a finished stage, a stalled
retry, a relay arrival away from the planned host): :meth:`_Engine._route`
queues or carries it toward the stage :meth:`_Engine._next_stage` picks, and
a relay hosting the planned stage runs it (an opportunistic stage);
:meth:`_Engine._deliver` takes results home.  A forwarding sweep decides once
per destination which neighbour, if any, receives the items bound there
(:meth:`_Engine.sweep`).  A request is one :class:`RequestRecord`, and
where it sits (a node's queue or carried list) is its state.  Identical
(config, seed) pairs reproduce identical results.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter

import numpy as np

from .contact_engine import ContactTrace
from .forwarding import SCHEMES, EncounterStats, should_relay
from .knowledge import AWARENESS_LEVELS, Knowledge, close_load_window, exchange_all, owner_view
from .service_model import Service, ServiceCatalog, ServicePlacement

__all__ = [
    "CompositionPath",
    "RequestPattern",
    "SimConfig",
    "RequestRecord",
    "run",
    "write_records_csv",
    "read_records_csv",
    "RECORD_FIELDS",
]

# Event kinds, as their priorities at equal timestamps (``_Engine.run`` maps
# each to its handler).
(_P_BOUNDARY, _P_CONTACT, _P_COMPLETION, _P_GENERATE, _P_SWEEP, _P_DEADLINE,
 _P_CONTACT_END) = range(7)


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
        if any(x == y for x, y in self.pairs):
            raise ValueError(f"request pairs must change the type, got {self.pairs}")
        if self.weights is not None and len(self.weights) != len(self.pairs):
            raise ValueError("weights must match pairs")
        p = None
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if not (np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
                raise ValueError(f"weights must be finite, nonnegative and not all zero, "
                                 f"got {self.weights}")
            p = w / w.sum()
        object.__setattr__(self, "_p", p)

    @classmethod
    def min_functionality(cls, catalog: ServiceCatalog, k: int = 4) -> "RequestPattern":
        """Requests of net functionality at least ``k``."""
        return cls(pairs=tuple(catalog.request_pairs(min_k=k)))

    @classmethod
    def fixed_length(cls, catalog: ServiceCatalog, length: int,
                     start_weights: dict | None = None) -> "RequestPattern":
        """Requests requiring exactly ``length`` unit services of the catalog,
        each drawn by the weight ``start_weights`` gives its input (1 if none);
        a key that is not a type of the catalog raises ValueError."""
        pairs = tuple(catalog.request_pairs(min_k=length, max_k=length))
        if start_weights is None:
            return cls(pairs=pairs)
        weights = {int(x): float(w) for x, w in start_weights.items()}  # YAML's keys may be strings
        outside = sorted(x for x in weights if not 1 <= x <= catalog.n_d)
        if outside:
            raise ValueError(f"start_weights keys {outside} are not types 1..{catalog.n_d}")
        return cls(pairs=pairs, weights=tuple(weights.get(x, 1.0) for x, _ in pairs))

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        if self._p is None:
            return self.pairs[int(rng.integers(len(self.pairs)))]
        return self.pairs[int(rng.choice(len(self.pairs), p=self._p))]


@dataclass
class SimConfig:
    """One run's inputs.  Each node makes requests as a Poisson stream of
    ``request_rate_per_min``, each drawn from ``pattern``, until
    ``timeout_s`` before the trace ends, and each stage's service time is
    exponential with mean ``mean_exec_s``."""

    catalog: ServiceCatalog
    placement: ServicePlacement
    pattern: RequestPattern
    awareness: str = "local"
    scheme: str = "MT"  # one of forwarding.SCHEMES
    request_rate_per_min: float = 0.4
    timeout_s: float = 900.0
    mean_exec_s: float = 30.0
    unit_s: float = 30.0
    t_av: float = 1.0
    load_alpha: float = 0.5
    delay_warmup_s: float = 7200.0
    load_aware: bool = True
    exact_match: bool = False
    seed: int = 0

    def validate(self) -> None:
        # NaN fails each check: a NaN rate or timeout would run no request, and
        # an infinite rate draws every gap as 0, so generation would not end.
        if not 0 <= self.request_rate_per_min < math.inf:
            raise ValueError(f"request_rate_per_min must be finite and >= 0, got {self.request_rate_per_min}")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s}")
        if not 0 <= self.delay_warmup_s < math.inf:
            raise ValueError(f"delay_warmup_s must be finite and >= 0, got {self.delay_warmup_s}")
        # A negative mean schedules completions before their start, and either
        # bad value makes the load estimate, and so an edge cost, negative; an
        # infinite one never completes a stage.
        if not 0 <= self.mean_exec_s < math.inf:
            raise ValueError(f"mean_exec_s must be finite and >= 0, got {self.mean_exec_s}")
        if not 0.0 <= self.load_alpha <= 1.0:
            raise ValueError(f"load_alpha must lie in [0, 1], got {self.load_alpha}")
        # The closure's tie order rests on t_av > 0; Knowledge keeps it on the
        # 2**-20 grid, where it must not round to zero (nor overflow).
        if not 0 < self.t_av < math.inf:
            raise ValueError(f"t_av must be finite and > 0, got {self.t_av}")
        # An infinite unit leaves one boundary, at 0 * inf = NaN: no timer ever ticks.
        if not 0 < self.unit_s < math.inf:
            raise ValueError(f"unit_s must be finite and > 0, got {self.unit_s}")
        if self.awareness not in AWARENESS_LEVELS:
            raise ValueError(f"unknown awareness level {self.awareness!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {', '.join(SCHEMES)}")


@dataclass(eq=False, slots=True)
class RequestRecord:
    """A request.  In flight (``status`` "in-flight") it sits in one place at
    node ``location``: at the head of the node's queue while in service,
    later in the queue while queued, or in the node's carried list, bound for
    ``destination`` (a result, bound for ``origin``, once ``current_input ==
    output``).  A finished request sits nowhere.  Queues and carried lists
    find it by identity (``eq=False``).
    """

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
    current_input: int = field(init=False)  # the type it holds now
    location: int = field(init=False)
    destination: int | None = None
    planned_stage: Service | None = None  # the stage queued for or carried toward
    opp_flag: bool = False

    def __post_init__(self):
        self.current_input, self.location = self.input, self.origin

    @property
    def delay(self) -> float | None:
        return None if self.completed is None else self.completed - self.created

    @property
    def opportunistic_stages(self) -> int:
        return sum(1 for _, _, opp in self.stages if opp)


RECORD_FIELDS = ("id,origin,in,out,created_s,status,completed_s,delay_s,hops,"
                 "stages,opportunistic_stages,estimated_cost_s")


def write_records_csv(records: list[RequestRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write(RECORD_FIELDS + "\n")
        for r in sorted(records, key=lambda r: r.id):
            stages = "|".join(
                f"{s.input}-{s.output}@{node}" + ("*" if opp else "")
                for s, node, opp in r.stages
            )
            completed, delay, est = ("" if v is None else f"{v:.3f}"
                                     for v in (r.completed, r.delay, r.estimated_cost_s))
            fh.write(f"{r.id},{r.origin},{r.input},{r.output},{r.created:.3f},{r.status},"
                     f"{completed},{delay},{r.hops},{stages},{r.opportunistic_stages},{est}\n")


_RECORD_NAMES = tuple(RECORD_FIELDS.split(","))
_RECORD_INDEX = {name: i for i, name in enumerate(_RECORD_NAMES)}
# Each column's parser; None keeps the text (status, stages), shared per file.
_RECORD_PARSERS = (int, int, int, int, float, None, float, float, int, None, int, float)


class _RecordRow(Mapping):
    """One records-CSV row, read-only: its values in ``RECORD_FIELDS`` order."""

    __slots__ = ("_values",)

    def __init__(self, values: tuple):
        self._values = values

    def __getitem__(self, name):
        return self._values[_RECORD_INDEX[name]]

    def __iter__(self):
        return iter(_RECORD_NAMES)

    def __len__(self):
        return len(_RECORD_NAMES)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self)!r})"


def read_records_csv(path) -> list[Mapping]:
    """Rows back as read-only mappings keyed by the header's names, numeric
    fields parsed (None for blanks); rows of one file share each distinct
    ``status`` and ``stages`` string.  A header other than ``RECORD_FIELDS``,
    or a row of another width, raises ``ValueError`` naming the line."""
    texts: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        if (header := fh.readline().rstrip("\n")) != RECORD_FIELDS:
            raise ValueError(f"{path}, line 1: header {header!r} is not {RECORD_FIELDS!r}")
        # One line at a time: a run's unparsed rows would raise peak memory.
        for lineno, line in enumerate(fh, 2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(_RECORD_NAMES):
                raise ValueError(f"{path}, line {lineno}: {len(cells)} fields, "
                                 f"expected {len(_RECORD_NAMES)}")
            try:
                values = tuple(texts.setdefault(cell, cell) if parse is None
                               else parse(cell) if cell else None
                               for parse, cell in zip(_RECORD_PARSERS, cells))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            rows.append(_RecordRow(values))
    return rows


@dataclass
class CompositionPath:
    """An ordered stage list with its estimated cost (in time units)."""

    stages: tuple[tuple[Service, int], ...]
    cost: float
    input: int
    output: int


class _GraphTemplate:
    """Placement-derived vertices shared by every path computation.

    Vertices are ints: hosted service copies first, in (service, host) order
    (``ServicePlacement.by_service`` lists each service's hosts sorted), then
    one vertex per type.  No edge list is stored, as the types give every
    edge: a type vertex leads to each copy that takes the type, and a copy
    to its output's type vertex and, unless ``single_stage``, to each copy
    that takes its output.  A copy's device is its host's slot,
    ``slots[host]`` (the host itself by default), and a type vertex's the
    graph owner's slot, and an edge pays a load exactly when its head is a
    copy, so :meth:`shortest` prices an edge from its two vertices and an
    owner's view, whichever owner it searches for.  :meth:`heads_toward`
    keeps the edges that can lead to an output type, so an empty list at the
    input's type vertex means no chain of hosted services reaches the output.
    """

    def __init__(self, placement: ServicePlacement, n_d: int, single_stage: bool, slots=None):
        self.n_d = n_d
        services = sorted(placement.by_service)
        copies = [(s, n) for s in services for n in placement.by_service[s]]
        self.copies = copies
        self.devices = [n if slots is None else slots[n] for _, n in copies]
        self.n_service_vertices = len(copies)
        self.type_vertex = {x: len(copies) + x - 1 for x in range(1, n_d + 1)}
        self.n_vertices = len(copies) + n_d
        # Each copy's rank in (service, host) order, for ties: its index.  A
        # list, since indexing a range is slower.
        self.lex_rank = list(range(len(copies)))
        self._toward = {y: self._pruned_heads(y, services, single_stage) for y in self.type_vertex}

    def _pruned_heads(self, req_out: int, services: list[Service],
                      single_stage: bool) -> list[list[int]]:
        """Per vertex, its heads that can reach ``req_out``'s type vertex: the
        goal, and each copy whose output is ``req_out`` or (unless
        ``single_stage``) feeds a service whose output leads there.  A type
        vertex's heads are its kept consumers; a copy's are the goal if it
        outputs ``req_out``, then (unless ``single_stage``) its output's kept
        consumers, so the copies of one output share one list."""
        leads = {req_out}
        while not single_stage and (
                more := {s.input for s in services if s.output in leads} - leads):
            leads |= more
        kept: dict[int, list[int]] = {x: [] for x in self.type_vertex}
        for v, (s, _) in zip(self.lex_rank, self.copies):  # lex_rank's ints, shared by every output
            if s.output in leads:
                kept[s.input].append(v)
        after = {y: [] if single_stage else heads for y, heads in kept.items()}
        after[req_out] = [self.type_vertex[req_out]] + after[req_out]
        return [after[s.output] for s, _ in self.copies] + list(kept.values())

    def heads_toward(self, req_out: int) -> list[list[int]]:
        """Per vertex, its heads that can still reach ``req_out``'s type
        vertex; no other edge can lie on a path there."""
        return self._toward[req_out]

    def shortest(self, owner: int, req_in: int, req_out: int, view: tuple,
                 ranks: list[int] | np.ndarray | None = None) -> CompositionPath | None:
        """Dijkstra from the input-type vertex over an owner's view.

        ``view`` is :func:`knowledge.owner_view`'s ``(T, L, P)``, and
        ``owner`` the owner's slot there, every type vertex's device.  An edge
        is priced as it is relaxed, by one rule: 0 if its devices s and d are
        equal, else ``T[s]`` into the owner, else ``row[d] + age`` from
        ``(row, age) = P[s]`` when s has a row and it holds an estimate (not
        NaN), else ``T[s] + T[d]``; plus ``L[d]`` when the head is a service
        copy.
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
        device = self.devices + [owner] * self.n_d
        heads = self.heads_toward(req_out)
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
            row, age = (None, 0.0) if pairs is None else pairs[s]
            for nxt in heads[vertex]:
                if settled[nxt]:
                    continue
                d = device[nxt]
                if d == s:
                    w = 0.0
                elif d == owner:
                    w = t_s
                elif row is None:
                    w = t_s + timers[d]
                else:
                    w = row[d] + age
                    if w != w:  # NaN: the row holds no estimate of d
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
        if config.request_rate_per_min > 0 and config.timeout_s >= contacts.duration:
            raise ValueError(f"timeout_s {config.timeout_s} leaves no time to generate "
                             f"requests in a run of duration {contacts.duration}")
        self.cfg = config
        self.contacts = contacts
        self.n = contacts.n_nodes
        self.duration = contacts.duration
        self.rng = np.random.default_rng(config.seed)
        self.tie_rng = np.random.default_rng((config.seed, 0x7ee5))
        self.stats = EncounterStats(self.n)
        # Per node: its backlog, the request in service first.
        self.queues: list[list[RequestRecord]] = [[] for _ in range(self.n)]
        self.carried: list[list[RequestRecord]] = [[] for _ in range(self.n)]
        self.records: list[RequestRecord] = []
        self.heap: list = []
        self.seq = 0
        self.unit_index = 0
        # Pricing reads only the hosts' columns; ``perfect`` reads the owner's too.
        hosts = [v for nodes in config.placement.by_service.values() for v in nodes]
        self.know = Knowledge(self.n, t_av=config.t_av, track_matrix=config.awareness == "global",
                              columns=None if config.awareness == "perfect" else hosts)
        self.template = _GraphTemplate(config.placement, config.catalog.n_d, config.exact_match,
                                       self.know.slots.tolist())
        self.boundary_pairs = contacts.boundary_pairs(config.unit_s)
        # Per unit: each owner's view, and the plans it gave.
        self._dist_cache: dict[int, tuple] = {}
        self._plans: dict[tuple[int, int, int], CompositionPath | None] = {}
        self._reuse_plans = config.awareness in ("local", "global")
        self._pending_sweeps: set[tuple[int, float]] = set()
        # Per node: the peers in contact with it now, in id order, kept by
        # contact start and end events.
        self.peers: list[list[int]] = [[] for _ in range(self.n)]
        # Forwarding-layer state: when each pair last met directly.  The
        # timer relay rules run on these encounter ages, not on the
        # gossiped composition timers (transitive updates keep every
        # node's gossiped value near the network minimum, which would
        # erase the relay gradient entirely).
        self.last_enc = [[-math.inf] * self.n for _ in range(self.n)]

    # -- event plumbing ------------------------------------------------

    def push(self, t: float, prio: int, *payload) -> None:
        """Have kind ``prio``'s handler run ``handler(t, *payload)`` at ``t``."""
        self.seq += 1
        heapq.heappush(self.heap, (t, prio, self.seq, payload))

    def schedule_sweep(self, node: int, t: float) -> None:
        key = (node, t)
        if key not in self._pending_sweeps:
            self._pending_sweeps.add(key)
            self.push(t, _P_SWEEP, node)

    # -- owners' views of the network -----------------------------------

    def _distances(self, owner: int) -> tuple:
        """``owner``'s view of the network, from :func:`knowledge.owner_view`.

        Nothing the view reads changes within a unit except the live backlog
        that ``perfect`` awareness prices, so the view is cached per (owner,
        unit) in ``_dist_cache``, and built afresh on every call under
        ``perfect``.  Rows a search fetches stay in the cached view for the
        next.  Without ``load_aware`` no load is priced.
        """
        cached = self._dist_cache.get(owner)
        if cached is not None:
            return cached
        cfg = self.cfg
        live_loads = None
        if cfg.awareness == "perfect":
            live_loads = [len(q) * cfg.mean_exec_s for q in self.queues]
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
        # Checked before the view is built and a tie order drawn, so a request
        # that no chain of hosted services serves draws nothing from tie_rng.
        if req_in == req_out or not template.heads_toward(req_out)[template.type_vertex[req_in]]:
            return None
        key = (node, req_in, req_out)
        if key in self._plans:
            return self._plans[key]
        ranks = None
        if self.cfg.awareness == "minimal":
            ranks = self.tie_rng.permutation(template.n_service_vertices)
        slot = int(self.know.slots[node])
        path = template.shortest(slot, req_in, req_out, self._distances(node), ranks)
        if self._reuse_plans:
            self._plans[key] = path
        return path

    # -- queueing and execution -----------------------------------------

    def enqueue(self, node: int, item: RequestRecord, service: Service, opportunistic: bool, t: float) -> None:
        item.location = node
        item.destination = None
        item.planned_stage = service
        item.opp_flag = opportunistic
        queue = self.queues[node]
        queue.append(item)
        if len(queue) == 1:
            self._start_execution(node, t)

    def _start_execution(self, node: int, t: float) -> None:
        """Serve the request at the head of ``node``'s queue, if any."""
        if not self.queues[node]:
            return
        dt = float(self.rng.exponential(self.cfg.mean_exec_s))
        self.push(t + dt, _P_COMPLETION, node, self.queues[node][0])

    def on_completion(self, t: float, node: int, item: RequestRecord) -> None:
        queue = self.queues[node]
        if not (queue and queue[0] is item):  # cancelled at its deadline: done for good
            return
        queue.pop(0)
        service = item.planned_stage
        item.current_input = service.output
        item.stages.append((service, node, item.opp_flag))
        self._start_execution(node, t)
        if item.current_input == item.output:
            item.destination = item.origin
            item.planned_stage = None
            self._deliver(item, node, t)
        else:
            self._route(item, node, t, self._next_stage(item, node), sweep=True)

    # -- routing ---------------------------------------------------------

    def _next_stage(self, item: RequestRecord, node: int) -> tuple[Service, int] | None:
        """The first (service, host) of the path ``node`` computes for ``item``, or None."""
        path = self.compute_path(node, item.current_input, item.output)
        return None if path is None else path.stages[0]

    def _route(self, item: RequestRecord, node: int, t: float, stage: tuple[Service, int] | None,
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
        item.location = node
        item.planned_stage, item.destination = stage or (None, None)
        self._carry(node, item)
        if sweep and stage is not None:
            self.schedule_sweep(node, t)

    def _deliver(self, item: RequestRecord, node: int, t: float) -> None:
        """Hand a result to its requester at ``node``, or carry it on toward there."""
        item.location = node
        if node == item.origin:
            item.status = "completed"
            item.completed = t
        else:
            self._carry(node, item)
            self.schedule_sweep(node, t)

    def _carry(self, node: int, item: RequestRecord) -> None:
        """Hold ``item`` at ``node``; each node's list stays in id order."""
        insort(self.carried[node], item, key=attrgetter("id"))

    def _neighbors(self, node: int, t: float) -> list[int]:
        """Peers in contact with ``node`` at ``t``, in id order: the live
        list contact events keep, which no transfer changes."""
        return self.peers[node]

    def _transfer(self, item: RequestRecord, src: int, dst: int, t: float) -> None:
        self.carried[src].remove(item)
        item.hops += 1
        if item.current_input == item.output:  # a result
            self._deliver(item, dst, t)
            return
        service, host = item.planned_stage, item.destination
        # The planned host runs the stage, and so does a relay that hosts it; any
        # other relay re-plans, since the topology may now offer a better host.
        if host == dst or service in self.cfg.placement.services_at(dst):
            self.enqueue(dst, item, service, opportunistic=host != dst, t=t)
        else:
            self._route(item, dst, t, self._next_stage(item, dst), sweep=False)

    def sweep(self, t: float, node: int) -> None:
        """Hand each item ``node`` carries to the neighbour its rule picks.

        Items bound for one destination all go to the same neighbour: the
        destination itself when it is a neighbour, else the first in id
        order that passes :func:`should_relay`.  That rule reads encounter
        ages and rates and the neighbour set, which no transfer changes (a
        transfer touches only the receiver's state), so it is decided once
        per destination per sweep.  A stalled item (no destination) first
        retries path selection here.
        """
        self._pending_sweeps.discard((node, t))
        if not self.carried[node]:
            return
        unit_s = self.cfg.unit_s
        scheme = self.cfg.scheme
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
                if stage[1] == node:  # queued here
                    continue
            dest = item.destination
            if dest in receiver:
                to = receiver[dest]
            elif dest in neighbors:
                to = receiver[dest] = dest
            else:
                to = None
                carrier_age = (t - last_enc[node][dest]) / unit_s
                for peer in neighbors:
                    if should_relay(scheme, node, peer, dest, carrier_age,
                                    (t - last_enc[peer][dest]) / unit_s, self.stats, t):
                        to = peer
                        break
                receiver[dest] = to
            if to is not None:
                self._transfer(item, node, to, t)

    # -- request generation and expiry ------------------------------------

    def on_generate(self, t: float, node: int) -> None:
        """``node`` makes a request drawn from the pattern, routes it, and
        schedules its next one."""
        cfg = self.cfg
        req_in, req_out = cfg.pattern.draw(self.rng)
        rec = RequestRecord(
            id=len(self.records), origin=node, input=req_in, output=req_out,
            created=t, deadline=t + cfg.timeout_s,
        )
        self.records.append(rec)
        self.push(rec.deadline, _P_DEADLINE, rec)
        # Generation plans the whole path for the record's cost estimate; the
        # request takes only its first stage, and each later hand-off re-plans.
        path = self.compute_path(node, req_in, req_out)
        if path is not None:
            rec.estimated_cost_s = path.cost * cfg.unit_s
        self._route(rec, node, t, None if path is None else path.stages[0], sweep=True)
        self._schedule_next_generation(node, t)

    def _schedule_next_generation(self, node: int, t: float) -> None:
        if self.cfg.request_rate_per_min <= 0:
            return
        gap = float(self.rng.exponential(60.0 / self.cfg.request_rate_per_min))
        nxt = t + gap
        if nxt <= self.duration - self.cfg.timeout_s:
            self.push(nxt, _P_GENERATE, node)

    def on_deadline(self, t: float, rec: RequestRecord) -> None:
        if rec.status != "in-flight":
            return
        rec.status = "timed-out"
        queue = self.queues[rec.location]
        if queue and queue[0] is rec:  # in service
            queue.pop(0)
            self._start_execution(rec.location, t)
        else:  # queued, or else carried
            (queue if rec in queue else self.carried[rec.location]).remove(rec)

    # -- unit boundaries ---------------------------------------------------

    def on_boundary(self, t: float, k: int) -> None:
        self.unit_index = k
        self._plans.clear()
        self._dist_cache.clear()
        pairs = next(self.boundary_pairs)
        for a, b in pairs.tolist():
            self.last_enc[a][b] = self.last_enc[b][a] = t
        cfg = self.cfg
        # minimal prices are constant and read no knowledge, so it is not kept up.
        if cfg.awareness != "minimal":
            know = self.know
            if k > 0:
                know.tick()
            exchange_all(know, pairs, now=float(k))
            own = know.own  # each host's own load, as its last window closed
            pending = np.array([len(self.queues[v]) for v in know.columns.tolist()])
            know.loads[own] = close_load_window(know.loads[own], pending, cfg.mean_exec_s, cfg.load_alpha)
        # The closure changes only the knowledge of nodes in ``pairs``.
        for node in np.flatnonzero(np.bincount(pairs.ravel())).tolist():
            if self.carried[node]:
                self.schedule_sweep(node, t)

    def on_contact_start(self, t: float, a: int, b: int, end: float) -> None:
        insort(self.peers[a], b)
        insort(self.peers[b], a)
        self.push(end, _P_CONTACT_END, a, b)
        self.stats.record(a, t)
        self.stats.record(b, t)
        self.last_enc[a][b] = self.last_enc[b][a] = t
        if self.carried[a]:
            self.schedule_sweep(a, t)
        if self.carried[b]:
            self.schedule_sweep(b, t)

    def on_contact_end(self, t: float, a: int, b: int) -> None:
        self.peers[a].remove(b)
        self.peers[b].remove(a)

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[RequestRecord]:
        cfg = self.cfg
        n_units = int(round(self.duration / cfg.unit_s))
        for k in range(n_units + 1):
            self.push(k * cfg.unit_s, _P_BOUNDARY, k)
        for node in range(self.n):
            self._schedule_next_generation(node, 0.0)
        # Looked up now, so handlers replaced on the instance or the class run.
        handlers = (self.on_boundary, self.on_contact_start, self.on_completion,
                    self.on_generate, self.sweep, self.on_deadline, self.on_contact_end)
        # Each popped contact start pushes the next: one on the heap, in (start, end, a, b) order.
        upcoming = (event.tolist() for event in self.contacts.events)
        prio = _P_CONTACT  # the first contact goes on as if one had popped
        while True:
            if prio == _P_CONTACT:
                for start, end, a, b in islice(upcoming, 1):
                    self.push(start, _P_CONTACT, a, b, end)
            if not self.heap:
                return self.records
            t, prio, _, payload = heapq.heappop(self.heap)
            if t <= self.duration + 1e-9:
                handlers[prio](t, *payload)


def run(config: SimConfig, contacts: ContactTrace) -> list[RequestRecord]:
    """Simulate one run of ``config`` over ``contacts``; its request records."""
    return _Engine(config, contacts).run()
