"""Composition path selection.

The engine's array-backed ``sim_core._GraphTemplate`` is the package's only
path search.  The dict-graph Dijkstra below is the reference it is checked
against: it builds one owner's service graph for one request explicitly and
applies the same tie rules.  Worked examples and a brute-force enumeration
pin the reference itself.
"""

import heapq
import itertools
import math
from typing import Callable

import numpy as np

from oppcompose.knowledge import Knowledge, owner_view
from oppcompose.service_model import (Service, ServicePlacement, assign_services,
                                      enumerate_services)
from oppcompose.sim_core import CompositionPath, _GraphTemplate
from pricing_reference import matrix_view, row_table

Vertex = tuple  # ("t", type_id) or ("s", Service, host)


# -- reference implementation ------------------------------------------------------

class ServiceGraph:
    """Adjacency view of one node's composition choices for one request."""

    def __init__(self, owner: int, n_d: int):
        self.owner = owner
        self.n_d = n_d
        self.adjacency: dict[Vertex, list[tuple[Vertex, float]]] = {}
        self.service_vertices: list[Vertex] = []

    def add_edge(self, u: Vertex, v: Vertex, cost: float) -> None:
        self.adjacency.setdefault(u, []).append((v, cost))

    def edges_from(self, u: Vertex) -> list[tuple[Vertex, float]]:
        return self.adjacency.get(u, [])


def build_graph(
    owner: int,
    placement: ServicePlacement,
    n_d: int,
    request: tuple[int, int],
    t_hat: Callable[[int, int], float],
    l_hat: Callable[[int], float],
    known: Callable[[int], bool] | None = None,
    load_aware: bool = True,
    single_stage: bool = False,
) -> ServiceGraph:
    """Assemble the owner's service graph for one (input, output) request.

    ``t_hat(i, j)`` estimates the temporal distance between devices i and
    j and ``l_hat(j)`` the load at device j, both in time units.  Hosts
    the owner has no knowledge of are left out of the graph.  With
    ``single_stage`` only exact-match services (one stage) are reachable;
    with ``load_aware`` off the load term is dropped from the edge cost.
    """
    req_in, req_out = request
    g = ServiceGraph(owner, n_d)
    start: Vertex = ("t", req_in)

    hosted: list[tuple[Service, int]] = []
    for service in sorted(placement.by_service):
        for node in placement.by_service[service]:
            if node == owner or known is None or known(node):
                hosted.append((service, node))
    g.service_vertices = [("s", s, n) for s, n in hosted]

    def stage_cost(src_dev: int, service: Service, dst_dev: int) -> float:
        cost = t_hat(src_dev, dst_dev)
        if load_aware:
            cost += l_hat(dst_dev)
        return cost

    for service, node in hosted:
        v: Vertex = ("s", service, node)
        if service.input == req_in and (not single_stage or service.output == req_out):
            g.add_edge(start, v, stage_cost(owner, service, node))
        if service.output == req_out or not single_stage:
            # Return edge: distance back to the owner only (result routing).
            g.add_edge(v, ("t", service.output), t_hat(node, owner))
    if not single_stage:
        for s1, n1 in hosted:
            u: Vertex = ("s", s1, n1)
            for s2, n2 in hosted:
                if s1.output == s2.input:
                    g.add_edge(u, ("s", s2, n2), stage_cost(n1, s2, n2))
    return g


def _vertex_ranks(g: ServiceGraph, tie_rng: np.random.Generator | None) -> dict[Vertex, int]:
    ordered = sorted(g.service_vertices, key=lambda v: (v[1], v[2]))
    if tie_rng is not None:
        perm = tie_rng.permutation(len(ordered))
        return {v: int(perm[i]) for i, v in enumerate(ordered)}
    return {v: i for i, v in enumerate(ordered)}


def _dijkstra(
    g: ServiceGraph, source: Vertex, tie_rng: np.random.Generator | None = None
) -> dict[Vertex, tuple[float, tuple[tuple[Service, int], ...]]]:
    """Cheapest labels from ``source`` to every reachable vertex.

    Ties resolve to fewer stages, then to paths that finish at the owner
    (no remote return leg), then to the smallest stage-rank sequence;
    ranks are lexicographic by (service, host) unless a tie_rng supplies a
    random permutation (used when selection should not be biased by ids).
    """
    ranks = _vertex_ranks(g, tie_rng)
    best: dict[Vertex, tuple[float, int, int, tuple[int, ...]]] = {}
    settled: dict[Vertex, tuple[float, tuple[tuple[Service, int], ...]]] = {}
    heap: list = []
    heapq.heappush(heap, (0.0, 0, 0, (), source, ()))
    best[source] = (0.0, 0, 0, ())
    while heap:
        cost, n_stages, penalty, key, vertex, stages = heapq.heappop(heap)
        if vertex in settled:
            continue
        settled[vertex] = (cost, stages)
        for nxt, w in g.edges_from(vertex):
            if nxt in settled:
                continue
            if nxt[0] == "s":
                label = (
                    cost + w,
                    n_stages + 1,
                    penalty,
                    key + (ranks[nxt],),
                    nxt,
                    stages + ((nxt[1], nxt[2]),),
                )
            else:
                remote_return = 1 if vertex[0] == "s" and vertex[2] != g.owner else 0
                label = (cost + w, n_stages, penalty + remote_return, key, nxt, stages)
            probe = (label[0], label[1], label[2], label[3])
            if nxt not in best or probe < best[nxt]:
                best[nxt] = probe
                heapq.heappush(heap, label)
    return settled


def select_composition(
    g: ServiceGraph,
    req_in: int,
    req_out: int,
    tie_rng: np.random.Generator | None = None,
) -> CompositionPath | None:
    """Cheapest composition from ``req_in`` to ``req_out``, or None."""
    labels = _dijkstra(g, ("t", req_in), tie_rng)
    hit = labels.get(("t", req_out))
    if hit is None or not math.isfinite(hit[0]):
        return None
    cost, stages = hit
    if not stages:
        return None
    return CompositionPath(stages=stages, cost=cost, input=req_in, output=req_out)


# -- helpers --------------------------------------------------------------------------

def path_hosts(path: CompositionPath) -> tuple[int, ...]:
    return tuple(n for _, n in path.stages)


def placement_from(assignments: dict[int, list[Service]], repetition: int = 1) -> ServicePlacement:
    by_node = {n: tuple(sorted(svcs)) for n, svcs in assignments.items()}
    inv: dict[Service, list[int]] = {}
    for n, svcs in by_node.items():
        for s in svcs:
            inv.setdefault(s, []).append(n)
    return ServicePlacement(by_node=by_node,
                            by_service={s: tuple(sorted(v)) for s, v in inv.items()},
                            repetition=repetition)


def providers(dist: dict, load: dict):
    """Cost providers from explicit matrices (defaults: 0 distance, 0 load)."""
    def t_hat(i, j):
        if i == j:
            return 0.0
        return dist.get((i, j), dist.get((j, i), 0.0))

    def l_hat(j):
        return load.get(j, 0.0)

    return t_hat, l_hat


# -- two-device worked example ---------------------------------------------------

def two_device_graph(load_b=8.0, dist_ab=10.0):
    # Device a (0) offers s_12 and s_34; device b (1) offers s_13 and s_24.
    placement = placement_from({
        0: [Service(1, 2), Service(3, 4)],
        1: [Service(1, 3), Service(2, 4)],
    })
    t_hat, l_hat = providers({(0, 1): dist_ab}, {1: load_b, 0: 0.0})
    return build_graph(0, placement, 4, (1, 4), t_hat, l_hat)


def test_two_device_example_edge_cost():
    g = two_device_graph()
    edges = {v: c for v, c in g.edges_from(("s", Service(1, 2), 0))}
    assert edges[("s", Service(2, 4), 1)] == 18.0  # distance 10 + load 8


def test_two_device_example_shortest_path():
    g = two_device_graph()
    path = select_composition(g, 1, 4)
    assert path is not None
    assert path.stages == ((Service(1, 3), 1), (Service(3, 4), 0))
    # (s_1,a) -> (s_13,b) -> (s_34,a) -> (s_4,a): 10+8, back to a at 10, end 0.
    assert path.cost == 28.0


def test_return_edge_excludes_load():
    g = two_device_graph()
    edges = {v: c for v, c in g.edges_from(("s", Service(2, 4), 1))}
    assert edges[("t", 4)] == 10.0  # distance only


def test_same_device_chain_costs_load_only():
    placement = placement_from({0: [Service(1, 2), Service(2, 4)]})
    t_hat, l_hat = providers({}, {0: 0.0})
    g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat)
    path = select_composition(g, 1, 4)
    assert path.cost == 0.0
    assert path.stages == ((Service(1, 2), 0), (Service(2, 4), 0))


def test_exact_local_service_zero_cost():
    placement = placement_from({0: [Service(1, 4)], 1: [Service(1, 4)]})
    t_hat, l_hat = providers({(0, 1): 5.0}, {})
    g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat)
    path = select_composition(g, 1, 4)
    assert path.cost == 0.0
    assert path.stages == ((Service(1, 4), 0),)


def test_unreachable_returns_none():
    placement = placement_from({0: [Service(1, 2)]})
    t_hat, l_hat = providers({}, {})
    g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat)
    assert select_composition(g, 1, 4) is None


def test_unknown_hosts_omitted():
    placement = placement_from({0: [Service(1, 2)], 1: [Service(2, 4)], 2: [Service(2, 4)]})
    t_hat, l_hat = providers({(0, 1): 4.0, (0, 2): 1.0}, {})
    g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat, known=lambda n: n != 2)
    path = select_composition(g, 1, 4)
    assert path_hosts(path) == (0, 1)  # node 2 invisible despite being cheaper


def test_single_stage_mode_reproduces_exact_match():
    placement = placement_from({0: [Service(1, 2), Service(2, 4)], 1: [Service(1, 4)]})
    t_hat, l_hat = providers({(0, 1): 50.0}, {})
    g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat, single_stage=True)
    path = select_composition(g, 1, 4)
    assert path.stages == ((Service(1, 4), 1),)
    assert path.cost == 100.0  # out and back


def test_not_load_aware_drops_load_term():
    g_la = two_device_graph(load_b=8.0)
    placement = placement_from({
        0: [Service(1, 2), Service(3, 4)],
        1: [Service(1, 3), Service(2, 4)],
    })
    t_hat, l_hat = providers({(0, 1): 10.0}, {1: 8.0})
    g_nla = build_graph(0, placement, 4, (1, 4), t_hat, l_hat, load_aware=False)
    assert select_composition(g_la, 1, 4).cost == 28.0
    assert select_composition(g_nla, 1, 4).cost == 20.0


# -- chaining soundness ------------------------------------------------------------

def test_paths_always_chain():
    rng = np.random.default_rng(5)
    catalog = enumerate_services(5)
    for _ in range(50):
        placement, t_hat, l_hat = random_instance(rng, catalog, n_nodes=4, repetition=2)
        g = build_graph(0, placement, 5, (1, 5), t_hat, l_hat)
        path = select_composition(g, 1, 5)
        if path is None:
            continue
        stages = path.stages
        assert stages[0][0].input == 1
        assert stages[-1][0].output == 5
        for (s1, _), (s2, _) in zip(stages, stages[1:]):
            assert s1.output == s2.input


# -- brute force oracle --------------------------------------------------------------

def enumerate_all_compositions(placement, n_d, req_in, req_out, t_hat, l_hat,
                               load_aware=True):
    """Exhaustive minimum cost over all valid service chains and host picks."""
    services = sorted(placement.by_service)
    best = math.inf

    def chains(cur, acc):
        if acc and acc[-1].output == req_out:
            yield tuple(acc)
        if len(acc) >= n_d:
            return
        for s in services:
            if s.input == cur:
                yield from chains(s.output, acc + [s])

    for chain in chains(req_in, []):
        host_sets = [placement.by_service[s] for s in chain]
        for hosts in itertools.product(*host_sets):
            cost = 0.0
            prev = 0  # owner
            for s, host in zip(chain, hosts):
                cost += t_hat(prev, host) + (l_hat(host) if load_aware else 0.0)
                prev = host
            cost += t_hat(prev, 0)
            best = min(best, cost)
    return best


def random_instance(rng, catalog, n_nodes, repetition):
    placement = assign_services(catalog, list(range(n_nodes)), repetition, rng)
    dist = {}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            dist[(i, j)] = float(rng.integers(0, 30))
    load = {j: float(rng.integers(0, 20)) for j in range(n_nodes)}
    return placement, *providers(dist, load)


def test_dijkstra_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(300):
        n_d = int(rng.integers(3, 5))
        n_nodes = int(rng.integers(2, 5))
        repetition = int(rng.integers(1, min(2, n_nodes) + 1))
        catalog = enumerate_services(n_d)
        placement, t_hat, l_hat = random_instance(rng, catalog, n_nodes, repetition)
        req_in = 1
        req_out = n_d
        g = build_graph(0, placement, n_d, (req_in, req_out), t_hat, l_hat)
        path = select_composition(g, req_in, req_out)
        expected = enumerate_all_compositions(placement, n_d, req_in, req_out, t_hat, l_hat)
        if path is None:
            assert math.isinf(expected)
        else:
            assert path.cost == expected
            checked += 1
    assert checked > 100


# -- tie breaking ------------------------------------------------------------------

def test_ties_prefer_fewer_stages_then_lex():
    # Two zero-cost routes 1->3: the single s_13 at node 2 vs s_12+s_23.
    placement = placement_from({
        0: [Service(1, 2)],
        1: [Service(2, 3)],
        2: [Service(1, 3)],
    })
    t_hat, l_hat = providers({}, {})
    g = build_graph(0, placement, 3, (1, 3), t_hat, l_hat)
    path = select_composition(g, 1, 3)
    assert path.stages == ((Service(1, 3), 2),)


def test_lex_tie_between_equal_hosts():
    placement = placement_from({0: [], 1: [Service(1, 3)], 2: [Service(1, 3)]})
    t_hat, l_hat = providers({(0, 1): 5.0, (0, 2): 5.0}, {})
    g = build_graph(0, placement, 3, (1, 3), t_hat, l_hat)
    path = select_composition(g, 1, 3)
    assert path_hosts(path) == (1,)


def test_random_tie_breaking_varies_choice():
    placement = placement_from({0: [], 1: [Service(1, 3)], 2: [Service(1, 3)]})
    t_hat, l_hat = providers({(0, 1): 5.0, (0, 2): 5.0}, {})
    g = build_graph(0, placement, 3, (1, 3), t_hat, l_hat)
    hosts = set()
    for seed in range(20):
        path = select_composition(g, 1, 3, tie_rng=np.random.default_rng(seed))
        hosts.add(path_hosts(path)[0])
    assert hosts == {1, 2}


# -- cost monotonicity ----------------------------------------------------------------

def test_cost_never_decreases_when_inputs_grow():
    rng = np.random.default_rng(31)
    catalog = enumerate_services(4)
    for _ in range(40):
        placement, t_hat, l_hat = random_instance(rng, catalog, 3, 1)
        g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat)
        base = select_composition(g, 1, 4)
        if base is None:
            continue
        bump_node = int(rng.integers(0, 3))

        def l_hat_bumped(j, _base=l_hat, _n=bump_node):
            return _base(j) + (7.0 if j == _n else 0.0)

        g2 = build_graph(0, placement, 4, (1, 4), t_hat, l_hat_bumped)
        bumped = select_composition(g2, 1, 4)
        assert bumped.cost >= base.cost


# -- device-pair cost factorization -----------------------------------------------------

def test_stage_edges_between_same_devices_share_cost():
    placement = placement_from({
        0: [Service(1, 2), Service(2, 3)],
        1: [Service(2, 3), Service(3, 4), Service(2, 4)],
    })
    t_hat, l_hat = providers({(0, 1): 6.0}, {1: 3.0})
    g = build_graph(0, placement, 4, (1, 4), t_hat, l_hat)
    costs = set()
    for s_src in (Service(1, 2), Service(2, 3)):
        for v, c in g.edges_from(("s", s_src, 0)):
            if v[0] == "s" and v[2] == 1:
                costs.add(c)
    assert costs == {9.0}


# -- engine template against the reference ---------------------------------------------

def random_case(rng, n_d, n_nodes, repetition, ring=False, drop=0.0):
    catalog = enumerate_services(n_d, ring=ring)
    if drop:
        catalog = enumerate_services(n_d, ring=ring, excluded={
            s for s in catalog.services if rng.random() < drop})
    placement = assign_services(catalog, list(range(n_nodes)), repetition, rng)
    dist = rng.integers(0, 25, size=(n_nodes, n_nodes)).astype(float)
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    load = rng.integers(0, 15, size=n_nodes).astype(float)
    return placement, dist, load


def test_template_matches_reference_graph():
    rng = np.random.default_rng(77)
    for _ in range(150):
        n_d = int(rng.integers(3, 6))
        n_nodes = int(rng.integers(2, 6))
        repetition = int(rng.integers(1, 3))
        if repetition > n_nodes:
            continue
        placement, dist, load = random_case(rng, n_d, n_nodes, repetition)
        owner = int(rng.integers(n_nodes))
        req = (1, n_d)
        template = _GraphTemplate(placement, n_d, single_stage=False)
        fast = template.shortest(owner, *req, matrix_view(owner, dist, load))

        g = build_graph(owner, placement, n_d, req,
                        lambda i, j: dist[i, j], lambda j: load[j])
        ref = select_composition(g, *req)
        if ref is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.cost == ref.cost
            assert fast.stages == ref.stages

    # Random tie ranks (the same permutation the reference draws from its
    # tie_rng), ring catalogs whose type graph has cycles, many-way ties,
    # hosts the owner cannot reach, and arbitrary (input, output) pairs.
    rng = np.random.default_rng(81)
    found = 0
    for case in range(600):
        n_d = int(rng.integers(3, 7))
        n_nodes = int(rng.integers(2, 6))
        repetition = int(rng.integers(1, min(2, n_nodes) + 1))
        ring = bool(rng.integers(2))
        drop = 0.0 if ring else 0.5  # fewer direct services: longer, tied chains
        placement, dist, load = random_case(rng, n_d, n_nodes, repetition, ring, drop)
        if rng.integers(2):  # coarse costs, so that ties reach the later rules
            dist, load = np.floor(dist / 8.0), np.floor(load / 8.0)
        owner = int(rng.integers(n_nodes))
        for far in rng.choice(n_nodes, size=int(rng.integers(0, n_nodes)), replace=False):
            if far != owner:
                dist[far, :] = dist[:, far] = math.inf
                dist[far, far] = 0.0
        req = tuple(int(x) for x in rng.integers(1, n_d + 1, size=2))
        tie_seed = None if rng.integers(3) == 0 else case
        template = _GraphTemplate(placement, n_d, single_stage=False)
        ranks = (None if tie_seed is None else
                 np.random.default_rng(tie_seed).permutation(template.n_service_vertices))
        fast = template.shortest(owner, *req, matrix_view(owner, dist, load), ranks)
        g = build_graph(owner, placement, n_d, req,
                        lambda i, j: dist[i, j], lambda j: load[j])
        ref = select_composition(
            g, *req, tie_rng=None if tie_seed is None else np.random.default_rng(tie_seed))
        if ref is None:
            assert fast is None
        else:
            assert fast is not None
            assert fast.cost == ref.cost
            assert fast.stages == ref.stages
            found += 1
    assert found > 200


def test_template_single_stage_matches_reference():
    rng = np.random.default_rng(78)
    for _ in range(60):
        n_d = int(rng.integers(3, 6))
        placement, dist, load = random_case(rng, n_d, 4, 2)
        template = _GraphTemplate(placement, n_d, single_stage=True)
        fast = template.shortest(0, 1, n_d, matrix_view(0, dist, load))
        g = build_graph(0, placement, n_d, (1, n_d),
                        lambda i, j: dist[i, j], lambda j: load[j],
                        single_stage=True)
        ref = select_composition(g, 1, n_d)
        if ref is None:
            assert fast is None
        else:
            assert fast.cost == ref.cost
            assert fast.stages == ref.stages


def test_template_infinite_costs_hide_hosts():
    rng = np.random.default_rng(79)
    placement, dist, load = random_case(rng, 4, 4, 2)
    dist[:, 2] = math.inf
    dist[2, :] = math.inf
    dist[2, 2] = 0.0
    template = _GraphTemplate(placement, 4, single_stage=False)
    path = template.shortest(0, 1, 4, matrix_view(0, dist, load))
    if path is not None:
        assert 2 not in path_hosts(path)
    # Owner 0 plans 1 -> 3 over 1-2 at node 1, then 2-3 at node 2 or 3, and
    # node 1's timer row has no entry about node 2.  Under ``perfect`` that
    # is no route from node 1 to node 2: 2-3 runs at node 3 (cost 1 + 1 +
    # T[3] = 4), where pricing the hop T[1] + T[2] = 1.5 would pick node 2
    # (cost 3).  Under ``global`` the gossiped row holds no estimate of node
    # 2 (NaN): priced T[1] + T[2] = 3, like node 3's aged entry 1 + 2, node 2
    # wins the tie on rank; skipping the hop would leave node 2 reachable
    # only through the owner, and the tie to node 3.
    placement = placement_from({1: [Service(1, 2)], 2: [Service(2, 3)], 3: [Service(2, 3)]})
    template = _GraphTemplate(placement, 3, single_stage=False)
    know = Knowledge(4, track_matrix=True)
    know.timers[:] = [[0.0, 1.0, 2.0, 2.0], [1.0, 0.0, math.inf, 1.0],
                      [0.5, math.inf, 0.0, math.inf], [2.0, math.inf, math.inf, 0.0]]
    know.matrix_obs[0, 1] = 5.0
    know.rows = row_table(np.broadcast_to(know.timers, (4, 4, 4)), know.matrix_obs)
    perfect = template.shortest(0, 1, 3, owner_view("perfect", know, 0, 7.0, 1.0, [0.0] * 4))
    assert path_hosts(perfect) == (1, 3) and perfect.cost == 4.0
    gossip = template.shortest(0, 1, 3, owner_view("global", know, 0, 7.0, 1.0))
    assert path_hosts(gossip) == (1, 2) and gossip.cost == 6.0


def reachable_outputs(template: _GraphTemplate, req_in: int) -> frozenset[int]:
    """Output types some chain of hosted copies reaches from ``req_in``, read
    from the pruned edges at ``req_in``'s type vertex."""
    return frozenset(y for y in range(1, template.n_d + 1)
                     if y != req_in and template.heads_toward(y)[template.type_vertex[req_in]])


def chained_outputs(placement: ServicePlacement, req_in: int, single_stage: bool) -> set[int]:
    """The same set by a forward search over types."""
    step: dict[int, set[int]] = {}
    for s in placement.by_service:
        step.setdefault(s.input, set()).add(s.output)
    if single_stage:
        return step.get(req_in, set()) - {req_in}
    seen, frontier = set(), [req_in]
    while frontier:
        for y in step.get(frontier.pop(), ()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen - {req_in}


def test_reachability_closure():
    rng = np.random.default_rng(80)
    catalog = enumerate_services(7, excluded=set())
    placement = assign_services(catalog, list(range(6)), 1, rng)
    template = _GraphTemplate(placement, 7, single_stage=False)
    assert 7 in reachable_outputs(template, 1)
    exact = _GraphTemplate(placement, 7, single_stage=True)
    assert reachable_outputs(exact, 1) == frozenset(
        s.output for s in catalog.services if s.input == 1)
    # A ring without s_3_4 chains cyclically, except through 3 -> 4.
    ring = enumerate_services(6, excluded={Service(3, 4)}, ring=True)
    cyclic = assign_services(ring, list(range(4)), 2, rng)
    assert reachable_outputs(_GraphTemplate(cyclic, 6, single_stage=False), 1) == {2, 3}
    assert reachable_outputs(_GraphTemplate(cyclic, 6, single_stage=False), 4) == {5, 6, 1, 2, 3}
    for placement, n_d in ((placement, 7), (cyclic, 6)):
        for single_stage in (False, True):
            template = _GraphTemplate(placement, n_d, single_stage)
            for x in range(1, n_d + 1):
                assert reachable_outputs(template, x) == chained_outputs(placement, x,
                                                                         single_stage)
            for y in range(1, n_d + 1):
                # Kept: the goal, and each copy from whose output y is reachable.
                keep = {template.type_vertex[y]} | {
                    v for v, (s, _) in enumerate(template.copies)
                    if s.output == y or not single_stage and y in chained_outputs(
                        placement, s.output, False)}
                toward = template.heads_toward(y)
                for v, heads in enumerate(template.heads):
                    assert toward[v] == [h for h in heads if h in keep]
