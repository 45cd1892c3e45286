import numpy as np
import pytest

from oppcompose.service_model import Service, assign_services, enumerate_services


def functionality(service, n_d=None, ring=False):
    """Number of unit transformations the service subsumes; in a ring
    catalog type arithmetic wraps modulo ``n_d``."""
    k = service.output - service.input
    return k % n_d if ring else k


def can_chain(a, b):
    """True iff ``b`` can run directly after ``a``."""
    return a.output == b.input


def hosts_of(placement, service):
    return placement.by_service.get(service, ())


def total_copies(placement):
    return sum(len(v) for v in placement.by_node.values())


def test_enumerate_default_catalog_drops_excluded():
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    assert len(catalog.services) == 20
    assert Service(1, 7) not in catalog.services
    assert all(s.input < s.output for s in catalog.services)


def test_enumerate_two_types():
    catalog = enumerate_services(2)
    assert catalog.services == (Service(1, 2),)


def test_enumerate_four_types_is_all_pairs():
    catalog = enumerate_services(4)
    assert catalog.services == (
        Service(1, 2), Service(1, 3), Service(1, 4),
        Service(2, 3), Service(2, 4), Service(3, 4),
    )
    assert len(catalog.services) == 6


def test_enumerate_rejects_small_n_d():
    with pytest.raises(ValueError):
        enumerate_services(1)


def test_enumerate_rejects_bad_excluded():
    with pytest.raises(ValueError):
        enumerate_services(4, excluded={Service(1, 9)})


def test_ring_catalog_wraps():
    catalog = enumerate_services(20, ring=True)
    assert len(catalog.services) == 20
    assert Service(20, 1) in catalog.services
    assert functionality(Service(20, 1), catalog.n_d, catalog.ring) == 1
    assert functionality(Service(19, 1), catalog.n_d, catalog.ring) == 2


def test_functionality_values():
    assert functionality(Service(1, 2)) == 1
    assert functionality(Service(1, 3)) == 2
    assert functionality(Service(1, 4)) == 3


def test_can_chain():
    assert can_chain(Service(1, 2), Service(2, 4))
    assert not can_chain(Service(1, 2), Service(3, 4))
    assert can_chain(Service(1, 3), Service(3, 4))


def test_chain_functionality_sums_to_net_transformation():
    rng = np.random.default_rng(7)
    catalog = enumerate_services(9)
    by_input = {}
    for s in catalog.services:
        by_input.setdefault(s.input, []).append(s)
    for _ in range(200):
        chain = [catalog.services[rng.integers(len(catalog.services))]]
        while chain[-1].output in by_input and rng.random() < 0.7:
            nxt = by_input[chain[-1].output]
            chain.append(nxt[rng.integers(len(nxt))])
        assert all(can_chain(a, b) for a, b in zip(chain, chain[1:]))
        total = sum(functionality(s) for s in chain)
        assert total == chain[-1].output - chain[0].input


def test_request_pairs_min_k():
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    pairs = catalog.request_pairs(min_k=4)
    assert pairs == [(1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (3, 7)]


def test_request_pairs_ring_fixed_length():
    catalog = enumerate_services(20, ring=True)
    pairs = catalog.request_pairs(min_k=2, max_k=2)
    assert len(pairs) == 20
    assert (3, 5) in pairs
    assert (19, 1) in pairs
    assert (20, 2) in pairs


def test_uniform_assignment_counts():
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    rng = np.random.default_rng(3)
    placement = assign_services(catalog, list(range(20)), 2, rng)
    assert total_copies(placement) == 40
    for node in range(20):
        assert len(placement.services_at(node)) == 2
    for s in catalog.services:
        hosts = hosts_of(placement, s)
        assert len(hosts) == 2
        assert len(set(hosts)) == 2


def test_assignment_three_copies_three_per_node():
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    rng = np.random.default_rng(4)
    placement = assign_services(catalog, list(range(20)), 3, rng)
    assert total_copies(placement) == 60
    assert all(len(placement.services_at(n)) == 3 for n in range(20))


def test_single_service_single_node():
    catalog = enumerate_services(2)
    rng = np.random.default_rng(0)
    placement = assign_services(catalog, [0], 1, rng)
    assert hosts_of(placement, Service(1, 2)) == (0,)


def test_assignment_deterministic_per_seed():
    catalog = enumerate_services(7, excluded={Service(1, 7)})
    a = assign_services(catalog, list(range(20)), 2, np.random.default_rng(11))
    b = assign_services(catalog, list(range(20)), 2, np.random.default_rng(11))
    c = assign_services(catalog, list(range(20)), 2, np.random.default_rng(12))
    assert a.by_node == b.by_node
    assert a.by_node != c.by_node


def test_assignment_rejects_infeasible():
    catalog = enumerate_services(4)
    with pytest.raises(ValueError):
        assign_services(catalog, [0, 1], 3, np.random.default_rng(0))


def test_proportional_distribution():
    catalog = enumerate_services(20, ring=True)
    rng = np.random.default_rng(5)
    popularity = {s: (3.0 if s.input <= 10 else 1.0) for s in catalog.services}
    placement = assign_services(catalog, list(range(20)), 2, rng,
                                distribution="proportional", popularity=popularity)
    assert total_copies(placement) == 40
    assert all(len(placement.services_at(n)) == 2 for n in range(20))
    popular = [s for s in catalog.services if popularity[s] == 3.0]
    unpopular = [s for s in catalog.services if popularity[s] == 1.0]
    assert all(len(hosts_of(placement, s)) == 3 for s in popular)
    assert all(len(hosts_of(placement, s)) == 1 for s in unpopular)
