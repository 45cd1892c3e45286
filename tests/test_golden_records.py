"""Pinned records of a scripted scenario, one run per engine path.

The digests are the sha256 of ``write_records_csv`` output.  A change that
moves one byte of these records fails here; a change meant to move them
re-pins the digests and says why.  Contacts come from ``rng.uniform`` and
``rng.integers``, and :func:`scripted.run_scripted` scripts the requests
and fixes the execution times, so no mobility generator and no libm
transcendental enters: the digests do not depend on the CPU.  The one
exception, a Lévy walk of 80 nodes under ``global`` awareness (where half
the nodes host services), reads a mobility generator, as the benchmark's
pinned digests do.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from oppcompose import experiments, sim_core
from oppcompose.contact_engine import ContactTrace
from oppcompose.service_model import assign_services, enumerate_services
from oppcompose.sim_core import (_Engine, RequestPattern, SimConfig, read_records_csv, run,
                                 write_records_csv)
from pricing_reference import cost_matrices, matrix_view
from scripted import run_scripted, scripted_engine

N_NODES = 8
DURATION = 7200.0

GOLDEN = {
    "minimal": "8b0da6337018bdc01a27ea9ea42b7fe3e54a2d4605b012e13a810c0eabb4b99b",
    "local": "5378de7ab09bf9981229718e00e9cb4c9c0cadc5d58b6a1fa1d239fd878d8979",
    "global": "04c4c86bdb10608b19273eae4d36895c49b86954e98a37eb82abc3bc49d2cc09",
    "perfect": "0ff080fb65565affadf8ba7f333d6e247d17686f6945a9c7f7bc47bc14887bc8",
    "exact_match": "68b6a417ad18407cce55fcb598784b54fa8d178af699310af2d609e0fbf5eab9",
    "TT": "aeda2abe19f5d0bd06c7b98c5243ede9d7fe5185e480184e61f4105148deec23",
    "EBR": "2724dd43beefc0924ca36d1703ec9510706857e791716ce0cff6f27aa0007fc8",
    "direct": "0c8f3b4e95f37a56960acaea396d2e3b9beea94a595aba6f2b8a987362dd224b",
    "nla": "f3eaa99b66d1be43af085574d3443bdfea6dd25818222bb027cf6866d8667c4b",
}

# Twelve nodes of which only four host services, with tight deadlines and
# long executions: most owners price from a view of nodes other than
# themselves, and loads and gossip change decisions.
NONHOST_NODES, NONHOST_HOSTS = 12, (1, 4, 6, 10)
NONHOST_SIM = {"timeout_s": 400.0, "mean_exec_s": 120.0}
GOLDEN_NONHOST = {
    "local": "91f06501606bf957c6f1ff1cd93fb2796057dbbef9e6c094de7e21ac28d22ece",
    "global": "1d9dce594d973ca1e5ce5d32deab0451a5ef3ab585d3ab48208313436588f722",
    "perfect": "250ca3c5edde462e05982b279ad4a20cea9354a89af5d8258d7b83b7a378b559",
}

# The fig6 preset cut to 4 500 s, over 80 nodes of which 40 host services.
LEVY_GLOBAL = {
    "mobility.n_nodes": 80,
    "mobility.duration": 4500.0,
    "mobility.params.speed_classes": [[60, [1.0, 1.0]], [20, [10.0, 10.0]]],
    "sim.awareness": "global",
}
GOLDEN_LEVY_GLOBAL = "fec6be0823ed9c785f3783878d43b5d71f1072a1a51f54bf96d78411319d51c1"

RUNS = {
    "minimal": {"awareness": "minimal"},
    "local": {"awareness": "local"},
    "global": {"awareness": "global"},
    "perfect": {"awareness": "perfect"},
    "exact_match": {"exact_match": True},
    "TT": {"scheme": "TT"},
    "EBR": {"scheme": "EBR"},
    "direct": {"scheme": "direct"},
    "nla": {"load_aware": False},
}


def scenario(n_nodes=N_NODES, hosts=None):
    """Every pair meets now and then, so co-located groups come and go.

    ``hosts`` are the nodes that host services, every node by default.
    Returns the contacts, the config's keyword arguments and the request
    script.
    """
    rng = np.random.default_rng(2024)
    events = []
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            t = float(rng.uniform(0.0, 600.0))
            while True:
                end = t + float(rng.integers(30, 400))
                if end > DURATION:
                    break
                events.append((t, end, a, b))
                t = end + float(rng.uniform(200.0, 1500.0))
    contacts = ContactTrace(events, n_nodes, DURATION)
    catalog = enumerate_services(5)
    placement = assign_services(catalog, list(range(n_nodes)) if hosts is None else list(hosts),
                                2, np.random.default_rng(7))
    pattern = RequestPattern.min_functionality(catalog, 2)
    requests = []
    for _ in range(60):
        req_in, req_out = pattern.pairs[int(rng.integers(len(pattern.pairs)))]
        requests.append((float(rng.integers(0, 6000)), int(rng.integers(n_nodes)),
                         req_in, req_out))
    base = dict(catalog=catalog, placement=placement, pattern=pattern, delay_warmup_s=0.0)
    return contacts, base, tuple(sorted(requests))


def test_scenario_forms_groups_of_three_or_more():
    contacts, _, _ = scenario()
    biggest = max(max(Counter(v for pair in pairs for v in pair).values(), default=0)
                  for pairs in contacts.boundary_pairs(30.0))
    assert biggest >= 2  # some node meets two peers at once


def assert_stages_shared(records):
    """Every distinct stages text is one string, shared by its rows."""
    stages = [rec["stages"] for rec in records]
    assert len({id(text) for text in stages}) == len(set(stages)) > 1


@pytest.mark.parametrize("name", sorted(RUNS))
def test_records_match_pinned_digest(name, tmp_path):
    contacts, base, script = scenario()
    records = run_scripted(SimConfig(**base, **RUNS[name]), contacts, script, fixed_exec=True)
    assert_stages_shared(records)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]
    # Read back and written again, the file keeps its bytes.
    write_records_csv(read_records_csv(path), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


# The scenario with longer executions and 24 more requests, made in the last
# 960 s, whose deadlines fall after the end: the run ends with requests in
# service, queued, carried toward a stage and carried home as results.
GOLDEN_END_IN_FLIGHT = "1ce962e4eba5ab07e12e4708107bbb7f81632a3e6a383bfeaffcc5b0001cdad3"


def test_requests_in_flight_at_the_end_keep_their_rows(tmp_path):
    contacts, base, script = scenario()
    late = tuple((DURATION - 40.0 * k, k % 4, *script[k][2:]) for k in range(1, 25))
    engine = scripted_engine(SimConfig(**base, mean_exec_s=200.0), contacts, script + late,
                             fixed_exec=True)
    records = engine.run()
    places = Counter()
    for queue, carried in zip(engine.queues, engine.carried):
        places.update(["executing"] * len(queue[:1]) + ["queued"] * len(queue[1:]))
        places.update("result" if rec.current_input == rec.output else "carried"
                      for rec in carried)
    assert places == {"executing": 4, "queued": 4, "carried": 4, "result": 2}
    in_flight = [rec for rec in records if rec["status"] == "in-flight"]
    assert len(in_flight) == 14 and any(rec["stages"] for rec in in_flight)
    assert all(rec["completed_s"] is None and rec["delay_s"] is None for rec in in_flight)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_END_IN_FLIGHT


@pytest.mark.parametrize("awareness", sorted(GOLDEN_NONHOST))
def test_nonhost_owner_records_match_pinned_digest(awareness, tmp_path):
    contacts, base, script = scenario(NONHOST_NODES, NONHOST_HOSTS)
    hosting = {v for hosts in base["placement"].by_service.values() for v in hosts}
    assert hosting == set(NONHOST_HOSTS)
    assert {origin for _, origin, _, _ in script} - hosting
    records = run_scripted(SimConfig(**base, **NONHOST_SIM, awareness=awareness), contacts,
                           script, fixed_exec=True)
    assert_stages_shared(records)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_NONHOST[awareness]


def test_global_levy_records_match_pinned_digest(tmp_path):
    spec = experiments._apply_overrides(experiments.preset("fig6").to_dict(), LEVY_GLOBAL)
    config, contacts = experiments.prepare_run(spec, 0)
    hosting = {v for hosts in config.placement.by_service.values() for v in hosts}
    assert contacts.n_nodes == 80 and len(hosting) == 40
    records = run(config, contacts)
    assert_stages_shared(records)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_LEVY_GLOBAL


@pytest.mark.parametrize("name", ["local", "global", "perfect", "exact_match", "nla"])
def test_reused_plans_match_a_fresh_search(name, monkeypatch, tmp_path):
    # Views are built once per (owner, unit) and plans reused within the
    # unit.  Every answer, reused or not, must equal a search on the n x n
    # reference priced afresh from the engine's state at the time of the
    # call (under ``perfect``, with the live backlog).
    contacts, base, script = scenario()
    compute_path = _Engine.compute_path
    answers = Counter()

    def checked(engine, node, req_in, req_out):
        reused = (node, req_in, req_out) in engine._plans
        path = compute_path(engine, node, req_in, req_out)
        cfg, template = engine.cfg, engine.template
        live_loads = np.array([len(engine.queues[j]) * cfg.mean_exec_s
                               for j in range(engine.n)])
        dist, load = cost_matrices(cfg.awareness, engine.know, node, engine.unit_index,
                                   cfg.unit_s, live_loads)
        fresh = template.shortest(node, req_in, req_out,
                                  matrix_view(node, dist, load, cfg.load_aware))
        assert path == fresh
        answers[reused] += 1
        return path

    monkeypatch.setattr(_Engine, "compute_path", checked)
    records = run_scripted(SimConfig(**base, **RUNS[name]), contacts, script, fixed_exec=True)
    assert answers[False] > 0
    # ``perfect`` prices the live backlog, so it reuses no plan.
    if name != "perfect":
        assert answers[True] > 0
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


def test_minimal_awareness_keeps_no_knowledge(monkeypatch, tmp_path):
    # minimal prices read no timer, load or matrix, so no boundary runs the
    # closure; the records stay as pinned.
    calls = []
    exchange_all = sim_core.exchange_all

    def counted(know, pairs, now, **kwargs):
        calls.append(now)
        return exchange_all(know, pairs, now, **kwargs)

    monkeypatch.setattr(sim_core, "exchange_all", counted)
    contacts, base, script = scenario()
    closures = {}
    for name in ("minimal", "local"):
        calls.clear()
        records = run_scripted(SimConfig(**base, **RUNS[name]), contacts, script, fixed_exec=True)
        path = tmp_path / f"{name}.csv"
        write_records_csv(records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]
        closures[name] = len(calls)
    assert closures["minimal"] == 0 and closures["local"] > 0
