"""Scripted requests and fixed service times, for tests.

The engine draws each run's requests from one Poisson stream per node and
each service time from ``rng.exponential(mean_exec_s)``.  A test that needs
a request at a given time, or a stage of an exact length, drives the engine
from outside instead: :func:`scripted_engine` turns generation off
(``request_rate_per_min = 0``), pushes one generation event per scripted
request, carrying its origin only, and swaps in a pattern whose draws hand
out the script's (input, output) pairs in the order those events pop.  With
the rate at 0 and the pattern scripted, the engine's ``rng`` draws nothing
but service times, and ``fixed_exec`` makes each of them ``mean_exec_s``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from types import SimpleNamespace

from oppcompose import sim_core
from oppcompose.contact_engine import ContactTrace
from oppcompose.sim_core import SimConfig, _Engine


def scripted_engine(config: SimConfig, contacts: ContactTrace, script,
                    fixed_exec: bool = False) -> _Engine:
    """An engine for ``config`` over ``contacts`` whose requests are
    ``script``'s (time, origin, input, output) rows and, with ``fixed_exec``,
    each of whose service times is ``config.mean_exec_s``.

    Requests at one time are made in script order.
    """
    # Generation events pop in (time, push order), and the pairs go out in
    # that order; the sort is stable.
    script = sorted(script, key=lambda row: row[0])
    pairs = iter([(req_in, req_out) for _, _, req_in, req_out in script])
    pattern = SimpleNamespace(draw=lambda rng: next(pairs))
    engine = _Engine(dataclasses.replace(config, request_rate_per_min=0.0, pattern=pattern),
                     contacts)
    for t, origin, _, _ in script:
        engine.push(t, sim_core._P_GENERATE, origin)
    if fixed_exec:
        engine.rng = SimpleNamespace(exponential=lambda scale: scale)
    return engine


def run_scripted(config: SimConfig, contacts: ContactTrace, script,
                 fixed_exec: bool = False) -> Sequence[Mapping]:
    """The records of :func:`scripted_engine`'s run."""
    return scripted_engine(config, contacts, script, fixed_exec).run()
