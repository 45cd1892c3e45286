"""Per-layer spans for the traced benchmark run.

The wrappers are installed from outside the package by replacing module and
class attributes at run time, so the simulator itself carries no
instrumentation.  Each wrapped call records its count, its total time and its
self time (total minus the time of wrapped calls made inside it); an optional
hook adds to a per-span tally, such as hits or produced items.

Patch the names the engine resolves at call time: ``sim_core`` and
``experiments`` import ``exchange_all``, ``should_relay`` and
``contacts_from_positions`` by name, so wrapping them in their defining
modules would never be seen.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    """Call counts, total and self time, and tallies per span name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tally: dict[str, float] = defaultdict(float)
        self.spans: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``before(args)`` and ``after(args, result)`` return an amount added to
        ``tally[name]``; ``before`` sees the state ahead of the call.
        """
        self.spans.add(name)
        stack, calls, total, self_s, tally = (self._stack, self.calls, self.total,
                                              self.self_s, self.tally)

        def wrapper(*args, **kwargs):
            if before is not None:
                tally[name] += before(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                total[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            calls[name] += 1
            if after is not None:
                tally[name] += after(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        """Return ``fn`` wrapped to count calls only; its time stays with the caller."""
        self.spans.add(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, name, timed=True, **hooks):
        """Replace ``owner.attr`` by a wrapped version; note it missing if absent."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(label)
            return
        wrapped = self.wrap(name, original, **hooks) if timed else self.count(name, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, oppcompose) -> None:
    """Wrap the layer entry points of the ``oppcompose`` package."""
    sim_core = oppcompose.sim_core
    experiments = oppcompose.experiments
    engine = getattr(sim_core, "_Engine", None)
    template = getattr(sim_core, "_GraphTemplate", None)
    contact_trace = getattr(oppcompose.contact_engine, "ContactTrace", None)

    tracer.patch(experiments, "make_trace", "make_trace",
                 after=lambda a, r: r.positions.shape[0] * r.positions.shape[1])
    tracer.patch(experiments, "contacts_from_positions", "contacts",
                 after=lambda a, r: len(r.events))
    tracer.patch(contact_trace, "in_contact", "in_contact", after=lambda a, r: bool(r))
    tracer.patch(sim_core, "exchange_all", "exchange_all")
    tracer.patch(oppcompose.knowledge, "exchange", "exchange", after=lambda a, r: bool(r))
    tracer.patch(engine, "_distances", "distances",
                 before=lambda a: a[1] in getattr(a[0], "_dist_cache", ()))
    tracer.patch(template, "shortest", "shortest", after=lambda a, r: r is not None)
    tracer.patch(sim_core, "should_relay", "should_relay", after=lambda a, r: bool(r))
    tracer.patch(engine, "push", "push", timed=False)
    tracer.patch(engine, "sweep", "sweep")
    tracer.patch(engine, "_neighbors", "neighbors")
    tracer.patch(engine, "on_boundary", "boundary")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric name -> (spans it needs, value from the tracer); units are in BENCHMARK.json
LAYER_METRICS = {
    "mobility.trace_s": (("make_trace",), lambda t: t.total["make_trace"]),
    "mobility.samples": (("make_trace",), lambda t: t.tally["make_trace"]),
    "contact_engine.extract_s": (("contacts",), lambda t: t.total["contacts"]),
    "contact_engine.events": (("contacts",), lambda t: t.tally["contacts"]),
    "contact_engine.in_contact_calls": (("in_contact",), lambda t: t.calls["in_contact"]),
    "contact_engine.in_contact_s": (("in_contact",), lambda t: t.total["in_contact"]),
    "contact_engine.in_contact_hit_frac": (
        ("in_contact",), lambda t: _frac(t.tally["in_contact"], t.calls["in_contact"])),
    "knowledge.exchange_all_calls": (("exchange_all",), lambda t: t.calls["exchange_all"]),
    "knowledge.exchange_all_s": (("exchange_all",), lambda t: t.total["exchange_all"]),
    "knowledge.exchange_calls": (("exchange",), lambda t: t.calls["exchange"]),
    "knowledge.exchange_changed_frac": (
        ("exchange",), lambda t: _frac(t.tally["exchange"], t.calls["exchange"])),
    "knowledge.cost_matrix_calls": (("distances",), lambda t: t.calls["distances"]),
    "knowledge.cost_matrix_s": (("distances",), lambda t: t.total["distances"]),
    "knowledge.cost_matrix_hit_frac": (
        ("distances",), lambda t: _frac(t.tally["distances"], t.calls["distances"])),
    "composition.paths": (("shortest",), lambda t: t.calls["shortest"]),
    "composition.path_s": (("shortest",), lambda t: t.total["shortest"]),
    "composition.path_found_frac": (
        ("shortest",), lambda t: _frac(t.tally["shortest"], t.calls["shortest"])),
    "forwarding.relay_checks": (("should_relay",), lambda t: t.calls["should_relay"]),
    "forwarding.relay_s": (("should_relay",), lambda t: t.total["should_relay"]),
    "forwarding.relay_frac": (
        ("should_relay",), lambda t: _frac(t.tally["should_relay"], t.calls["should_relay"])),
    "sim_core.events": (("push",), lambda t: t.calls["push"]),
    "sim_core.sweeps": (("sweep",), lambda t: t.calls["sweep"]),
    "sim_core.sweep_self_s": (("sweep",), lambda t: t.self_s["sweep"]),
    "sim_core.neighbors_s": (("neighbors",), lambda t: t.total["neighbors"]),
    "sim_core.boundary_self_s": (("boundary",), lambda t: t.self_s["boundary"]),
    "sim_core.loop_self_s": (("run",), lambda t: t.self_s["run"]),
    "experiments.write_s": (("write",), lambda t: t.total["write"]),
    "experiments.summarize_s": (("summarize",), lambda t: t.total["summarize"]),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric whose spans were all installed."""
    return {name: float(value(tracer)) for name, (spans, value) in LAYER_METRICS.items()
            if all(span in tracer.spans for span in spans)}
