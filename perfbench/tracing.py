"""Spans around coaldyn's public calls, recorded from outside the package.

The traced run replaces the public names that ``coaldyn.experiments``
calls (``build_chain``, ``stationary``, ...) with wrappers that record a
span around the real call, then runs ``run_experiment`` unchanged.  Spans
live in memory as (name, start, end, parent, attrs) and are written out
when the run ends.

Before any call that evaluates fitness over the whole grid for parameters
not seen yet in this process (``build_chain``, ``monte_carlo``,
``flow_field``), the wrapper evaluates ``fitness_at`` at every composition
in a ``sampling.fitness`` span.  The cold cost of filling the fitness
caches is then charged to the sampling layer, and the wrapped call runs
with those caches warm.  Per-state calls (``informed_field``,
``replicator_field``, ``information_cost``, ...) get no such pass, since
they touch only a few compositions.  Each span that evaluates fitness
states in its ``fitness_at`` attribute whether its parameters were warmed
("warm") or the call may fill the caches itself ("cold").
"""

from __future__ import annotations

import resource
from contextlib import contextmanager
from time import perf_counter

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRICS = {
    "sampling.fitness": "sampling.fitness_s",
    "markov.build": "markov.build_s",
    "markov.stationary": "markov.stationary_s",
    "markov.gradient": "markov.gradient_s",
    "markov.mc": "markov.mc_s",
    "replicator.flow_field": "replicator.flow_field_s",
    "replicator.fixed_points": "replicator.fixed_points_s",
    "replicator.pointwise": "replicator.pointwise_s",
    "informed.field": "informed.field_s",
    "informed.gains": "informed.gains_s",
    "experiments.write": "experiments.write_s",
    "experiments.run": "experiments.self_s",
}

ROOT = "experiments.run"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str, attrs: dict) -> dict:
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None, "attrs": attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self.open(name, attrs)
        try:
            yield attrs
        finally:
            self.close(rec)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def install(tracer: Tracer) -> None:
    """Wrap the public calls that coaldyn.experiments makes in spans."""
    import coaldyn.experiments as ex
    from coaldyn import fitness_at

    warmed = set()

    def fitness_state(params) -> str:
        return "warm" if params in warmed else "cold"

    def warm(params) -> None:
        if params in warmed:
            return
        z = params.z
        with tracer.span("sampling.fitness", z=z, alpha=params.alpha,
                         fitness_at="cold") as attrs:
            for i_c in range(z + 1):
                for i_d in range(z + 1 - i_c):
                    fitness_at(params, i_c, i_d)
            attrs["states"] = (z + 1) * (z + 2) // 2
        warmed.add(params)

    def spanned(name, fn, evaluates_fitness=False):
        # Called once per state in some loops, so it skips the context manager.
        def wrapper(*args, **kw):
            attrs = {"call": fn.__name__}
            if evaluates_fitness:
                attrs["fitness_at"] = fitness_state(args[0])
            rec = tracer.open(name, attrs)
            try:
                return fn(*args, **kw)
            finally:
                tracer.close(rec)
        return wrapper

    build_chain, stationary, monte_carlo = ex.build_chain, ex.stationary, ex.monte_carlo
    flow_field, find_fixed_points = ex.flow_field, ex.find_fixed_points

    def traced_build_chain(params, **kw):
        warm(params)
        with tracer.span("markov.build", z=params.z, alpha=params.alpha,
                         fitness_at=fitness_state(params)) as attrs:
            model = build_chain(params, **kw)
        attrs["states"] = model.n_states
        attrs["nnz"] = int(model.transitions.nnz)
        return model

    def traced_stationary(model, **kw):
        before = peak_rss_mb()
        with tracer.span("markov.stationary", z=model.z, alpha=model.params.alpha) as attrs:
            result = stationary(model, **kw)
        attrs.update(method=result.method, iterations=result.iterations,
                     reported_residual=result.residual,
                     rss_rise_mb=peak_rss_mb() - before)
        return result

    def traced_monte_carlo(params, steps, seed, **kw):
        warm(params)
        with tracer.span("markov.mc", z=params.z, steps=steps, seed=seed,
                         fitness_at=fitness_state(params)):
            return monte_carlo(params, steps, seed, **kw)

    def traced_flow_field(params):
        warm(params)
        with tracer.span("replicator.flow_field", z=params.z, alpha=params.alpha,
                         fitness_at=fitness_state(params)):
            return flow_field(params)

    def traced_find_fixed_points(params, **kw):
        with tracer.span("replicator.fixed_points", z=params.z, alpha=params.alpha,
                         fitness_at=fitness_state(params)) as attrs:
            points = find_fixed_points(params, **kw)
        attrs["found"] = len(points)
        return points

    ex.build_chain = traced_build_chain
    ex.stationary = traced_stationary
    ex.monte_carlo = traced_monte_carlo
    ex.flow_field = traced_flow_field
    ex.find_fixed_points = traced_find_fixed_points
    ex.informed_field = spanned("informed.field", ex.informed_field, evaluates_fitness=True)
    ex.selection_gradient = spanned("markov.gradient", ex.selection_gradient)
    for name in ("replicator_field", "information_cost", "mean_return"):
        setattr(ex, name, spanned("replicator.pointwise", getattr(ex, name), evaluates_fitness=True))
    for name in ("marginal_gains", "classify_state"):
        setattr(ex, name, spanned("informed.gains", getattr(ex, name)))
    for name in ("write_csv", "write_json", "simplex_svg"):
        setattr(ex, name, spanned("experiments.write", getattr(ex, name)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced run."""
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    counts = {"sampling.states": 0, "markov.nnz": 0, "markov.stationary_iters": 0,
              "markov.reported_residual": 0.0, "markov.stationary_rss_mb": 0.0,
              "mc_steps": 0, "replicator.fixed_points_found": 0}
    for span, own in zip(tracer.spans, tracer.self_times()):
        out[SELF_TIME_METRICS[span["name"]]] += own
        a = span["attrs"]
        if span["name"] == "sampling.fitness":
            counts["sampling.states"] += a["states"]
        elif span["name"] == "markov.build":
            counts["markov.nnz"] += a["nnz"]
        elif span["name"] == "markov.stationary":
            counts["markov.stationary_iters"] += a["iterations"]
            counts["markov.reported_residual"] = max(counts["markov.reported_residual"],
                                                     a["reported_residual"])
            counts["markov.stationary_rss_mb"] = max(counts["markov.stationary_rss_mb"],
                                                     a["rss_rise_mb"])
        elif span["name"] == "markov.mc":
            counts["mc_steps"] += a["steps"]
        elif span["name"] == "replicator.fixed_points":
            counts["replicator.fixed_points_found"] += a["found"]
    mc_steps = counts.pop("mc_steps")
    out.update(counts)
    out["markov.mc_steps_per_s"] = mc_steps / out["markov.mc_s"] if mc_steps else 0.0
    traced_wall = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == ROOT)
    out["trace.coverage"] = 1.0 - out["experiments.self_s"] / traced_wall
    return out
