"""Experiment recipes: dispatch, deterministic writers, and run manifests.

Every handler is a pure function of its ExperimentConfig: CSV and JSON
outputs are byte-identical across reruns, and row order is fixed by the
state indexing.  Every CSV row and SVG ``shade`` entry is a tuple of
Python ints, floats and labels, with per-state columns taken from numpy
by ``.tolist()``; an undefined value is NaN, never None.  `write_csv`
writes each cell as its ``str()``, the shortest round-trip form for a
float and ``nan`` for NaN.  The i_C, i_D, x and y cells of a state are
the same text in every per-state CSV, so `_state_prefix` formats them
once per population size and rows lead with that one string; likewise
`informed-map` formats each (N, k) gain cell once.  `sweep-alpha`
builds, solves and writes each panel in a worker process, up to
min(panels, usable CPUs) of them at once, and collects the panels in alpha
order, so no output depends on the worker count.  Each run finishes by
writing ``manifest.json`` with the resolved configuration, package version,
and a checksum per output file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError
from .game import GameParams, effective_shares, group_size
from .informed import gains_on_grid, informed_field_grid
# Not called here, but perfbench/tracing.py wraps these six names on this module:
# replicator_field, information_cost, mean_return, informed_field, marginal_gains, classify_state.
from .informed import classify_state, informed_field, marginal_gains  # noqa: F401
from .markov import (StateIndex, _check_capacity, _summarize, build_chain, monte_carlo,
                     selection_gradient, stationary)
from .replicator import find_fixed_points, flow_field, replicator_field_grid
from .replicator import information_cost, mean_return, replicator_field  # noqa: F401
from .sampling import _means_at
from .svg import simplex_svg


# --- deterministic emission ---------------------------------------------

def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _alpha_tag(alpha: float) -> str:
    return f"{alpha:g}"


@dataclass(frozen=True)
class RunManifest:
    """Resolved-config echo plus checksums for every emitted file."""

    config: dict
    version: str
    created: str
    outputs: dict
    path: Path


def _config_echo(cfg: ExperimentConfig) -> dict:
    params = dataclasses.asdict(cfg.params)
    benefit = params.pop("benefit")
    benefit["knots"] = [list(k) for k in benefit.get("knots", ())]
    echo = {
        "game": params,
        "benefit": benefit,
        "experiment": {
            "name": cfg.experiment,
            "values": list(cfg.values),
            "seed": cfg.seed,
            "steps": cfg.steps,
            "burn_in": cfg.burn_in,
            "mutation_form": cfg.mutation_form,
            "method": cfg.method,
            "z_pair": list(cfg.z_pair),
            "group_size": cfg.group_size,
            "y_slice": cfg.y_slice,
            "resolution": cfg.resolution,
        },
        "output": {"dir": str(cfg.out_dir), "formats": list(cfg.formats)},
        "notes": [
            "theta and theta_prime default to 1 by decision; set them in [game] to override",
            "x-summaries restrict to states with at least one member and renormalize",
        ],
    }
    return echo


# --- shared pieces --------------------------------------------------------

@lru_cache(maxsize=1)
def _state_prefix(z: int) -> tuple[str, ...]:
    """The "i_C,i_D,x,y" text of every state, in state order, x nan where no member exists.

    Formatted once per population size: every panel of a sweep shares it.
    """
    index = StateIndex.for_population(z)
    i_m = index.i_c_of + index.i_d_of
    x = np.divide(index.i_c_of, i_m, out=np.full(index.n_states, np.nan), where=i_m > 0)
    y = (np.arange(z + 1) / z).tolist()
    return tuple(f"{i_c},{i_d},{xv},{y[m]}" for i_c, i_d, xv, m in zip(
        index.i_c_of.tolist(), index.i_d_of.tolist(), x.tolist(), i_m.tolist()))


def _prefix_of(z: int, i_c: np.ndarray, i_d: np.ndarray):
    """The `_state_prefix` text of the states (i_c, i_d), in the given order."""
    return map(_state_prefix(z).__getitem__, StateIndex.for_population(z).index_of(i_c, i_d).tolist())


def _simplex_arrows(z: int, i_c, i_d, d_c, d_d, speed) -> list[tuple[int, int, float, float, float]]:
    """Arrows (i_c, i_d, d_c, d_d, speed) on a lattice of about 14 states per edge.

    Keeps the states whose counts are both multiples of the stride and that
    move at all, in the given order.
    """
    stride = max(1, z // 14)
    keep = (i_c % stride == 0) & (i_d % stride == 0) & (speed > 0.0)
    return list(zip(*(np.asarray(col)[keep].tolist() for col in (i_c, i_d, d_c, d_d, speed))))


def _stationary_outputs(cfg: ExperimentConfig, params: GameParams, tag: str,
                        with_gradient: bool) -> tuple[list[Path], dict]:
    model = build_chain(params, mutation_form=cfg.mutation_form)
    result = stationary(model, method=cfg.method)
    index = model.index
    written: list[Path] = []

    # Each column list is built inside the call that writes it, so none
    # outlives its writer: hoisting them raises the sweep's peak RSS.
    if "csv" in cfg.formats:
        path = cfg.out_dir / f"stationary{tag}.csv"
        write_csv(path, ("i_C", "i_D", "x", "y", "pi"),
                  zip(_state_prefix(index.z), result.pi.tolist()))
        written.append(path)

    grad = None
    if with_gradient:
        grad = selection_gradient(model)
        if "csv" in cfg.formats:
            path = cfg.out_dir / f"gradient{tag}.csv"
            write_csv(path, ("i_C", "i_D", "x", "y", "grad_x", "grad_y", "speed"),
                      zip(_state_prefix(index.z), grad.grad_x.tolist(), grad.grad_y.tolist(),
                          grad.speed.tolist()))
            written.append(path)

    if "svg" in cfg.formats:
        arrows = None
        if grad is not None:
            arrows = _simplex_arrows(params.z, index.i_c_of, index.i_d_of,
                                     grad.drift_c, grad.drift_d, grad.speed)
        path = cfg.out_dir / f"panel{tag}.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(simplex_svg(
                params.z, arrows=arrows, label=f"alpha = {params.alpha:g}",
                shade=zip(index.i_c_of.tolist(), index.i_d_of.tolist(), result.pi.tolist())))
        written.append(path)

    summary = {
        "alpha": params.alpha,
        "mean_x": _json_safe(result.summary.mean_x),
        "std_x": _json_safe(result.summary.std_x),
        "mean_y": result.summary.mean_y,
        "std_y": result.summary.std_y,
        "member_mass": result.summary.member_mass,
        "residual": result.residual,
        "iterations": result.iterations,
        "method": result.method,
    }
    return written, summary


# --- handlers -------------------------------------------------------------

def _run_field(cfg: ExperimentConfig) -> list[Path]:
    params = cfg.params
    field = flow_field(params)
    written: list[Path] = []
    if "csv" in cfg.formats:
        path = cfg.out_dir / "field.csv"
        write_csv(path, field.COLUMNS, zip(
            _prefix_of(params.z, field.i_c, field.i_d),
            *(col.tolist() for col in (field.x_dot, field.y_dot, field.mean_r, field.mean_b,
                                       field.k_exact, field.k_dropped))))
        written.append(path)

    points = find_fixed_points(params, grid_resolution=cfg.resolution)
    if "json" in cfg.formats:
        payload = {
            "alpha": params.alpha,
            "z": params.z,
            "fixed_points": [
                {
                    "x": p.x,
                    "y": p.y,
                    "kind": p.kind,
                    "residual": p.residual,
                    "eigenvalues": [{"re": e.real, "im": e.imag} for e in p.eigenvalues],
                    "jacobian": [list(row) for row in p.jacobian],
                }
                for p in points
            ],
        }
        path = cfg.out_dir / "fixed_points.json"
        write_json(path, payload)
        written.append(path)

    if "svg" in cfg.formats:
        z = params.z
        # Composition displacement of the flow: d(i_m) = z y_dot and
        # d(i_c) = x d(i_m) + i_m x_dot.
        d_m = z * field.y_dot
        d_c = field.x * d_m + (field.i_c + field.i_d) * field.x_dot
        arrows = _simplex_arrows(z, field.i_c, field.i_d, d_c, d_m - d_c,
                                 np.hypot(field.x_dot, field.y_dot))
        path = cfg.out_dir / "field.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(simplex_svg(z, arrows=arrows, label=f"alpha = {params.alpha:g}"))
        written.append(path)
    return written


def _run_stationary(cfg: ExperimentConfig) -> list[Path]:
    written, summary = _stationary_outputs(cfg, cfg.params, "", with_gradient=False)
    if "json" in cfg.formats:
        path = cfg.out_dir / "stationary_summary.json"
        write_json(path, summary)
        written.append(path)
    return written


def _run_sweep_alpha(cfg: ExperimentConfig) -> list[Path]:
    """One panel per alpha in a pool of min(panels, usable CPUs) worker processes.

    Forked workers inherit the imported package and the state text, formatted
    here once for every panel; spawned ones would import and format both again.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _check_capacity(cfg.params.z)  # an oversized sweep fails before its state text is formatted
    _state_prefix(cfg.params.z)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    start = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(min(len(cfg.values), cpus), mp_context=multiprocessing.get_context(start))
    try:
        results = list(pool.map(
            _stationary_outputs, repeat(cfg),
            [dataclasses.replace(cfg.params, alpha=alpha) for alpha in cfg.values],
            [f"_alpha{_alpha_tag(alpha)}" for alpha in cfg.values], repeat(True)))
    finally:
        # After a failed panel, panels not yet started are dropped, not run.
        pool.shutdown(cancel_futures=True)
    written = [path for paths, _ in results for path in paths]
    panels = [summary for _, summary in results]
    if "json" in cfg.formats:
        payload = {
            "alpha": [p["alpha"] for p in panels],
            "mean_x": [p["mean_x"] for p in panels],
            "mean_y": [p["mean_y"] for p in panels],
            "std_x": [p["std_x"] for p in panels],
            "std_y": [p["std_y"] for p in panels],
            "member_mass": [p["member_mass"] for p in panels],
            "residual": [p["residual"] for p in panels],
            "iterations": [p["iterations"] for p in panels],
            "method": cfg.method,
            "mutation_form": cfg.mutation_form,
            "theta_decision": "theta = theta_prime = 1 is an engine default, not a fitted value",
        }
        path = cfg.out_dir / "sweep_summary.json"
        write_json(path, payload)
        written.append(path)
    return written


def _gain_cells(params: GameParams, n: int) -> tuple[list[str], list[str]]:
    """The "N,d_cd,d_do,d_co,sign_cd,sign_do,sign_co,label" text and the label of each k = 0..n-1."""
    d_cd, d_do, d_co, labels = gains_on_grid(params, np.arange(n), n)
    gains = (d_cd, d_do, d_co)
    cols = [d.tolist() for d in gains] + [np.sign(d).astype(int).tolist() for d in gains]
    labels = labels.tolist()
    return [",".join(map(str, (n, *cell))) for cell in zip(*cols, labels)], labels


def _run_informed_map(cfg: ExperimentConfig) -> list[Path]:
    """Informed field and representative group-level gains at every state with a group.

    The gains depend on the state only through its group size N and the
    representative k, so each (N, k) cell, from N to the label, is
    evaluated and formatted once, and every state of that cell shares the text.
    """
    params = cfg.params
    z = params.z
    i_m, i_c = np.tril_indices(z + 1)
    coalition = i_m >= 2
    i_m, i_c = i_m[coalition], i_c[coalition]
    x = i_c / i_m
    x_dot, y_dot = informed_field_grid(params, i_m, i_c)[:2]
    cells = {}  # group size N -> `_gain_cells(params, N)`
    cell_text, labels = [], []
    start = 0
    for m in range(2, z + 1):
        level = slice(start, start + m + 1)
        start += m + 1
        n_m = group_size(params, m)
        if n_m not in cells:
            cells[n_m] = _gain_cells(params, n_m)
        text, label = cells[n_m]
        # Representative group-level gains: a group of n with the state's
        # cooperator share among the other n - 1 seats.
        k_rep = np.rint(x[level] * (n_m - 1)).astype(int).tolist()
        cell_text.extend(map(text.__getitem__, k_rep))
        labels.extend(map(label.__getitem__, k_rep))
    rows = zip(_prefix_of(z, i_c, i_m - i_c), cell_text, x_dot.tolist(), y_dot.tolist())
    label_counts = dict(Counter(label or "none" for label in labels))
    written: list[Path] = []
    if "csv" in cfg.formats:
        path = cfg.out_dir / "informed_map.csv"
        write_csv(path, ("i_C", "i_D", "x", "y", "N", "d_cd", "d_do", "d_co",
                         "sign_cd", "sign_do", "sign_co", "label",
                         "x_dot", "y_dot"), rows)
        written.append(path)
    if "json" in cfg.formats:
        path = cfg.out_dir / "informed_summary.json"
        write_json(path, {"alpha": params.alpha, "z": z, "label_counts": label_counts})
        written.append(path)
    return written


def _run_k_profile(cfg: ExperimentConfig) -> list[Path]:
    """K_exact, K_dropped and <R>(eps1 + eps2) along the slice i_c = 1..i_m - 1 at y_slice.

    Each alpha reads its slice in one `replicator_field_grid` call and one
    draw of the level for mean_R.
    """
    params = cfg.params
    z = params.z
    i_m = max(2, int(math.floor(cfg.y_slice * z + 0.5)))
    i_m = min(i_m, z)
    i_c = np.arange(1, i_m)
    level = np.full(i_m - 1, i_m)
    rows = []
    summary = {"alpha": [], "max_abs_k_exact": [], "k_exact_mid": []}
    for alpha in cfg.values:
        p = dataclasses.replace(params, alpha=alpha)
        n = group_size(p, i_m)
        shares = effective_shares(p, n)
        x, y, _, _, k_exact, k_dropped = replicator_field_grid(p, level, i_c)[:6]
        r_term = _means_at(p, i_m, 1, i_m - 1)[0] * (shares.eps1 + shares.eps2)
        rows.extend(zip(repeat(alpha), i_c.tolist(), repeat(i_m), repeat(n), x.tolist(), y.tolist(),
                        k_exact.tolist(), k_dropped.tolist(), r_term.tolist()))
        summary["alpha"].append(alpha)
        summary["max_abs_k_exact"].append(float(np.max(np.abs(k_exact))))
        summary["k_exact_mid"].append(k_exact[len(k_exact) // 2].item())
    written: list[Path] = []
    if "csv" in cfg.formats:
        path = cfg.out_dir / "k_profile.csv"
        write_csv(path, ("alpha", "i_C", "i_M", "N", "x", "y",
                         "k_exact", "k_dropped", "r_term"), rows)
        written.append(path)
    if "json" in cfg.formats:
        path = cfg.out_dir / "k_profile_summary.json"
        write_json(path, summary)
        written.append(path)
    return written


def _matched_members(params: GameParams, target: int) -> int:
    """Smallest coalition size whose convened working group is nearest the target.

    The rounded group-size law can step over individual sizes at large alpha,
    so an exact match is not guaranteed; the achieved size is emitted in the
    N column for transparency.
    """
    if target > params.z:
        raise ConfigError(
            f"group size {target} exceeds the population z={params.z}"
        )
    best_i_m = 2
    best_err = abs(group_size(params, 2) - target)
    for i_m in range(3, params.z + 1):
        err = abs(group_size(params, i_m) - target)
        if err < best_err:
            best_i_m, best_err = i_m, err
        if err == 0:
            break
    return best_i_m


def _run_s1_compare(cfg: ExperimentConfig) -> list[Path]:
    """Uninformed vs informed cooperator flow along a matched-size slice.

    The k column is the information-cost term on the flow scale,
    x(1-x) c (K_exact + K_dropped), computed from the cost decomposition
    rather than by subtraction — the two flow columns differ by exactly
    this curve, and the emitted data lets a reader re-check that.  Each
    slice is read by `replicator_field_grid` and `informed_field_grid`,
    which build only the fitness levels next to the slice.  max_gap
    ignores NaN gaps.
    """
    rows = []
    summary: dict = {"group_size": cfg.group_size, "populations": []}
    orderings = []
    for z in cfg.z_pair:
        max_gaps = []
        for alpha in cfg.values:
            p = dataclasses.replace(cfg.params, z=z, alpha=alpha)
            i_m = _matched_members(p, cfg.group_size)
            i_c = np.arange(1, i_m)
            level = np.full(i_m - 1, i_m)
            x, _, uninformed, _, k_exact, k_dropped = replicator_field_grid(p, level, i_c)[:6]
            informed = informed_field_grid(p, level, i_c)[0]
            # K_dropped, hence k, is NaN on two-member and full coalitions.
            k_flow = x * (1.0 - x) * p.c * (k_exact + k_dropped)
            gap = np.abs(uninformed - informed)
            max_gaps.append(float(np.max(gap, initial=0.0, where=~np.isnan(gap))))
            rows.extend(zip(repeat(z), repeat(alpha), repeat(i_m), repeat(group_size(p, i_m)),
                            i_c.tolist(), x.tolist(), uninformed.tolist(), informed.tolist(),
                            k_flow.tolist()))
        summary["populations"].append({
            "z": z,
            "alpha": list(cfg.values),
            "max_gap": max_gaps,
        })
        orderings.append(tuple(np.argsort(max_gaps)))
    summary["ordering_consistent"] = len(set(orderings)) == 1
    written: list[Path] = []
    if "csv" in cfg.formats:
        path = cfg.out_dir / "s1_compare.csv"
        write_csv(path, ("z", "alpha", "i_M", "N", "i_C", "x",
                         "x_dot_uninformed", "x_dot_informed", "k"), rows)
        written.append(path)
    if "json" in cfg.formats:
        path = cfg.out_dir / "s1_summary.json"
        write_json(path, summary)
        written.append(path)
    return written


def _run_montecarlo(cfg: ExperimentConfig) -> list[Path]:
    result = monte_carlo(cfg.params, cfg.steps, cfg.seed, burn_in=cfg.burn_in)
    index = result.index
    written: list[Path] = []
    if "csv" in cfg.formats:
        path = cfg.out_dir / "occupancy.csv"
        write_csv(path, ("i_C", "i_D", "x", "y", "occupancy"),
                  zip(_state_prefix(index.z), result.occupancy.tolist()))
        written.append(path)

        path = cfg.out_dir / "trajectory.csv"
        write_csv(path, ("step", "i_C", "i_D"), result.trajectory.tolist())
        written.append(path)
    if "json" in cfg.formats:
        occ_summary = _summarize(index, result.occupancy)
        path = cfg.out_dir / "montecarlo_summary.json"
        write_json(path, {
            "steps": result.steps,
            "burn_in": result.burn_in,
            "seed": result.seed,
            "mean_x": _json_safe(occ_summary.mean_x),
            "std_x": _json_safe(occ_summary.std_x),
            "mean_y": occ_summary.mean_y,
            "std_y": occ_summary.std_y,
            "member_mass": occ_summary.member_mass,
        })
        written.append(path)
    if "svg" in cfg.formats:
        path = cfg.out_dir / "occupancy.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(simplex_svg(
                cfg.params.z, label=f"{result.steps} steps, seed {result.seed}",
                shade=zip(index.i_c_of.tolist(), index.i_d_of.tolist(), result.occupancy.tolist())))
        written.append(path)
    return written


_HANDLERS = {
    "field": _run_field,
    "stationary": _run_stationary,
    "sweep-alpha": _run_sweep_alpha,
    "informed-map": _run_informed_map,
    "k-profile": _run_k_profile,
    "s1-compare": _run_s1_compare,
    "montecarlo": _run_montecarlo,
}


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Dispatch one configured experiment and write its manifest."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _HANDLERS[cfg.experiment](cfg)
    manifest_path = cfg.out_dir / "manifest.json"
    manifest = RunManifest(
        config=_config_echo(cfg),
        version=__version__,
        created=datetime.now(timezone.utc).isoformat(),
        outputs={path.name: _sha256(path) for path in outputs},
        path=manifest_path,
    )
    write_json(manifest_path, {
        "config": manifest.config,
        "version": manifest.version,
        "created": manifest.created,
        "outputs": manifest.outputs,
    })
    return manifest

