"""Experiment recipes: dispatch, deterministic writers, and run manifests.

Every handler is a pure function of its ExperimentConfig: CSV and JSON
outputs are byte-identical across reruns (floats are written in their
shortest round-trip form, row order is fixed by the state indexing).  Each
run finishes by writing ``manifest.json`` with the resolved configuration,
package version, and a checksum per output file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError
from .game import GameParams, PopulationState, effective_shares, group_size
from .informed import gains_on_grid, informed_field, informed_field_grid
# Not called here, but perfbench/tracing.py wraps these names on this module.
from .informed import classify_state, marginal_gains  # noqa: F401
from .markov import StateIndex, _summarize, build_chain, monte_carlo, selection_gradient, stationary
from .replicator import find_fixed_points, flow_field, information_cost, mean_return, replicator_field
from .svg import simplex_svg


# --- deterministic emission ---------------------------------------------

def _fmt_cell(value) -> str:
    if type(value) is float:  # the common case, first
        return repr(value)
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt_cell, row)) + "\n")


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

def _state_columns(index: StateIndex):
    """(i_C, i_D, x, y) per state, x None where no member exists."""
    z = index.z
    for s in range(index.n_states):
        i_c = int(index.i_c_of[s])
        i_d = int(index.i_d_of[s])
        i_m = i_c + i_d
        x = i_c / i_m if i_m else None
        yield i_c, i_d, x, i_m / z


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

    if "csv" in cfg.formats:
        path = cfg.out_dir / f"stationary{tag}.csv"
        rows = (
            (i_c, i_d, x, y, float(result.pi[index.index_of(i_c, i_d)]))
            for i_c, i_d, x, y in _state_columns(index)
        )
        write_csv(path, ("i_C", "i_D", "x", "y", "pi"), rows)
        written.append(path)

    grad = None
    if with_gradient:
        grad = selection_gradient(model)
        if "csv" in cfg.formats:
            path = cfg.out_dir / f"gradient{tag}.csv"
            rows = (
                (i_c, i_d, x, y,
                 _nan_none(grad.grad_x[index.index_of(i_c, i_d)]),
                 float(grad.grad_y[index.index_of(i_c, i_d)]),
                 float(grad.speed[index.index_of(i_c, i_d)]))
                for i_c, i_d, x, y in _state_columns(index)
            )
            write_csv(path, ("i_C", "i_D", "x", "y", "grad_x", "grad_y", "speed"), rows)
            written.append(path)

    if "svg" in cfg.formats:
        shade = [
            (int(index.i_c_of[s]), int(index.i_d_of[s]), float(result.pi[s]))
            for s in range(index.n_states)
        ]
        arrows = None
        if grad is not None:
            arrows = _simplex_arrows(params.z, index.i_c_of, index.i_d_of,
                                     grad.drift_c, grad.drift_d, grad.speed)
        path = cfg.out_dir / f"panel{tag}.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(simplex_svg(params.z, shade=shade, arrows=arrows,
                                 label=f"alpha = {params.alpha:g}"))
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


def _nan_none(value: float):
    return None if not math.isfinite(value) else float(value)


# --- handlers -------------------------------------------------------------

def _run_field(cfg: ExperimentConfig) -> list[Path]:
    params = cfg.params
    field = flow_field(params)
    written: list[Path] = []
    if "csv" in cfg.formats:
        path = cfg.out_dir / "field.csv"
        write_csv(path, field.COLUMNS, field.rows())
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
    written: list[Path] = []
    panels = []
    for alpha in cfg.values:
        params = dataclasses.replace(cfg.params, alpha=alpha)
        paths, summary = _stationary_outputs(cfg, params, f"_alpha{_alpha_tag(alpha)}",
                                             with_gradient=True)
        written.extend(paths)
        panels.append(summary)
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


def _run_informed_map(cfg: ExperimentConfig) -> list[Path]:
    params = cfg.params
    z = params.z
    i_m, i_c = np.tril_indices(z + 1)
    coalition = i_m >= 2
    i_m, i_c = i_m[coalition], i_c[coalition]
    x = i_c / i_m
    x_dot, y_dot = informed_field_grid(params, i_m, i_c)
    n = np.empty(len(i_m), dtype=int)
    d_cd, d_do, d_co = (np.empty(len(i_m)) for _ in range(3))
    labels = np.empty(len(i_m), dtype=object)
    start = 0
    for m in range(2, z + 1):
        level = slice(start, start + m + 1)
        start += m + 1
        n[level] = n_m = group_size(params, m)
        # Representative group-level gains: a group of n with the state's
        # cooperator share among the other n - 1 seats.
        k_rep = np.rint(x[level] * (n_m - 1))
        d_cd[level], d_do[level], d_co[level], labels[level] = gains_on_grid(params, k_rep, n_m)
    signs = (np.sign(d).astype(int).tolist() for d in (d_cd, d_do, d_co))
    rows = zip(i_c.tolist(), (i_m - i_c).tolist(), x.tolist(), (i_m / z).tolist(), n.tolist(),
               d_cd.tolist(), d_do.tolist(), d_co.tolist(), *signs, labels.tolist(),
               x_dot.tolist(), y_dot.tolist())
    label_counts = dict(Counter(label or "none" for label in labels.tolist()))
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
    params = cfg.params
    z = params.z
    i_m = max(2, int(math.floor(cfg.y_slice * z + 0.5)))
    i_m = min(i_m, z)
    rows = []
    summary = {"alpha": [], "max_abs_k_exact": [], "k_exact_mid": []}
    for alpha in cfg.values:
        p = dataclasses.replace(params, alpha=alpha)
        n = group_size(p, i_m)
        shares = effective_shares(p, n)
        k_line = []
        for i_c in range(1, i_m):
            state = PopulationState(i_c=i_c, i_d=i_m - i_c, z=z)
            cost = information_cost(p, state)
            r_term = mean_return(p, state) * (shares.eps1 + shares.eps2)
            rows.append((alpha, i_c, i_m, n, i_c / i_m, i_m / z,
                         cost.k_exact, cost.k_dropped, r_term))
            k_line.append(cost.k_exact)
        summary["alpha"].append(alpha)
        summary["max_abs_k_exact"].append(max(abs(k) for k in k_line))
        summary["k_exact_mid"].append(k_line[len(k_line) // 2])
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
    this curve, and the emitted data lets a reader re-check that.
    """
    rows = []
    summary: dict = {"group_size": cfg.group_size, "populations": []}
    orderings = []
    for z in cfg.z_pair:
        max_gaps = []
        for alpha in cfg.values:
            p = dataclasses.replace(cfg.params, z=z, alpha=alpha)
            i_m = _matched_members(p, cfg.group_size)
            n = group_size(p, i_m)
            gap = 0.0
            for i_c in range(1, i_m):
                state = PopulationState(i_c=i_c, i_d=i_m - i_c, z=z)
                uninformed, _ = replicator_field(p, state)
                informed = informed_field(p, state).x_dot
                x = i_c / i_m
                # k_full is None on two-member and full coalitions: written as nan.
                k_full = information_cost(p, state).k_full
                k_flow = None if k_full is None else x * (1.0 - x) * p.c * k_full
                gap = max(gap, abs(uninformed - informed))
                rows.append((z, alpha, i_m, n, i_c, x,
                             uninformed, informed, k_flow))
            max_gaps.append(gap)
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
        rows = (
            (i_c, i_d, x, y, float(result.occupancy[index.index_of(i_c, i_d)]))
            for i_c, i_d, x, y in _state_columns(index)
        )
        write_csv(path, ("i_C", "i_D", "x", "y", "occupancy"), rows)
        written.append(path)

        path = cfg.out_dir / "trajectory.csv"
        write_csv(path, ("step", "i_C", "i_D"),
                  ((int(a), int(b), int(c)) for a, b, c in result.trajectory))
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
        shade = [
            (int(index.i_c_of[s]), int(index.i_d_of[s]), float(result.occupancy[s]))
            for s in range(index.n_states)
        ]
        path = cfg.out_dir / "occupancy.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(simplex_svg(cfg.params.z, shade=shade,
                                 label=f"{result.steps} steps, seed {result.seed}"))
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

