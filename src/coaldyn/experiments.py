"""Experiment recipes: dispatch, deterministic writers, and run manifests.

Every handler is a pure function of its ExperimentConfig: CSV and JSON
outputs are byte-identical across reruns, and row order is fixed by the
state indexing.  Every CSV row is a tuple of Python ints, floats and
labels, with per-state columns taken from numpy by ``.tolist()`` (SVG
panels take the arrays); an undefined value is NaN, never None.  `write_csv`
writes each cell as its ``str()``, the shortest round-trip form for a
float and ``nan`` for NaN.  The i_C, i_D, x and y cells of a state are
formatted once per population size (`staterows.state_text`), and
per-state rows (`staterows.state_rows`) lead with them; likewise
`informed-map` formats each (N, k) gain cell once.

Per-state work runs in blocks of `BLOCK_ROWS` = 4096 states: the flow
and informed fields fill their columns a block at a time, and the per-state
CSVs reach `write_csv` as `state_rows`, built a block at a time as the
writer reads them.  Resident per population size are the fitness table,
3 (z + 2)^2 floats (1.0 MB at z = 200, 3.9 MB at z = 400), and the state
text, about 29 bytes a state plus an 8-byte offset (0.74 and 3.1 MB).

Every file is written through `_Outputs.emit`, which skips a file whose
format (the suffix of its name) the run does not ask for before its writer
runs; per-state rows and SVG arrows are made only as the writer reads
them.  An OSError while a file or the manifest is written raises
`OutputError`.

`sweep-alpha` builds, solves and writes its panels in min(panels, usable
CPUs) child processes forked by `markov._children`, the helper whose children
run `monte_carlo`'s segments, and puts them back in alpha order, so no output
depends on the child count.  With one usable CPU, or where the platform
cannot fork (`markov._usable_cpus` then reports one), the panels run in the
calling process.  Each run finishes by writing ``manifest.json`` with the
resolved configuration, package version, and a checksum per output file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import _SECTIONS, ExperimentConfig, _benefit_keys
from .errors import ConfigError, OutputError
from .game import GameParams, effective_shares, group_size
from .informed import gains_on_grid, informed_field_grid
# Not called here, but perfbench/tracing.py wraps these six names on this module:
# replicator_field, information_cost, mean_return, informed_field, marginal_gains, classify_state.
from .informed import classify_state, informed_field, marginal_gains  # noqa: F401
from .markov import (_check_capacity, _children, _summarize, _usable_cpus, build_chain, monte_carlo,
                     selection_gradient, stationary)
from .replicator import _row_blocks, find_fixed_points, flow_field, replicator_field_grid
from .replicator import information_cost, mean_return, replicator_field  # noqa: F401
from .sampling import fitness_table
from .staterows import state_rows, state_text
from .svg import simplex_svg


# --- deterministic emission ---------------------------------------------

def write_csv(path: Path, header, rows) -> None:
    """The header, then each row's cells, as their ``str()``, comma-separated, a line a row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_svg(path: Path, z: int, **panel) -> None:
    """Write the `simplex_svg` panel of population size ``z``."""
    path.write_text(simplex_svg(z, **panel), encoding="utf-8", newline="")


def _finite_json(value):
    """``value`` with NaN as None and +-inf as the strings "inf" and "-inf", in dicts and lists too."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else str(value)
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def write_json(path: Path, payload) -> None:
    """Strict JSON: a NaN is written null (an x-moment with no member), and +-inf
    as "inf" or "-inf" (alpha = inf), which `load_config` reads back as numbers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write(path: Path, writer, *args, **kwargs) -> None:
    try:
        writer(path, *args, **kwargs)
    except OSError as exc:  # say, a full disk, or a directory where the file should go
        raise OutputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


class _Outputs:
    """The files of one run, or of one sweep panel, and their paths for the manifest.

    ``emit(name, writer, *args, **kwargs)`` calls ``writer(out_dir / name,
    *args, **kwargs)`` and lists the path in ``written`` if the run's formats
    hold the suffix of ``name``; otherwise it does nothing.  Handlers name
    the writer by its module global, looked up when the handler runs.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.written: list[Path] = []

    def emit(self, name: str, writer, *args, **kwargs) -> None:
        if name.rpartition(".")[2] in self.cfg.formats:
            path = self.cfg.out_dir / name
            _write(path, writer, *args, **kwargs)
            self.written.append(path)


@dataclass(frozen=True)
class RunManifest:
    """Resolved-config echo plus checksums for every emitted file."""

    config: dict
    version: str
    created: str
    outputs: dict
    path: Path


def _echo(value):
    return list(value) if isinstance(value, tuple) else str(value) if isinstance(value, Path) else value


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The resolved config by section, with the `[benefit]`, `[experiment]` and `[output]` keys the loader reads.

    A tabulated benefit echoes its knots as (C, B) pairs, since the CSV path is not kept.
    """
    params = dataclasses.asdict(cfg.params)
    del params["benefit"]
    benefit = cfg.params.benefit
    echo = {
        "game": params,
        "benefit": {key: _echo(getattr(benefit, key)) for key in _benefit_keys(benefit.kind)},
        "notes": [
            "theta and theta_prime default to 1 by decision; set them in [game] to override",
            "x-summaries restrict to states with at least one member and renormalize",
        ],
    }
    for section in ("experiment", "output"):
        echo[section] = {key: _echo(getattr(cfg, name)) for key, (name, _, _) in _SECTIONS[section].items()}
    return echo


# --- shared pieces --------------------------------------------------------

def _simplex_arrows(z: int, i_c, i_d, d_c, d_d, speed):
    """Arrows (i_c, i_d, d_c, d_d, speed) on a lattice of about 14 states per edge.

    Keeps the states whose counts are both multiples of the stride and that
    move at all, in the given order.  Lazy, as `state_rows` is.
    """
    stride = max(1, z // 14)
    keep = (i_c % stride == 0) & (i_d % stride == 0) & (speed > 0.0)
    yield from zip(*(np.asarray(col)[keep].tolist() for col in (i_c, i_d, d_c, d_d, speed)))


def _stationary_outputs(cfg: ExperimentConfig, out: _Outputs, params: GameParams, tag: str,
                        with_gradient: bool) -> dict:
    """Writes the stationary law at ``params``, and its gradient if asked, to files
    whose names end in ``tag``; returns its summary."""
    model = build_chain(params)
    result = stationary(model, method=cfg.method)
    index = model.index
    out.emit(f"stationary{tag}.csv", write_csv, ("i_C", "i_D", "x", "y", "pi"),
             state_rows(index.z, index.i_c_of, index.i_d_of, result.pi))
    arrows = None
    if with_gradient:
        grad = selection_gradient(model)
        out.emit(f"gradient{tag}.csv", write_csv, ("i_C", "i_D", "x", "y", "grad_x", "grad_y", "speed"),
                 state_rows(index.z, index.i_c_of, index.i_d_of, grad.grad_x, grad.grad_y, grad.speed))
        arrows = _simplex_arrows(params.z, index.i_c_of, index.i_d_of, grad.drift_c, grad.drift_d, grad.speed)
    out.emit(f"panel{tag}.svg", write_svg, params.z, arrows=arrows, label=f"alpha = {params.alpha:g}",
             shade=(index.i_c_of, index.i_d_of, result.pi))
    return {"alpha": params.alpha, **dataclasses.asdict(result.summary), "residual": result.residual,
            "iterations": result.iterations, "method": result.method}


# --- handlers -------------------------------------------------------------

def _run_field(cfg: ExperimentConfig, out: _Outputs) -> None:
    params = cfg.params
    z = params.z
    field = flow_field(params)
    out.emit("field.csv", write_csv, field.COLUMNS, state_rows(
        z, field.i_c, field.i_d, field.x_dot, field.y_dot, field.mean_r, field.mean_b,
        field.k_exact, field.k_dropped))

    points = find_fixed_points(params)
    out.emit("fixed_points.json", write_json, {
        "alpha": params.alpha,
        "z": z,
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
    })

    def arrows():
        # Composition displacement of the flow: d(i_m) = z y_dot and
        # d(i_c) = x d(i_m) + i_m x_dot.
        d_m = z * field.y_dot
        d_c = field.x * d_m + (field.i_c + field.i_d) * field.x_dot
        yield from _simplex_arrows(z, field.i_c, field.i_d, d_c, d_m - d_c,
                                   np.hypot(field.x_dot, field.y_dot))
    out.emit("field.svg", write_svg, z, arrows=arrows(), label=f"alpha = {params.alpha:g}")


def _run_stationary(cfg: ExperimentConfig, out: _Outputs) -> None:
    out.emit("stationary_summary.json", write_json,
             _stationary_outputs(cfg, out, cfg.params, "", with_gradient=False))


def _run_sweep_alpha(cfg: ExperimentConfig, out: _Outputs) -> None:
    """One panel per alpha, in n = min(panels, usable CPUs) forked children, child j
    running panels j, j + n, ...; with one CPU the panels run here, with no fork.

    The state text is formatted here once for every panel, before the children
    fork (`markov._children`).
    """
    _check_capacity(cfg.params.z)  # an oversized sweep fails before its state text is formatted
    state_text(cfg.params.z)
    jobs = [dataclasses.replace(cfg.params, alpha=alpha) for alpha in cfg.values]

    def run(share):
        panels = []
        for params in share:
            panel = _Outputs(cfg)
            summary = _stationary_outputs(cfg, panel, params, f"_alpha{params.alpha:g}", True)
            panels.append((panel.written, summary))
        return panels

    n = min(len(jobs), _usable_cpus())
    with _children() as fork:  # after a failed panel, leaving it kills the children still running
        waits = [fork(run, jobs[j::n]) for j in range(n)] if n > 1 else [lambda: run(jobs)]
        shares = [wait() for wait in waits]
    results = [shares[i % n][i // n] for i in range(len(jobs))]
    out.written.extend(path for written, _ in results for path in written)
    panels = [summary for _, summary in results]
    out.emit("sweep_summary.json", write_json, {
        **{key: [p[key] for p in panels] for key in panels[0]},
        "method": cfg.method,
        "mutation_form": cfg.mutation_form,
        "theta_decision": "theta = theta_prime = 1 is an engine default, not a fitted value",
    })


def _gain_cells(params: GameParams, n: int) -> tuple[list[str], list[str]]:
    """The "N,d_cd,d_do,d_co,sign_cd,sign_do,sign_co,label" text and the label of each k = 0..n-1."""
    d_cd, d_do, d_co, labels = gains_on_grid(params, np.arange(n), n)
    gains = (d_cd, d_do, d_co)
    cols = [d.tolist() for d in gains] + [np.sign(d).astype(int).tolist() for d in gains]
    labels = labels.tolist()
    return [",".join(map(str, (n, *cell))) for cell in zip(*cols, labels)], labels


def _run_informed_map(cfg: ExperimentConfig, out: _Outputs) -> None:
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
    x_dot, y_dot = flow = np.empty((2, len(i_m)))
    for rows in _row_blocks(len(i_m)):
        flow[:, rows] = informed_field_grid(params, i_m[rows], i_c[rows])[:2]
    cells = {}  # group size N -> `_gain_cells(params, N)`
    cell_text = np.empty(len(i_m), dtype=object)
    labels = Counter()
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
        k_rep = np.rint(np.arange(m + 1) / m * (n_m - 1)).astype(int).tolist()
        cell_text[level] = list(map(text.__getitem__, k_rep))
        labels.update(map(label.__getitem__, k_rep))
    out.emit("informed_map.csv", write_csv, ("i_C", "i_D", "x", "y", "N", "d_cd", "d_do", "d_co",
                                             "sign_cd", "sign_do", "sign_co", "label", "x_dot", "y_dot"),
             state_rows(z, i_c, i_m - i_c, cell_text, x_dot, y_dot))
    label_counts = {label or "none": count for label, count in labels.items()}
    out.emit("informed_summary.json", write_json, {"alpha": params.alpha, "z": z, "label_counts": label_counts})


def _run_k_profile(cfg: ExperimentConfig, out: _Outputs) -> None:
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
        r_term = fitness_table(p).means(i_m)[0] * (shares.eps1 + shares.eps2)
        rows.extend(zip(repeat(alpha), i_c.tolist(), repeat(i_m), repeat(n), x.tolist(), y.tolist(),
                        k_exact.tolist(), k_dropped.tolist(), r_term.tolist()))
        summary["alpha"].append(alpha)
        summary["max_abs_k_exact"].append(float(np.max(np.abs(k_exact))))
        summary["k_exact_mid"].append(k_exact[len(k_exact) // 2].item())
    out.emit("k_profile.csv", write_csv,
             ("alpha", "i_C", "i_M", "N", "x", "y", "k_exact", "k_dropped", "r_term"), rows)
    out.emit("k_profile_summary.json", write_json, summary)


def _matched_members(params: GameParams, target: int) -> int:
    """Smallest coalition size whose convened working group is nearest the target.

    The rounded group-size law can step over individual sizes at large alpha,
    so an exact match is not guaranteed; the achieved size is emitted in the
    N column for transparency.
    """
    best_i_m = 2
    best_err = abs(group_size(params, 2) - target)
    for i_m in range(3, params.z + 1):
        err = abs(group_size(params, i_m) - target)
        if err < best_err:
            best_i_m, best_err = i_m, err
        if err == 0:
            break
    return best_i_m


def _run_s1_compare(cfg: ExperimentConfig, out: _Outputs) -> None:
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
    out.emit("s1_compare.csv", write_csv, ("z", "alpha", "i_M", "N", "i_C", "x",
                                           "x_dot_uninformed", "x_dot_informed", "k"), rows)
    out.emit("s1_summary.json", write_json, summary)


def _run_montecarlo(cfg: ExperimentConfig, out: _Outputs) -> None:
    result = monte_carlo(cfg.params, cfg.steps, cfg.seed, burn_in=cfg.burn_in)
    index = result.index
    out.emit("occupancy.csv", write_csv, ("i_C", "i_D", "x", "y", "occupancy"),
             state_rows(index.z, index.i_c_of, index.i_d_of, result.occupancy))
    out.emit("trajectory.csv", write_csv, ("step", "i_C", "i_D"), result.trajectory.tolist())
    out.emit("montecarlo_summary.json", write_json, {
        "steps": result.steps, "burn_in": result.burn_in, "seed": result.seed,
        **dataclasses.asdict(_summarize(index, result.occupancy))})
    out.emit("occupancy.svg", write_svg, cfg.params.z, label=f"{result.steps} steps, seed {result.seed}",
             shade=(index.i_c_of, index.i_d_of, result.occupancy))


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
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc.strerror}") from None
    out = _Outputs(cfg)
    _HANDLERS[cfg.experiment](cfg, out)
    manifest_path = cfg.out_dir / "manifest.json"
    manifest = RunManifest(
        config=_config_echo(cfg),
        version=__version__,
        created=datetime.now(timezone.utc).isoformat(),
        outputs={path.name: _sha256(path) for path in out.written},
        path=manifest_path,
    )
    _write(manifest_path, write_json, {
        "config": manifest.config,
        "version": manifest.version,
        "created": manifest.created,
        "outputs": manifest.outputs,
    })
    return manifest

