"""Report-only scaling table: each stage of the pipeline at several population sizes.

    python3 perfbench/scaling.py

Run from the root of a coaldyn checkout.  Nothing here is gated; it
rebuilds the stage table of the ROADMAP's Baseline with one command.
Each z runs in a fresh process (cold fitness caches, its own peak RSS) with
the game of the shipped panel_sweep.cfg at alpha = 4.  Power iteration
runs only at z <= 200 (it takes about 90 s at z = 400); Monte Carlo steps
per second are measured at z = 100 only.  The table goes to stdout and the
figures to ``.bench_out/scaling.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import child_env  # noqa: E402
from tracing import peak_rss_mb  # noqa: E402

SIZES = (60, 100, 200, 400)
POWER_MAX_Z = 200
MC_Z = 100
MC_STEPS = 1_000_000
COLUMNS = (
    ("states", "states", "{:d}"),
    ("nnz", "nnz", "{:d}"),
    ("fitness_s", "fitness, cold", "{:.2f} s"),
    ("build_s", "build_chain", "{:.2f} s"),
    ("power_s", "power", "{:.2f} s"),
    ("power_iters", "power iters", "{:d}"),
    ("direct_s", "direct, COLAMD", "{:.2f} s"),
    ("reference_s", "reference, MMD_AT_PLUS_A", "{:.2f} s"),
    ("gradient_s", "gradient", "{:.3f} s"),
    ("flow_field_s", "flow_field", "{:.2f} s"),
    ("fixed_points_s", "find_fixed_points", "{:.2f} s"),
    ("write_s", "CSV + SVG", "{:.2f} s"),
    ("mc_steps_per_s", "MC steps/s", "{:,.0f}"),
    ("peak_rss_mb", "peak RSS", "{:.0f} MB"),
)


def stages(z: int, out: Path) -> dict:
    """Time every stage at population size z, in this process."""
    from coaldyn import (build_chain, find_fixed_points, fitness_at, flow_field, monte_carlo,
                         selection_gradient, stationary)
    from coaldyn.config import load_config
    from coaldyn.experiments import write_csv
    from coaldyn.svg import simplex_svg
    from reference import stationary_law

    base = load_config("scripts/configs/panel_sweep.cfg").params
    params = dataclasses.replace(base, z=z, alpha=4.0)
    row: dict = {"z": z}

    def timed(key, fn, *args, **kw):
        t0 = perf_counter()
        value = fn(*args, **kw)
        row[key] = perf_counter() - t0
        return value

    def fitness_grid():
        for i_c in range(z + 1):
            for i_d in range(z + 1 - i_c):
                fitness_at(params, i_c, i_d)

    timed("fitness_s", fitness_grid)
    model = timed("build_s", build_chain, params)
    row["states"], row["nnz"] = model.n_states, int(model.transitions.nnz)
    if z <= POWER_MAX_Z:
        row["power_iters"] = timed("power_s", stationary, model, method="power").iterations
    pi = timed("direct_s", stationary, model, method="direct").pi
    timed("reference_s", stationary_law, model.transitions)
    timed("gradient_s", selection_gradient, model)
    timed("flow_field_s", flow_field, params)
    timed("fixed_points_s", find_fixed_points, params)

    def write():
        out.mkdir(parents=True, exist_ok=True)
        index = model.index
        write_csv(out / f"stationary_z{z}.csv", ("i_C", "i_D", "pi"),
                  zip(index.i_c_of.tolist(), index.i_d_of.tolist(), pi.tolist()))
        (out / f"panel_z{z}.svg").write_text(simplex_svg(
            z, shade=list(zip(index.i_c_of.tolist(), index.i_d_of.tolist(), pi.tolist()))))

    timed("write_s", write)
    if z == MC_Z:
        timed("mc_s", monte_carlo, params, MC_STEPS, 1)
        row["mc_steps_per_s"] = MC_STEPS / row["mc_s"]
    row["peak_rss_mb"] = peak_rss_mb()
    return row


def table(rows: list[dict]) -> str:
    head = ["z"] + [title for _, title, _ in COLUMNS]
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    for row in rows:
        cells = [str(row["z"])] + [fmt.format(row[key]) if key in row else "-"
                                   for key, _, fmt in COLUMNS]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--one", type=int, metavar="Z", help=argparse.SUPPRESS)
    args = ap.parse_args()
    out = Path(".bench_out/scaling")
    if args.one is not None:
        print(json.dumps(stages(args.one, out)))
        return 0

    env = child_env(Path.cwd())
    rows = []
    for z in SIZES:
        proc = subprocess.run([sys.executable, __file__, "--one", str(z)], env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"z = {z} done", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    (out.parent / "scaling.json").write_text(json.dumps(rows, indent=2))
    print(table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
