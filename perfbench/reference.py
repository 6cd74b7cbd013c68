"""Reference stationary laws for a workload's outputs, by the benchmark's own solve.

    python3 perfbench/reference.py --workload NAME --out FILE.npz

Run from the root of a coaldyn checkout.  For every output of the workload
that holds a stationary law (or, for the simulator, an estimate of one), it
builds the chain with the public ``build_chain`` and solves
``pi (I - T) = 0, sum(pi) = 1`` with SciPy's sparse LU.  The program's
direct solver replaces the first equation with the normalisation and uses
the COLAMD ordering; this one replaces the last and uses MMD_AT_PLUS_A, so
the two do not share round-off.  The archive maps each output file, as a
path relative to the workload's output directory, to its reference law.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, load_step  # noqa: E402


def stationary_law(transitions: sparse.spmatrix) -> np.ndarray:
    n = transitions.shape[0]
    a = (sparse.identity(n, format="csr") - transitions.T).tocsr()
    a = sparse.vstack([a[:-1, :], sparse.csr_matrix(np.ones((1, n)))]).tocsc()
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = splu(a, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return pi / pi.sum()


def law_outputs(cfg):
    """(output file, params) for every output of cfg that holds a stationary law."""
    if cfg.experiment == "stationary":
        return [("stationary.csv", cfg.params)]
    if cfg.experiment == "sweep-alpha":
        return [(f"stationary_alpha{a:g}.csv", dataclasses.replace(cfg.params, alpha=a))
                for a in cfg.values]
    if cfg.experiment == "montecarlo":
        return [("occupancy.csv", cfg.params)]
    return []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    from coaldyn import build_chain

    laws = {}
    for step in WORKLOADS[args.workload]:
        cfg = load_step(step, Path("."), seed=0)
        for name, params in law_outputs(cfg):
            model = build_chain(params, mutation_form=cfg.mutation_form)
            laws[f"{step.name}/{name}"] = stationary_law(model.transitions)
    np.savez(args.out, **laws)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
