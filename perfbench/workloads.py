"""The benchmark's workloads: which experiment configs each one runs, in order.

Paths are relative to the root of a coaldyn checkout.  Every step writes
into its own subdirectory of the workload's output directory, so the
checks can find each experiment's files by step name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SHIPPED = Path("scripts/configs")
OWN = Path(Path(__file__).resolve().parent.name) / "configs"


@dataclass(frozen=True)
class Step:
    name: str
    config: Path
    experiment: str | None = None  # override of the config's [experiment] name
    seeded: bool = False  # takes the benchmark's --seed


WORKLOADS: dict[str, tuple[Step, ...]] = {
    # The paper's headline figure; solver-bound (power iteration).
    "panel_sweep": (
        Step("desk", SHIPPED / "desk_stationary.cfg"),
        Step("sweep", SHIPPED / "panel_sweep.cfg"),
    ),
    # Marginal gains and deterministic flow: fitness and per-state loops, no chain.
    "flow_z200": (
        Step("field", OWN / "flow_z200.cfg"),
        Step("informed", OWN / "flow_z200.cfg", experiment="informed-map"),
        Step("s1", SHIPPED / "size_pair.cfg"),
    ),
    # One large chain by sparse LU: scaling in z, assembly and memory.
    "chain_z300": (Step("stationary", OWN / "chain_z300.cfg"),),
    # The interpreted Monte Carlo kernel; the only workload the seed drives.
    "montecarlo": (Step("montecarlo", OWN / "montecarlo.cfg", seeded=True),),
}


def load_step(step: Step, out_root: Path, seed: int):
    """Resolve one step's config; imports coaldyn, so call it inside a worker."""
    from coaldyn.config import load_config

    return load_config(
        step.config,
        out_dir=out_root / step.name,
        seed=seed if step.seeded else None,
        experiment=step.experiment,
    )
