"""Hypergeometric group sampling and composition-averaged fitness.

A working group of N players is drawn without replacement from the
coalition.  A focal member therefore faces k co-members drawn
hypergeometrically from the remaining coalition pool, and its fitness
is the payoff averaged over that draw.  Outsiders do not join groups
but consume the spillover of whatever group forms, so their fitness
averages the outsider payoff over the group compositions the coalition
actually produces.

PMF rows are computed in log space (gammaln) so they stay finite and
accurate for pools of hundreds of players, and are memoised: the same
rows recur across all states sharing a coalition size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .game import GameParams, PopulationState, effective_shares, group_size

__all__ = [
    "HypergeomSpec",
    "FitnessTriple",
    "hypergeom_pmf",
    "pmf_row",
    "fitness",
    "fitness_at",
]


@dataclass(frozen=True)
class HypergeomSpec:
    """Sampling-without-replacement setup: `draws` from `pool` containing `successes`."""

    pool: int
    draws: int
    successes: int

    def __post_init__(self):
        if self.pool < 0:
            raise ValueError(f"pool must be non-negative, got {self.pool}")
        if not 0 <= self.draws <= self.pool:
            raise ValueError(f"draws must lie in [0, pool], got {self}")
        if not 0 <= self.successes <= self.pool:
            raise ValueError(f"successes must lie in [0, pool], got {self}")

    @property
    def support(self) -> tuple[int, int]:
        """Smallest and largest achievable success count in the sample."""
        lo = max(0, self.draws - (self.pool - self.successes))
        hi = min(self.draws, self.successes)
        return lo, hi


@lru_cache(maxsize=1 << 18)
def _pmf_row_cached(pool: int, draws: int, successes: int) -> np.ndarray:
    k = np.arange(draws + 1)
    out = np.zeros(draws + 1)
    lo = max(0, draws - (pool - successes))
    hi = min(draws, successes)
    if lo <= hi:
        ks = k[lo : hi + 1]
        log_p = (
            gammaln(successes + 1)
            - gammaln(ks + 1)
            - gammaln(successes - ks + 1)
            + gammaln(pool - successes + 1)
            - gammaln(draws - ks + 1)
            - gammaln(pool - successes - draws + ks + 1)
            - (gammaln(pool + 1) - gammaln(draws + 1) - gammaln(pool - draws + 1))
        )
        out[lo : hi + 1] = np.exp(log_p)
    out.flags.writeable = False
    return out


def pmf_row(pool: int, draws: int, successes: int) -> np.ndarray:
    """P(k successes in the sample) for k = 0..draws, as a read-only vector."""
    HypergeomSpec(pool, draws, successes)  # validate
    return _pmf_row_cached(pool, draws, successes)


def hypergeom_pmf(pool: int, draws: int, successes: int, k: int) -> float:
    """Probability of exactly k successes; exact 0.0 for impossible k."""
    row = pmf_row(pool, draws, successes)
    if k < 0 or k > draws:
        return 0.0
    return float(row[k])


@dataclass(frozen=True)
class FitnessTriple:
    """Composition-averaged fitness of the three strategies at one state."""

    f_c: float
    f_d: float
    f_o: float

    def by_strategy(self, strategy: str) -> float:
        return {"C": self.f_c, "D": self.f_d, "O": self.f_o}[strategy]


@lru_cache(maxsize=1 << 16)
def _payoff_vectors(params: GameParams, n: int):
    """Member and outsider payoffs on the contribution grid of a size-n group.

    Returns (pi_c, pi_d, pi_o, produced) where pi_c[k]/pi_d[k] are the
    payoffs of a focal cooperator/defector facing k cooperating
    co-members (k = 0..n-1), pi_o[k] is the outsider payoff when a
    group produced from k cooperators (k = 0..n), and produced[k] is
    the raw benefit B(k c) on that grid.
    """
    shares = effective_shares(params, n)
    scale = n * params.c
    pool_grid = np.arange(n + 1) * params.c
    produced = np.asarray(params.benefit(pool_grid, scale), dtype=float)
    pi_c = produced[1:] * shares.total - params.c - params.c_c
    pi_d = produced[:-1] * shares.total - params.c_c
    pi_o = produced * shares.eps2
    for arr in (pi_c, pi_d, pi_o, produced):
        arr.flags.writeable = False
    return pi_c, pi_d, pi_o, produced


def _fitness_formula(params: GameParams, i_c: int, i_d: int, n_override):
    """Formula fitness values, or None where the averaging formula is undefined.

    f_c needs a focal cooperator (i_c >= 1), f_d a focal defector
    (i_d >= 1); f_o is defined for any composition of a coalition of
    two or more, whether or not an outsider currently exists.  A
    coalition of fewer than two members convenes no group at all.
    """
    i_m = i_c + i_d
    if i_m <= 1:
        return None, None, None
    n = group_size(params, i_m) if n_override is None else n_override
    pi_c, pi_d, pi_o, _ = _payoff_vectors(params, n)

    f_c = None
    f_d = None
    row_with_focal_c = None  # co-member draw seen by a focal cooperator
    row_with_focal_d = None  # co-member draw seen by a focal defector
    if i_c >= 1:
        row_with_focal_c = pmf_row(i_m - 1, n - 1, i_c - 1)
        f_c = float(row_with_focal_c @ pi_c)
    if i_d >= 1:
        row_with_focal_d = pmf_row(i_m - 1, n - 1, i_c)
        f_d = float(row_with_focal_d @ pi_d)

    # Outsider: condition on which kind of member anchors the group; a
    # cooperator anchor adds its own contribution to the sampled pool.
    x = i_c / i_m
    f_o = 0.0
    if i_c >= 1:
        if row_with_focal_c is None:
            row_with_focal_c = pmf_row(i_m - 1, n - 1, i_c - 1)
        f_o += x * float(row_with_focal_c @ pi_o[1:])
    if i_d >= 1:
        if row_with_focal_d is None:
            row_with_focal_d = pmf_row(i_m - 1, n - 1, i_c)
        f_o += (1.0 - x) * float(row_with_focal_d @ pi_o[:-1])
    return f_c, f_d, f_o


_fitness_raw = lru_cache(maxsize=1 << 20)(_fitness_formula)


def fitness_at(
    params: GameParams, i_c: int, i_d: int, n_override: int | None = None
) -> FitnessTriple:
    """Fitness triple at integer composition (i_c, i_d).

    Strategies nobody currently plays get fitness 0 by convention, as
    does everyone when the coalition has fewer than two members.
    `n_override` pins the working-group size instead of deriving it
    from the coalition size (used for matched-group comparisons).
    """
    return _fitness_triple(params, i_c, i_d, n_override, _fitness_raw)


def _fitness_triple(params: GameParams, i_c: int, i_d: int, n_override,
                    formula) -> FitnessTriple:
    """`fitness_at` with the formula evaluator passed in.

    Callers that visit every composition once pass the uncached
    `_fitness_formula`, so they do not fill the memo with entries that are
    never read again.
    """
    if i_c < 0 or i_d < 0 or i_c + i_d > params.z:
        raise ValueError(f"composition ({i_c}, {i_d}) invalid for z={params.z}")
    if n_override is not None and n_override < 2:
        raise ValueError(f"group-size override must be >= 2, got {n_override}")
    f_c, f_d, f_o = formula(params, i_c, i_d, n_override)
    i_o = params.z - i_c - i_d
    return FitnessTriple(
        f_c=f_c if f_c is not None else 0.0,
        f_d=f_d if f_d is not None else 0.0,
        f_o=f_o if (f_o is not None and i_o > 0) else 0.0,
    )


def fitness(params: GameParams, state: PopulationState) -> FitnessTriple:
    """Fitness triple at a population state (see `fitness_at`)."""
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    return fitness_at(params, state.i_c, state.i_d)
