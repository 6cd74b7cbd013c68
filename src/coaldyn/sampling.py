"""Hypergeometric group sampling and composition-averaged fitness.

A working group of N players is drawn without replacement from the
coalition.  A focal member therefore faces k co-members drawn
hypergeometrically from the remaining coalition pool, and its fitness
is the payoff averaged over that draw.  Outsiders do not join groups
but consume the spillover of whatever group forms, so their fitness
averages the outsider payoff over the group compositions the coalition
actually produces.

Fitness is computed for a whole parameter set at once, one coalition
size i_m at a time.  The working-group size depends only on i_m, so all
compositions of one level share one hypergeometric matrix H[s, k] (k
cooperators among the N - 1 co-members drawn from the i_m - 1 others, s
of whom cooperate), and the level's three fitnesses are products of H
with the payoff grid.  Only one level's H exists at a time.  PMF entries
are formed from log-factorials so they stay finite and accurate for pools
of hundreds of players.  `fitness_table` memoises the table of the latest
parameter set and fills it one level at a time, as levels are first read;
`fitness_at` reads it.
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


def _hypergeom_rows(pool: int, draws: int, successes: np.ndarray) -> np.ndarray:
    """H[j, k] = P(k successes among `draws` from `pool` holding successes[j]).

    Log-probabilities are formed over the whole (successes, k) grid and set
    to -inf off each row's support before exponentiating, so impossible
    counts come out as exact zeros.
    """
    log_fact = gammaln(np.arange(1, pool + 2))  # log_fact[j] = log j!
    s = np.asarray(successes)[:, None]
    k = np.arange(draws + 1)
    log_p = (
        log_fact[s]
        - log_fact[k]
        - log_fact[np.maximum(s - k, 0)]
        + log_fact[pool - s]
        - log_fact[draws - k]
        - log_fact[np.maximum(pool - s - draws + k, 0)]
        - (log_fact[pool] - log_fact[draws] - log_fact[pool - draws])
    )
    support = (k <= s) & (k >= draws - (pool - s))
    return np.exp(np.where(support, log_p, -np.inf))


def pmf_row(pool: int, draws: int, successes: int) -> np.ndarray:
    """P(k successes in the sample) for k = 0..draws."""
    HypergeomSpec(pool, draws, successes)  # validate
    return _hypergeom_rows(pool, draws, np.array([successes]))[0]


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


def _payoff_grid(params: GameParams, n: int):
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
    return pi_c, pi_d, pi_o, produced


def _level_draws(i_m: int, n: int) -> np.ndarray:
    """Co-member draw in a coalition of i_m with groups of n: row s has s cooperating others.

    A focal cooperator at i_c cooperators reads row i_c - 1, a focal
    defector row i_c.
    """
    return _hypergeom_rows(i_m - 1, n - 1, np.arange(i_m))


def _level_fitness(params: GameParams, i_m: int, n: int) -> np.ndarray:
    """(f_c, f_d, f_o) at i_c = 0..i_m for a coalition of i_m >= 2, as a (3, i_m + 1) array.

    f_c without a cooperator and f_d without a defector read 0; f_o is the
    outsider formula whether or not an outsider exists.
    """
    pi_c, pi_d, pi_o, _ = _payoff_grid(params, n)
    g = _level_draws(i_m, n) @ np.column_stack((pi_c, pi_d, pi_o[1:], pi_o[:-1]))
    x = np.arange(i_m + 1) / i_m
    out = np.zeros((3, i_m + 1))
    out[0, 1:] = g[:, 0]
    out[1, :-1] = g[:, 1]
    # Outsider: condition on which kind of member anchors the group; a
    # cooperator anchor adds its own contribution to the sampled pool.
    out[2, 1:] += x[1:] * g[:, 2]
    out[2, :-1] += (1.0 - x[:-1]) * g[:, 3]
    return out


class FitnessTable:
    """Fitness of one parameter set over the (i_m, i_c) grid.

    Row i_m, column i_c of the (3, z+2, z+2) array holds f_c, f_d and f_o
    at i_c cooperators and i_m - i_c defectors under `fitness_at`'s
    conventions: f_c without a cooperator, f_d without a defector, f_o of
    the full coalition and everything in a coalition of fewer than two
    read 0.  The extra zero row and column keep shifted reads at the edge
    of the simplex in bounds: [i_m + 1, i_c + 1] at i_m = z, and
    [.., i_c - 1] at i_c = 0, which wraps to the last column.

    A coalition size is computed the first time it is read, so a consumer
    of one slice pays for that level alone; `grid` builds the rest.
    """

    def __init__(self, params: GameParams):
        z = params.z
        self.params = params
        self._f = np.zeros((3, z + 2, z + 2))
        self._read_only = self._f.view()
        self._read_only.setflags(write=False)
        self._built = [True, True] + [False] * (z - 1)
        self._f_o_full = None

    def level(self, i_m: int) -> np.ndarray:
        """(f_c, f_d, f_o) at i_c = 0..i_m as a read-only (3, i_m + 1) view."""
        if not self._built[i_m]:
            raw = _level_fitness(self.params, i_m, group_size(self.params, i_m))
            if i_m == self.params.z:
                self._f_o_full = raw[2].copy()
                raw[2] = 0.0
            self._f[:, i_m, : i_m + 1] = raw
            self._built[i_m] = True
        return self._read_only[:, i_m, : i_m + 1]

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f_c, f_d, f_o) over the whole grid as read-only (z+2, z+2) arrays."""
        for i_m in range(2, self.params.z + 1):
            self.level(i_m)
        return self._read_only[0], self._read_only[1], self._read_only[2]

    @property
    def f_o_full(self) -> np.ndarray:
        """The outsider formula at i_m = z, where no outsider exists (row z of f_o reads 0)."""
        self.level(self.params.z)
        return self._f_o_full


@lru_cache(maxsize=1)
def fitness_table(params: GameParams) -> FitnessTable:
    """The FitnessTable of the most recently used parameter set.

    Every experiment works through its parameter sets one after another,
    so only the latest table is kept.
    """
    return FitnessTable(params)


def fitness_at(
    params: GameParams, i_c: int, i_d: int, n_override: int | None = None
) -> FitnessTriple:
    """Fitness triple at integer composition (i_c, i_d), read from `fitness_table`.

    Strategies nobody currently plays get fitness 0 by convention, as
    does everyone when the coalition has fewer than two members.
    `n_override` pins the working-group size instead of deriving it
    from the coalition size (used for matched-group comparisons); that
    level is computed afresh and not memoised.
    """
    if i_c < 0 or i_d < 0 or i_c + i_d > params.z:
        raise ValueError(f"composition ({i_c}, {i_d}) invalid for z={params.z}")
    if n_override is not None and n_override < 2:
        raise ValueError(f"group-size override must be >= 2, got {n_override}")
    i_m = i_c + i_d
    if n_override is None:
        f_c, f_d, f_o = fitness_table(params).level(i_m)[:, i_c].tolist()
        return FitnessTriple(f_c, f_d, f_o)
    if i_m < 2:
        return FitnessTriple(0.0, 0.0, 0.0)
    if n_override > i_m:
        raise ValueError(f"group-size override {n_override} exceeds the coalition of {i_m}")
    f_c, f_d, f_o = _level_fitness(params, i_m, n_override)[:, i_c].tolist()
    return FitnessTriple(f_c, f_d, f_o if i_m < params.z else 0.0)


def fitness(params: GameParams, state: PopulationState) -> FitnessTriple:
    """Fitness triple at a population state (see `fitness_at`)."""
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    return fitness_at(params, state.i_c, state.i_d)
