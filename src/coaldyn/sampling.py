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
with the payoff grid, `game._payoff_grid`, whose benefit grid also
gives the means.  Each level's H is built once and only one exists
at a time: when the flow field asks for the mean marginal return and
mean benefit, the same H gives them by a second product.  `_means_at`
takes that product over only the rows of H some states read: the two of
one state for the pointwise `mean_return`, one whole level for
`k-profile`.  `_hypergeom_rows` forms the entries of H from
log-factorials, so they stay finite and accurate for pools of hundreds
of players.  `fitness_table` memoises the table of the latest
parameter set and fills it one level at a time, as levels are first read;
`fitness_at` reads it, zeroing the fitness of strategies nobody plays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .game import GameParams, _payoff_grid, group_size

__all__ = [
    "FitnessTriple",
    "fitness_at",
]


@lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """log j! for j = 0..size-1, each the log of the exact integer j!.

    Callers ask for powers of two, so a handful of tables serve every pool.
    """
    out, f = [0.0], 1
    for j in range(1, size):
        f *= j
        out.append(math.log(f))
    table = np.array(out)
    table.setflags(write=False)
    return table


def _hypergeom_rows(pool: int, draws: int, successes: np.ndarray) -> np.ndarray:
    """H[j, k] = P(k successes among `draws` from `pool` holding successes[j]).

    Log-probabilities are formed over the whole (successes, k) grid.  The
    two factorials that can leave the support, (s - k)! and
    (pool - s - draws + k)!, depend on (s, k) only through d = s - k.  Row
    pool - s of a sliding window over a 1-D table in d holds them for k =
    0..draws, with +inf off the support, so impossible counts come out as
    exact zeros.  Rows are divided by their sums: log j! rounding near pool
    500 leaves a sum up to ~1e-12 off 1.  The grid is updated in place.
    """
    log_fact = _log_factorials(1 << (pool + 1).bit_length())  # log_fact[j] = log j!
    s = np.asarray(successes)
    k = np.arange(draws + 1)
    off = np.full(draws, np.inf)
    row = pool - s
    lost = sliding_window_view(np.concatenate((log_fact[pool::-1], off)), draws + 1)[row]
    left = sliding_window_view(np.concatenate((off, log_fact[: pool + 1])), draws + 1)[row]
    log_p = log_fact[s][:, None] - log_fact[k]
    log_p -= lost
    log_p += log_fact[row][:, None]
    log_p -= log_fact[draws - k]
    log_p -= left
    log_p -= log_fact[pool] - log_fact[draws] - log_fact[pool - draws]
    np.exp(log_p, out=log_p)
    log_p /= log_p.sum(axis=1, keepdims=True)
    return log_p


@dataclass(frozen=True)
class FitnessTriple:
    """Composition-averaged fitness of the three strategies at one state."""

    f_c: float
    f_d: float
    f_o: float


def _level_draws(i_m: int, n: int) -> np.ndarray:
    """Co-member draw in a coalition of i_m with groups of n: row s has s cooperating others.

    A focal cooperator at i_c cooperators reads row i_c - 1, a focal
    defector row i_c.  A group of the whole coalition draws every other
    member, so its draw is the identity, exactly what the kernel yields.
    """
    if n == i_m:
        return np.eye(i_m)
    return _hypergeom_rows(i_m - 1, n - 1, np.arange(i_m))


def _level_fitness(payoffs, draws: np.ndarray, i_m: int) -> np.ndarray:
    """(f_c, f_d, f_o) at i_c = 0..i_m for a coalition of i_m >= 2, as a (3, i_m + 1) array.

    `payoffs` is the level's `_payoff_grid` and `draws` its `_level_draws`.
    f_c without a cooperator and f_d without a defector read 0; f_o is the
    outsider formula whether or not an outsider exists.
    """
    pi_c, pi_d, pi_o, _ = payoffs
    g = draws @ np.column_stack((pi_c, pi_d, pi_o[1:], pi_o[:-1]))
    x = np.arange(i_m + 1) / i_m
    out = np.zeros((3, i_m + 1))
    out[0, 1:] = g[:, 0]
    out[1, :-1] = g[:, 1]
    # Outsider: condition on which kind of member anchors the group; a
    # cooperator anchor adds its own contribution to the sampled pool.
    out[2, 1:] += x[1:] * g[:, 2]
    out[2, :-1] += (1.0 - x[:-1]) * g[:, 3]
    return out


def _level_means(produced: np.ndarray, draws: np.ndarray, x: np.ndarray, c: float):
    """(mean_R, mean_b) at consecutive states of one level, of cooperator shares x.

    `produced` is the level's benefit grid and `draws` one more row than x
    of its co-member draw: state j reads row j as a focal cooperator and
    row j + 1 as a focal defector, so the whole draw serves i_c = 1..i_m - 1.
    """
    r_vals = (produced[1:] - produced[:-1]) / c
    b_vals = produced / c
    g = draws @ np.column_stack((r_vals, b_vals[1:], b_vals[:-1]))
    return 0.5 * (g[1:, 0] + g[:-1, 0]), x * g[:-1, 1] + (1.0 - x) * g[1:, 2]


def _means_at(params: GameParams, i_m: int, lo: int, hi: int):
    """(mean_R, mean_b) at i_c = lo..hi in a coalition of i_m >= 2, drawing only the rows read.

    An edge state (i_c = 0 or i_m) reads its one member view twice, the
    missing view weighted by zero, so its mean_b is defined and its mean_R
    is not.  A whole-coalition draw comes out of the kernel as the identity.
    """
    n = group_size(params, i_m)
    rows = np.clip(np.arange(lo - 1, hi + 1), 0, i_m - 1)
    return _level_means(_payoff_grid(params, n)[3], _hypergeom_rows(i_m - 1, n - 1, rows),
                        np.arange(lo, hi + 1) / i_m, params.c)


class FitnessTable:
    """Fitness of one parameter set over the (i_m, i_c) grid.

    Row i_m, column i_c of the (3, z+2, z+2) array holds f_c, f_d and f_o
    at i_c cooperators and i_m - i_c defectors as `_level_fitness` computes
    them: f_c without a cooperator, f_d without a defector and everything
    in a coalition of fewer than two read 0; f_o at i_m = z, where no
    outsider exists, is the outsider formula the flow reads at y = 1.  The
    extra zero row and column keep shifted reads at the edge of the
    simplex in bounds: [i_m + 1, i_c + 1] at i_m = z, and [.., i_c - 1] at
    i_c = 0, which wraps to the last column.

    A coalition size is computed the first time it is read, so a consumer
    of a few levels pays for those alone; `span` builds a range of them
    and `grid` builds the rest.  The mean marginal return and mean benefit
    of the flow field are computed only when `means` asks for them; each
    level's hypergeometric draw then serves its fitness and its means.
    """

    def __init__(self, params: GameParams):
        z = params.z
        self.params = params
        self._f = np.zeros((3, z + 2, z + 2))
        self._read_only = self._f.view()
        self._read_only.setflags(write=False)
        self._built = [True, True] + [False] * (z - 1)
        self._means = None

    def _store(self, i_m: int, raw: np.ndarray) -> None:
        """Write a level's `_level_fitness` into the table."""
        self._f[:, i_m, : i_m + 1] = raw
        self._built[i_m] = True

    def level(self, i_m: int) -> np.ndarray:
        """(f_c, f_d, f_o) at i_c = 0..i_m as a read-only (3, i_m + 1) view."""
        if not self._built[i_m]:
            n = group_size(self.params, i_m)
            self._store(i_m, _level_fitness(_payoff_grid(self.params, n), _level_draws(i_m, n), i_m))
        return self._read_only[:, i_m, : i_m + 1]

    def span(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f_c, f_d, f_o) as read-only (z+2, z+2) arrays with levels lo..hi built.

        The bounds are clipped to the grid; rows outside them read 0 until
        some reader builds them.
        """
        for i_m in range(max(lo, 2), min(hi, self.params.z) + 1):
            self.level(i_m)
        return self._read_only[0], self._read_only[1], self._read_only[2]

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f_c, f_d, f_o) over the whole grid as read-only (z+2, z+2) arrays."""
        return self.span(2, self.params.z)

    def means(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (mean_R, mean_b) at the states with both member kinds present.

        States run over i_m = 2..z and, within one, i_c = 1..i_m - 1.  A level
        not built yet takes its fitness from the same draw.
        """
        if self._means is None:
            params, z = self.params, self.params.z
            mean_r, mean_b = np.empty(z * (z - 1) // 2), np.empty(z * (z - 1) // 2)
            start = 0
            for i_m in range(2, z + 1):
                n = group_size(params, i_m)
                payoffs, draws = _payoff_grid(params, n), _level_draws(i_m, n)
                if not self._built[i_m]:
                    self._store(i_m, _level_fitness(payoffs, draws, i_m))
                level = slice(start, start + i_m - 1)
                start += i_m - 1
                mean_r[level], mean_b[level] = _level_means(payoffs[3], draws,
                                                          np.arange(1, i_m) / i_m, params.c)
            mean_r.setflags(write=False)
            mean_b.setflags(write=False)
            self._means = mean_r, mean_b
        return self._means


@lru_cache(maxsize=1)
def fitness_table(params: GameParams) -> FitnessTable:
    """The FitnessTable of the most recently used parameter set.

    Every experiment works through its parameter sets one after another,
    so only the latest table is kept.
    """
    return FitnessTable(params)


def fitness_at(params: GameParams, i_c: int, i_d: int) -> FitnessTriple:
    """Fitness triple at integer composition (i_c, i_d), read from `fitness_table`.

    Strategies nobody currently plays get fitness 0 by convention, as
    does everyone when the coalition has fewer than two members.  It is
    the one reader that zeroes f_o of the full coalition, which the table
    holds as the outsider formula.
    """
    if i_c < 0 or i_d < 0 or i_c + i_d > params.z:
        raise ValueError(f"composition ({i_c}, {i_d}) invalid for z={params.z}")
    f_c, f_d, f_o = fitness_table(params).level(i_c + i_d)[:, i_c].tolist()
    return FitnessTriple(f_c, f_d, f_o if i_c + i_d < params.z else 0.0)
