"""Stage game for coalition-structured public-goods interactions.

Players in a population of size Z are cooperators (C), defectors (D) or
outsiders (O).  Cooperators and defectors are coalition members; a
sampled working group of N members produces a benefit from the pooled
contributions, keeps a fraction `e` as an excludable club good shared
only by the N group members, and lets the remaining `1 - e` spill over
to all Z players.  Both shares are congestible: the club share dilutes
as N^theta_prime, the spillover as Z^theta.  Cooperators pay a
contribution `c`; members pay a coalition fee `c_c`; outsiders pay
nothing and consume only the spillover.

This module holds the parameter/state containers, the coalition
group-size law, and the raw per-interaction payoffs on a group's
contribution grid, `_payoff_grid`, which `sampling` and `informed` read
whole.  Averaging over group composition lives in `sampling`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benefits import BenefitFunction

__all__ = [
    "GameParams",
    "PopulationState",
    "EffectiveShares",
    "group_size",
    "effective_shares",
]


@dataclass(frozen=True)
class GameParams:
    """Full parameter set for one model instance.

    Attributes
    ----------
    z : population size, an integer (Z >= 4 so every strategy can be represented twice)
    e : club fraction of the benefit kept inside the working group, in [0, 1]
    theta : congestibility of the public spillover share, in [0, 1]
    theta_prime : congestibility of the club share, in [0, 1]
    c : per-cooperator contribution, > 0 and finite
    c_c : coalition membership fee, >= 0 and finite
    g_m : guaranteed coalition footprint as a fraction of Z; Z*g_m >= 2
        so a coalition always has at least two seats
    alpha : coalition growth exponent, >= 1; alpha = 1 means the working
        group is always the whole coalition and alpha = inf the
        step-growth limit
    beta : imitation selection strength, >= 0 and finite
    mu : exploration (mutation) probability, in [0, 1]
    benefit : BenefitFunction handle used for all payoff evaluations
    """

    z: int
    e: float = 0.5
    theta: float = 1.0
    theta_prime: float = 1.0
    c: float = 1.0
    c_c: float = 1.0
    g_m: float = 0.05
    alpha: float = 1.0
    beta: float = 0.1
    mu: float = 0.01
    benefit: BenefitFunction = BenefitFunction.sigmoid()

    def __post_init__(self):
        if not isinstance(self.z, (int, np.integer)):
            raise ValueError(f"z must be an integer, got {self.z!r}")
        if self.z < 4:
            raise ValueError(f"z must be at least 4, got {self.z}")
        if not 0.0 <= self.e <= 1.0:
            raise ValueError(f"e must lie in [0, 1], got {self.e}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 <= self.theta_prime <= 1.0:
            raise ValueError(f"theta_prime must lie in [0, 1], got {self.theta_prime}")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0.0 <= self.c_c < math.inf:
            raise ValueError(f"c_c must be non-negative and finite, got {self.c_c}")
        if not 0.0 < self.g_m <= 1.0:
            raise ValueError(f"g_m must lie in (0, 1], got {self.g_m}")
        if self.z * self.g_m < 2.0 - 1e-12:
            raise ValueError(
                f"z * g_m must be at least 2 (a coalition needs two seats), "
                f"got {self.z * self.g_m:.3f}"
            )
        if not self.alpha >= 1.0:  # alpha = inf, the step-growth limit, is allowed
            raise ValueError(f"alpha must be at least 1, got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if not isinstance(self.benefit, BenefitFunction):
            raise TypeError("benefit must be a BenefitFunction")


@dataclass(frozen=True)
class PopulationState:
    """Integer composition (i_c cooperators, i_d defectors) of a population of z."""

    i_c: int
    i_d: int
    z: int

    def __post_init__(self):
        if self.i_c < 0 or self.i_d < 0:
            raise ValueError(f"strategy counts must be non-negative, got {self}")
        if self.i_c + self.i_d > self.z:
            raise ValueError(f"i_c + i_d exceeds population size in {self}")

    @property
    def i_m(self) -> int:
        """Coalition size (members of either stripe)."""
        return self.i_c + self.i_d

    @property
    def i_o(self) -> int:
        return self.z - self.i_m

    @property
    def y(self) -> float:
        """Coalition share of the population."""
        return self.i_m / self.z

    @property
    def x(self) -> float:
        """Cooperator share of the coalition; undefined for an empty coalition."""
        if self.i_m == 0:
            raise ValueError("x is undefined when the coalition is empty")
        return self.i_c / self.i_m


@dataclass(frozen=True)
class EffectiveShares:
    """Per-benefit-unit shares reaching a group member or an outsider.

    eps1 is the club share per member, eps2 the spillover share per
    player, kappa the fee measured in contribution units.
    """

    eps1: float
    eps2: float
    kappa: float

    @property
    def total(self) -> float:
        """Share reaching a member from one unit of benefit (club + spillover)."""
        return self.eps1 + self.eps2


def group_size(params: GameParams, i_m: int) -> int:
    """Working-group size N for a coalition of i_m members.

    N is the rounded value of Z * min{y, g_m + (1 - g_m) * y**alpha}
    with y = i_m / Z (ties round up), clamped to [2, max(i_m, 2)]: a
    working group never exceeds the coalition, and below two members
    the interaction is degenerate.

    With alpha = 1 the second branch is g_m + (1 - g_m) * y >= y, so
    the whole coalition convenes: N = i_m exactly, which the early
    return preserves without float round-trips.
    """
    if i_m < 0 or i_m > params.z:
        raise ValueError(f"i_m must lie in [0, z], got {i_m}")
    y = i_m / params.z
    grown = params.g_m + (1.0 - params.g_m) * y**params.alpha
    hi = max(i_m, 2)
    if y <= grown:
        n = i_m
    else:
        n = math.floor(params.z * grown + 0.5)
    return max(2, min(n, hi))


def effective_shares(params: GameParams, n: int) -> EffectiveShares:
    """Effective benefit shares for a working group of size n."""
    if n < 2:
        raise ValueError(f"group size must be at least 2, got {n}")
    eps1 = params.e / n**params.theta_prime
    eps2 = (1.0 - params.e) / params.z**params.theta
    return EffectiveShares(eps1=eps1, eps2=eps2, kappa=params.c_c / params.c)


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


def _check_on_grid(params: GameParams, c_prime: float, n: int) -> int:
    """The grid index k = c_prime / c; rejects a total no group of n-1 others can produce."""
    k = c_prime / params.c
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9 or not -1e-9 <= k <= n - 1 + 1e-9:
        raise ValueError(
            f"others' contribution {c_prime} is not k*c for k in [0, {n - 1}]; "
            f"likely a caller bug"
        )
    return round(k)
