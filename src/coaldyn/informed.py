"""Marginal-gain analysis for players who see the group composition.

An *informed* player knows how many cooperators its working group
holds and can compare strategies at that resolution, rather than
against the population-averaged fitness.  This module provides the
per-composition pairwise gains, the region classification they induce
over (group size, contribution) space, and the informed selection
field obtained when imitation is driven by anticipated post-switch
fitness instead of current average fitness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameParams, PopulationState, _check_on_grid, effective_shares
from .sampling import fitness_at, fitness_table

__all__ = [
    "MarginalGains",
    "StateClass",
    "InformedFlow",
    "marginal_gains",
    "classify_state",
    "informed_field",
]


@dataclass(frozen=True)
class MarginalGains:
    """Pairwise payoff gains inside one working group.

    d_cd: gain of cooperating over defecting as a member,
    d_do: gain of defecting membership over staying outside,
    d_co: gain of cooperating membership over staying outside.
    All evaluated at the same others' contribution total.
    """

    d_cd: float
    d_do: float
    d_co: float


@dataclass(frozen=True)
class StateClass:
    """Sign pattern of the marginal gains plus its regime label.

    `signs` holds (sign d_cd, sign d_do, sign d_co) with values in
    {-1, 0, +1}.  `label` is "A" where cooperative membership beats
    both alternatives (stable full engagement), "B" where membership
    pays but cooperation does not (members free-ride), None elsewhere.
    """

    signs: tuple[int, int, int]
    label: str | None


@dataclass(frozen=True)
class InformedFlow:
    """Informed selection field at one state, with its switch-gain parts.

    delta_xy is the fitness change a strategy-x player anticipates from
    switching to y: fitness of y at the post-switch composition minus
    fitness of x at the current one.  Entries whose weight in the field
    vanishes are not evaluated and stay None.
    """

    x_dot: float
    y_dot: float
    delta_cd: float | None = None
    delta_dc: float | None = None
    delta_co: float | None = None
    delta_oc: float | None = None
    delta_do: float | None = None
    delta_od: float | None = None


def _gain_terms(params: GameParams, c_prime, n: int):
    """(d_cd, d_do, d_co, returns_clear, joining_pays) at others' contribution c_prime.

    `c_prime` is a scalar or an array on the contribution grid; both take
    the same arithmetic, so whole-grid callers agree with `marginal_gains`
    and `classify_state` bit for bit.  The gains come in closed form from
    the marginal return R and the relative benefits b = B/c; the two
    booleans are the threshold conditions R (eps1 + eps2) > 1 and
    b(C' + c) eps1 > 1 - R eps2 + kappa.
    """
    shares = effective_shares(params, n)
    c = params.c
    scale = n * c
    produced_here = params.benefit(c_prime, scale)
    produced_next = params.benefit(c_prime + c, scale)
    r = (produced_next - produced_here) / c
    b_here = produced_here / c
    b_next = produced_next / c
    d_cd = c * (r * shares.total - 1.0)
    d_do = c * (b_here * shares.eps1 - shares.kappa)
    d_co = c * (r * shares.total + b_here * shares.eps1 - 1.0 - shares.kappa)
    returns_clear = r * shares.total > 1.0
    joining_pays = b_next * shares.eps1 > 1.0 - r * shares.eps2 + shares.kappa
    return d_cd, d_do, d_co, returns_clear, joining_pays


def marginal_gains(params: GameParams, c_prime: float, n: int) -> MarginalGains:
    """Pairwise strategy gains for a group of n with others contributing c_prime.

    Computed in closed form from the marginal return and the effective
    shares; `payoff` subtraction gives the same numbers and serves as
    an independent cross-check in the test suite.
    """
    _check_on_grid(params, c_prime, n)
    d_cd, d_do, d_co, _, _ = _gain_terms(params, c_prime, n)
    return MarginalGains(d_cd=d_cd, d_do=d_do, d_co=d_co)


def _sign(v: float) -> int:
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def classify_state(params: GameParams, c_prime: float, n: int) -> StateClass:
    """Classify one (group size, contribution) cell by its gain signs.

    Label "A" requires both threshold conditions strictly: the marginal
    return must clear the dilution threshold, R > 1/(eps1 + eps2), and
    joining as a cooperator must beat staying outside,
    b(C' + c) * eps1 > 1 - R * eps2 + kappa.  These are algebraically
    the sign conditions d_cd > 0 and d_co > 0; the sign-based reading
    is asserted against this one in the tests.
    """
    _check_on_grid(params, c_prime, n)
    d_cd, d_do, d_co, returns_clear, joining_pays = _gain_terms(params, c_prime, n)
    signs = (_sign(d_cd), _sign(d_do), _sign(d_co))
    if returns_clear and joining_pays:
        label = "A"
    elif d_cd < 0.0 and d_do > 0.0:
        label = "B"
    else:
        label = None
    return StateClass(signs=signs, label=label)


def gains_on_grid(params: GameParams, k: np.ndarray, n: int):
    """`marginal_gains` and `classify_state` at c_prime = k c for an array of k.

    Returns (d_cd, d_do, d_co, labels): the gains as float arrays and the
    labels as a string array, "" where `classify_state` gives None.
    """
    d_cd, d_do, d_co, returns_clear, joining_pays = _gain_terms(params, k * params.c, n)
    labels = np.where(returns_clear & joining_pays, "A",
                      np.where((d_cd < 0.0) & (d_do > 0.0), "B", ""))
    return d_cd, d_do, d_co, labels


def informed_field(params: GameParams, state: PopulationState) -> InformedFlow:
    """Selection field when imitation weighs anticipated post-switch fitness.

    Each of the six directed switches x -> y contributes its gain
    delta_xy at the composition the switch would create, weighted by
    how often such a pair meets.  Gains whose pair weight is zero are
    never evaluated, so compositions outside the state space are never
    touched.
    """
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    i_c, i_d, z = state.i_c, state.i_d, state.z
    i_m = i_c + i_d
    if i_m == 0:
        return InformedFlow(x_dot=0.0, y_dot=0.0)
    x = state.x
    y = state.y
    here = fitness_at(params, i_c, i_d)

    d_cd = d_dc = d_co = d_oc = d_do = d_od = None
    if 0 < x < 1:  # both member kinds present: the C<->D swaps can happen
        d_dc = fitness_at(params, i_c + 1, i_d - 1).f_c - here.f_d
        d_cd = fitness_at(params, i_c - 1, i_d + 1).f_d - here.f_c
    if x > 0:  # a cooperator can leave
        d_co = fitness_at(params, i_c - 1, i_d).f_o - here.f_c
    if x < 1:  # a defector can leave
        d_do = fitness_at(params, i_c, i_d - 1).f_o - here.f_d
    if y < 1:  # an outsider can join either way
        d_oc = fitness_at(params, i_c + 1, i_d).f_c - here.f_o
        d_od = fitness_at(params, i_c, i_d + 1).f_d - here.f_o

    def val(delta):
        return 0.0 if delta is None else delta

    x_dot = 0.5 * x * (1.0 - x) * (
        y * (val(d_dc) - val(d_cd))
        + (1.0 - y) * (val(d_oc) - val(d_co) + val(d_do) - val(d_od))
    )
    y_dot = 0.5 * y * (1.0 - y) * (
        x * (val(d_oc) - val(d_co)) + (1.0 - x) * (val(d_od) - val(d_do))
    )
    return InformedFlow(
        x_dot=x_dot,
        y_dot=y_dot,
        delta_cd=d_cd,
        delta_dc=d_dc,
        delta_co=d_co,
        delta_oc=d_oc,
        delta_do=d_do,
        delta_od=d_od,
    )


def informed_field_grid(params: GameParams, i_m: np.ndarray, i_c: np.ndarray):
    """`informed_field`'s (x_dot, y_dot) at the states (i_c, i_m - i_c), i_m >= 1.

    Each switch gain is a shifted read of the fitness table, which builds
    only the levels from min(i_m) - 1 to max(i_m) + 1, and a gain whose
    pair weight vanishes counts as zero, with the arithmetic of
    `informed_field`, so the two agree exactly.
    """
    f_c, f_d, f_o = fitness_table(params).span(int(i_m.min()) - 1, int(i_m.max()) + 1)
    x = i_c / i_m
    y = i_m / params.z
    here_c, here_d, here_o = f_c[i_m, i_c], f_d[i_m, i_c], f_o[i_m, i_c]
    both = (i_c > 0) & (i_c < i_m)
    has_room = i_m < params.z
    d_dc = np.where(both, f_c[i_m, i_c + 1] - here_d, 0.0)
    d_cd = np.where(both, f_d[i_m, i_c - 1] - here_c, 0.0)
    d_co = np.where(i_c > 0, f_o[i_m - 1, i_c - 1] - here_c, 0.0)
    d_do = np.where(i_c < i_m, f_o[i_m - 1, i_c] - here_d, 0.0)
    d_oc = np.where(has_room, f_c[i_m + 1, i_c + 1] - here_o, 0.0)
    d_od = np.where(has_room, f_d[i_m + 1, i_c] - here_o, 0.0)
    x_dot = 0.5 * x * (1.0 - x) * (
        y * (d_dc - d_cd) + (1.0 - y) * (d_oc - d_co + d_do - d_od)
    )
    y_dot = 0.5 * y * (1.0 - y) * (x * (d_oc - d_co) + (1.0 - x) * (d_od - d_do))
    return x_dot, y_dot
