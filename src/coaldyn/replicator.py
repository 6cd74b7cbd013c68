"""Deterministic selection dynamics on the strategy simplex.

The population state is summarised by x (cooperator share of the
coalition) and y (coalition share of the population).  Selection moves
both shares proportionally to fitness advantages:

    x_dot = x (1 - x) (f_C - f_D)
    y_dot = y (1 - y) (x f_C + (1 - x) f_D - f_O)

Fitness differences between coalition members hide a composition
effect: a focal cooperator and a focal defector see *different*
co-member draws.  The information-cost term K makes that exact:

    x_dot = x (1 - x) c ( <R> (eps1 + eps2) - 1 - K_exact )

holds identically, where <R> is the symmetrised mean marginal return
and K_exact collects the fitness shifts induced by a C <-> D swap.  A
further correction, K_dropped, measures what imitation based on
anticipated post-switch fitness (the informed field) would add on top.

The module also locates and classifies rest points of the field
interpolated off the integer state grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameParams, PopulationState, group_size
from .sampling import _level_draws, _payoff_grid, fitness, fitness_at, fitness_table, pmf_row

__all__ = [
    "InformationCost",
    "FlowField",
    "FixedPoint",
    "replicator_field",
    "mean_return",
    "mean_benefit",
    "information_cost",
    "flow_field",
    "find_fixed_points",
]


def replicator_field(params: GameParams, state: PopulationState) -> tuple[float, float]:
    """(x_dot, y_dot) at a population state.

    Boundary factors vanish exactly: states with x in {0, 1} give
    x_dot == 0.0 and y in {0, 1} give y_dot == 0.0, with no residual
    float noise.  An empty coalition (x undefined) maps to (0, 0).
    """
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    if state.i_m == 0:
        return 0.0, 0.0
    trip = fitness(params, state)
    x = state.x
    y = state.y
    x_dot = x * (1.0 - x) * (trip.f_c - trip.f_d)
    y_dot = y * (1.0 - y) * (x * trip.f_c + (1.0 - x) * trip.f_d - trip.f_o)
    return x_dot, y_dot


def _member_rows(params: GameParams, i_c: int, i_d: int):
    """Co-member draws seen by a focal defector (row0) and cooperator (row1)."""
    i_m = i_c + i_d
    n = group_size(params, i_m)
    row0 = pmf_row(i_m - 1, n - 1, i_c) if i_d >= 1 else None
    row1 = pmf_row(i_m - 1, n - 1, i_c - 1) if i_c >= 1 else None
    return n, row0, row1


def mean_return(params: GameParams, state: PopulationState) -> float:
    """Mean marginal return <R> over group draws, symmetrised between member views.

    Averages R(k c) under the mean of the co-member distributions a
    focal cooperator and a focal defector face; requires both member
    kinds present (1 <= i_c <= i_m - 1).
    """
    i_c, i_d = state.i_c, state.i_d
    if state.i_m < 2 or i_c < 1 or i_d < 1:
        raise ValueError(f"mean_return needs both member kinds present, got {state}")
    n, row0, row1 = _member_rows(params, i_c, i_d)
    produced = _produced_grid(params, n)
    r_vals = (produced[1:] - produced[:-1]) / params.c
    return float((0.5 * (row0 + row1)) @ r_vals)


def _produced_grid(params: GameParams, n: int) -> np.ndarray:
    """Benefit on the contribution grid 0..n."""
    return _payoff_grid(params, n)[3]


def mean_benefit(params: GameParams, state: PopulationState) -> float:
    """Mean relative benefit <b> of the group a random member anchors.

    Conditions on whether the anchoring member cooperates (adding its
    own contribution) and averages b = B/c over the co-member draw.
    """
    i_c, i_d = state.i_c, state.i_d
    if state.i_m < 2:
        raise ValueError(f"mean_benefit needs a coalition of two or more, got {state}")
    n, row0, row1 = _member_rows(params, i_c, i_d)
    b_vals = _produced_grid(params, n) / params.c
    x = state.x
    out = 0.0
    if i_c >= 1:
        out += x * float(row1 @ b_vals[1:])
    if i_d >= 1:
        out += (1.0 - x) * float(row0 @ b_vals[:-1])
    return out


@dataclass(frozen=True)
class InformationCost:
    """Decomposition of the information cost K at one state.

    k_exact is the term that closes the replicator identity
    x_dot = x(1-x) c (<R>(eps1+eps2) - 1 - k_exact) exactly; k_dropped
    is the additional piece an informed-imitation field would
    contribute.  Both are dimensionless (measured in contribution
    units).  Components are the raw shifted-fitness differences, in
    payoff units:

    swap_c      fitness change of cooperators under a D -> C swap
                minus that of defectors (their composition sensitivity)
    outsider    outsider-fitness sensitivity to which member kind left
    entry_c     cooperator-fitness change when the joiner cooperates
                versus defects
    entry_d     defector-fitness change when the joiner defects versus
                cooperates

    A field is None when its shifted composition leaves the state
    space, and the corresponding K value is None as well (boundary).
    """

    k_exact: float | None
    k_dropped: float | None
    swap_c: float | None
    outsider: float | None
    entry_c: float | None
    entry_d: float | None

    @property
    def k_full(self) -> float | None:
        """Total informed-vs-uninformed gap, k_exact + k_dropped."""
        if self.k_exact is None or self.k_dropped is None:
            return None
        return self.k_exact + self.k_dropped


def information_cost(params: GameParams, state: PopulationState) -> InformationCost:
    """Information-cost decomposition at an integer state.

    k_exact needs both member kinds present; k_dropped additionally
    needs an outsider to exist and the shrunken coalition to still
    convene a group (i_m >= 3).
    """
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    i_c, i_d, z = state.i_c, state.i_d, state.z
    i_m = state.i_m
    c = params.c
    y = state.y

    swap = outsider = entry_c = entry_d = None
    k_exact = k_dropped = None
    if i_c >= 1 and i_d >= 1:
        here = fitness_at(params, i_c, i_d)
        swap = (
            fitness_at(params, i_c + 1, i_d - 1).f_c
            - here.f_c
            + here.f_d
            - fitness_at(params, i_c - 1, i_d + 1).f_d
        )
        k_exact = swap / (2.0 * c)
        if i_m >= 3 and i_m < z:
            outsider = (
                fitness_at(params, i_c, i_d - 1).f_o
                - fitness_at(params, i_c - 1, i_d).f_o
            )
            entry_c = (
                fitness_at(params, i_c + 1, i_d - 1).f_c
                - fitness_at(params, i_c + 1, i_d).f_c
            )
            entry_d = (
                fitness_at(params, i_c, i_d + 1).f_d
                - fitness_at(params, i_c - 1, i_d + 1).f_d
            )
            k_dropped = (1.0 - y) * (outsider - entry_c - entry_d) / (2.0 * c)
    return InformationCost(
        k_exact=k_exact,
        k_dropped=k_dropped,
        swap_c=swap,
        outsider=outsider,
        entry_c=entry_c,
        entry_d=entry_d,
    )


@dataclass
class FlowField:
    """Replicator field plus diagnostics over all interior integer states.

    Interior means both member kinds present (i_c >= 1, i_d >= 1);
    there x, x_dot, mean_R, mean_b and K_exact are all defined.
    K_dropped is NaN where its shifted compositions leave the state
    space (two-member coalitions and the full-coalition row).
    """

    params: GameParams
    i_c: np.ndarray
    i_d: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_dot: np.ndarray
    y_dot: np.ndarray
    mean_r: np.ndarray
    mean_b: np.ndarray
    k_exact: np.ndarray
    k_dropped: np.ndarray

    COLUMNS = ("i_C", "i_D", "x", "y", "x_dot", "y_dot", "mean_R", "mean_b", "K_exact", "K_dropped")

    def rows(self):
        """Per-state tuples in the COLUMNS order, as Python ints and floats."""
        return zip(*(col.tolist() for col in (
            self.i_c, self.i_d, self.x, self.y, self.x_dot, self.y_dot,
            self.mean_r, self.mean_b, self.k_exact, self.k_dropped)))


def flow_field(params: GameParams) -> FlowField:
    """Evaluate the replicator field and its K diagnostics on the interior grid.

    Every column is read off the fitness table by shifted indexing, with the
    arithmetic of the pointwise functions (`replicator_field`,
    `information_cost`), so the two agree exactly; mean_R and mean_b come
    from one hypergeometric matrix per coalition size.  Rows run over
    i_m = 2..z and, within one, i_c = 1..i_m - 1.
    """
    z, c = params.z, params.c
    f_c, f_d, f_o = fitness_table(params).grid()
    i_m, i_c = np.tril_indices(z + 1, -1)
    interior = i_c >= 1
    i_m, i_c = i_m[interior], i_c[interior]
    x = i_c / i_m
    y = i_m / z
    here_c, here_d = f_c[i_m, i_c], f_d[i_m, i_c]
    x_dot = x * (1.0 - x) * (here_c - here_d)
    y_dot = y * (1.0 - y) * (x * here_c + (1.0 - x) * here_d - f_o[i_m, i_c])
    swap = f_c[i_m, i_c + 1] - here_c + here_d - f_d[i_m, i_c - 1]
    outsider = f_o[i_m - 1, i_c] - f_o[i_m - 1, i_c - 1]
    entry_c = f_c[i_m, i_c + 1] - f_c[i_m + 1, i_c + 1]
    entry_d = f_d[i_m + 1, i_c] - f_d[i_m, i_c - 1]
    k_dropped = np.where((i_m >= 3) & (i_m < z),
                         (1.0 - y) * (outsider - entry_c - entry_d) / (2.0 * c), np.nan)

    mean_r = np.empty(len(i_m))
    mean_b = np.empty(len(i_m))
    start = 0
    for m in range(2, z + 1):
        n = group_size(params, m)
        produced = _produced_grid(params, n)
        r_vals = (produced[1:] - produced[:-1]) / c
        b_vals = produced / c
        # Row s of g: averages over the draw with s cooperating co-members;
        # state i_c reads row i_c - 1 (focal cooperator) and row i_c (defector).
        g = _level_draws(m, n) @ np.column_stack((r_vals, b_vals[1:], b_vals[:-1]))
        level = slice(start, start + m - 1)
        start += m - 1
        mean_r[level] = 0.5 * (g[1:, 0] + g[:-1, 0])
        mean_b[level] = x[level] * g[:-1, 1] + (1.0 - x[level]) * g[1:, 2]
    return FlowField(
        params=params,
        i_c=i_c,
        i_d=i_m - i_c,
        x=x,
        y=y,
        x_dot=x_dot,
        y_dot=y_dot,
        mean_r=mean_r,
        mean_b=mean_b,
        k_exact=swap / (2.0 * c),
        k_dropped=k_dropped,
    )


class _InterpolatedField:
    """Bilinear extension of the fitness triple off the integer grid.

    Fitness rows are indexed by coalition size; within a row the node
    coordinate is x = i_c / i_m.  Member fitnesses are extended to the
    one node each is missing (x = 0 for cooperators, x = 1 for
    defectors) so that the member gap f_C - f_D at the end node equals
    the gap at the nearest interior node.  Extending each fitness
    separately (by its nearest value or by linear extrapolation)
    injects the rare-invader edge gap into the row and manufactures
    interior sign changes even where the gap is constant across all
    interior states -- e.g. the whole-coalition regime, where
    f_C - f_D = -c identically and the interpolated x-flow must stay
    strictly negative.  Clamping the gap preserves the sign structure
    of the integer grid, which is the point of interpolating at all.
    The outsider formula is evaluated hypothetically where no outsider
    exists.  Rows for coalitions of fewer than two members carry zero
    fitness (no group convenes).
    """

    def __init__(self, params: GameParams):
        self.params = params
        z = params.z
        self.z = z
        table = fitness_table(params)
        fc, fd, fo = (a.copy() for a in table.grid())
        m = np.arange(2, z + 1)
        fc[m, 0] = fd[m, 0] + (fc[m, 1] - fd[m, 1])
        fd[m, m] = fc[m, m] - (fc[m, m - 1] - fd[m, m - 1])
        fo[z, : z + 1] = table.f_o_full
        self.fc_rows, self.fd_rows, self.fo_rows = fc, fd, fo

    def _row_eval(self, i_m: int, x: float) -> tuple[float, float, float]:
        if i_m < 2:
            return 0.0, 0.0, 0.0
        nodes = np.arange(i_m + 1) / i_m
        row = slice(0, i_m + 1)
        return (
            float(np.interp(x, nodes, self.fc_rows[i_m, row])),
            float(np.interp(x, nodes, self.fd_rows[i_m, row])),
            float(np.interp(x, nodes, self.fo_rows[i_m, row])),
        )

    def fitness_values(self, x: float, y: float) -> tuple[float, float, float]:
        t = y * self.z
        j0 = int(min(max(np.floor(t), 0), self.z - 1))
        frac = t - j0
        lo = self._row_eval(j0, x)
        hi = self._row_eval(j0 + 1, x)
        return tuple((1.0 - frac) * a + frac * b for a, b in zip(lo, hi))

    def reduced(self, x: float, y: float) -> tuple[float, float]:
        """(f_C - f_D, mixed member fitness - f_O): zero at interior rest points."""
        fc, fd, fo = self.fitness_values(x, y)
        return fc - fd, x * fc + (1.0 - x) * fd - fo

    def field(self, x: float, y: float) -> tuple[float, float]:
        g1, g2 = self.reduced(x, y)
        return x * (1.0 - x) * g1, y * (1.0 - y) * g2


@dataclass(frozen=True)
class FixedPoint:
    """Interior rest point of the interpolated replicator field."""

    x: float
    y: float
    residual: float
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    eigenvalues: tuple[complex, complex]
    kind: str


def _classify(jac: np.ndarray) -> tuple[tuple[complex, complex], str]:
    eigs = np.linalg.eigvals(jac)
    tr = float(np.trace(jac))
    det = float(np.linalg.det(jac))
    disc = tr * tr - 4.0 * det
    scale = float(np.max(np.abs(jac))) or 1.0
    tol = 1e-9 * scale
    if det < -tol * scale:
        kind = "saddle"
    elif disc >= 0.0:
        kind = "stable-node" if tr < 0.0 else "unstable-node"
    elif abs(tr) <= tol:
        kind = "center"
    else:
        kind = "stable-spiral" if tr < 0.0 else "unstable-spiral"
    eigs = sorted((complex(e) for e in eigs), key=lambda e: (e.real, e.imag))
    return (eigs[0], eigs[1]), kind


def find_fixed_points(params: GameParams, grid_resolution: int = 40) -> list[FixedPoint]:
    """Locate and classify interior rest points of the interpolated field.

    A coarse scan over a grid_resolution x grid_resolution mesh flags
    cells where both reduced fitness gaps change sign; each candidate
    is polished by damped Newton iteration on the reduced system and
    kept once the full field residual drops below 1e-8.  The Jacobian
    for classification uses central differences with step 1/z, one
    state-grid cell.  Results do not depend on grid_resolution once it
    is fine enough to isolate the basins (doubling it must reproduce
    the same points).
    """
    interp = _InterpolatedField(params)
    z = params.z
    xs = np.linspace(1e-3, 1.0 - 1e-3, grid_resolution + 1)
    ys = np.linspace(2.0 / z + 1e-9, 1.0 - 1e-3, grid_resolution + 1)
    g1 = np.empty((len(ys), len(xs)))
    g2 = np.empty((len(ys), len(xs)))
    for a, yy in enumerate(ys):
        for b, xx in enumerate(xs):
            g1[a, b], g2[a, b] = interp.reduced(xx, yy)

    def newton(x0: float, y0: float):
        pt = np.array([x0, y0])
        h = 1.0 / (4.0 * z)  # FD step well inside one state-grid cell
        for _ in range(60):
            f0 = np.array(interp.reduced(pt[0], pt[1]))
            jac = np.empty((2, 2))
            for col, dv in enumerate(((h, 0.0), (0.0, h))):
                fp = np.array(interp.reduced(pt[0] + dv[0], pt[1] + dv[1]))
                fm = np.array(interp.reduced(pt[0] - dv[0], pt[1] - dv[1]))
                jac[:, col] = (fp - fm) / (2.0 * h)
            try:
                step = np.linalg.solve(jac, -f0)
            except np.linalg.LinAlgError:
                return None
            limit = 2.0 / grid_resolution
            norm = float(np.max(np.abs(step)))
            if norm > limit:
                step *= limit / norm
            nxt = pt + step
            if not (0.0 < nxt[0] < 1.0 and 2.0 / z < nxt[1] < 1.0):
                return None
            pt = nxt
            if float(np.max(np.abs(np.array(interp.field(pt[0], pt[1]))))) < 1e-10:
                break
        return pt

    found: list[FixedPoint] = []
    for a in range(len(ys) - 1):
        for b in range(len(xs) - 1):
            c1 = g1[a : a + 2, b : b + 2]
            c2 = g2[a : a + 2, b : b + 2]
            if c1.min() > 0 or c1.max() < 0 or c2.min() > 0 or c2.max() < 0:
                continue
            sol = newton(0.5 * (xs[b] + xs[b + 1]), 0.5 * (ys[a] + ys[a + 1]))
            if sol is None:
                continue
            residual = float(np.max(np.abs(np.array(interp.field(sol[0], sol[1])))))
            if residual >= 1e-8:
                continue
            if any(abs(fp.x - sol[0]) < 2e-6 and abs(fp.y - sol[1]) < 2e-6 for fp in found):
                continue
            hj = 1.0 / z
            jac = np.empty((2, 2))
            for col, dv in enumerate(((hj, 0.0), (0.0, hj))):
                fp_v = np.array(interp.field(sol[0] + dv[0], sol[1] + dv[1]))
                fm_v = np.array(interp.field(sol[0] - dv[0], sol[1] - dv[1]))
                jac[:, col] = (fp_v - fm_v) / (2.0 * hj)
            eigs, kind = _classify(jac)
            found.append(
                FixedPoint(
                    x=float(sol[0]),
                    y=float(sol[1]),
                    residual=residual,
                    jacobian=((jac[0, 0], jac[0, 1]), (jac[1, 0], jac[1, 1])),
                    eigenvalues=eigs,
                    kind=kind,
                )
            )
    found.sort(key=lambda fp: (fp.y, fp.x))
    return found
