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

Each quantity has one arithmetic, `replicator_field_grid`, over arrays
of states; `flow_field` reads it on the whole interior grid, one block
of `BLOCK_ROWS` states at a time, and the pointwise `replicator_field`
and `information_cost` read it at one state.  mean_R and mean_b come
from the fitness table's level draws.  The module also locates and
classifies rest points of the field interpolated off the integer state
grid.  Both steps of that search read one central-difference
linearisation, `_linearise`: the Newton polish with step 1/(4z) and the
classification with step 1/z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameParams, PopulationState
from .sampling import fitness_table

__all__ = [
    "InformationCost",
    "FlowField",
    "FixedPoint",
    "replicator_field",
    "mean_return",
    "information_cost",
    "flow_field",
    "replicator_field_grid",
    "find_fixed_points",
]

# Rows of per-state work done at once: `flow_field` and the per-state CSV
# writers hold temporaries of this length, not of the whole grid.
BLOCK_ROWS = 4096


def replicator_field(params: GameParams, state: PopulationState) -> tuple[float, float]:
    """(x_dot, y_dot) at a population state: `replicator_field_grid` at that one state.

    Boundary factors vanish exactly: states with x in {0, 1} give
    x_dot == 0.0 and y in {0, 1} give y_dot == 0.0, with no residual
    float noise.  An empty coalition (x undefined) maps to (0, 0).
    """
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    if state.i_m == 0:
        return 0.0, 0.0
    x_dot, y_dot = replicator_field_grid(params, np.int64(state.i_m), np.int64(state.i_c))[2:4]
    return x_dot.item(), y_dot.item()


def mean_return(params: GameParams, state: PopulationState) -> float:
    """Mean marginal return <R> over group draws, symmetrised between member views.

    Averages R(k c) under the mean of the co-member distributions a
    focal cooperator and a focal defector face; requires both member
    kinds present (1 <= i_c <= i_m - 1).  Read off `FitnessTable.means`
    of the state's coalition size.
    """
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    if state.i_m < 2 or state.i_c < 1 or state.i_d < 1:
        raise ValueError(f"mean_return needs both member kinds present, got {state}")
    return fitness_table(params).means(state.i_m)[0][state.i_c - 1].item()


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

    A field is NaN when its shifted composition leaves the state
    space, and the corresponding K value is NaN as well (boundary), as
    in `flow_field`.
    """

    k_exact: float
    k_dropped: float
    swap_c: float
    outsider: float
    entry_c: float
    entry_d: float

    @property
    def k_full(self) -> float:
        """Total informed-vs-uninformed gap, k_exact + k_dropped; NaN where either is."""
        return self.k_exact + self.k_dropped


def information_cost(params: GameParams, state: PopulationState) -> InformationCost:
    """Information-cost decomposition at an integer state, read off `replicator_field_grid`.

    k_exact needs both member kinds present; k_dropped additionally
    needs an outsider to exist and the shrunken coalition to still
    convene a group (i_m >= 3).
    """
    if state.z != params.z:
        raise ValueError(f"state population {state.z} != params population {params.z}")
    if not 1 <= state.i_c < state.i_m:
        return InformationCost(*[math.nan] * 6)
    k_exact, k_dropped, swap, *shifted = (a.item() for a in replicator_field_grid(
        params, np.int64(state.i_m), np.int64(state.i_c))[4:])
    if math.isnan(k_dropped):
        shifted = [math.nan] * 3
    return InformationCost(k_exact, k_dropped, swap, *shifted)


@dataclass
class FlowField:
    """Replicator field plus diagnostics over all interior integer states.

    Interior means both member kinds present (i_c >= 1, i_d >= 1);
    there x, x_dot, mean_R, mean_b and K_exact are all defined.
    K_dropped is NaN where its shifted compositions leave the state
    space (two-member coalitions and the full-coalition row).  On the
    full-coalition row y_dot is an exact zero that takes the sign of the
    gap the interpolant uses at y = 1, mixed member fitness - f_O.
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


def replicator_field_grid(params: GameParams, i_m: np.ndarray, i_c: np.ndarray):
    """(x, y, x_dot, y_dot, K_exact, K_dropped, swap, outsider, entry_c, entry_d) at (i_c, i_m - i_c).

    i_m and i_c are integer arrays, or numpy integers for one state (no
    array overhead).  Every state needs i_m >= 1; edge states (i_c = 0 or
    i_m) are allowed.  Each column is a shifted read of the fitness table, which builds only
    the levels from min(i_m) - 1 to max(i_m) + 1.  x_dot and y_dot hold
    everywhere; y_dot at i_m = z is a zero of the sign of the gap to the
    outsider formula.  The K columns and the four `InformationCost` components
    mean something only where both member kinds are present; K_dropped is
    NaN where it needs 3 <= i_m < z and the components are not masked.
    `replicator_field` and `information_cost` read this at one state.
    """
    z, c = params.z, params.c
    f_c, f_d, f_o = fitness_table(params).span(int(i_m.min()) - 1, int(i_m.max()) + 1)
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
    return x, y, x_dot, y_dot, swap / (2.0 * c), k_dropped, swap, outsider, entry_c, entry_d


def _row_blocks(n: int):
    """Slices of at most BLOCK_ROWS consecutive rows that cover rows 0..n-1 in order."""
    return (slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS))


def flow_field(params: GameParams) -> FlowField:
    """Evaluate the replicator field and its K diagnostics on the interior grid.

    The field and K columns are filled from `replicator_field_grid` one
    block of `BLOCK_ROWS` states at a time, so its temporaries stay a block
    long; each is elementwise, so the values do not depend on the blocks.
    mean_R and mean_b come from the fitness table's `means`, one coalition
    size at a time, whose one draw also stores that size's fitness.  Rows
    run over i_m = 2..z and, within one, i_c = 1..i_m - 1.
    """
    table = fitness_table(params)
    mean_r, mean_b = map(np.concatenate, zip(*(table.means(i_m) for i_m in range(2, params.z + 1))))
    i_m, i_c = np.tril_indices(params.z + 1, -1)
    interior = i_c >= 1
    i_m, i_c = i_m[interior], i_c[interior]
    x, y, x_dot, y_dot, k_exact, k_dropped = columns = np.empty((6, len(i_m)))
    for rows in _row_blocks(len(i_m)):
        for column, values in zip(columns, replicator_field_grid(params, i_m[rows], i_c[rows])[:6]):
            column[rows] = values
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
        k_exact=k_exact,
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
    fitness (no group convenes).  Levels are read when evaluated: row
    i_m >= 2 is built from the table's level i_m, the i_m + 1 nodes
    read, so a search builds only the levels it reads.
    """

    def __init__(self, params: GameParams):
        self.z = params.z
        self.table = fitness_table(params)

    def _row_eval(self, i_m: int, x):
        """Row i_m's (f_C, f_D, f_O) at x, a float or an array of them."""
        if i_m < 2:
            return 0.0, 0.0, 0.0
        fc, fd, _ = row = self.table.level(i_m).copy()
        fc[0] = fd[0] + (fc[1] - fd[1])
        fd[i_m] = fc[i_m] - (fc[i_m - 1] - fd[i_m - 1])
        nodes = np.arange(i_m + 1) / i_m
        return tuple(np.interp(x, nodes, f) for f in row)

    def reduced(self, x, y: float) -> tuple[float, float]:
        """(f_C - f_D, mixed member fitness - f_O) of the interpolated fitness at (x, y).

        Zero at interior rest points; x may be an array, y is one float.
        """
        t = y * self.z
        j0 = int(min(max(np.floor(t), 0), self.z - 1))
        frac = t - j0
        fc, fd, fo = ((1.0 - frac) * a + frac * b
                      for a, b in zip(self._row_eval(j0, x), self._row_eval(j0 + 1, x)))
        return fc - fd, x * fc + (1.0 - x) * fd - fo

    def field(self, x: float, y: float) -> tuple[float, float]:
        g1, g2 = self.reduced(x, y)
        return x * (1.0 - x) * g1, y * (1.0 - y) * g2


def _linearise(fn, x: float, y: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """fn at (x, y) and its central-difference Jacobian of step h, as arrays.

    fn maps (x, y) to a pair and takes an array of x at one y, so the
    x-stencil (x, x + h, x - h) is one call and the y-stencil two.
    """
    at = np.array(fn(np.array([x, x + h, x - h]), y))
    up, down = np.array(fn(x, y + h)), np.array(fn(x, y - h))
    return at[:, 0], np.column_stack(((at[:, 1] - at[:, 2]) / (2.0 * h), (up - down) / (2.0 * h)))


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
    kept once the full field residual drops below 1e-8.  Both steps
    read one linearisation, `_linearise`: Newton on the reduced gaps
    with step 1/(4z), inside one state-grid cell, and the classification
    on the field with step 1/z, one state-grid cell.

    The scan can miss rest points, and which it misses depends on
    grid_resolution: doubling it does not reproduce the same set.  With
    g_m = 5/z, at z = 100 and alpha = 2 the search finds one coexistence
    point at resolution 40, two at 80 and three at 160, all roots of the
    interpolant within 0.012 of one another in y; on the
    `perfbench/configs/flow_z200.cfg` game the default resolution of 40
    finds the saddle near (0.7071, 0.1002) and misses an unstable spiral
    near (0.7203, 0.2984) that 160 finds.  `test_grid_doubling_invariance`
    checks the doubling only at games whose rest points are isolated.
    """
    interp = _InterpolatedField(params)
    z = params.z
    xs = np.linspace(1e-3, 1.0 - 1e-3, grid_resolution + 1)
    ys = np.linspace(2.0 / z + 1e-9, 1.0 - 1e-3, grid_resolution + 1)
    gaps = np.array([interp.reduced(xs, yy) for yy in ys]).swapaxes(0, 1)  # (g1, g2) by (y, x)
    corners = np.stack([gaps[:, :-1, :-1], gaps[:, :-1, 1:], gaps[:, 1:, :-1], gaps[:, 1:, 1:]])
    # A candidate cell: both gaps take both signs, or a zero, at its four corners.
    candidates = ~((corners.min(axis=0) > 0) | (corners.max(axis=0) < 0)).any(axis=0)

    def newton(x0: float, y0: float):
        pt = np.array([x0, y0])
        h = 1.0 / (4.0 * z)  # FD step well inside one state-grid cell
        f0, jac = _linearise(interp.reduced, pt[0], pt[1], h)
        for _ in range(60):
            try:
                step = np.linalg.solve(jac, -f0)
            except np.linalg.LinAlgError:
                return None
            limit = 2.0 / grid_resolution
            norm = float(np.max(np.abs(step)))
            if norm > limit:
                step *= limit / norm
            pt = pt + step
            if not (0.0 < pt[0] < 1.0 and 2.0 / z < pt[1] < 1.0):
                return None
            f0, jac = _linearise(interp.reduced, pt[0], pt[1], h)
            # The field at pt, (x (1 - x) g1, y (1 - y) g2), from the reduced gaps there.
            if float(np.max(np.abs(pt * (1.0 - pt) * f0))) < 1e-10:
                break
        return pt

    found: list[FixedPoint] = []
    for a, b in np.argwhere(candidates):  # row-major: by y, then by x
        sol = newton(0.5 * (xs[b] + xs[b + 1]), 0.5 * (ys[a] + ys[a + 1]))
        if sol is None:
            continue
        at, jac = _linearise(interp.field, sol[0], sol[1], 1.0 / z)
        residual = float(np.max(np.abs(at)))
        if residual >= 1e-8 or any(abs(fp.x - sol[0]) < 2e-6 and abs(fp.y - sol[1]) < 2e-6 for fp in found):
            continue
        eigs, kind = _classify(jac)
        found.append(FixedPoint(x=float(sol[0]), y=float(sol[1]), residual=residual,
                                jacobian=((jac[0, 0], jac[0, 1]), (jac[1, 0], jac[1, 1])),
                                eigenvalues=eigs, kind=kind))
    found.sort(key=lambda fp: (fp.y, fp.x))
    return found
