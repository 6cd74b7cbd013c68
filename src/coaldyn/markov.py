"""Finite-population stochastic dynamics over coalition compositions.

A population of ``z`` individuals is tracked by the pair ``(i_c, i_d)`` —
coalition cooperators and defectors — with ``i_o = z - i_c - i_d`` outsiders.
One update step picks a focal individual uniformly at random; with probability
``mu`` the focal adopts one of the two other strategies (fair coin), otherwise
it picks a role model uniformly among the remaining ``z - 1`` individuals and
imitates with the Fermi probability.  Aggregated over compositions this is a
sparse row-stochastic Markov chain; this module builds it, solves for its
stationary distribution, computes the per-state drift ("gradient of
selection"), and provides an individual-based simulator as an independent
oracle for both.

Transition rule per ordered strategy pair X -> Y (``mutation_form="scaled"``,
the default):

    T[X->Y] = (i_X / z) * ((1 - mu) * (i_Y / (z - 1)) * p(X, Y) + mu / 2)

with ``p(X, Y) = 1 / (1 + exp(beta * (f_X - f_Y)))``.  The ``"literal"``
variant adds the mutation term outside the focal-strategy factor,

    T[X->Y] = (i_X / z) * (i_Y / (z - 1)) * p(X, Y) * (1 - mu) + mu / 2

masked to zero when no X-individual exists.  The literal form keeps rows
stochastic only for small ``mu`` (see ``literal_row_sum_max``; the build
raises otherwise) and exists for comparison; the simulator realizes the
scaled form only, which is the one the individual-based process actually
induces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu
from scipy.special import expit

from .errors import CapacityError, NonConvergenceError, ReducibleChainError
from .game import GameParams
from .sampling import fitness_table

STRATEGY_NAMES = ("C", "D", "O")

# Ordered strategy pairs (focal, role-model) and the (di_c, di_d) composition
# change each induces.  Order is fixed: it defines move indices everywhere.
MOVES: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
MOVE_DELTAS = np.array(
    [(-1, +1), (-1, 0), (+1, -1), (0, -1), (+1, 0), (0, +1)], dtype=np.int64
)
MOVE_DELTAS.setflags(write=False)
MOVE_LABELS = tuple(f"{STRATEGY_NAMES[x]}>{STRATEGY_NAMES[y]}" for x, y in MOVES)

# PAIR_TO_MOVE[x][y] -> move index, -1 on the diagonal.
PAIR_TO_MOVE = np.full((3, 3), -1, dtype=np.int64)
for _m, (_x, _y) in enumerate(MOVES):
    PAIR_TO_MOVE[_x, _y] = _m
PAIR_TO_MOVE.setflags(write=False)


@dataclass(frozen=True)
class StateIndex:
    """Bijection between compositions (i_c, i_d), i_c + i_d <= z, and 0..S-1.

    States are ordered lexicographically by (i_c, i_d); ``offsets[i_c]`` is the
    flat index of (i_c, 0).
    """

    z: int
    offsets: np.ndarray
    i_c_of: np.ndarray
    i_d_of: np.ndarray

    @classmethod
    def for_population(cls, z: int) -> "StateIndex":
        ks = np.arange(z + 1, dtype=np.int64)
        offsets = ks * (z + 1) - ks * (ks - 1) // 2
        n = (z + 1) * (z + 2) // 2
        i_c_of = np.repeat(ks, z + 1 - ks)
        i_d_of = np.concatenate([np.arange(z + 1 - k, dtype=np.int64) for k in ks])
        for a in (offsets, i_c_of, i_d_of):
            a.setflags(write=False)
        assert i_c_of.shape == (n,)
        return cls(z=z, offsets=offsets, i_c_of=i_c_of, i_d_of=i_d_of)

    @property
    def n_states(self) -> int:
        return (self.z + 1) * (self.z + 2) // 2

    def index_of(self, i_c, i_d):
        """Flat index of a composition; accepts scalars or arrays."""
        return self.offsets[i_c] + i_d

    def state_of(self, s: int) -> tuple[int, int]:
        return int(self.i_c_of[s]), int(self.i_d_of[s])


def fitness_tables(params: GameParams, index: StateIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average fitness of C, D, O at every composition, as flat arrays.

    Read from the parameter set's `fitness_table` under `fitness_at`'s zero
    conventions.
    """
    i_m = index.i_c_of + index.i_d_of
    out = tuple(a[i_m, index.i_c_of] for a in fitness_table(params).grid())
    for a in out:
        a.setflags(write=False)
    return out


def imitation_probability(params: GameParams, f_x, f_y):
    """Fermi rule: probability that a focal X-player adopts Y's strategy.

    ``p(X, Y) = 1 / (1 + exp(beta (f_X - f_Y)))``; saturates cleanly to 0 or 1
    for huge fitness gaps.  Accepts scalars or arrays.
    """
    p = expit(-params.beta * (np.asarray(f_x, dtype=float) - np.asarray(f_y, dtype=float)))
    return float(p) if np.ndim(p) == 0 else p


def literal_row_sum_max(z: int, mu: float) -> float:
    """Largest row out-mass of the literal mutation form over all compositions.

    ``p(X, Y) + p(Y, X) = 1``, so a row's outflow is
    ``(1 - mu) (i_c i_d + i_c i_o + i_d i_o) / (z (z - 1)) + mu * (strategies
    present)`` whatever the fitness; it peaks at the most even split with two
    or with three strategies present.
    """
    a, b, c = ((z + k) // 3 for k in range(3))
    scale = (1.0 - mu) / (z * (z - 1))
    return max(2.0 * mu + scale * (z // 2) * (z - z // 2),
               3.0 * mu + scale * (a * b + a * c + b * c))


@dataclass(frozen=True)
class MarkovModel:
    """Sparse one-step transition structure over all compositions."""

    params: GameParams
    mutation_form: str
    index: StateIndex
    transitions: sparse.csr_matrix
    move_probs: np.ndarray  # (n_states, 6), column m = prob of MOVES[m]
    f_c: np.ndarray
    f_d: np.ndarray
    f_o: np.ndarray

    @property
    def z(self) -> int:
        return self.index.z

    @property
    def n_states(self) -> int:
        return self.index.n_states


def build_chain(params: GameParams, *, mutation_form: str = "scaled",
                max_states: int = 2_000_000) -> MarkovModel:
    """Assemble the composition chain under the chosen mutation form.

    Each state has at most six neighbor moves (ordered strategy pairs) plus a
    self-loop absorbing the remainder.  Raises CapacityError when the state
    count exceeds ``max_states``, ValueError if the literal mutation form
    would push a row sum above one, and ReducibleChainError if ``mu > 0``
    yet some composition cannot reach another (``mu`` underflows).
    """
    if mutation_form not in ("scaled", "literal"):
        raise ValueError(f"unknown mutation_form: {mutation_form!r}")
    z = params.z
    index = StateIndex.for_population(z)
    n = index.n_states
    if n > max_states:
        raise CapacityError(
            f"population size {z} needs {n} states, over the budget of {max_states}"
        )
    if mutation_form == "literal" and literal_row_sum_max(z, params.mu) > 1.0 + 1e-12:
        raise ValueError(
            "literal mutation form overflows row sums at this mu; "
            "use mutation_form='scaled' or reduce mu"
        )

    fits = fitness_tables(params, index)
    counts = (
        index.i_c_of.astype(float),
        index.i_d_of.astype(float),
        (z - index.i_c_of - index.i_d_of).astype(float),
    )

    mu = params.mu
    move_probs = np.empty((n, 6))
    for m, (x, y) in enumerate(MOVES):
        p_xy = imitation_probability(params, fits[x], fits[y])
        if mutation_form == "scaled":
            move_probs[:, m] = (counts[x] / z) * (
                (1.0 - mu) * (counts[y] / (z - 1)) * p_xy + mu / 2.0
            )
        else:
            term = (counts[x] / z) * (counts[y] / (z - 1)) * p_xy * (1.0 - mu) + mu / 2.0
            move_probs[:, m] = np.where(counts[x] >= 1.0, term, 0.0)

    self_loop = np.maximum(1.0 - move_probs.sum(axis=1), 0.0)

    rows = [np.arange(n, dtype=np.int64)]
    cols = [np.arange(n, dtype=np.int64)]
    data = [self_loop]
    for m in range(6):
        live = move_probs[:, m] > 0.0
        src = np.nonzero(live)[0]
        if src.size == 0:
            continue
        dc, dd = MOVE_DELTAS[m]
        rows.append(src)
        cols.append(index.index_of(index.i_c_of[src] + dc, index.i_d_of[src] + dd))
        data.append(move_probs[src, m])
    transitions = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    transitions.eliminate_zeros()

    if mu > 0.0:
        n_comp = connected_components(transitions, directed=True, connection="strong")[0]
        if n_comp != 1:
            raise ReducibleChainError(
                f"chain is not strongly connected despite mu = {mu:g} > 0"
            )

    move_probs.setflags(write=False)
    return MarkovModel(
        params=params,
        mutation_form=mutation_form,
        index=index,
        transitions=transitions,
        move_probs=move_probs,
        f_c=fits[0],
        f_d=fits[1],
        f_o=fits[2],
    )


@dataclass(frozen=True)
class StationarySummary:
    """Means and spreads of x = i_c/i_m and y = i_m/z under the stationary law.

    x-moments are taken over states with at least one member, with the
    distribution restricted there and renormalized; ``member_mass`` records
    how much probability that restriction keeps.
    """

    mean_x: float
    std_x: float
    mean_y: float
    std_y: float
    member_mass: float


@dataclass(frozen=True)
class StationaryResult:
    """A stationary law and how it was reached.

    ``residual`` is ``max|T^T pi - pi|`` of the returned ``pi`` itself; it
    is not a bound on the error of ``pi``.  ``iterations`` is 0 for the
    non-iterative methods.
    """

    pi: np.ndarray
    residual: float
    iterations: int
    summary: StationarySummary
    method: str


def _summarize(index: StateIndex, pi: np.ndarray) -> StationarySummary:
    i_c = index.i_c_of.astype(float)
    i_m = i_c + index.i_d_of.astype(float)
    ys = i_m / index.z
    mean_y = float(pi @ ys)
    std_y = math.sqrt(max(float(pi @ ys**2) - mean_y**2, 0.0))

    members = i_m >= 1.0
    mass = float(pi[members].sum())
    if mass > 0.0:
        w = pi[members] / mass
        xs = i_c[members] / i_m[members]
        mean_x = float(w @ xs)
        std_x = math.sqrt(max(float(w @ xs**2) - mean_x**2, 0.0))
    else:
        mean_x = float("nan")
        std_x = float("nan")
    return StationarySummary(mean_x=mean_x, std_x=std_x, mean_y=mean_y,
                             std_y=std_y, member_mass=mass)


def _power_iteration(t_t: sparse.csr_matrix, tol: float,
                     max_iter: int) -> tuple[np.ndarray, float, int]:
    n = t_t.shape[0]
    v = np.full(n, 1.0 / n)
    iters = 0
    resid = math.inf
    while iters < max_iter:
        w = t_t @ v
        iters += 1
        w /= w.sum()
        resid = float(np.max(np.abs(w - v)))
        v = w
        if resid < tol:
            return v, resid, iters
    raise NonConvergenceError(
        f"power iteration stalled at residual {resid:.3e} after {iters} steps "
        f"(tolerance {tol:.1e})",
        residual=resid,
        iterations=iters,
    )


def _direct_solve(transitions: sparse.csr_matrix) -> np.ndarray:
    # pi (T - I) = 0 with sum(pi) = 1: transpose, overwrite the first equation
    # with the normalization row, solve the sparse LU system.
    n = transitions.shape[0]
    a = (transitions.T - sparse.identity(n, format="csr")).tocsr()
    b = sparse.vstack([sparse.csr_matrix(np.ones((1, n))), a[1:, :]]).tocsc()
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = splu(b).solve(rhs)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _level_solve(model: MarkovModel) -> np.ndarray:
    # Every move changes i_m by at most one, so in level order (level k holds
    # the k + 1 states with i_c + i_d = k) T is block tridiagonal.  Censor
    # levels z..1 in turn: R_{k-1} = P_{k-1,k} (I - P'_kk)^-1 and
    # P'_{k-1,k-1} = P_{k-1,k-1} + R_{k-1} P_{k,k-1}.  The diagonal of
    # I - P'_kk is the mass leaving each state (GTH), never 1 - p.  Then
    # pi_k = pi_{k-1} R_{k-1} from pi_0 = 1.
    z, index = model.z, model.index
    order = np.lexsort((index.i_c_of, index.i_c_of + index.i_d_of))
    t = model.transitions[order][:, order].tocsr()
    start = np.arange(z + 2) * np.arange(1, z + 3) // 2
    block = lambda a, b: t[start[a]:start[a + 1], start[b]:start[b + 1]].toarray()  # noqa: E731
    r = [None] * z
    p_kk = block(z, z)
    for k in range(z, 0, -1):
        down = block(k, k - 1)
        a = -p_kk
        np.fill_diagonal(a, 0.0)
        a[np.diag_indices(k + 1)] = down.sum(axis=1) - a.sum(axis=1)
        r[k - 1] = np.linalg.solve(a.T, block(k - 1, k).T).T
        p_kk = block(k - 1, k - 1) + r[k - 1] @ down
    levels = [np.ones(1)]
    for k in range(z):
        levels.append(levels[-1] @ r[k])
    pi = np.empty(model.n_states)
    pi[order] = np.concatenate(levels)
    return pi / pi.sum()


def stationary(model: MarkovModel, *, tol: float = 1e-10, max_iter: int = 1_000_000,
               method: str = "levels") -> StationaryResult:
    """Stationary distribution of the chain.

    ``method="levels"`` (default) solves exactly by linear level reduction in
    GTH form: one dense solve per coalition size, about 0.1 s at z = 100.  It
    keeps one R_k per level, sum k (k + 1) doubles: 2.7 MB at z = 100, 21 MB
    at z = 200, 170 MB at z = 400.  ``method="direct"`` solves the sparse
    linear system by LU; ``method="power"`` runs power iteration on the
    transpose until consecutive iterates differ by less than ``tol``.  Both
    stay as oracles.  The reported residual is ``max|T^T pi - pi|`` of the
    returned law, not an error bound: power iteration stops at 1e-10 with a
    TV error near 2e-5 at z = 100.  Raises NonConvergenceError when power
    iteration hits ``max_iter`` or an exact method leaves a residual of
    ``tol`` or more.
    """
    if model.params.mu <= 0.0:
        raise ReducibleChainError("stationary distribution requires mu > 0 (irreducible chain)")
    t_t = model.transitions.T.tocsr()
    if method == "power":
        pi, resid, iters = _power_iteration(t_t, tol, max_iter)
    elif method in ("levels", "direct"):
        pi = _level_solve(model) if method == "levels" else _direct_solve(model.transitions)
        resid = float(np.max(np.abs(t_t @ pi - pi)))
        iters = 0
        if resid >= tol:
            raise NonConvergenceError(
                f"{method} stationary solve left residual {resid:.3e}",
                residual=resid, iterations=0,
            )
    else:
        raise ValueError(f"unknown method: {method!r}")
    pi.setflags(write=False)
    return StationaryResult(pi=pi, residual=resid, iterations=iters,
                            summary=_summarize(model.index, pi), method=method)


@dataclass(frozen=True)
class SelectionGradient:
    """Expected one-step composition drift, per state.

    ``drift_c``/``drift_d`` are E[delta i_c] and E[delta i_d]; ``speed`` is
    the Euclidean norm of that vector.  ``grad_x``/``grad_y`` map the drift
    onto the (x, y) coordinates (NaN where x is undefined); ``likely_move``
    indexes MOVES for the highest-probability move, -1 where no move has
    positive probability.
    """

    drift_c: np.ndarray
    drift_d: np.ndarray
    speed: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    likely_move: np.ndarray


def selection_gradient(model: MarkovModel) -> SelectionGradient:
    """Per-state expectation of the one-step composition change."""
    probs = model.move_probs
    drift = probs @ MOVE_DELTAS.astype(float)
    drift_c = drift[:, 0]
    drift_d = drift[:, 1]
    speed = np.hypot(drift_c, drift_d)

    idx = model.index
    i_c = idx.i_c_of.astype(float)
    i_m = i_c + idx.i_d_of.astype(float)
    drift_m = drift_c + drift_d
    grad_y = drift_m / idx.z
    grad_x = np.full(idx.n_states, np.nan)
    members = i_m >= 1.0
    x = i_c[members] / i_m[members]
    grad_x[members] = (drift_c[members] - x * drift_m[members]) / i_m[members]

    likely = probs.argmax(axis=1).astype(np.int64)
    likely[probs.max(axis=1) <= 0.0] = -1

    for a in (drift_c, drift_d, speed, grad_x, grad_y, likely):
        a.setflags(write=False)
    return SelectionGradient(drift_c=drift_c, drift_d=drift_d, speed=speed,
                             grad_x=grad_x, grad_y=grad_y, likely_move=likely)


# --- individual-based simulator ---------------------------------------------

def _fermi_table(params: GameParams, fits: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """(n_states, 6) table of p(X, Y) evaluated at every composition."""
    n = fits[0].shape[0]
    table = np.empty((n, 6))
    for m, (x, y) in enumerate(MOVES):
        table[:, m] = imitation_probability(params, fits[x], fits[y])
    return table


def _simulate_block(u: np.ndarray, i_c: int, i_d: int, z: int, mu: float,
                    fermi: np.ndarray, pair_move: np.ndarray, offsets: np.ndarray,
                    counts: np.ndarray, start_step: int, burn_in: int,
                    stride: int, traj: np.ndarray, n_traj: int) -> tuple[int, int, int]:
    """Advance the population over one block of pre-drawn uniforms.

    ``u`` has one row of four uniforms per step: focal pick, mutation test,
    shared choice (mutation target or role model), Fermi acceptance.  The
    stride-4 layout keeps the consumed stream identical across block sizes
    and across the compiled/interpreted implementations.
    """
    n_steps = u.shape[0]
    for i in range(n_steps):
        focal = int(u[i, 0] * z)
        if focal >= z:
            focal = z - 1
        if focal < i_c:
            strat_f = 0
        elif focal < i_c + i_d:
            strat_f = 1
        else:
            strat_f = 2

        strat_t = -1
        if u[i, 1] < mu:
            # Mutation: adopt one of the two other strategies, fair coin.
            if strat_f == 0:
                strat_t = 1 if u[i, 2] < 0.5 else 2
            elif strat_f == 1:
                strat_t = 0 if u[i, 2] < 0.5 else 2
            else:
                strat_t = 0 if u[i, 2] < 0.5 else 1
        else:
            role = int(u[i, 2] * (z - 1))
            if role >= z - 1:
                role = z - 2
            if role >= focal:
                role += 1
            if role < i_c:
                strat_r = 0
            elif role < i_c + i_d:
                strat_r = 1
            else:
                strat_r = 2
            if strat_r != strat_f:
                move = pair_move[strat_f, strat_r]
                state = offsets[i_c] + i_d
                if u[i, 3] < fermi[state, move]:
                    strat_t = strat_r

        if strat_t >= 0:
            if strat_f == 0:
                i_c -= 1
            elif strat_f == 1:
                i_d -= 1
            if strat_t == 0:
                i_c += 1
            elif strat_t == 1:
                i_d += 1

        step = start_step + i
        if step >= burn_in:
            counts[offsets[i_c] + i_d] += 1
        if stride > 0 and (step + 1) % stride == 0:
            k = (step + 1) // stride - 1
            if k < n_traj:
                traj[k, 0] = step
                traj[k, 1] = i_c
                traj[k, 2] = i_d
    return i_c, i_d, start_step + n_steps


_NUMBA_KERNEL = None


def _get_kernel(use_numba: bool | None):
    """Pick the block kernel: numba-compiled when available, else the pure-Python body."""
    global _NUMBA_KERNEL
    if use_numba is False:
        return _simulate_block
    if _NUMBA_KERNEL is None:
        try:
            import numba
        except ImportError:
            if use_numba:
                raise RuntimeError("numba requested but not installed (install the 'fast' extra)")
            return _simulate_block
        _NUMBA_KERNEL = numba.njit(cache=False)(_simulate_block)
    return _NUMBA_KERNEL


@dataclass(frozen=True)
class MonteCarloResult:
    """Occupancy histogram and a thinned trajectory from one simulation run."""

    occupancy: np.ndarray
    trajectory: np.ndarray  # rows (step, i_c, i_d)
    steps: int
    burn_in: int
    seed: int
    index: StateIndex


def monte_carlo(params: GameParams, steps: int, seed: int, *, burn_in: int = 0,
                initial: tuple[int, int] | None = None, trajectory_samples: int = 512,
                use_numba: bool | None = None, block_size: int = 1 << 18,
                max_states: int = 2_000_000) -> MonteCarloResult:
    """Individual-based simulation of the update process (scaled form).

    Pre-draws uniforms in fixed blocks of four per step so the result is a
    pure function of ``seed`` regardless of block size or kernel choice.
    Occupancy counts the post-update state of every step past ``burn_in``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= burn_in < steps:
        raise ValueError("burn_in must lie in [0, steps)")
    z = params.z
    index = StateIndex.for_population(z)
    if index.n_states > max_states:
        raise CapacityError(
            f"population size {z} needs {index.n_states} states, over the budget of {max_states}"
        )
    if initial is None:
        # Deterministic centered start: equal thirds, remainder to outsiders.
        i_c = i_d = z // 3
    else:
        i_c, i_d = initial
        if i_c < 0 or i_d < 0 or i_c + i_d > z:
            raise ValueError(f"initial composition {initial} is off the simplex")

    fits = fitness_tables(params, index)
    fermi = _fermi_table(params, fits)
    counts = np.zeros(index.n_states, dtype=np.int64)
    if trajectory_samples > 0:
        stride = max(1, steps // trajectory_samples)
        n_traj = min(trajectory_samples, steps // stride)
    else:
        stride, n_traj = 0, 0
    traj = np.zeros((n_traj, 3), dtype=np.int64)

    kernel = _get_kernel(use_numba)
    rng = np.random.Generator(np.random.PCG64(seed))
    offsets = np.asarray(index.offsets)
    pair_move = np.asarray(PAIR_TO_MOVE)
    step = 0
    while step < steps:
        block = min(block_size, steps - step)
        u = rng.random((block, 4))
        i_c, i_d, step = kernel(u, i_c, i_d, z, params.mu, fermi, pair_move,
                                offsets, counts, step, burn_in, stride, traj, n_traj)

    occupancy = counts / float(steps - burn_in)
    occupancy.setflags(write=False)
    traj.setflags(write=False)
    return MonteCarloResult(occupancy=occupancy, trajectory=traj, steps=steps,
                            burn_in=burn_in, seed=seed, index=index)
