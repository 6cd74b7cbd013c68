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

Transition rule per ordered strategy pair X -> Y:

    T[X->Y] = (i_X / z) * ((1 - mu) * (i_Y / (z - 1)) * p(X, Y) + mu / 2)

with ``p(X, Y) = 1 / (1 + exp(beta * (f_X - f_Y)))``.  The individual-based
process induces this rule, so the simulator realizes the same chain.  The
six moves of a state sum to at most one for every ``mu`` in [0, 1]; the
self-loop takes the rest.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .benefits import expit
from .errors import CapacityError, NonConvergenceError, ReducibleChainError, WorkerError
from .game import GameParams
from .sampling import fitness_table

# Ordered strategy pairs (focal, role-model) and the (di_c, di_d) composition
# change each induces.  Order is fixed: it defines move indices everywhere.
MOVES: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
MOVE_DELTAS = np.array(
    [(-1, +1), (-1, 0), (+1, -1), (0, -1), (+1, 0), (0, +1)], dtype=np.int64
)
MOVE_DELTAS.setflags(write=False)

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


def imitation_probability(params: GameParams, f_x, f_y):
    """Fermi rule: probability that a focal X-player adopts Y's strategy.

    ``p(X, Y) = 1 / (1 + exp(beta (f_X - f_Y)))``; saturates cleanly to 0 or 1
    for huge fitness gaps.  Accepts scalars or arrays.
    """
    p = expit(-params.beta * (np.asarray(f_x, dtype=float) - np.asarray(f_y, dtype=float)))
    return float(p) if np.ndim(p) == 0 else p


def _fermi_table(params: GameParams, index: StateIndex) -> np.ndarray:
    """(n_states, 6) table of p(X, Y) at every composition, from the parameter set's `fitness_table`.

    The chain and the simulator read only the fitness of strategies that
    are played, so the table's entries for the unplayed ones (f_o at
    i_m = z holds the outsider formula) never reach a move probability.
    """
    i_m = index.i_c_of + index.i_d_of
    fits = [a[i_m, index.i_c_of] for a in fitness_table(params).grid()]
    table = np.empty((index.n_states, 6))
    for m, (x, y) in enumerate(MOVES):
        table[:, m] = imitation_probability(params, fits[x], fits[y])
    return table


MAX_STATES = 2_000_000  # state budget of `build_chain` and `monte_carlo`


def _check_capacity(z: int) -> None:
    """Raise CapacityError, before anything is allocated, if population z has over MAX_STATES states."""
    n = (z + 1) * (z + 2) // 2
    if n > MAX_STATES:
        raise CapacityError(f"population size {z} needs {n} states, over the budget of {MAX_STATES}")


def _self_loop(move_probs: np.ndarray) -> np.ndarray:
    """Probability of staying put: whatever mass the six moves leave."""
    return np.maximum(1.0 - move_probs.sum(axis=1), 0.0)


def _move_targets(index: StateIndex, move_probs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """States with a positive probability of move ``m``, and the states it takes them to."""
    src = np.flatnonzero(move_probs[:, m] > 0.0)
    dc, dd = MOVE_DELTAS[m]
    return src, index.index_of(index.i_c_of[src] + dc, index.i_d_of[src] + dd)


@dataclass(frozen=True)
class MarkovModel:
    """One-step transition structure over all compositions.

    ``move_probs`` holds every off-diagonal probability; the self-loop takes
    the rest of each row.  The stationary solve and the gradient read it
    directly; ``transitions`` is the same chain as a scipy CSR matrix.
    """

    params: GameParams
    index: StateIndex
    move_probs: np.ndarray  # (n_states, 6), column m = prob of MOVES[m]

    @property
    def z(self) -> int:
        return self.index.z

    @property
    def n_states(self) -> int:
        return self.index.n_states

    @cached_property
    def transitions(self):
        """Row-stochastic ``scipy.sparse.csr_matrix``, assembled (and scipy imported) on first access."""
        from scipy import sparse

        n = self.n_states
        rows = [np.arange(n, dtype=np.int64)]
        cols = [np.arange(n, dtype=np.int64)]
        data = [_self_loop(self.move_probs)]
        for m in range(6):
            src, dst = _move_targets(self.index, self.move_probs, m)
            rows.append(src)
            cols.append(dst)
            data.append(self.move_probs[src, m])
        transitions = sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsr()
        transitions.eliminate_zeros()
        return transitions


def build_chain(params: GameParams, *, mutation_form: str = "scaled") -> MarkovModel:
    """Assemble the composition chain under the module's transition rule.

    Each state has at most six neighbor moves (ordered strategy pairs) plus a
    self-loop absorbing the remainder.  Raises CapacityError, before anything
    is allocated, when the state count exceeds `MAX_STATES` (z above 1 998),
    and ReducibleChainError if ``mu > 0`` yet some composition cannot reach
    another (``mu`` underflows).  ``mutation_form`` accepts ``"scaled"``
    only: perfbench/reference.py passes it, until ROADMAP item 1 drops that read.
    """
    if mutation_form != "scaled":
        raise ValueError(f"unknown mutation_form: {mutation_form!r}")
    z = params.z
    _check_capacity(z)
    index = StateIndex.for_population(z)
    n = index.n_states

    counts = (
        index.i_c_of.astype(float),
        index.i_d_of.astype(float),
        (z - index.i_c_of - index.i_d_of).astype(float),
    )

    mu = params.mu
    fermi = _fermi_table(params, index)
    move_probs = np.empty((n, 6))
    for m, (x, y) in enumerate(MOVES):
        move_probs[:, m] = (counts[x] / z) * (
            (1.0 - mu) * (counts[y] / (z - 1)) * fermi[:, m] + mu / 2.0
        )

    move_probs.setflags(write=False)
    model = MarkovModel(params=params, index=index, move_probs=move_probs)

    # With every move open wherever its focal strategy is played, each state
    # drains to (0, 0) and (0, 0) fills to each state.  Only when an underflow
    # closes some move does connectivity need the graph search.
    present = np.column_stack([counts[x] for x, _ in MOVES]) >= 1.0
    if mu > 0.0 and not np.all(move_probs[present] > 0.0):
        from scipy.sparse.csgraph import connected_components

        n_comp = connected_components(model.transitions, directed=True, connection="strong")[0]
        if n_comp != 1:
            raise ReducibleChainError(
                f"chain is not strongly connected despite mu = {mu:g} > 0"
            )
    return model


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


def _power_iteration(t_t, tol: float, max_iter: int) -> tuple[np.ndarray, float, int]:
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


def _direct_solve(transitions) -> np.ndarray:
    # pi (T - I) = 0 with sum(pi) = 1: transpose, overwrite the first equation
    # with the normalization row, solve the sparse LU system.
    from scipy import sparse
    from scipy.sparse.linalg import splu

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
    z, offsets, probs = model.z, model.index.offsets, model.move_probs

    def blocks(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Level k's blocks to levels k, k - 1 and k + 1.  Level k holds the
        # states offsets[j] + k - j, j = i_c = 0..k; a move (dc, dd) leads to
        # level k + dc + dd, position j + dc, so each move fills the diagonal
        # (j, j + dc) of one block: flat element j (n + 1) + dc of an n-column
        # block.  The self-loop is left out, as GTH never reads the diagonal.
        j = np.arange(k + 1)
        p = probs[offsets[j] + k - j]
        same, down, up = np.zeros((k + 1, k + 1)), np.zeros((k + 1, k)), np.zeros((k + 1, k + 2))
        same.flat[k + 1::k + 2] = p[1:, 0]
        same.flat[1::k + 2] = p[:-1, 2]
        down.flat[k::k + 1] = p[1:, 1]
        down.flat[::k + 1] = p[:-1, 3]
        up.flat[1::k + 3] = p[:, 4]
        up.flat[::k + 3] = p[:, 5]
        return same, down, up

    r = [None] * z
    p_kk, down, _ = blocks(z)
    for k in range(z, 0, -1):
        a = -p_kk
        np.fill_diagonal(a, 0.0)
        a[np.diag_indices(k + 1)] = down.sum(axis=1) - a.sum(axis=1)
        same, down_next, up = blocks(k - 1)
        r[k - 1] = np.linalg.solve(a.T, up.T).T
        p_kk = same + r[k - 1] @ down
        down = down_next
    pi = np.empty(model.n_states)
    level = np.ones(1)
    pi[0] = level[0]
    for k in range(1, z + 1):
        level = level @ r[k - 1]
        j = np.arange(k + 1)
        pi[offsets[j] + k - j] = level
    return pi / pi.sum()


# The moves into a state, ordered by their sources' flat indices, with the
# self-loop (None) in its place; summing in this order repeats the CSR
# product ``T^T pi`` term by term.
_INFLOW_ORDER = (4, 2, 5, None, 3, 0, 1)


def _residual(model: MarkovModel, pi: np.ndarray) -> float:
    """``max|T^T pi - pi|`` from shifted reads of ``move_probs``.

    Each move is injective, so one fancy-indexed ``+=`` per move collects its
    inflow exactly.
    """
    probs = model.move_probs
    inflow = np.zeros_like(pi)
    for m in _INFLOW_ORDER:
        if m is None:
            inflow += _self_loop(probs) * pi
        else:
            src, dst = _move_targets(model.index, probs, m)
            inflow[dst] += probs[src, m] * pi[src]
    return float(np.max(np.abs(inflow - pi)))


def stationary(model: MarkovModel, *, tol: float = 1e-10, max_iter: int = 1_000_000,
               method: str = "levels") -> StationaryResult:
    """Stationary distribution of the chain.

    ``method="levels"`` (default) solves exactly by linear level reduction in
    GTH form, reading its blocks from ``move_probs``: one dense solve per
    coalition size, about 0.03 s at z = 100.  It keeps one R_k per level,
    sum k (k + 1) doubles: 2.7 MB at z = 100, 21 MB at z = 200, 170 MB at
    z = 400.  ``method="direct"`` solves the sparse linear system by LU;
    ``method="power"`` runs power iteration on the transpose until
    consecutive iterates differ by less than ``tol``.  Both stay as oracles,
    and both import scipy.  The reported residual is ``max|T^T pi - pi|`` of
    the returned law, not an error bound: power iteration stops at 1e-10
    with a TV error near 2e-5 at z = 100.  The level solve's error is
    measured instead: against GTH over the whole chain in extended precision
    (``oracles.stationary_longdouble`` in the tests), every entry of ``pi`` was
    within 3.0e-15 relative at z = 100, alpha = 4, (beta, mu) = (0.1, 0.01),
    and within 8.4e-15 at (1, 1e-6), where ``pi`` falls to 4e-18; the tests
    hold it to 5e-14.  Raises NonConvergenceError when
    power iteration hits ``max_iter`` or an exact method leaves a residual of
    ``tol`` or more.
    """
    if model.params.mu <= 0.0:
        raise ReducibleChainError("stationary distribution requires mu > 0 (irreducible chain)")
    if method == "power":
        pi, resid, iters = _power_iteration(model.transitions.T.tocsr(), tol, max_iter)
    elif method in ("levels", "direct"):
        pi = _level_solve(model) if method == "levels" else _direct_solve(model.transitions)
        resid = _residual(model, pi)
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
    onto the (x, y) coordinates (NaN where x is undefined).
    """

    drift_c: np.ndarray
    drift_d: np.ndarray
    speed: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray


def selection_gradient(model: MarkovModel) -> SelectionGradient:
    """Per-state expectation of the one-step composition change."""
    drift = model.move_probs @ MOVE_DELTAS.astype(float)
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

    for a in (drift_c, drift_d, speed, grad_x, grad_y):
        a.setflags(write=False)
    return SelectionGradient(drift_c=drift_c, drift_d=drift_d, speed=speed, grad_x=grad_x, grad_y=grad_y)


# --- individual-based simulator ---------------------------------------------

# Mutation target of a focal strategy, indexed by the role code
# `_simulate_steps` gives a mutation step: -1 when the shared uniform is below 0.5, else -2.
_MUTATION_TARGET = ((None, 2, 1), (None, 2, 0), (None, 1, 0))


def _simulate_steps(u: np.ndarray, i_c: int, i_d: int, z: int, mu: float,
                    fermi: list, pair_move: list, offsets: np.ndarray,
                    counts: np.ndarray, start_step: int, burn_in: int,
                    stride: int, traj: np.ndarray, n_traj: int) -> tuple[int, int, int]:
    """Advance the population over one block of pre-drawn uniforms.

    ``u`` has one row of four uniforms per step: focal pick, mutation test,
    shared choice (mutation target or role model), Fermi acceptance.  The
    state-free part of every step (focal and role indices, the mutation
    test and coin) is computed for the whole block in NumPy.  The Python loop
    then only classifies two indices against ``i_c`` and ``i_c + i_d``, skips
    steps that leave the state unchanged, and records (step, i_c, i_d) for the
    others; occupancy (from run lengths) and trajectory rows are read off
    those records after the loop.
    ``fermi[i_c][i_d]`` is the state's row of Fermi probabilities and
    ``pair_move`` is ``PAIR_TO_MOVE``, both as nested lists.  The tests hold
    it to a plain per-step loop over the same stream, bit for bit.
    """
    n_steps = u.shape[0]
    focal = np.minimum((u[:, 0] * z).astype(np.int64), z - 1)
    role = np.minimum((u[:, 2] * (z - 1)).astype(np.int64), z - 2)
    role += role >= focal
    mutate = u[:, 1] < mu
    role[mutate] = np.where(u[mutate, 2] < 0.5, -1, -2)

    b = i_c + i_d
    row = fermi[i_c][i_d]
    changes = [0, i_c, i_d]  # flat (step, i_c, i_d) rows; row 0 is the entry state
    # Read the acceptance column through a memoryview, one float at a time:
    # .tolist() would hold a float object per step of the block (192 KB at 2**13
    # steps), and peak RSS would hinge on whether the allocator finds them free pages.
    for i, f, r, a in zip(range(n_steps), focal.tolist(), role.tolist(), memoryview(u[:, 3])):
        if f < i_c:
            sf = 0
        elif f < b:
            sf = 1
        else:
            sf = 2
        if r < 0:
            st = _MUTATION_TARGET[sf][r]
        else:
            if r < i_c:
                st = 0
            elif r < b:
                st = 1
            else:
                st = 2
            if st == sf or not a < row[pair_move[sf][st]]:
                continue
        if sf == 0:
            i_c -= 1
        elif sf == 1:
            i_d -= 1
        if st == 0:
            i_c += 1
        elif st == 1:
            i_d += 1
        b = i_c + i_d
        row = fermi[i_c][i_d]
        changes += (i, i_c, i_d)

    # Row j's state holds from its step up to the next row's (or the block end).
    changes = np.array(changes, dtype=np.int64).reshape(-1, 3)
    starts = changes[:, 0]
    lo = burn_in - start_step
    if lo < n_steps:
        ends = np.append(starts[1:], n_steps)
        runs = np.maximum(ends, lo) - np.maximum(starts, lo)
        states = offsets[changes[:, 1]] + changes[:, 2]
        counts += np.bincount(states, runs, counts.size).astype(np.int64)
    if stride > 0:
        k_lo, k_hi = start_step // stride, min(n_traj, (start_step + n_steps) // stride)
        if k_lo < k_hi:
            at = np.arange(k_lo + 1, k_hi + 1) * stride - 1
            traj[k_lo:k_hi, 0] = at
            rows = np.searchsorted(starts, at - start_step, "right") - 1
            traj[k_lo:k_hi, 1:] = changes[rows, 1:]
    return i_c, i_d, start_step + n_steps


BLOCK_STEPS = 1 << 13  # `monte_carlo` draws uniforms for this many steps at a time
# Shortest `monte_carlo` segment worth a child process: about 0.1 s of steps at z = 100, against
# 3-5 ms to fork a child and read its result and some 3 * 10**4 steps for its guess to meet.
SEGMENT_STEPS = 1 << 18


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one, 1 without fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus if hasattr(os, "fork") else 1


@contextmanager
def _children():
    """Yields ``fork(fn, *args)``: it calls ``fn(*args)`` in a forked child and returns
    a function that waits for the child and returns or raises what it sent.

    Each child pickles its result or exception down its own pipe, which is read to
    EOF before the child is reaped (a child blocked on a full pipe never exits).  A
    fork that fails, a child that ends without a result, or one whose exception
    cannot be pickled raises `WorkerError`.  Leaving the block kills and reaps every
    child not yet collected.  Children inherit the caller's modules and memos (the
    fitness table, the state text), which spawned processes would build again.
    """
    pipes = {}

    def fork(fn, *args):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:  # say, a process limit reached
            os.close(r)
            os.close(w)
            raise WorkerError(f"cannot fork a child process: {exc}") from exc
        if pid == 0:
            try:
                try:
                    data = pickle.dumps((True, fn(*args)))
                except BaseException as exc:  # sent to the caller, which raises it
                    try:
                        data = pickle.dumps((False, exc))
                        pickle.loads(data)  # some exceptions pickle but cannot be rebuilt
                    except Exception:
                        data = pickle.dumps((False, WorkerError(f"{type(exc).__name__}: {exc}")))
                with open(w, "wb") as fh:
                    fh.write(data)
                os._exit(0)
            finally:  # whatever happens, the child never returns into the caller's code
                os._exit(1)
        os.close(w)
        pipes[pid] = open(r, "rb")

        def result():
            with pipes.pop(pid) as fh:
                data = fh.read()
            if code := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                how = f"exit code {code}" if code > 0 else f"killed by signal {-code} ({signal.strsignal(-code)})"
                raise WorkerError(f"child process {pid} ended without a result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            return value
        return result
    try:
        yield fork
    finally:
        for pid, fh in pipes.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _stream(seed: int, step: int) -> np.random.Generator:
    """The run's uniform stream, positioned at ``step``: four draws a step."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.bit_generator.advance(4 * step)
    return rng


def _stepper(params: GameParams, index: StateIndex, seed: int, burn_in: int, stride: int,
             n_traj: int):
    """`_simulate_steps` with one run's fixed arguments bound, as a generator of blocks.

    ``blocks(i_c, i_d, start, stop, counts, traj)`` takes steps [start, stop)
    from (i_c, i_d) on the run's stream, `BLOCK_STEPS` steps' uniforms at a
    time, and yields (i_c, i_d, step) at each block end.
    """
    z, mu = params.z, params.mu
    offsets = np.asarray(index.offsets)
    fermi = _fermi_table(params, index)
    fermi = [fermi[o:o + z + 1 - k].tolist() for k, o in enumerate(offsets.tolist())]
    pair_move = PAIR_TO_MOVE.tolist()

    def blocks(i_c, i_d, start, stop, counts, traj):
        rng = _stream(seed, start)
        step = start
        while step < stop:
            u = rng.random((min(BLOCK_STEPS, stop - step), 4))
            i_c, i_d, step = _simulate_steps(u, i_c, i_d, z, mu, fermi, pair_move, offsets,
                                             counts, step, burn_in, stride, traj, n_traj)
            yield i_c, i_d, step
    return blocks


def _splice(blocks, state: tuple[int, int], guess: tuple[int, int], start: int, stop: int,
            guessed, counts: np.ndarray, traj: np.ndarray) -> tuple[int, int]:
    """Run segment [start, stop) from its true start ``state`` until it meets the guessed path.

    ``guessed`` is the segment run from ``guess`` in a child: its counts,
    trajectory and (i_c, i_d, step) at each block end.  Both paths read the
    same uniforms, so once they hold the same state at a block end they stay
    together, and from there the child's path is the true one: its counts,
    less its guessed prefix (replayed here), and its trajectory rows past
    that step are taken in.  If the paths do not meet before ``stop``, the
    segment has run here in full.  Returns the true state at ``stop``.
    """
    w_counts, w_traj, ends = guessed
    for mine, theirs in zip(blocks(*state, start, stop, counts, traj), ends):
        if mine == theirs:
            break
    i_c, i_d, met = mine
    if met == stop:
        return i_c, i_d
    prefix = np.zeros_like(counts)
    for _ in blocks(*guess, start, met, prefix, np.empty_like(traj)):
        pass
    counts += w_counts
    counts -= prefix
    later = w_traj[:, 0] >= met  # rows the child did not fill read step 0
    traj[later] = w_traj[later]
    return ends[-1][:2]


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
                initial: tuple[int, int] | None = None,
                trajectory_samples: int = 512) -> MonteCarloResult:
    """Individual-based simulation of the update process (scaled form).

    Step t reads uniforms 4t to 4t + 3 of one PCG64 stream seeded by
    ``seed``, drawn `BLOCK_STEPS` steps at a time and handed a block at a
    time to `_simulate_steps`.  A block's uniforms and per-step lists are
    the simulation's largest temporaries: 2**13 steps hold about 0.6 MB
    less at the peak than 2**14 at z = 100, with no time difference above
    the run-to-run noise.

    The steps are split into one segment per usable CPU, each at least
    `SEGMENT_STEPS` long (one segment below that).  Segment 0 runs here;
    each later segment runs in a child (`_children`) from the run's own
    start state as a guess, on its stretch of the stream (`_stream`).  Two
    copies of the chain fed the same uniforms meet within some 10**4 steps
    at z = 100, so `_splice` re-runs each segment here from its true start
    only until it meets the child's path, and takes the rest from the
    child.  Where they never meet, as under ``mu = 0`` when the two are
    absorbed in different corners, the segment runs here in full.  So the
    result is a pure function of ``seed``, whatever the block size and the
    number of CPUs.

    Occupancy counts the post-update state of every step past ``burn_in``;
    ``trajectory_samples`` evenly spaced (step, i_c, i_d) rows are kept.
    Raises CapacityError, as `build_chain` does, over `MAX_STATES` states,
    before any child starts.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= burn_in < steps:
        raise ValueError("burn_in must lie in [0, steps)")
    if trajectory_samples < 0:
        raise ValueError("trajectory_samples must be >= 0")
    z = params.z
    _check_capacity(z)
    index = StateIndex.for_population(z)
    if initial is None:
        # Deterministic centered start: equal thirds, remainder to outsiders.
        i_c = i_d = z // 3
    else:
        i_c, i_d = initial
        if not all(isinstance(v, (int, np.integer)) for v in initial):
            raise ValueError(f"initial composition {initial} must be integer counts")
        i_c, i_d = int(i_c), int(i_d)
        if i_c < 0 or i_d < 0 or i_c + i_d > z:
            raise ValueError(f"initial composition {initial} is off the simplex")

    counts = np.zeros(index.n_states, dtype=np.int64)
    if trajectory_samples > 0:
        stride = max(1, steps // trajectory_samples)
        n_traj = min(trajectory_samples, steps // stride)
    else:
        stride, n_traj = 0, 0
    traj = np.zeros((n_traj, 3), dtype=np.int64)

    blocks = _stepper(params, index, seed, burn_in, stride, n_traj)
    n_seg = max(1, min(_usable_cpus(), steps // SEGMENT_STEPS))
    bounds = [steps * j // n_seg for j in range(n_seg + 1)]
    segments = list(zip(bounds, bounds[1:]))
    guess = (i_c, i_d)

    def guessed_segment(start, stop):  # steps [start, stop) from the guess, run in a child
        part = np.zeros_like(counts), np.zeros_like(traj)
        return *part, list(blocks(*guess, start, stop, *part))

    with _children() as fork:
        waits = [fork(guessed_segment, start, stop) for start, stop in segments[1:]]
        for i_c, i_d, _ in blocks(i_c, i_d, *segments[0], counts, traj):
            pass
        for (start, stop), wait in zip(segments[1:], waits):
            i_c, i_d = _splice(blocks, (i_c, i_d), guess, start, stop, wait(), counts, traj)

    occupancy = counts / float(steps - burn_in)
    occupancy.setflags(write=False)
    traj.setflags(write=False)
    return MonteCarloResult(occupancy=occupancy, trajectory=traj, steps=steps,
                            burn_in=burn_in, seed=seed, index=index)
