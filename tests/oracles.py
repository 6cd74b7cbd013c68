"""Independent oracles the test suite checks the engine against.

Everything here is deliberately written from the ground truth rather
than from the package: exact rational arithmetic where the quantity is
rational (hypergeometric counts, neutral-drift chains), brute-force
enumeration where the engine uses a formula (group sampling),
textbook closed forms for solver validation (birth-death chains,
repeated squaring), a step-by-step loop for the Monte Carlo
kernel, and the flow quantities one state at a time, from a fitness
callable the test passes in.  None of it imports from coaldyn except
the parameter container, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

_log_factorial = np.vectorize(lambda n: math.log(math.factorial(n)), otypes=[float])


def exact_pmf(pool: int, draws: int, successes: int, k: int) -> Fraction:
    """Hypergeometric PMF as an exact rational via binomial counts."""
    if k < 0 or k > draws or k > successes or draws - k > pool - successes:
        return Fraction(0)
    return Fraction(
        math.comb(successes, k) * math.comb(pool - successes, draws - k),
        math.comb(pool, draws),
    )


def enumerated_pmf(pool: int, draws: int, successes: int, k: int) -> Fraction:
    """Same PMF by literally enumerating every subset of the pool.

    Only feasible for small pools; this is the 'count the cases'
    definition with no combinatorial identities in between.
    """
    members = list(range(pool))
    hits = 0
    total = 0
    for subset in itertools.combinations(members, draws):
        total += 1
        if sum(1 for m in subset if m < successes) == k:
            hits += 1
    return Fraction(hits, total)


def enumerated_pmf_row(pool: int, draws: int, successes: int) -> list[Fraction]:
    """Whole PMF row (k = 0..draws) from one pass over every subset."""
    hits = [0] * (draws + 1)
    total = 0
    for subset in itertools.combinations(range(pool), draws):
        total += 1
        hits[sum(1 for m in subset if m < successes)] += 1
    return [Fraction(h, total) for h in hits]


def payoff_triple(params, k: int, n: int):
    """Raw payoffs (pi_C, pi_D, pi_O) facing k cooperating co-members.

    Recomputed from the model definition: benefit of the pooled
    contributions, club share e/N^theta', spillover (1-e)/Z^theta.
    pi_O is evaluated at a produced pool of k contributions total.
    """
    scale = n * params.c
    eps1 = params.e / n**params.theta_prime
    eps2 = (1.0 - params.e) / params.z**params.theta
    b_with = params.benefit((k + 1) * params.c, scale)
    b_without = params.benefit(k * params.c, scale)
    pi_c = b_with * (eps1 + eps2) - params.c - params.c_c
    pi_d = b_without * (eps1 + eps2) - params.c_c
    pi_o = b_without * eps2
    return pi_c, pi_d, pi_o


def fitness_by_enumeration(params, i_c: int, i_d: int, n: int):
    """(f_C, f_D, f_O) by enumerating every working group explicitly.

    The member pool is i_c cooperator tokens followed by i_d defector
    tokens.  A focal member's fitness averages its payoff over all
    (n-1)-subsets of the other members; the outsider fitness averages
    the spillover payoff over groups anchored by a uniformly random
    member (anchor's own contribution included in the pool).  All
    weights are exact rationals; only payoffs are floats.
    """
    i_m = i_c + i_d
    assert 2 <= n <= i_m

    def member_average(focal_is_c: bool):
        others = [True] * (i_c - (1 if focal_is_c else 0)) + [False] * (
            i_d - (0 if focal_is_c else 1)
        )
        acc = Fraction(0)
        count = 0
        vals = {}
        for subset in itertools.combinations(range(len(others)), n - 1):
            k = sum(1 for j in subset if others[j])
            if k not in vals:
                pi_c, pi_d, _ = payoff_triple(params, k, n)
                vals[k] = pi_c if focal_is_c else pi_d
            acc += Fraction(vals[k])
            count += 1
        return float(acc / count)

    f_c = member_average(True) if i_c >= 1 else 0.0
    f_d = member_average(False) if i_d >= 1 else 0.0

    # Outsider: anchor uniform over members, then the rest of the group
    # from the remaining i_m - 1; pool counts the anchor's contribution.
    acc = Fraction(0)
    for anchor_c in (True, False):
        weight = Fraction(i_c if anchor_c else i_d, i_m)
        if weight == 0:
            continue
        others = [True] * (i_c - (1 if anchor_c else 0)) + [False] * (
            i_d - (0 if anchor_c else 1)
        )
        sub_acc = Fraction(0)
        count = 0
        for subset in itertools.combinations(range(len(others)), n - 1):
            k = sum(1 for j in subset if others[j]) + (1 if anchor_c else 0)
            _, _, pi_o = payoff_triple(params, k, n)
            sub_acc += Fraction(pi_o)
            count += 1
        acc += weight * sub_acc / count
    f_o = float(acc)
    return f_c, f_d, f_o


def pmf_row_formula(pool: int, draws: int, successes: int) -> np.ndarray:
    """Hypergeometric row k = 0..draws from log-factorials on its support.

    The per-row formula the engine used before it built whole levels at
    once; exact zeros off the support.  log j! is the log of the exact
    integer j!, as in the engine.
    """
    out = np.zeros(draws + 1)
    lo = max(0, draws - (pool - successes))
    hi = min(draws, successes)
    if lo <= hi:
        ks = np.arange(lo, hi + 1)
        log_p = (
            _log_factorial(successes)
            - _log_factorial(ks)
            - _log_factorial(successes - ks)
            + _log_factorial(pool - successes)
            - _log_factorial(draws - ks)
            - _log_factorial(pool - successes - draws + ks)
            - (_log_factorial(pool) - _log_factorial(draws) - _log_factorial(pool - draws))
        )
        out[lo : hi + 1] = np.exp(log_p)
    return out


def payoff_grid(params, n: int):
    """(pi_C, pi_D, pi_O, pi_O of a cooperator-anchored group) at k = 0..n-1.

    k counts the cooperating co-members a member sees; a group anchored
    by a cooperator pools k + 1 contributions, hence the fourth vector.
    """
    rows = np.array([payoff_triple(params, k, n) for k in range(n)])
    eps2 = (1.0 - params.e) / params.z**params.theta
    anchored = np.array([params.benefit((k + 1) * params.c, n * params.c) * eps2
                         for k in range(n)])
    return rows[:, 0], rows[:, 1], rows[:, 2], anchored


def fitness_by_pmf_rows(grid, i_c: int, i_d: int):
    """Raw (f_C, f_D, f_O) at one composition, one PMF row per member view.

    `grid` is `payoff_grid(params, n)` for the working-group size n.  f_C
    is None without a cooperator and f_D None without a defector; f_O is
    the outsider formula whether or not an outsider exists.
    """
    pi_c, pi_d, pi_o, pi_o_anchored = grid
    n = len(pi_c)
    i_m = i_c + i_d
    assert 2 <= n <= i_m
    row_c = pmf_row_formula(i_m - 1, n - 1, i_c - 1) if i_c >= 1 else None
    row_d = pmf_row_formula(i_m - 1, n - 1, i_c) if i_d >= 1 else None
    x = i_c / i_m
    f_o = 0.0
    if row_c is not None:
        f_o += x * float(row_c @ pi_o_anchored)
    if row_d is not None:
        f_o += (1.0 - x) * float(row_d @ pi_o)
    return (
        float(row_c @ pi_c) if row_c is not None else None,
        float(row_d @ pi_d) if row_d is not None else None,
        f_o,
    )


def replicator_field_at(fit, params, i_c: int, i_d: int) -> tuple[float, float]:
    """(x_dot, y_dot) at (i_c, i_d) from `fit(params, i_c, i_d)`'s (f_c, f_d, f_o).

    x_dot = x (1 - x) (f_C - f_D) and y_dot = y (1 - y) (x f_C + (1 - x) f_D
    - f_O); the empty coalition maps to (0, 0).
    """
    i_m = i_c + i_d
    if i_m == 0:
        return 0.0, 0.0
    here = fit(params, i_c, i_d)
    x, y = i_c / i_m, i_m / params.z
    return (x * (1.0 - x) * (here.f_c - here.f_d),
            y * (1.0 - y) * (x * here.f_c + (1.0 - x) * here.f_d - here.f_o))


def information_cost_at(fit, params, i_c: int, i_d: int) -> tuple[float, ...]:
    """(k_exact, k_dropped, swap, outsider, entry_c, entry_d) at (i_c, i_d), NaN where undefined.

    Each component compares fitness at the compositions a C <-> D swap, a
    departure or an arrival would create: k_exact needs both member kinds,
    k_dropped and its three components also 3 <= i_m < z.
    """
    i_m, z, c = i_c + i_d, params.z, params.c
    out = [math.nan] * 6
    if i_c >= 1 and i_d >= 1:
        here = fit(params, i_c, i_d)
        out[2] = (fit(params, i_c + 1, i_d - 1).f_c - here.f_c
                  + here.f_d - fit(params, i_c - 1, i_d + 1).f_d)
        out[0] = out[2] / (2.0 * c)
        if 3 <= i_m < z:
            out[3] = fit(params, i_c, i_d - 1).f_o - fit(params, i_c - 1, i_d).f_o
            out[4] = fit(params, i_c + 1, i_d - 1).f_c - fit(params, i_c + 1, i_d).f_c
            out[5] = fit(params, i_c, i_d + 1).f_d - fit(params, i_c - 1, i_d + 1).f_d
            out[1] = (1.0 - i_m / z) * (out[3] - out[4] - out[5]) / (2.0 * c)
    return tuple(out)


def informed_field_at(fit, params, i_c: int, i_d: int) -> tuple:
    """(x_dot, y_dot, d_cd, d_dc, d_co, d_oc, d_do, d_od) of the informed field at (i_c, i_d).

    delta_xy is fitness of y at the composition a switch x -> y creates
    minus fitness of x here.  A switch nobody can make is not evaluated:
    its delta is None and it adds nothing to the field.
    """
    i_m = i_c + i_d
    if i_m == 0:
        return (0.0, 0.0) + (None,) * 6
    x, y = i_c / i_m, i_m / params.z
    here = fit(params, i_c, i_d)
    d_cd = d_dc = d_co = d_oc = d_do = d_od = None
    if i_c >= 1 and i_d >= 1:
        d_dc = fit(params, i_c + 1, i_d - 1).f_c - here.f_d
        d_cd = fit(params, i_c - 1, i_d + 1).f_d - here.f_c
    if i_c >= 1:
        d_co = fit(params, i_c - 1, i_d).f_o - here.f_c
    if i_d >= 1:
        d_do = fit(params, i_c, i_d - 1).f_o - here.f_d
    if i_m < params.z:
        d_oc = fit(params, i_c + 1, i_d).f_c - here.f_o
        d_od = fit(params, i_c, i_d + 1).f_d - here.f_o

    def val(delta):
        return 0.0 if delta is None else delta

    x_dot = 0.5 * x * (1.0 - x) * (
        y * (val(d_dc) - val(d_cd))
        + (1.0 - y) * (val(d_oc) - val(d_co) + val(d_do) - val(d_od))
    )
    y_dot = 0.5 * y * (1.0 - y) * (
        x * (val(d_oc) - val(d_co)) + (1.0 - x) * (val(d_od) - val(d_do))
    )
    return x_dot, y_dot, d_cd, d_dc, d_co, d_oc, d_do, d_od


def member_means(params, i_c: int, i_d: int, n: int) -> tuple[float, float]:
    """(mean_R, mean_b) at (i_c, i_d) with groups of n, one `pmf_row_formula` row per member view.

    mean_R averages the marginal return R(k c) over the mean of the two
    member views' co-member draws, NaN unless both kinds are present;
    mean_b averages b = B/c over the group a random member anchors, the
    anchor's own contribution included.
    """
    i_m = i_c + i_d
    produced = np.asarray(params.benefit(np.arange(n + 1) * params.c, n * params.c), dtype=float)
    r_vals = (produced[1:] - produced[:-1]) / params.c
    b_vals = produced / params.c
    row_d = pmf_row_formula(i_m - 1, n - 1, i_c) if i_d >= 1 else None
    row_c = pmf_row_formula(i_m - 1, n - 1, i_c - 1) if i_c >= 1 else None
    mean_r = math.nan
    if row_c is not None and row_d is not None:
        mean_r = float((0.5 * (row_d + row_c)) @ r_vals)
    x = i_c / i_m
    mean_b = 0.0
    if row_c is not None:
        mean_b += x * float(row_c @ b_vals[1:])
    if row_d is not None:
        mean_b += (1.0 - x) * float(row_d @ b_vals[:-1])
    return mean_r, mean_b


def neutral_chain_exact(z: int, mu: Fraction):
    """Exact stationary distribution of the beta = 0 update chain.

    At beta = 0 the Fermi factor is exactly 1/2, so every transition
    probability is rational: T_XY = (i_X/Z)[(1-mu)(i_Y/(Z-1))/2 + mu/2].
    The chain is rebuilt here from that update rule and solved by
    Gaussian elimination over Fractions, giving the stationary vector
    with zero rounding error.  Returns (states, pi) with states a list
    of (i_c, i_d) in lexicographic order.
    """
    states = [(i_c, i_d) for i_c in range(z + 1) for i_d in range(z + 1 - i_c)]
    index = {st: s for s, st in enumerate(states)}
    S = len(states)
    half = Fraction(1, 2)
    deltas = {"C": (1, 0), "D": (0, 1), "O": (0, 0)}
    T = [dict() for _ in range(S)]
    for s, (i_c, i_d) in enumerate(states):
        counts = {"C": i_c, "D": i_d, "O": z - i_c - i_d}
        out = Fraction(0)
        for xs in "CDO":
            for ys in "CDO":
                if xs == ys:
                    continue
                w = Fraction(counts[xs], z) * (
                    (1 - mu) * Fraction(counts[ys], z - 1) * half + mu * half
                )
                if w == 0:
                    continue
                dc = deltas[ys][0] - deltas[xs][0]
                dd = deltas[ys][1] - deltas[xs][1]
                t = index[(i_c + dc, i_d + dd)]
                T[s][t] = T[s].get(t, Fraction(0)) + w
                out += w
        T[s][s] = T[s].get(s, Fraction(0)) + 1 - out

    # Solve pi (T - I) = 0 with sum(pi) = 1: rows of (T^t - I), first
    # row replaced by the normalization constraint.
    A = [[Fraction(0)] * S for _ in range(S)]
    for s in range(S):
        for t, w in T[s].items():
            A[t][s] += w
        A[s][s] -= 1
    A[0] = [Fraction(1)] * S
    rhs = [Fraction(0)] * S
    rhs[0] = Fraction(1)
    M = [A[i] + [rhs[i]] for i in range(S)]
    for col in range(S):
        piv = next(r for r in range(col, S) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(S):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    pi = np.array([float(M[s][S]) for s in range(S)])
    return states, pi


def birth_death_pi(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Closed-form stationary vector of a birth-death chain.

    `up[i]` is the i -> i+1 probability, `down[i]` the i+1 -> i one.
    Detailed balance gives pi_{i+1}/pi_i = up[i]/down[i]; the product
    is accumulated in log space and normalized.
    """
    log_pi = np.concatenate([[0.0], np.cumsum(np.log(up) - np.log(down))])
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    return pi / pi.sum()


def stationary_by_squaring(dense: np.ndarray, doublings: int = 60) -> np.ndarray:
    """Stationary vector via repeated squaring of the dense transition matrix.

    After 2^doublings implicit steps every row of the power converges
    to pi for an irreducible aperiodic chain; rows are renormalized
    each squaring to absorb float drift.  Independent of both power
    iteration and direct solves.
    """
    P = dense.astype(float).copy()
    for _ in range(doublings):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    return P[0].copy()


def stationary_exact(dense: np.ndarray) -> list[Fraction]:
    """Exact stationary vector of a float transition matrix, as Fractions.

    Every float off-diagonal entry is taken at its exact binary value and
    each diagonal entry is one minus its row's off-diagonal sum, so the rows
    sum to one exactly.  pi (I - T) = 0 is then solved by Gaussian
    elimination over Fractions in the given state order: for an irreducible
    chain all leading pivots but the last are positive, so no pivoting is
    needed, and back-substitution from pi[-1] = 1 gives pi exactly.
    """
    n = dense.shape[0]
    T = [[Fraction(float(v)) for v in row] for row in dense]
    for i in range(n):
        T[i][i] = 1 - sum(T[i][j] for j in range(n) if j != i)
    # Row t of A is column t of I - T: A pi^T = 0.
    A = [[(1 if s == t else 0) - T[s][t] for s in range(n)] for t in range(n)]
    for col in range(n - 1):
        for r in range(col + 1, n):
            if A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [vr - f * vc for vr, vc in zip(A[r], A[col])]
    pi = [Fraction(0)] * n
    pi[-1] = Fraction(1)
    for r in range(n - 2, -1, -1):
        pi[r] = -sum(A[r][c] * pi[c] for c in range(r + 1, n)) / A[r][r]
    total = sum(pi)
    return [p / total for p in pi]


def _simulate_block(u: np.ndarray, i_c: int, i_d: int, z: int, mu: float,
                    fermi: list, pair_move: list, offsets: np.ndarray,
                    counts: np.ndarray, start_step: int, burn_in: int,
                    stride: int, traj: np.ndarray, n_traj: int) -> tuple[int, int, int]:
    """Per-step reference for `coaldyn.markov._simulate_steps`, with its signature.

    ``u`` has one row of four uniforms per step: focal pick, mutation test,
    shared choice (mutation target or role model), Fermi acceptance.  Each
    step is taken in full, one after another, from the same stride-4 stream,
    so a run equals the engine's whatever the block size.  ``fermi[i_c][i_d]``
    is the state's row of Fermi probabilities and ``pair_move[x][y]`` the
    move index, both nested lists.
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
                move = pair_move[strat_f][strat_r]
                if u[i, 3] < fermi[i_c][i_d][move]:
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
