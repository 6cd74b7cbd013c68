"""Independent oracles the test suite checks the engine against.

Everything here is deliberately written from the ground truth rather
than from the package: exact rational arithmetic where the quantity is
rational (hypergeometric counts, neutral-drift chains), brute-force
enumeration where the engine uses a formula (group sampling), and
textbook closed forms for solver validation (birth-death chains,
repeated squaring).  None of it imports from coaldyn except the
parameter container, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln


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
    """Hypergeometric row k = 0..draws from log-gamma values on its support.

    The per-row formula the engine used before it built whole levels at
    once; exact zeros off the support.
    """
    out = np.zeros(draws + 1)
    lo = max(0, draws - (pool - successes))
    hi = min(draws, successes)
    if lo <= hi:
        ks = np.arange(lo, hi + 1)
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
