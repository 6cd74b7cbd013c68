"""Composition chain: structure, solvers, and drift field.

The solver checks lean on four independent oracles from ``oracles.py``:
an exact rational solve of the neutral chain, an exact rational solve of
any small float chain, stationary distributions by repeated squaring of
the dense matrix, and the detailed-balance closed form for birth--death
chains.  The sparse LU solve is a fifth, for chains too large for those,
and the small-mutation limit a sixth, for the corners as mu -> 0.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

import coaldyn

from coaldyn import (
    BenefitFunction,
    CapacityError,
    GameParams,
    NonConvergenceError,
    ReducibleChainError,
    build_chain,
    imitation_probability,
    monte_carlo,
    selection_gradient,
    stationary,
)
from coaldyn.markov import (
    MOVE_DELTAS,
    MOVES,
    StateIndex,
    _direct_solve,
    _fermi_table,
    _power_iteration,
    _residual,
)
from coaldyn.sampling import fitness_at

from oracles import (birth_death_pi, neutral_chain_exact, small_mutation_limit, stationary_by_squaring,
                     stationary_exact, stationary_longdouble)

SIGMOID = BenefitFunction.sigmoid()


def params(z, **kw):
    base = dict(z=z, g_m=max(0.05, 2 / z), benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


# --- state indexing ----------------------------------------------------------


def test_state_index_is_a_bijection():
    idx = StateIndex.for_population(9)
    assert idx.n_states == 10 * 11 // 2
    seen = set()
    for s in range(idx.n_states):
        i_c, i_d = idx.state_of(s)
        assert 0 <= i_c and 0 <= i_d and i_c + i_d <= 9
        assert idx.index_of(i_c, i_d) == s
        seen.add((i_c, i_d))
    assert len(seen) == idx.n_states


def test_state_index_is_lexicographic():
    idx = StateIndex.for_population(6)
    states = [idx.state_of(s) for s in range(idx.n_states)]
    assert states == sorted(states)
    assert states[0] == (0, 0)
    assert states[-1] == (6, 0)


def test_index_of_accepts_arrays():
    idx = StateIndex.for_population(12)
    i_c = np.array([0, 3, 12])
    i_d = np.array([0, 4, 0])
    flat = idx.index_of(i_c, i_d)
    assert [idx.state_of(int(s)) for s in flat] == [(0, 0), (3, 4), (12, 0)]


# --- chain structure ---------------------------------------------------------


@pytest.mark.parametrize("mu", [0.0, 0.05, 1.0])
def test_rows_are_stochastic(mu):
    model = build_chain(params(14, mu=mu, beta=0.2, alpha=2.0))
    sums = np.asarray(model.transitions.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_rows_have_at_most_seven_entries():
    model = build_chain(params(16, mu=0.03, alpha=3.0))
    nnz_per_row = np.diff(model.transitions.indptr)
    assert nnz_per_row.max() <= 7


def test_absent_strategies_have_no_outflow():
    model = build_chain(params(10, mu=0.0, beta=0.5, alpha=2.0))
    idx = model.index
    counts = (idx.i_c_of, idx.i_d_of, 10 - idx.i_c_of - idx.i_d_of)
    for m, (x, _y) in enumerate(MOVES):
        gone = counts[x] == 0
        assert np.all(model.move_probs[gone, m] == 0.0)


def test_neutral_drift_transition_form():
    """beta = 0, mu = 0: pure imitation at coin-flip acceptance."""
    z = 11
    model = build_chain(params(z, beta=0.0, mu=0.0))
    idx = model.index
    counts = (
        idx.i_c_of.astype(float),
        idx.i_d_of.astype(float),
        (z - idx.i_c_of - idx.i_d_of).astype(float),
    )
    for m, (x, y) in enumerate(MOVES):
        expect = (counts[x] / z) * (counts[y] / (z - 1)) * 0.5
        np.testing.assert_allclose(model.move_probs[:, m], expect, rtol=0, atol=1e-15)


def test_transitions_agree_with_move_probs():
    model = build_chain(params(9, mu=0.04, beta=0.3, alpha=2.0))
    idx = model.index
    dense = model.transitions.toarray()
    for s in range(idx.n_states):
        i_c, i_d = idx.state_of(s)
        for m in range(6):
            p = model.move_probs[s, m]
            if p == 0.0:
                continue
            dc, dd = MOVE_DELTAS[m]
            t = idx.index_of(i_c + dc, i_d + dd)
            assert dense[s, t] == pytest.approx(p, abs=1e-15)


def test_underflowing_mutation_leaves_the_chain_reducible():
    # mu / 2 rounds to zero, so nothing leaves the all-outsider state.
    with pytest.raises(ReducibleChainError, match="not strongly connected"):
        build_chain(params(10, mu=5e-324))


def test_partly_underflowing_mutation_keeps_the_chain_connected():
    # At mu = 1e-323 some moves out of occupied states round to zero, so the
    # quick all-moves-open test fails and the graph search decides: the chain
    # is still strongly connected, and the build succeeds.
    model = build_chain(params(10, mu=1e-323))
    idx = model.index
    counts = np.column_stack([idx.i_c_of, idx.i_d_of, 10 - idx.i_c_of - idx.i_d_of])
    present = counts[:, [x for x, _ in MOVES]] >= 1
    assert np.any(model.move_probs[present] == 0.0)
    assert connected_components(model.transitions, directed=True, connection="strong")[0] == 1


def test_residual_matches_the_sparse_product():
    model = build_chain(params(30, mu=0.01, beta=0.3, alpha=4.0))
    t_t = model.transitions.T.tocsr()
    pi = stationary(model).pi
    rough = np.random.default_rng(3).random(model.n_states)
    for v in (pi, rough / rough.sum()):
        assert abs(_residual(model, v) - float(np.max(np.abs(t_t @ v - v)))) <= 1e-18


SWEEP_CFG = """
[game]
z = 12
g_m_seats = 2
alpha = 2.0
beta = 0.1
mu = 0.05

[benefit]
kind = sigmoid

[experiment]
name = sweep-alpha
values = 1, 2

[output]
formats = csv, json
"""


def test_default_path_never_imports_scipy(tmp_path):
    """Building, solving, the gradient, the simulator and the flow field run on
    numpy alone; the sparse matrix and the LU oracle still load scipy on demand.
    A two-segment simulation and a two-panel sweep fork their children with
    neither `multiprocessing` nor `concurrent` imported."""
    code = """
import os, sys
import numpy as np
import coaldyn.experiments
mp = ("multiprocessing", "concurrent")
assert not [m for m in sys.modules if m.partition(".")[0] in mp]
from coaldyn import BenefitFunction, GameParams, build_chain, flow_field, monte_carlo, selection_gradient, stationary
from coaldyn import experiments, markov
from coaldyn.config import load_config
p = GameParams(z=20, g_m=0.1, mu=0.01, beta=0.1, alpha=4.0, benefit=BenefitFunction.sigmoid())
model = build_chain(p)
levels = stationary(model)
selection_gradient(model)
monte_carlo(p, steps=2_000, seed=1)
flow_field(p)
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
markov.SEGMENT_STEPS = 1000
markov._usable_cpus = experiments._usable_cpus = lambda: 2
monte_carlo(p, steps=2_000, seed=1)
experiments.run_experiment(load_config(sys.argv[1], out_dir=sys.argv[2]))
assert len(forks) == 3, forks  # one later segment, then two panels
assert not [m for m in sys.modules if m.partition(".")[0] in mp]
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
assert model.transitions.nnz > model.n_states
direct = stationary(model, method="direct")
assert 0.5 * np.abs(levels.pi - direct.pi).sum() < 1e-12
"""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    src = str(Path(coaldyn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")], env=env, check=True)
    assert len(list((tmp_path / "out").glob("stationary_alpha*.csv"))) == 2


# Writes the pi bytes of the panel_sweep.cfg game at alpha = 4 to stdout, held to one
# CPU, before numpy is imported, when argv[1] is "one".
PI_ON_CPUS = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from coaldyn import BenefitFunction, GameParams, build_chain, stationary
p = GameParams(z=100, g_m=0.05, alpha=4.0, beta=0.1, mu=0.01,
               benefit=BenefitFunction.sigmoid(amplitude=100, steepness=100, threshold=0.75))
sys.stdout.buffer.write(stationary(build_chain(p)).pi.tobytes())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity masks and at least two usable CPUs")
def test_stationary_bytes_do_not_depend_on_the_cpu_count():
    """With no thread variable set, BLAS runs one thread however many CPUs a process may
    use, so the level solve writes the same pi bytes on one CPU and on all."""
    threads = ("COALDYN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in threads}
    src = str(Path(coaldyn.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    one, every = (subprocess.run([sys.executable, "-c", PI_ON_CPUS, cpus], env=env, capture_output=True,
                                 check=True, timeout=120).stdout for cpus in ("one", "all"))
    assert len(one) == 5151 * 8
    assert one == every


def test_unknown_mutation_form_rejected():
    for form in ("fancy", "literal"):
        with pytest.raises(ValueError, match="mutation_form"):
            build_chain(params(10), mutation_form=form)


def test_capacity_budget_enforced():
    """z = 2000 has 2 003 001 states, over MAX_STATES; the build fails before allocating them."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2003001 states"):
            build_chain(params(2000))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_fermi_table_matches_pointwise_evaluation():
    """Equal wherever both strategies of a move are played; the chain reads no other entry."""
    p = params(10, alpha=2.0)
    idx = StateIndex.for_population(10)
    fermi = _fermi_table(p, idx)
    for i_c, i_d in [(0, 0), (3, 2), (0, 7), (5, 5), (10, 0), (2, 8)]:
        s = idx.index_of(i_c, i_d)
        trip = fitness_at(p, i_c, i_d)
        fits, played = (trip.f_c, trip.f_d, trip.f_o), (i_c, i_d, 10 - i_c - i_d)
        for m, (x, y) in enumerate(MOVES):
            if played[x] and played[y]:
                assert fermi[s, m] == imitation_probability(p, fits[x], fits[y]), (i_c, i_d, m)


# --- imitation rule ----------------------------------------------------------


def test_imitation_probability_rule():
    p0 = params(10, beta=0.0)
    assert imitation_probability(p0, 3.7, -12.0) == 0.5
    p1 = params(10, beta=0.1)
    assert imitation_probability(p1, 10.0, 0.0) == pytest.approx(1 / (1 + math.e), rel=1e-15)
    assert imitation_probability(p1, 0.0, 10.0) == pytest.approx(
        1 / (1 + math.exp(-1.0)), rel=1e-15
    )
    # saturation without overflow
    assert imitation_probability(params(10, beta=5.0), 1e6, 0.0) == 0.0
    assert imitation_probability(params(10, beta=5.0), 0.0, 1e6) == 1.0


def test_imitation_probability_vectorizes():
    p = params(10, beta=0.2)
    fx = np.array([0.0, 1.0, -3.0])
    fy = np.array([0.0, 0.0, 2.0])
    got = imitation_probability(p, fx, fy)
    want = [imitation_probability(p, a, b) for a, b in zip(fx, fy)]
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


# --- stationary solvers vs oracles ------------------------------------------


def test_neutral_chain_matches_exact_rational_solve():
    """At beta = 0 the whole chain is solvable in exact arithmetic."""
    z, mu = 6, Fraction(1, 10)
    model = build_chain(params(z, beta=0.0, mu=float(mu)))
    states, pi_exact = neutral_chain_exact(z, mu)
    assert states == [model.index.state_of(s) for s in range(model.n_states)]

    power = stationary(model, tol=1e-12, method="power")
    direct = stationary(model, method="direct")
    levels = stationary(model)
    assert np.max(np.abs(power.pi - pi_exact)) < 1e-9
    assert np.max(np.abs(direct.pi - pi_exact)) < 1e-12
    assert np.max(np.abs(levels.pi - pi_exact)) < 1e-12
    assert (power.method, direct.method, levels.method) == ("power", "direct", "levels")
    assert power.iterations > 0 and direct.iterations == 0 and levels.iterations == 0


def test_neutral_stationary_is_strategy_exchangeable():
    """beta = 0 makes all three strategies interchangeable, so pi must be
    invariant under permuting the counts (i_c, i_d, i_o)."""
    z = 8
    model = build_chain(params(z, beta=0.0, mu=0.2))
    pi = stationary(model, method="direct").pi
    idx = model.index
    for s in range(model.n_states):
        i_c, i_d = idx.state_of(s)
        i_o = z - i_c - i_d
        swap_cd = idx.index_of(i_d, i_c)
        swap_do = idx.index_of(i_c, i_o)
        assert pi[s] == pytest.approx(pi[swap_cd], rel=1e-10, abs=1e-13)
        assert pi[s] == pytest.approx(pi[swap_do], rel=1e-10, abs=1e-13)


def test_selective_chain_matches_repeated_squaring():
    model = build_chain(params(8, beta=0.5, mu=0.08, alpha=3.0))
    dense = model.transitions.toarray()
    pi_sq = stationary_by_squaring(dense)
    power = stationary(model, tol=1e-12, method="power")
    direct = stationary(model, method="direct")
    levels = stationary(model)
    assert np.max(np.abs(power.pi - pi_sq)) < 1e-7
    assert np.max(np.abs(direct.pi - pi_sq)) < 1e-7
    assert np.max(np.abs(levels.pi - pi_sq)) < 1e-7
    assert np.max(np.abs(power.pi - direct.pi)) < 1e-9


@pytest.mark.parametrize("z", [60, 100])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0, 8.0])
def test_level_solve_matches_sparse_lu(z, alpha):
    model = build_chain(params(z, mu=0.01, beta=0.1, alpha=alpha))
    levels = stationary(model)
    direct = stationary(model, method="direct")
    assert 0.5 * np.abs(levels.pi - direct.pi).sum() <= 1e-12
    assert levels.residual < 1e-15


def test_level_solve_is_entrywise_accurate_on_a_selective_chain():
    """pi spans 18 orders of magnitude here.  The level solve matches the exact
    rational stationary vector of the same float chain to 1e-9 relative in
    every entry (measured 9e-16); sparse LU manages 7e-8 on the smallest.  The
    extended-precision oracle matches it to the rounding of the exact vector
    to float64 (measured 1.0e-16, bound two units of roundoff)."""
    model = build_chain(params(10, g_m=0.2, mu=1e-9, beta=5.0, alpha=2.0))
    exact = np.array([float(v) for v in stationary_exact(model.transitions.toarray())])
    assert exact.min() < 1e-17 * exact.max()
    pi = stationary(model).pi
    assert np.max(np.abs(pi - exact) / exact) < 1e-9
    oracle = stationary_longdouble(model.index.i_c_of, model.index.i_d_of, model.move_probs, MOVE_DELTAS)
    assert np.max(np.abs(oracle - exact) / exact) < 2.3e-16


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                    reason="np.longdouble is no wider than float64 on this platform, so the "
                           "oracle would be no more accurate than the solve it checks")
@pytest.mark.parametrize("beta, mu", [(0.1, 0.01), (1.0, 1e-6)])
def test_level_solve_is_entrywise_accurate_at_z_100(beta, mu):
    """Against GTH over the whole chain in extended precision, on the game of
    scripts/configs/panel_sweep.cfg at alpha = 4: measured 3.0e-15 at (0.1, 0.01)
    and 8.4e-15 at (1, 1e-6), where pi falls to 4e-18.  The bound is 5e-14."""
    model = build_chain(GameParams(z=100, alpha=4.0, beta=beta, mu=mu,
                                   benefit=BenefitFunction.sigmoid(100.0, 100.0, 0.75)))
    want = stationary_longdouble(model.index.i_c_of, model.index.i_d_of, model.move_probs, MOVE_DELTAS)
    pi = stationary(model).pi
    assert np.max(np.abs(pi - want) / want) < 5e-14


@pytest.mark.parametrize("z", [30, 60, 100])
def test_level_solve_corners_approach_the_small_mutation_limit(z):
    """On criterion 6's game (sigmoid benefit, g_m = 5/z, beta = 0.1) at alpha 1 and 8,
    the level solve's masses at all-C, all-D and all-O lie within 2e5 mu of
    `oracles.small_mutation_limit`, at mu = 1e-10 and 1e-12.

    The limit solves no system of the chain, so this checks the solve where pi
    spans the most orders of magnitude.  The gap is first order in mu: the
    largest measured, |gap| / mu, was 1.4e2 at z = 30, 1.0e3 at z = 60 and
    1.3e5 at z = 100 (all at alpha = 1), the same at both mu.  No set of this
    grid is left out.  At beta = 1 the limit is not reached by mu = 1e-14 at
    z = 60, alpha = 1 and at z = 100, alpha <= 4: a coalition of about 25
    cooperators and no defectors is metastable there, leaving it takes longer
    than 1/mu steps, and the corner limit cannot show such a state (Wu,
    Gokhale, Wang & Traulsen 2012, J. Math. Biol. 64).  So beta = 1 is not in
    the grid.
    """
    for alpha in (1.0, 8.0):
        for mu in (1e-10, 1e-12):
            game = GameParams(z=z, g_m=5 / z, alpha=alpha, beta=0.1, mu=mu, benefit=SIGMOID)
            model = build_chain(game)
            corners = model.index.index_of(np.array([z, 0, 0]), np.array([0, z, 0]))
            gap = stationary(model).pi[corners] - small_mutation_limit(game)
            assert np.max(np.abs(gap)) < 2e5 * mu, (alpha, mu, gap)


def test_solvers_on_birth_death_ladder():
    """Hand-built chain with a detailed-balance closed form."""
    rng = np.random.default_rng(7)
    n = 25
    up = 0.1 + 0.3 * rng.random(n - 1)
    down = 0.1 + 0.3 * rng.random(n - 1)
    rows, cols, data = [], [], []
    for i in range(n):
        stay = 1.0
        if i < n - 1:
            rows.append(i), cols.append(i + 1), data.append(up[i])
            stay -= up[i]
        if i > 0:
            rows.append(i), cols.append(i - 1), data.append(down[i - 1])
            stay -= down[i - 1]
        rows.append(i), cols.append(i), data.append(stay)
    t = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    pi_closed = birth_death_pi(up, down)

    pi_pow, resid, _iters = _power_iteration(t.T.tocsr(), 1e-13, 1_000_000)
    pi_dir = _direct_solve(t)
    assert resid < 1e-13
    assert np.max(np.abs(pi_pow - pi_closed)) < 1e-10
    assert np.max(np.abs(pi_dir - pi_closed)) < 1e-12


def test_two_state_symmetric_chain():
    t = sparse.csr_matrix(np.array([[0.7, 0.3], [0.3, 0.7]]))
    pi_pow, _resid, _ = _power_iteration(t.T.tocsr(), 1e-14, 10_000)
    np.testing.assert_allclose(pi_pow, [0.5, 0.5], rtol=0, atol=1e-13)
    np.testing.assert_allclose(_direct_solve(t), [0.5, 0.5], rtol=0, atol=1e-14)


def test_stationary_requires_mutation():
    model = build_chain(params(8, mu=0.0))
    with pytest.raises(ValueError, match="mu > 0"):
        stationary(model)


def test_power_iteration_raises_on_cap():
    model = build_chain(params(20, mu=0.01, beta=0.1, alpha=2.0))
    with pytest.raises(NonConvergenceError) as err:
        stationary(model, tol=1e-12, max_iter=5, method="power")
    assert err.value.iterations == 5
    assert err.value.residual > 0.0


def test_unknown_method_rejected():
    model = build_chain(params(8, mu=0.1))
    with pytest.raises(ValueError, match="method"):
        stationary(model, method="magic")


def test_summary_moments_and_member_mass():
    model = build_chain(params(10, beta=0.05, mu=0.05, alpha=2.0))
    res = stationary(model, method="direct")
    idx = model.index
    i_c = idx.i_c_of.astype(float)
    i_m = i_c + idx.i_d_of.astype(float)
    mean_y = float(res.pi @ (i_m / 10))
    assert res.summary.mean_y == pytest.approx(mean_y, abs=1e-14)
    members = i_m >= 1
    mass = float(res.pi[members].sum())
    assert res.summary.member_mass == pytest.approx(mass, abs=1e-14)
    w = res.pi[members] / mass
    mean_x = float(w @ (i_c[members] / i_m[members]))
    assert res.summary.mean_x == pytest.approx(mean_x, abs=1e-13)
    assert 0.0 <= res.summary.mean_x <= 1.0
    assert res.summary.std_x >= 0.0 and res.summary.std_y >= 0.0


# --- selection gradient ------------------------------------------------------


def test_gradient_matches_transition_expectation():
    model = build_chain(params(9, beta=0.3, mu=0.02, alpha=2.0))
    grad = selection_gradient(model)
    idx = model.index
    i_c = idx.i_c_of.astype(float)
    i_d = idx.i_d_of.astype(float)
    t = model.transitions
    drift_c = t @ i_c - i_c
    drift_d = t @ i_d - i_d
    np.testing.assert_allclose(grad.drift_c, drift_c, rtol=0, atol=1e-13)
    np.testing.assert_allclose(grad.drift_d, drift_d, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        grad.speed, np.hypot(drift_c, drift_d), rtol=0, atol=1e-13
    )


def test_gradient_neutral_symmetry():
    """Neutral drift at i_c = i_d cannot prefer one member stripe."""
    model = build_chain(params(12, beta=0.0, mu=0.0))
    grad = selection_gradient(model)
    idx = model.index
    for i in range(1, 7):
        s = idx.index_of(i, i)
        assert grad.drift_c[s] == pytest.approx(grad.drift_d[s], abs=1e-15)
        assert grad.grad_x[s] == pytest.approx(0.0, abs=1e-15)


def test_gradient_x_and_y_coordinates():
    model = build_chain(params(10, beta=0.2, mu=0.03, alpha=2.0))
    grad = selection_gradient(model)
    idx = model.index
    s = idx.index_of(3, 2)
    dm = grad.drift_c[s] + grad.drift_d[s]
    assert grad.grad_y[s] == pytest.approx(dm / 10, abs=1e-15)
    assert grad.grad_x[s] == pytest.approx(
        (grad.drift_c[s] - (3 / 5) * dm) / 5, abs=1e-15
    )
    # x is undefined without members
    assert math.isnan(grad.grad_x[idx.index_of(0, 0)])


def test_whole_coalition_gradient_never_favors_cooperators():
    """With the working group equal to the whole coalition, cooperation is
    strictly dominated inside the coalition, so the imitation flow can
    only push x down (mu = 0, any beta)."""
    model = build_chain(params(40, alpha=1.0, beta=0.1, mu=0.0))
    grad = selection_gradient(model)
    idx = model.index
    both = (idx.i_c_of >= 1) & (idx.i_d_of >= 1)
    assert np.all(grad.grad_x[both] <= 1e-15)


def test_stationary_mass_near_outsider_vertex_at_alpha_one():
    """Golden regression: at alpha = 1 and default selection strength the
    chain spends its time at low coalition sizes, but the mass inside the
    y <= 0.2 band is 0.3396, not a majority — weak selection (beta = 0.1)
    spreads the distribution well past the vertex.  (At beta = 1 the same
    band holds 0.66; the band mass is a selection-strength readout, and
    this pins the default.)"""
    model = build_chain(params(60, alpha=1.0, beta=0.1, mu=0.01))
    res = stationary(model)
    y = (model.index.i_c_of + model.index.i_d_of) / 60
    mass = float(res.pi[y <= 0.2].sum())
    assert mass == pytest.approx(0.339648, abs=1e-4)


def test_near_vertex_states_keep_moving_at_alpha_one():
    """States a few members away from the all-outsider corner still carry
    strictly positive expected motion (mutation plus imitation churn), so
    the corner cannot trap the dynamic."""
    p = GameParams(z=100, g_m=0.05, mu=0.01, beta=0.1, alpha=1.0,
                   benefit=BenefitFunction.sigmoid())
    model = build_chain(p)
    grad = selection_gradient(model)
    i_m = model.index.i_c_of + model.index.i_d_of
    near = (i_m >= 1) & (i_m <= 3)
    assert near.sum() == 9
    assert np.all(grad.speed[near] > 1e-4)  # measured min 5.2e-3


# --- simulator cross-check ---------------------------------------------------


def test_full_mutation_simulation_matches_chain():
    """mu = 1 shuts off imitation entirely; the simulator occupancy must
    reproduce the chain's stationary law."""
    p = params(12, mu=1.0, beta=0.1, alpha=2.0)
    pi = stationary(build_chain(p), method="direct").pi
    mc = monte_carlo(p, steps=2_000_000, seed=5, burn_in=10_000)
    tv = 0.5 * float(np.abs(mc.occupancy - pi).sum())
    assert tv < 0.05
