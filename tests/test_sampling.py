"""Hypergeometric sampling layer against exact combinatorial oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaldyn import BenefitFunction, GameParams, markov, sampling
from coaldyn.markov import build_chain, monte_carlo
from coaldyn.replicator import flow_field
from coaldyn.sampling import (
    FitnessTriple,
    _hypergeom_rows,
    _level_draws,
    _level_fitness,
    fitness_at,
    fitness_table,
)
from coaldyn.game import _payoff_grid, group_size

from oracles import (
    enumerated_pmf,
    exact_pmf,
    fitness_by_enumeration,
    fitness_by_pmf_rows,
    payoff_grid,
    pmf_row_formula,
)

SIGMOID = BenefitFunction.sigmoid()


def kernel_row(pool, draws, successes):
    """P(k successes among `draws` from `pool`) for k = 0..draws, one row of the kernel."""
    return _hypergeom_rows(pool, draws, np.array([successes]))[0]


@st.composite
def pmf_specs(draw, max_pool=500):
    pool = draw(st.integers(min_value=0, max_value=max_pool))
    draws = draw(st.integers(min_value=0, max_value=pool))
    successes = draw(st.integers(min_value=0, max_value=pool))
    return pool, draws, successes


@given(spec=pmf_specs())
@settings(max_examples=150)
def test_pmf_row_sums_to_one(spec):
    pool, draws, successes = spec
    row = kernel_row(pool, draws, successes)
    assert row.shape == (draws + 1,)
    assert abs(row.sum() - 1.0) < 1e-12
    assert (row >= 0.0).all()


@given(spec=pmf_specs(max_pool=40), k=st.integers(min_value=-2, max_value=42))
@settings(max_examples=200)
def test_pmf_matches_exact_rationals(spec, k):
    pool, draws, successes = spec
    row = kernel_row(pool, draws, successes)
    want = float(exact_pmf(pool, draws, successes, k))
    if 0 <= k <= draws:
        assert row[k] == pytest.approx(want, abs=1e-13)
    else:  # the row holds only the counts a draw can reach
        assert want == 0.0


@given(spec=pmf_specs(max_pool=400))
@settings(max_examples=100)
def test_pmf_mean_identity(spec):
    pool, draws, successes = spec
    if pool == 0:
        return
    row = kernel_row(pool, draws, successes)
    mean = float(row @ np.arange(draws + 1))
    # log-space rows carry ~1e-12 relative error at pool ~ 400, so the
    # identity is a relative statement once the mean grows past O(1)
    assert mean == pytest.approx(draws * successes / pool, rel=1e-10, abs=1e-10)


def test_pmf_support_is_exact_zero_outside():
    row = kernel_row(10, 6, 3)
    lo, hi = max(0, 6 - 7), min(6, 3)
    assert row.shape == (7,)
    assert (row[:lo] == 0.0).all()
    assert (row[hi + 1 :] == 0.0).all()


def test_pmf_kronecker_when_whole_pool_drawn():
    # drawing the whole pool leaves no randomness
    for i in range(7):
        row = kernel_row(6, 6, i)
        want = np.zeros(7)
        want[i] = 1.0
        assert np.allclose(row, want, atol=1e-13)


def test_pmf_spec_point_two_thirds():
    # 6 two-element subsets of a 4-pool with 2 marked: 4 of 6 contain
    # exactly one mark
    assert kernel_row(4, 2, 2)[1] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert enumerated_pmf(4, 2, 2, 1) == pytest.approx(2.0 / 3.0)


def test_pmf_no_successes():
    assert kernel_row(8, 3, 0)[0] == 1.0


# ------------------------------------------------------------------- fitness


def small_params(**kw):
    base = dict(z=12, g_m=2 / 12, alpha=2.0, benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


def test_fitness_boundary_conventions():
    p = small_params()
    t = fitness_at(p, 0, 5)
    assert t.f_c == 0.0 and t.f_d != 0.0
    t = fitness_at(p, 5, 0)
    assert t.f_d == 0.0 and t.f_c != 0.0
    # coalition smaller than two members convenes nothing
    assert fitness_at(p, 1, 0) == FitnessTriple(0.0, 0.0, 0.0)
    assert fitness_at(p, 0, 0) == FitnessTriple(0.0, 0.0, 0.0)
    # no outsider exists -> outsider entry zeroed
    assert fitness_at(p, 6, 6).f_o == 0.0


def test_fitness_degenerate_sampling_full_cooperation():
    # all members cooperate and the whole coalition convenes: a single
    # composition, so f_C is the raw payoff at k = N-1
    p = small_params(alpha=1.0)
    n = 6
    t = fitness_at(p, n, 0)
    from oracles import payoff_triple

    pi_c, _, _ = payoff_triple(p, n - 1, n)
    assert t.f_c == pytest.approx(pi_c, abs=1e-12)


@pytest.mark.parametrize("i_c,i_d", [(4, 4), (1, 7), (7, 1), (2, 3), (5, 6), (1, 1)])
def test_fitness_matches_subset_enumeration(i_c, i_d):
    p = small_params()
    n = group_size(p, i_c + i_d)
    want = fitness_by_enumeration(p, i_c, i_d, n)
    got = fitness_at(p, i_c, i_d)
    assert got.f_c == pytest.approx(want[0], abs=1e-10)
    assert got.f_d == pytest.approx(want[1], abs=1e-10)
    assert got.f_o == pytest.approx(want[2], abs=1e-10)


def test_fitness_enumeration_with_override():
    # a working group of 4 in a coalition of 8, not group_size(8)
    p = small_params()
    assert group_size(p, 8) != 4
    want = fitness_by_enumeration(p, 3, 5, n=4)
    got = _level_fitness(_payoff_grid(p, 4), _level_draws(8, 4), 8)[:, 3]
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    assert got[1] == pytest.approx(want[1], abs=1e-10)
    assert got[2] == pytest.approx(want[2], abs=1e-10)


@given(
    i_c=st.integers(min_value=1, max_value=19),
    i_d=st.integers(min_value=1, max_value=19),
)
@settings(max_examples=60)
def test_alpha_one_member_gap_is_minus_c(i_c, i_d):
    """The whole coalition convenes at alpha=1, so both member kinds see
    the same produced pool and the gap telescopes to exactly -c."""
    if i_c + i_d > 20:
        return
    p = GameParams(z=20, g_m=0.1, alpha=1.0, c=1.0, benefit=SIGMOID)
    t = fitness_at(p, i_c, i_d)
    assert t.f_c - t.f_d == pytest.approx(-1.0, abs=1e-12)


def test_alpha_one_gap_benefit_shape_independent():
    shapes = [
        SIGMOID,
        BenefitFunction.linear(slope=3.0),
        BenefitFunction.step(amplitude=50.0, threshold=0.5),
        BenefitFunction.tabulated([(0.0, 0.0), (3.0, 17.0), (60.0, 20.0)]),
    ]
    for shape in shapes:
        p = GameParams(z=20, g_m=0.1, alpha=1.0, c=1.0, benefit=shape)
        for i_c, i_d in ((1, 1), (5, 5), (10, 9), (1, 18)):
            t = fitness_at(p, i_c, i_d)
            assert t.f_c - t.f_d == pytest.approx(-1.0, abs=1e-12)


def test_fitness_monte_carlo_spot_check():
    """Sampled working groups reproduce the averaged fitness within 3 SE."""
    rng = np.random.default_rng(7)
    p = small_params()
    i_c, i_d = 5, 4
    i_m = i_c + i_d
    n = group_size(p, i_m)
    from oracles import payoff_triple

    pi_c = np.array([payoff_triple(p, k, n)[0] for k in range(n)])
    draws = rng.hypergeometric(i_c - 1, i_m - i_c, n - 1, size=200_000)
    est = pi_c[draws].mean()
    se = pi_c[draws].std() / np.sqrt(draws.size)
    assert abs(est - fitness_at(p, i_c, i_d).f_c) < 3.0 * se


def test_fitness_rejects_invalid_composition():
    p = small_params()
    with pytest.raises(ValueError):
        fitness_at(p, 7, 6)
    with pytest.raises(ValueError):
        fitness_at(p, -1, 3)


# ------------------------------------------------------------- fitness table

BENEFITS = {
    "linear": BenefitFunction.linear(slope=3.0),
    "step": BenefitFunction.step(amplitude=50.0, threshold=0.5),
    "sigmoid": SIGMOID,
    "tabulated": BenefitFunction.tabulated([(0.0, 0.0), (3.0, 17.0), (60.0, 20.0)]),
}


@pytest.mark.parametrize("kind", sorted(BENEFITS))
def test_fitness_table_matches_per_state_rows(kind):
    """Level-by-level table vs one PMF row and one dot product per state.

    The error is relative to the larger of the value and the largest payoff
    it averages: some averages cancel to zero (a linear benefit gives f_D = 0
    exactly at some states), where a plain relative error is undefined.
    """
    z = 60
    for alpha in (1.0, 2.0, 4.0, 8.0):
        p = GameParams(z=z, g_m=0.05, alpha=alpha, benefit=BENEFITS[kind])
        table = fitness_table(p)
        f_c, f_d, f_o = table.grid()
        worst = 0.0
        for i_m in range(2, z + 1):
            grid = payoff_grid(p, group_size(p, i_m))
            scale = max(np.abs(g).max() for g in grid)
            for i_c in range(i_m + 1):
                want = fitness_by_pmf_rows(grid, i_c, i_m - i_c)
                for got, w in zip((f_c, f_d, f_o), want):
                    if w is None:
                        assert got[i_m, i_c] == 0.0
                    else:
                        worst = max(worst, abs(got[i_m, i_c] - w) / max(abs(w), scale))
        assert worst <= 1e-12, (alpha, worst)
        for a in table.grid():
            assert not a[:2].any() and not a[np.triu_indices(z + 2, 1)].any() and not a[z + 1].any()


def test_hypergeometric_rows_match_per_row_formula():
    for pool, draws in ((0, 0), (1, 1), (9, 4), (59, 20), (199, 199)):
        for s in sorted({0, pool // 3, pool}):
            assert np.array_equal(kernel_row(pool, draws, s), pmf_row_formula(pool, draws, s))


def test_whole_coalition_draw_is_the_kernel_identity():
    """A group of the whole coalition skips the kernel; the kernel gives the same matrix."""
    for m in range(2, 81):
        got = _level_draws(m, m)
        assert np.array_equal(got, _hypergeom_rows(m - 1, m - 1, np.arange(m))), m
        assert np.array_equal(got, np.eye(m))


def test_fitness_at_reads_the_table_with_zero_conventions():
    """`fitness_at` reads the table, but f_o = 0 where the table holds the
    outsider formula of the full coalition."""
    p = small_params()
    table = fitness_table(p)
    zc, zd, zo = table.grid()
    assert zc.shape == (p.z + 2, p.z + 2)
    for i_m in range(p.z + 1):
        for i_c in range(i_m + 1):
            f_o = zo[i_m, i_c] if i_m < p.z else 0.0
            assert fitness_at(p, i_c, i_m - i_c) == FitnessTriple(zc[i_m, i_c], zd[i_m, i_c], f_o)
    assert not zc.flags.writeable and not table.level(p.z).flags.writeable
    n = group_size(p, p.z)
    formula = _level_fitness(_payoff_grid(p, n), _level_draws(p.z, n), p.z)[2]
    assert np.array_equal(zo[p.z, : p.z + 1], formula) and formula.any()


def test_fitness_table_builds_only_the_levels_read():
    p = small_params(alpha=3.0)
    fitness_table.cache_clear()
    fitness_at(p, 2, 3)
    table = fitness_table(p)
    assert table._built == [i_m in (0, 1, 5) for i_m in range(p.z + 1)]
    table.grid()
    assert all(table._built)


def test_fitness_memo_stays_bounded():
    fitness_table.cache_clear()
    for j in range(20):
        fitness_at(small_params(alpha=1.0 + j / 4), 3, 4)
    info = fitness_table.cache_info()
    assert info.misses == 20
    assert info.currsize == info.maxsize == 1


def test_flow_field_draws_each_level_once(monkeypatch):
    """The flow field's means and the fitness they sit beside share one draw per level."""
    calls = []
    real = sampling._level_draws

    def counted(i_m, n):
        calls.append(i_m)
        return real(i_m, n)

    monkeypatch.setattr(sampling, "_level_draws", counted)
    fitness_table.cache_clear()
    p = GameParams(z=40, g_m=0.05, alpha=4.0, benefit=SIGMOID)
    field = flow_field(p)
    assert sorted(calls) == list(range(2, 41))
    table = fitness_table(p)
    assert all(table._built)
    for got, i in ((field.mean_r, 0), (field.mean_b, 1)):
        assert np.array_equal(got, np.concatenate([table.means(i_m)[i] for i_m in range(2, 41)]))


def test_chain_and_monte_carlo_never_compute_the_means(monkeypatch):
    def refuse(*args):
        raise AssertionError("mean columns computed")

    monkeypatch.setattr(sampling.FitnessTable, "means", refuse)
    for alpha, run in ((2.5, lambda p: build_chain(p)),
                       (3.5, lambda p: monte_carlo(p, steps=500, seed=1))):
        fitness_table.cache_clear()
        p = small_params(alpha=alpha)
        run(p)
        assert all(fitness_table(p)._built)


def test_chain_and_simulator_read_no_fitness_of_an_unplayed_strategy(monkeypatch):
    """Overwriting the entries of strategies nobody plays (f_c at i_c = 0, f_d at
    i_d = 0, f_o at i_m = z) changes neither the chain's moves nor a two-segment
    simulator run."""
    p = small_params(alpha=3.0, beta=0.5, mu=0.05)
    monkeypatch.setattr(markov, "SEGMENT_STEPS", 1_000)
    monkeypatch.setattr(markov, "_usable_cpus", lambda: 2)

    def run():
        return build_chain(p).move_probs, monte_carlo(p, steps=6_000, seed=4, trajectory_samples=64)

    fitness_table.cache_clear()
    moves, mc = run()
    fitness_table.cache_clear()
    table = fitness_table(p)
    table.grid()
    rng = np.random.default_rng(7)
    i_m = np.arange(p.z + 1)
    table._f[0, i_m, 0] = rng.uniform(-50.0, 50.0, p.z + 1)
    table._f[1, i_m, i_m] = rng.uniform(-50.0, 50.0, p.z + 1)
    table._f[2, p.z, : p.z + 1] = rng.uniform(-50.0, 50.0, p.z + 1)
    moves_2, mc_2 = run()
    assert fitness_table(p) is table and table._f[2, p.z, 0] != 0.0
    assert np.array_equal(moves, moves_2)
    assert np.array_equal(mc.occupancy, mc_2.occupancy) and np.array_equal(mc.trajectory, mc_2.trajectory)
