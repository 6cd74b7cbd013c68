"""Hypergeometric sampling layer against exact combinatorial oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaldyn import BenefitFunction, GameParams, PopulationState
from coaldyn.sampling import FitnessTriple, fitness, fitness_at, fitness_table, hypergeom_pmf, pmf_row
from coaldyn.game import group_size

from oracles import (
    enumerated_pmf,
    exact_pmf,
    fitness_by_enumeration,
    fitness_by_pmf_rows,
    payoff_grid,
    pmf_row_formula,
)

SIGMOID = BenefitFunction.sigmoid()


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
    row = pmf_row(pool, draws, successes)
    assert row.shape == (draws + 1,)
    assert abs(row.sum() - 1.0) < 1e-12
    assert (row >= 0.0).all()


@given(spec=pmf_specs(max_pool=40), k=st.integers(min_value=-2, max_value=42))
@settings(max_examples=200)
def test_pmf_matches_exact_rationals(spec, k):
    pool, draws, successes = spec
    got = hypergeom_pmf(pool, draws, successes, k)
    want = float(exact_pmf(pool, draws, successes, k))
    assert got == pytest.approx(want, abs=1e-13)


@given(spec=pmf_specs(max_pool=400))
@settings(max_examples=100)
def test_pmf_mean_identity(spec):
    pool, draws, successes = spec
    if pool == 0:
        return
    row = pmf_row(pool, draws, successes)
    mean = float(row @ np.arange(draws + 1))
    # log-space rows carry ~1e-12 relative error at pool ~ 400, so the
    # identity is a relative statement once the mean grows past O(1)
    assert mean == pytest.approx(draws * successes / pool, rel=1e-10, abs=1e-10)


def test_pmf_support_is_exact_zero_outside():
    row = pmf_row(10, 6, 3)
    lo, hi = max(0, 6 - 7), min(6, 3)
    assert (row[:lo] == 0.0).all()
    assert (row[hi + 1 :] == 0.0).all()
    assert hypergeom_pmf(10, 6, 3, -1) == 0.0
    assert hypergeom_pmf(10, 6, 3, 7) == 0.0


def test_pmf_kronecker_when_whole_pool_drawn():
    # drawing the whole pool leaves no randomness
    for i in range(7):
        row = pmf_row(6, 6, i)
        want = np.zeros(7)
        want[i] = 1.0
        assert np.allclose(row, want, atol=1e-13)


def test_pmf_spec_point_two_thirds():
    # 6 two-element subsets of a 4-pool with 2 marked: 4 of 6 contain
    # exactly one mark
    assert hypergeom_pmf(4, 2, 2, 1) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert enumerated_pmf(4, 2, 2, 1) == pytest.approx(2.0 / 3.0)


def test_pmf_no_successes():
    assert hypergeom_pmf(8, 3, 0, 0) == 1.0


def test_pmf_rejects_invalid_spec():
    with pytest.raises(ValueError):
        pmf_row(5, 6, 2)
    with pytest.raises(ValueError):
        pmf_row(5, 2, 6)


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


def test_fitness_state_wrapper_consistency():
    p = small_params()
    st_ = PopulationState(i_c=4, i_d=3, z=12)
    assert fitness(p, st_) == fitness_at(p, 4, 3)
    with pytest.raises(ValueError):
        fitness(GameParams(z=14, g_m=2 / 14), st_)


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
    # the same oracle drives the matched-group-size path
    p = small_params()
    want = fitness_by_enumeration(p, 3, 5, n=4)
    got = fitness_at(p, 3, 5, n_override=4)
    assert got.f_c == pytest.approx(want[0], abs=1e-10)
    assert got.f_d == pytest.approx(want[1], abs=1e-10)
    assert got.f_o == pytest.approx(want[2], abs=1e-10)


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
    with pytest.raises(ValueError):
        fitness_at(p, 3, 3, n_override=1)


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
        f_o = f_o.copy()
        f_o[z, : z + 1] = table.f_o_full
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
            assert np.array_equal(pmf_row(pool, draws, s), pmf_row_formula(pool, draws, s))


def test_fitness_at_reads_the_table_with_zero_conventions():
    p = small_params()
    table = fitness_table(p)
    zc, zd, zo = table.grid()
    assert zc.shape == (p.z + 2, p.z + 2)
    for i_m in range(p.z + 1):
        for i_c in range(i_m + 1):
            assert fitness_at(p, i_c, i_m - i_c) == FitnessTriple(
                zc[i_m, i_c], zd[i_m, i_c], zo[i_m, i_c])
    assert not zc.flags.writeable and not table.level(p.z).flags.writeable
    assert np.isfinite(table.f_o_full).all() and (zo[p.z] == 0.0).all()


def test_fitness_table_builds_only_the_levels_read():
    p = small_params(alpha=3.0)
    fitness_table.cache_clear()
    fitness_at(p, 2, 3)
    table = fitness_table(p)
    assert table._built == [i_m in (0, 1, 5) for i_m in range(p.z + 1)]
    table.grid()
    assert all(table._built)


def test_fitness_override_larger_than_coalition_is_rejected():
    with pytest.raises(ValueError):
        fitness_at(small_params(), 2, 2, n_override=5)


def test_fitness_memo_stays_bounded():
    fitness_table.cache_clear()
    for j in range(20):
        fitness_at(small_params(alpha=1.0 + j / 4), 3, 4)
    info = fitness_table.cache_info()
    assert info.misses == 20
    assert info.currsize == info.maxsize == 1
