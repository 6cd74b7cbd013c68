"""Informed-player marginal gains, state classification, informed field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaldyn import (
    BenefitFunction,
    GameParams,
    PopulationState,
    classify_state,
    informed_field,
    information_cost,
    marginal_gains,
    replicator_field,
)
from coaldyn.game import effective_shares, group_size
from coaldyn.replicator import mean_return

from oracles import payoff_triple

SIGMOID = BenefitFunction.sigmoid()


def params(**kw):
    base = dict(z=100, g_m=0.05, benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


@given(
    n=st.integers(min_value=2, max_value=50),
    k=st.integers(min_value=0, max_value=49),
    e=st.floats(min_value=0.0, max_value=1.0),
    cc=st.floats(min_value=0.0, max_value=2.0),
    steep=st.floats(min_value=5.0, max_value=150.0),
    c=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=100)
def test_telescoping_and_payoff_crosscheck(n, k, e, cc, steep, c):
    """d_CO = d_CD + d_DO, and the closed forms equal payoff subtraction."""
    if k > n - 1:
        return
    p = params(e=e, c=c, c_c=cc, benefit=BenefitFunction.sigmoid(steepness=steep))
    g = marginal_gains(p, k * c, n)
    assert g.d_co == pytest.approx(g.d_cd + g.d_do, abs=1e-12)
    # independent route: raw payoff differences from the model definition
    pi_c, pi_d, pi_o = payoff_triple(p, k, n)
    assert g.d_cd == pytest.approx(pi_c - pi_d, abs=1e-12)
    assert g.d_do == pytest.approx(pi_d - pi_o, abs=1e-12)
    assert g.d_co == pytest.approx(pi_c - pi_o, abs=1e-12)


def test_zero_benefit_leaves_pure_costs():
    p = params(c=1.0, c_c=0.7, benefit=BenefitFunction.tabulated([(0.0, 0.0), (300.0, 0.0)]))
    g = marginal_gains(p, 3.0, 10)
    assert g.d_cd == pytest.approx(-1.0, abs=1e-12)
    assert g.d_do == pytest.approx(-0.7, abs=1e-12)
    assert g.d_co == pytest.approx(-1.7, abs=1e-12)


@pytest.mark.parametrize("c_prime", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fn", [marginal_gains, classify_state])
def test_non_finite_total_is_off_the_grid(fn, c_prime):
    """Every non-finite total is rejected as off the grid, before any rounding."""
    with pytest.raises(ValueError, match=r"is not k\*c for k in \[0, 4\]"):
        fn(params(), c_prime, 5)


def test_gain_vanishes_at_return_threshold():
    # tune a linear benefit so R(eps1+eps2) = 1 exactly
    n = 10
    p0 = params()
    tot = effective_shares(p0, n).total
    p = params(benefit=BenefitFunction.linear(slope=1.0 / tot))
    g = marginal_gains(p, 4.0, n)
    assert abs(g.d_cd) < 1e-12


def test_gain_spec_point_slope_forty():
    p = params(benefit=BenefitFunction.linear(slope=40.0))
    g = marginal_gains(p, 3.0, 10)
    assert g.d_cd == pytest.approx(40.0 * 0.055 - 1.0, abs=1e-12)


@given(
    n=st.integers(min_value=2, max_value=40),
    k=st.integers(min_value=0, max_value=39),
    e=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=100)
def test_label_a_equals_sign_condition(n, k, e):
    """Condition-based label A iff d_CD > 0 and d_CO > 0."""
    if k > n - 1:
        return
    p = params(e=e)
    cls = classify_state(p, float(k), n)
    g = marginal_gains(p, float(k), n)
    assert (cls.label == "A") == (g.d_cd > 0.0 and g.d_co > 0.0)
    assert cls.signs == tuple(int(np.sign(v)) if v != 0 else 0 for v in (g.d_cd, g.d_do, g.d_co))


def test_label_b_is_member_free_riding():
    # low marginal return but positive club share: joining pays, cooperating does not
    p = params(benefit=BenefitFunction.linear(slope=8.0), c_c=0.1)
    cls = classify_state(p, 5.0, 10)
    g = marginal_gains(p, 5.0, 10)
    assert g.d_cd < 0.0 < g.d_do
    assert cls.label == "B"


def test_all_negative_triple_has_no_label():
    p = params(benefit=BenefitFunction.tabulated([(0.0, 0.0), (300.0, 0.0)]))
    cls = classify_state(p, 2.0, 10)
    assert cls.signs == (-1, -1, -1)
    assert cls.label is None


# ---------------------------------------------------------------- field


def test_informed_field_beta_free():
    s = PopulationState(i_c=10, i_d=15, z=100)
    a = informed_field(params(alpha=4.0, beta=0.1), s)
    b = informed_field(params(alpha=4.0, beta=7.0), s)
    assert a == b


def test_informed_field_boundary_zeros():
    p = params(alpha=2.0)
    assert informed_field(p, PopulationState(i_c=0, i_d=0, z=100)).x_dot == 0.0
    full = informed_field(p, PopulationState(i_c=40, i_d=60, z=100))
    assert full.y_dot == 0.0  # y = 1 edge
    edge = informed_field(p, PopulationState(i_c=25, i_d=0, z=100))
    assert edge.x_dot == 0.0  # x = 1 edge
    # deltas that cannot be realised are not evaluated
    assert edge.delta_cd is None and edge.delta_dc is None


def test_informed_gap_identity():
    """uninformed x_dot - informed x_dot = -x(1-x) c (K_exact + K_dropped).

    This is the exact bookkeeping behind the 'extra terms due to using
    more information': machine precision, not a tolerance statement.
    At alpha = 1 the identity says the two flow fields differ by exactly
    the cost curve, since the direct fitness gap is the constant -c.
    """
    for alpha in (1.0, 2.0, 4.0, 8.0):
        p = params(z=40, alpha=alpha)
        for i_m in range(3, 40):
            for i_c in range(1, i_m):
                s = PopulationState(i_c=i_c, i_d=i_m - i_c, z=40)
                cost = information_cost(p, s)
                if math.isnan(cost.k_full):
                    continue
                xd_un, _ = replicator_field(p, s)
                xd_inf = informed_field(p, s).x_dot
                x = s.x
                assert xd_un - xd_inf == pytest.approx(
                    -x * (1.0 - x) * p.c * cost.k_full, abs=1e-12
                )


def test_alpha_one_informed_sign_tracks_mean_return():
    """At alpha=1 the informed x-flow follows the return signal.

    Holds wherever the dropped remainder does not dominate the signal;
    where |K_dropped| >= |<R>(eps1+eps2) - 1| the exact field can flip
    sign against the leading-term prediction, so that region is excluded
    here and the failure of the unrestricted claim is recorded in the
    decisions ledger.
    """
    p = params(z=40, alpha=1.0)
    checked = 0
    for i_m in range(3, 40):
        for i_c in range(1, i_m):
            s = PopulationState(i_c=i_c, i_d=i_m - i_c, z=40)
            cost = information_cost(p, s)
            if math.isnan(cost.k_dropped):
                continue
            n = group_size(p, i_m)
            gap = mean_return(p, s) * effective_shares(p, n).total - 1.0
            if abs(cost.k_dropped) >= 0.5 * abs(gap) or abs(gap) < 1e-10:
                continue
            xd = informed_field(p, s).x_dot
            checked += 1
            assert np.sign(xd) == np.sign(gap), (i_m, i_c, xd, gap, cost.k_dropped)
    assert checked > 400  # the validity region covers most of the grid


def test_informed_field_population_mismatch():
    with pytest.raises(ValueError):
        informed_field(params(), PopulationState(i_c=3, i_d=3, z=40))
