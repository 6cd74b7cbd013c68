"""Stage-game layer: parameter validation, group-size law, raw payoffs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coaldyn import BenefitFunction, GameParams, PopulationState
from coaldyn.game import _check_on_grid, _payoff_grid, effective_shares, group_size

from oracles import payoff_triple

SIGMOID = BenefitFunction.sigmoid()


def params(**kw):
    base = dict(z=100, g_m=0.05, benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


def returns(p, n):
    """R = (B(C' + c) - B(C')) / c at C' = k c, k = 0..n-1, read off the payoff grid."""
    return np.diff(_payoff_grid(p, n)[3]) / p.c


# ---------------------------------------------------------------- containers


def test_param_validation():
    with pytest.raises(ValueError):
        params(e=1.5)
    with pytest.raises(ValueError):
        params(alpha=0.5)
    with pytest.raises(ValueError):
        params(c=0.0)
    with pytest.raises(ValueError):
        params(z=10, g_m=0.05)  # fewer than two guaranteed seats
    with pytest.raises(ValueError):
        params(theta=-0.1)
    with pytest.raises(ValueError):
        params(mu=1.5)


@pytest.mark.parametrize("name, value", [
    *((name, math.nan) for name in ("e", "theta", "theta_prime", "c", "c_c", "g_m", "alpha", "beta", "mu")),
    *((name, sign * math.inf) for name in ("c", "c_c", "beta") for sign in (1, -1)),
])
def test_param_validation_rejects_nan_and_infinite_values(name, value):
    """A NaN fails every range check, and only alpha may be infinite."""
    with pytest.raises(ValueError, match=rf"^{name} must"):
        params(**{name: value})


@pytest.mark.parametrize("z", [20.0, 20.5, np.float64(20.0), "20"])
def test_param_validation_rejects_a_non_integer_population(z):
    """Only an int or a numpy integer is a population size; a float fails at construction."""
    with pytest.raises(ValueError, match="^z must be an integer"):
        params(z=z, g_m=0.1)
    assert params(z=np.int64(20), g_m=0.1).z == 20


def test_alpha_infinity_is_the_step_growth_limit():
    """Groups keep the guaranteed footprint until the coalition is everyone; the chain solves."""
    from coaldyn import build_chain, stationary

    p = params(z=30, alpha=math.inf, g_m=0.1)
    assert [group_size(p, i_m) for i_m in (2, 3, 15, 29, 30)] == [2, 3, 3, 3, 30]
    assert stationary(build_chain(p)).residual < 1e-12


def test_state_derived_quantities():
    s = PopulationState(i_c=3, i_d=5, z=20)
    assert s.i_m == 8 and s.i_o == 12
    assert s.x == pytest.approx(3 / 8)
    assert s.y == pytest.approx(8 / 20)
    with pytest.raises(ValueError):
        PopulationState(i_c=15, i_d=10, z=20)
    with pytest.raises(ValueError):
        PopulationState(i_c=0, i_d=0, z=20).x


# ---------------------------------------------------------------- group size


def test_group_size_spec_points():
    p = params(alpha=1.0)
    assert group_size(p, 50) == 50
    p2 = params(alpha=2.0)
    assert group_size(p2, 100) == 100  # y=1 makes both branches equal
    # min{0.5, 0.05 + 0.95*0.25} = 0.2875 -> 28.75 rounds to 29
    assert group_size(p2, 50) == 29


def test_group_size_alpha_one_identity():
    p = params(alpha=1.0)
    for i_m in range(2, 101):
        assert group_size(p, i_m) == i_m


@given(
    z=st.integers(min_value=10, max_value=200),
    alpha=st.floats(min_value=1.0, max_value=12.0),
    g_seats=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=60)
def test_group_size_bounds_and_monotone(z, alpha, g_seats):
    if g_seats > z:
        return
    p = params(z=z, g_m=g_seats / z, alpha=alpha)
    prev = 2
    for i_m in range(0, z + 1):
        n = group_size(p, i_m)
        assert 2 <= n <= max(i_m, 2)
        assert n >= prev  # non-decreasing in coalition size
        prev = n


def test_group_size_rejects_out_of_range():
    p = params()
    with pytest.raises(ValueError):
        group_size(p, -1)
    with pytest.raises(ValueError):
        group_size(p, 101)


def test_group_size_rounding_is_half_up():
    # z=24, g_m=0.25, alpha=2, i_m=12: grown = 0.25 + 0.75*0.25 = 0.4375
    # exactly, so z*grown = 10.5 exactly in binary.  Half-up must give 11;
    # round-half-even would give 10.  (Values are chosen to be exactly
    # representable — a fraction like 0.2875 sits below its decimal value
    # in binary and would turn the .5 boundary into an artifact.)
    p = params(z=24, g_m=0.25, alpha=2.0)
    assert group_size(p, 12) == 11


# ------------------------------------------------------------------- payoffs


def test_effective_shares_spec_points():
    p = params(e=0.5)
    sh = effective_shares(p, 10)
    assert sh.eps1 == pytest.approx(0.05)
    assert sh.eps2 == pytest.approx(0.005)
    assert sh.kappa == pytest.approx(1.0)
    flat = effective_shares(params(theta=0.0, theta_prime=0.0), 10)
    assert flat.eps1 == pytest.approx(0.5) and flat.eps2 == pytest.approx(0.5)
    assert effective_shares(params(e=1.0), 10).eps2 == 0.0


def test_payoff_spec_points():
    # outsiders get nothing when the club keeps everything
    assert _payoff_grid(params(e=1.0), 10)[2][3] == 0.0
    # defector: B=100 everywhere via linear slope tuned to the grid point
    p = params(benefit=BenefitFunction.linear(slope=100.0 / 3.0))
    assert _payoff_grid(p, 10)[1][3] == pytest.approx(100.0 * 0.055 - 1.0)
    # zero benefit leaves only the cooperator's costs
    pz = params(benefit=BenefitFunction.tabulated([(0.0, 0.0), (200.0, 0.0)]))
    assert _payoff_grid(pz, 10)[0][5] == pytest.approx(-2.0)


def test_check_on_grid_rejects_off_grid_contribution():
    p = params()
    assert _check_on_grid(p, 9.0, 10) == 9
    with pytest.raises(ValueError):
        _check_on_grid(p, 2.5, 10)
    with pytest.raises(ValueError):
        _check_on_grid(p, 10.0, 10)  # k = 10 > n-1


def test_marginal_return_flat_and_linear():
    lin = params(benefit=BenefitFunction.linear(slope=1.0))
    for k in range(9):
        assert returns(lin, 10)[k] == pytest.approx(1.0)
    flat = params(benefit=BenefitFunction.tabulated([(0.0, 5.0), (200.0, 5.0)]))
    assert returns(flat, 10)[3] == pytest.approx(0.0)


def test_sigmoid_return_peaks_at_threshold():
    # the marginal return of the normalized sigmoid must peak where the
    # ramp is centred: 3/4 of the full pool
    rs = returns(params(), 100)
    argmax = max(range(100), key=lambda k: rs[k])
    assert argmax in (73, 74, 75)


@given(
    n=st.integers(min_value=2, max_value=60),
    k=st.integers(min_value=0, max_value=59),
    e=st.floats(min_value=0.0, max_value=1.0),
    cc=st.floats(min_value=0.0, max_value=3.0),
    c=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=80)
def test_payoff_identities(n, k, e, cc, c):
    """The payoffs agree with the model definition, and with the algebraic relations
    between them, to float exactness."""
    if k > n - 1:
        return
    p = params(z=100, e=e, c=c, c_c=cc)
    c_prime = k * c
    sh = effective_shares(p, n)
    pi_c, pi_d, pi_o = payoffs = tuple(g[k] for g in _payoff_grid(p, n)[:3])
    assert payoffs == pytest.approx(payoff_triple(p, k, n), abs=1e-12)
    b_here = p.benefit(c_prime, n * c)
    r = returns(p, n)[k]
    assert r == pytest.approx((p.benefit((k + 1) * c, n * c) - b_here) / c, abs=1e-12)
    assert pi_d - pi_o == pytest.approx(b_here * sh.eps1 - cc, abs=1e-12)
    assert pi_c - pi_d == pytest.approx(c * (r * sh.total - 1.0), abs=1e-12)


def test_scale_tracks_group_size():
    # B is renormalized per working group: the same pool fraction gives
    # the same sigmoid value at different N
    p = params()
    b_small = p.benefit(6.0, 8 * p.c) / p.c
    b_large = p.benefit(75.0, 100 * p.c) / p.c
    assert b_small == pytest.approx(b_large, rel=1e-9)


def test_frozen_dataclasses_hashable():
    assert hash(params()) == hash(params())
    s = PopulationState(i_c=1, i_d=2, z=10)
    with pytest.raises(Exception):
        s.i_c = 5


def test_group_size_staircase_can_skip_integers():
    """At large alpha dN/di_M exceeds 1, so some sizes are never attained.

    This is a property of the rounded law worth pinning: downstream
    matched-size comparisons must tolerate nearest-achievable sizes.
    """
    p = params(z=100, alpha=8.0)
    attained = {group_size(p, i_m) for i_m in range(2, 101)}
    assert attained != set(range(2, 101))
    assert math.inf not in attained
