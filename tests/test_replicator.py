"""Deterministic field, K decomposition, and the closure identities.

The identities here are the load-bearing algebra of the whole engine:
the K term is *defined* as whatever closes the x-equation, so these
tests pin that the decomposition actually computed is that closing
term and not a lookalike.
"""

import numpy as np
import pytest

from coaldyn import (
    BenefitFunction,
    GameParams,
    PopulationState,
    flow_field,
    information_cost,
    replicator_field,
)
from coaldyn.game import effective_shares, group_size
from coaldyn.replicator import mean_benefit, mean_return

SIGMOID = BenefitFunction.sigmoid()


def params(**kw):
    base = dict(z=60, g_m=0.05, benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


def interior_states(z, i_m_lo=2):
    for i_m in range(i_m_lo, z + 1):
        for i_c in range(1, i_m):
            yield PopulationState(i_c=i_c, i_d=i_m - i_c, z=z)


def test_boundary_zeros_are_exact():
    p = params(alpha=2.0)
    x_dot, _ = replicator_field(p, PopulationState(i_c=0, i_d=30, z=60))
    assert x_dot == 0.0
    x_dot, _ = replicator_field(p, PopulationState(i_c=30, i_d=0, z=60))
    assert x_dot == 0.0
    _, y_dot = replicator_field(p, PopulationState(i_c=25, i_d=35, z=60))
    assert y_dot == 0.0
    assert replicator_field(p, PopulationState(i_c=0, i_d=0, z=60)) == (0.0, 0.0)


def test_alpha_one_field_is_pure_decay():
    """x_dot = -x(1-x)c exactly when the whole coalition convenes."""
    p = params(alpha=1.0, c=1.0)
    for s in interior_states(60):
        x_dot, _ = replicator_field(p, s)
        want = -s.x * (1.0 - s.x) * 1.0
        assert x_dot == pytest.approx(want, abs=1e-12)


def test_identity_closure_on_interior():
    """x_dot = x(1-x) c (<R>(eps1+eps2) - 1 - K_exact), every interior state."""
    for alpha in (1.0, 2.0, 4.0):
        p = params(alpha=alpha)
        for s in interior_states(60):
            n = group_size(p, s.i_m)
            tot = effective_shares(p, n).total
            k = information_cost(p, s).k_exact
            x_dot, _ = replicator_field(p, s)
            rhs = s.x * (1.0 - s.x) * p.c * (mean_return(p, s) * tot - 1.0 - k)
            assert x_dot == pytest.approx(rhs, abs=1e-10)


def test_alpha_one_k_equals_return_term():
    """K_exact cancels <R>(eps1+eps2) exactly at alpha = 1."""
    p = params(alpha=1.0)
    for s in interior_states(60):
        n = group_size(p, s.i_m)
        tot = effective_shares(p, n).total
        k = information_cost(p, s).k_exact
        assert k == pytest.approx(mean_return(p, s) * tot, abs=1e-10)


def test_mean_return_trivial_shapes():
    lin = params(benefit=BenefitFunction.linear(slope=1.0), alpha=2.0)
    s = PopulationState(i_c=10, i_d=15, z=60)
    assert mean_return(lin, s) == pytest.approx(1.0, abs=1e-12)
    flat = params(benefit=BenefitFunction.tabulated([(0.0, 4.0), (300.0, 4.0)]), alpha=2.0)
    assert mean_return(flat, s) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mean_return(lin, PopulationState(i_c=12, i_d=0, z=60))


def test_mean_return_peaks_near_threshold():
    # a state whose groups straddle the 3/4 pool threshold sees a far
    # larger mean return than an almost-cooperator-free state
    p = params(alpha=2.0)
    hot = PopulationState(i_c=22, i_d=8, z=60)
    cold = PopulationState(i_c=1, i_d=29, z=60)
    assert mean_return(p, hot) > 10.0 * mean_return(p, cold)


def test_mean_benefit_trivial_points():
    zero = params(benefit=BenefitFunction.tabulated([(0.0, 0.0), (300.0, 0.0)]), alpha=2.0)
    s = PopulationState(i_c=10, i_d=15, z=60)
    assert mean_benefit(zero, s) == pytest.approx(0.0, abs=1e-12)
    # full cooperation with the whole coalition convening: single composition
    p = params(alpha=1.0)
    full = PopulationState(i_c=24, i_d=0, z=60)
    want = p.benefit(24.0, 24.0) / p.c
    assert mean_benefit(p, full) == pytest.approx(want, abs=1e-12)


def test_y_dot_reconstruction_from_mean_benefit():
    """y_dot = y(1-y) c (<b> eps1 - x - kappa) is exact in this model.

    The club-share form of the member-vs-outsider gap absorbs the
    spillover terms exactly (both member kinds and the outsider consume
    the identical spillover on average), so no tolerance budget is
    needed beyond float noise.
    """
    for alpha in (1.0, 2.0, 8.0):
        p = params(alpha=alpha)
        for s in interior_states(60, i_m_lo=2):
            if s.i_o == 0:
                continue
            n = group_size(p, s.i_m)
            sh = effective_shares(p, n)
            _, y_dot = replicator_field(p, s)
            rhs = s.y * (1.0 - s.y) * p.c * (mean_benefit(p, s) * sh.eps1 - s.x - sh.kappa)
            assert y_dot == pytest.approx(rhs, abs=1e-10)


def test_k_components_boundary_reporting():
    p = params(alpha=2.0)
    # no defectors: swap undefined
    cost = information_cost(p, PopulationState(i_c=10, i_d=0, z=60))
    assert cost.k_exact is None and cost.k_full is None
    # two-member coalition: K_exact defined, dropped remainder not
    cost = information_cost(p, PopulationState(i_c=1, i_d=1, z=60))
    assert cost.k_exact is not None and cost.k_dropped is None
    # full coalition: no outsider to exchange with
    cost = information_cost(p, PopulationState(i_c=30, i_d=30, z=60))
    assert cost.k_dropped is None


def test_information_recovery_ratio_monotone():
    """The cancelled fraction K_exact / (<R>(eps1+eps2)) falls with alpha.

    At alpha = 1 the cancellation is total (ratio 1); subsampled groups
    leave more of the return signal standing.  The absolute K_exact
    moves the *other* way (it grows from exactly 0 with composition
    variance) -- asserted below, and recorded in the decisions ledger
    since the build contract restates this property with the direction
    inverted relative to both the computation and the mechanism.
    """
    for z in (60, 100):
        p0 = dict(z=z, g_m=0.05, benefit=SIGMOID)
        i_m = z // 2
        s = PopulationState(i_c=i_m // 2, i_d=i_m - i_m // 2, z=z)
        ratios = []
        absolutes = []
        for alpha in (1.0, 2.0, 4.0, 8.0):
            p = GameParams(alpha=alpha, **p0)
            k = information_cost(p, s).k_exact
            n = group_size(p, i_m)
            r_term = mean_return(p, s) * effective_shares(p, n).total
            if alpha == 1.0:
                # both sides are ~1e-9 here, so the ratio carries the
                # cancellation noise of the fitness differences; the
                # absolute gap is the meaningful exactness statement
                assert abs(k - r_term) < 1e-10
            ratios.append(k / r_term)
            absolutes.append(k)
        assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:])), ratios
        assert all(a <= b + 1e-12 for a, b in zip(absolutes, absolutes[1:])), absolutes


def test_large_alpha_cancellation_ratio_small():
    """Golden values: at alpha=8, Z=60, moderate y, K cancels < 20% of the signal."""
    p = params(alpha=8.0)
    golden = {(24, 12): 0.0909, (30, 15): 0.0714, (36, 18): 0.0857}
    for (i_m, i_c), want in golden.items():
        s = PopulationState(i_c=i_c, i_d=i_m - i_c, z=60)
        k = information_cost(p, s).k_exact
        n = group_size(p, i_m)
        ratio = k / (mean_return(p, s) * effective_shares(p, n).total)
        assert ratio < 0.2
        assert ratio == pytest.approx(want, abs=5e-4)


def test_flow_field_table_consistency():
    """flow_field equals the pointwise functions at every interior state."""
    p = params(z=30, g_m=2 / 30, alpha=4.0)
    field = flow_field(p)
    states = list(interior_states(30))
    assert list(zip(field.i_c.tolist(), field.i_d.tolist())) == [(s.i_c, s.i_d) for s in states]
    for j, s in enumerate(states):
        x_dot, y_dot = replicator_field(p, s)
        cost = information_cost(p, s)
        assert (field.x[j], field.y[j]) == (s.x, s.y)
        assert field.x_dot[j] == x_dot
        assert field.y_dot[j] == y_dot
        assert field.k_exact[j] == cost.k_exact
        # K_dropped is NaN exactly where the decomposition reports a boundary
        if cost.k_dropped is None:
            assert np.isnan(field.k_dropped[j])
        else:
            assert field.k_dropped[j] == cost.k_dropped
        assert field.mean_r[j] == pytest.approx(mean_return(p, s), rel=1e-12, abs=0.0)
        assert field.mean_b[j] == pytest.approx(mean_benefit(p, s), rel=1e-12, abs=0.0)
    assert np.isnan(field.k_dropped[0])  # the two-member coalition (1, 1)
    assert field.COLUMNS[0] == "i_C" and len(field.COLUMNS) == 10
    assert len(next(iter(field.rows()))) == len(field.COLUMNS)
