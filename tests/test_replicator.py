"""Deterministic field, K decomposition, and the closure identities.

The identities here are the load-bearing algebra of the whole engine:
the K term is *defined* as whatever closes the x-equation, so these
tests pin that the decomposition actually computed is that closing
term and not a lookalike.
"""

import math

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
from coaldyn.config import ExperimentConfig
from coaldyn.experiments import run_experiment
from coaldyn.game import effective_shares, group_size
from coaldyn.informed import informed_field
from coaldyn.replicator import mean_return
from coaldyn.sampling import fitness_at, fitness_table
from oracles import information_cost_at, informed_field_at, member_means, replicator_field_at

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
    assert fitness_table(zero).means(s.i_m)[1][s.i_c - 1] == pytest.approx(0.0, abs=1e-12)
    # the whole coalition convening: both member views see one composition, all i_c cooperators
    p = params(alpha=1.0)
    s = PopulationState(i_c=23, i_d=1, z=60)
    want = p.benefit(23.0, 24.0) / p.c
    assert fitness_table(p).means(s.i_m)[1][s.i_c - 1] == pytest.approx(want, abs=1e-12)


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
            mean_b = fitness_table(p).means(s.i_m)[1][s.i_c - 1]
            rhs = s.y * (1.0 - s.y) * p.c * (mean_b * sh.eps1 - s.x - sh.kappa)
            assert y_dot == pytest.approx(rhs, abs=1e-10)


def test_k_components_boundary_reporting():
    p = params(alpha=2.0)
    # no defectors: swap undefined
    cost = information_cost(p, PopulationState(i_c=10, i_d=0, z=60))
    assert math.isnan(cost.k_exact) and math.isnan(cost.k_full)
    # two-member coalition: K_exact defined, dropped remainder not
    cost = information_cost(p, PopulationState(i_c=1, i_d=1, z=60))
    assert math.isfinite(cost.k_exact) and math.isnan(cost.k_dropped)
    # full coalition: no outsider to exchange with
    cost = information_cost(p, PopulationState(i_c=30, i_d=30, z=60))
    assert math.isnan(cost.k_dropped)


def test_information_recovery_ratio_monotone():
    """The cancelled fraction K_exact / (<R>(eps1+eps2)) falls with alpha.

    At alpha = 1 the cancellation is total (ratio 1); subsampled groups
    leave more of the return signal standing.  The absolute K_exact
    moves the *other* way: it grows from exactly 0 at alpha = 1 as the
    sampled groups' compositions vary, so a statement that "K_exact
    falls with alpha" has the direction inverted against both the
    computation and the mechanism.  Both directions are asserted below.
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


def test_flow_field_table_consistency(tmp_path):
    """flow_field equals the per-state oracles at every interior state,
    and field.csv leads each row with the text of its state columns."""
    p = params(z=30, g_m=2 / 30, alpha=4.0)
    field = flow_field(p)
    states = list(interior_states(30))
    assert list(zip(field.i_c.tolist(), field.i_d.tolist())) == [(s.i_c, s.i_d) for s in states]
    for j, s in enumerate(states):
        x_dot, y_dot = replicator_field_at(fitness_at, p, s.i_c, s.i_d)
        k_exact, k_dropped, *_ = information_cost_at(fitness_at, p, s.i_c, s.i_d)
        mean_r, mean_b = member_means(p, s.i_c, s.i_d, group_size(p, s.i_m))
        assert (field.x[j], field.y[j]) == (s.x, s.y)
        assert field.x_dot[j] == x_dot
        assert field.y_dot[j] == y_dot
        assert field.k_exact[j] == k_exact
        # K_dropped is NaN exactly where the decomposition reports a boundary
        if math.isnan(k_dropped):
            assert np.isnan(field.k_dropped[j])
        else:
            assert field.k_dropped[j] == k_dropped
        assert field.mean_r[j] == pytest.approx(mean_r, rel=1e-12, abs=0.0)
        assert field.mean_b[j] == pytest.approx(mean_b, rel=1e-12, abs=0.0)
    assert np.isnan(field.k_dropped[0])  # the two-member coalition (1, 1)
    assert field.COLUMNS[0] == "i_C" and len(field.COLUMNS) == 10
    run_experiment(ExperimentConfig(params=p, experiment="field", out_dir=tmp_path, formats=("csv",)))
    header, *rows = (line.split(",") for line in (tmp_path / "field.csv").read_text().splitlines())
    assert tuple(header) == field.COLUMNS and len(rows) == len(states)
    for j, row in enumerate(rows):
        assert len(row) == len(field.COLUMNS)
        assert row[:4] == [str(a[j]) for a in (field.i_c, field.i_d, field.x, field.y)]


def _same(got, want):
    """Equal bit for bit up to the sign of zero, NaN matching NaN and None matching None."""
    if want is None or got is None:
        return got is None and want is None
    return got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("z", [4, 12, 30])
def test_pointwise_functions_match_oracles_at_every_state(z):
    """Each pointwise function against its per-state oracle at every composition.

    The smallest population the game admits is z = 4.  Every (i_c, i_d)
    is visited, so the empty, one-member, two-member and full coalitions
    and both edges i_c = 0 and i_c = i_m are all covered.
    """
    p = params(z=z, g_m=2 / z, alpha=2.0)
    for i_m in range(z + 1):
        for i_c in range(i_m + 1):
            s = PopulationState(i_c=i_c, i_d=i_m - i_c, z=z)
            got = replicator_field(p, s)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == replicator_field_at(fitness_at, p, s.i_c, s.i_d), s
            cost = information_cost(p, s)
            want = information_cost_at(fitness_at, p, s.i_c, s.i_d)
            got = (cost.k_exact, cost.k_dropped, cost.swap_c, cost.outsider, cost.entry_c,
                   cost.entry_d)
            assert all(_same(g, w) for g, w in zip(got, want)), (s, got, want)
            flow = informed_field(p, s)
            want = informed_field_at(fitness_at, p, s.i_c, s.i_d)
            got = (flow.x_dot, flow.y_dot, flow.delta_cd, flow.delta_dc, flow.delta_co,
                   flow.delta_oc, flow.delta_do, flow.delta_od)
            assert all(_same(g, w) for g, w in zip(got, want)), (s, got, want)
            if i_m < 2:
                with pytest.raises(ValueError):
                    mean_return(p, s)
                continue
            if 1 <= i_c < i_m:
                mean_r, mean_b = member_means(p, s.i_c, s.i_d, group_size(p, i_m))
                got = fitness_table(p).means(i_m)[1][i_c - 1]
                assert got == pytest.approx(mean_b, rel=1e-12, abs=0.0), s
                assert mean_return(p, s) == pytest.approx(mean_r, rel=1e-12, abs=0.0), s
            else:
                with pytest.raises(ValueError):
                    mean_return(p, s)
    other = PopulationState(i_c=1, i_d=1, z=z + 1)
    for fn in (replicator_field, information_cost, informed_field, mean_return):
        with pytest.raises(ValueError, match="population"):
            fn(p, other)
