"""End-to-end acceptance gate: one test per release criterion.

Each test appends a single PASS/FAIL line to the scorecard (printed in
the terminal summary by conftest) *before* asserting, so the verdict
and its measured numbers survive a failing assertion.  Two criteria
are knowingly red and left failing on purpose — the measured behaviour
of the model disagrees with the expected property, and the numbers in
their scorecard lines plus their docstrings document what was found.
All tolerances are asserted exactly as stated; stated runtime budgets
are asserted too (they hold with wide margins on a laptop-class core).
"""

import dataclasses
import json
from time import perf_counter

import numpy as np

from coaldyn import (
    BenefitFunction,
    GameParams,
    PopulationState,
    build_chain,
    effective_shares,
    find_fixed_points,
    fitness_at,
    group_size,
    information_cost,
    informed_field,
    mean_return,
    monte_carlo,
    replicator_field,
    selection_gradient,
    stationary,
)
from coaldyn.config import load_config
from coaldyn.experiments import run_experiment
from coaldyn.sampling import _hypergeom_rows

from conftest import SCORECARD
from oracles import enumerated_pmf_row, fitness_by_enumeration

SIGMOID = BenefitFunction.sigmoid()

# Shared z = 100 reference set: g_m = 5/Z, e = 0.5, c = c_c = 1,
# beta = 0.1, mu = 1/Z, theta = theta_prime = 1 (the engine defaults).
def reference(alpha: float, **kw) -> GameParams:
    base = dict(z=100, g_m=0.05, mu=0.01, beta=0.1, alpha=alpha, benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


def record(num: int, ok: bool, detail: str) -> bool:
    SCORECARD.append(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


def interior_states(z: int):
    for i_m in range(2, z + 1):
        for i_c in range(1, i_m):
            yield i_c, i_m - i_c


def test_criterion_01_whole_coalition_gap_collapses():
    """alpha = 1: f_C - f_D = -c exactly, for any benefit shape."""
    t0 = perf_counter()
    worst = 0.0
    for z in (20, 60):
        for shape in (SIGMOID, BenefitFunction.linear()):
            p = GameParams(z=z, alpha=1.0, g_m=max(0.05, 2 / z), benefit=shape)
            for i_c, i_d in interior_states(z):
                trip = fitness_at(p, i_c, i_d)
                worst = max(worst, abs(trip.f_c - trip.f_d + p.c))
    dt = perf_counter() - t0
    ok = worst < 1e-12 and dt < 5.0
    assert record(
        1, ok,
        f"max |f_C - f_D + c| = {worst:.1e} (tol 1e-12), Z in {{20, 60}}, "
        f"sigmoid + linear, {dt:.1f} s (< 5 s)",
    )


def test_criterion_02_cancellation_at_alpha_one():
    """alpha = 1: K_exact equals <R>(eps1 + eps2) at every interior state."""
    t0 = perf_counter()
    p = GameParams(z=60, alpha=1.0, g_m=0.05, benefit=SIGMOID)
    worst = 0.0
    for i_c, i_d in interior_states(60):
        state = PopulationState(i_c=i_c, i_d=i_d, z=60)
        k = information_cost(p, state).k_exact
        shares = effective_shares(p, group_size(p, i_c + i_d))
        worst = max(worst, abs(k - mean_return(p, state) * shares.total))
    dt = perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0
    assert record(
        2, ok,
        f"max |K_exact - <R>(eps1+eps2)| = {worst:.1e} (tol 1e-10), "
        f"Z = 60, {dt:.1f} s (< 30 s)",
    )


def test_criterion_03_identity_closure():
    """x_dot = x(1-x) c (<R>(eps1+eps2) - 1 - K_exact) at every interior state."""
    t0 = perf_counter()
    worst = 0.0
    for alpha in (1.0, 2.0, 4.0):
        p = GameParams(z=60, alpha=alpha, g_m=0.05, benefit=SIGMOID)
        for i_c, i_d in interior_states(60):
            state = PopulationState(i_c=i_c, i_d=i_d, z=60)
            x_dot, _ = replicator_field(p, state)
            shares = effective_shares(p, group_size(p, i_c + i_d))
            k = information_cost(p, state).k_exact
            x = state.x
            rhs = x * (1.0 - x) * p.c * (
                mean_return(p, state) * shares.total - 1.0 - k
            )
            worst = max(worst, abs(x_dot - rhs))
    dt = perf_counter() - t0
    ok = worst < 1e-10 and dt < 120.0
    assert record(
        3, ok,
        f"max closure residual = {worst:.1e} (tol 1e-10), alpha in {{1, 2, 4}}, "
        f"Z = 60, {dt:.1f} s (< 2 min)",
    )


def test_criterion_04_sampling_against_enumeration():
    """PMF vs literal subset counting; fitness vs the enumeration oracle."""
    t0 = perf_counter()
    worst_pmf = 0.0
    for pool in range(13):
        for draws in range(pool + 1):
            for successes in range(pool + 1):
                row = _hypergeom_rows(pool, draws, np.array([successes]))[0]
                oracle = enumerated_pmf_row(pool, draws, successes)
                for k in range(draws + 1):
                    worst_pmf = max(worst_pmf, abs(row[k] - float(oracle[k])))

    p = GameParams(z=12, alpha=2.0, g_m=2 / 12, benefit=SIGMOID)
    worst_fit = 0.0
    for i_m in range(2, 13):
        n = group_size(p, i_m)
        for i_c in range(i_m + 1):
            i_d = i_m - i_c
            trip = fitness_at(p, i_c, i_d)
            f_c, f_d, f_o = fitness_by_enumeration(p, i_c, i_d, n)
            worst_fit = max(worst_fit, abs(trip.f_c - f_c), abs(trip.f_d - f_d))
            if i_m < 12:  # engine zeroes f_O when no outsider exists
                worst_fit = max(worst_fit, abs(trip.f_o - f_o))
    dt = perf_counter() - t0
    ok = worst_pmf < 1e-12 and worst_fit < 1e-10 and dt < 30.0
    assert record(
        4, ok,
        f"PMF vs enumeration {worst_pmf:.1e} (tol 1e-12) over all pools <= 12; "
        f"fitness vs oracle {worst_fit:.1e} (tol 1e-10) at Z = 12; {dt:.1f} s (< 30 s)",
    )


def test_criterion_05_stationary_solver_and_simulator():
    """Chain residual at Z = 100; simulator occupancy matches pi at Z = 20."""
    t0 = perf_counter()
    model = build_chain(reference(alpha=4.0))
    res = stationary(model, tol=1e-12)  # headroom: the check below is at 1e-10
    t_t = model.transitions.T.tocsr()
    resid = float(np.max(np.abs(t_t @ res.pi - res.pi)))
    dt_power = perf_counter() - t0

    p20 = GameParams(z=20, g_m=0.25, mu=0.05, beta=0.1, alpha=4.0, benefit=SIGMOID)
    pi20 = stationary(build_chain(p20), method="direct").pi
    tvs = []
    for seed in (11, 12, 13):
        occ = monte_carlo(p20, steps=10_000_000, seed=seed, burn_in=100_000).occupancy
        tvs.append(0.5 * float(np.abs(occ - pi20).sum()))
    dt = perf_counter() - t0
    ok = resid < 1e-10 and all(tv < 0.05 for tv in tvs)
    assert record(
        5, ok,
        f"residual {resid:.1e} (tol 1e-10) at Z = 100 in {dt_power:.1f} s "
        f"(target < 60 s); TV(pi, occupancy) = "
        f"{', '.join(f'{tv:.4f}' for tv in tvs)} (tol 0.05) for seeds 11/12/13, "
        f"10^7 steps each; total {dt:.1f} s",
    )


def test_criterion_06_stationary_sweep_shifts_toward_cooperation():
    """Sweep alpha in {1, 2, 4, 8} at the z = 100 reference set.

    Expected: mean_x and mean_y strictly larger at alpha = 8 than at
    alpha = 1, with the mean_x gap above 0.1.  Measured: both means do
    increase strictly, but the mean_x gap lands at about 0.095 — just
    under the 0.1 the criterion demands.  The shortfall is robust to
    the handling of single-member coalitions in the x-average and is
    documented in the decisions ledger; the criterion is left red
    rather than widening the x-summary definition to manufacture a
    pass.
    """
    t0 = perf_counter()
    means = {}
    for alpha in (1.0, 2.0, 4.0, 8.0):
        summary = stationary(build_chain(reference(alpha))).summary
        means[alpha] = (summary.mean_x, summary.mean_y)
    dt = perf_counter() - t0
    gap_x = means[8.0][0] - means[1.0][0]
    gap_y = means[8.0][1] - means[1.0][1]
    ok = gap_x > 0.1 and gap_x > 0.0 and gap_y > 0.0 and dt < 600.0
    assert record(
        6, ok,
        f"mean_x {means[1.0][0]:.4f} -> {means[8.0][0]:.4f} (gap {gap_x:.4f}, "
        f"needs > 0.1), mean_y {means[1.0][1]:.4f} -> {means[8.0][1]:.4f} "
        f"(gap {gap_y:.4f}, needs > 0); {dt:.0f} s (< 10 min)",
    )


def test_criterion_07_spiral_to_sink_transition():
    """Sweep alpha in {1.5, 2, 3, 4, 6, 8}: coexistence point classification.

    Expected: complex Jacobian eigenvalues at some smaller alpha and a
    purely-real negative pair (a sink) at some larger alpha.  Measured:
    the coexistence point keeps a nonzero imaginary part across the
    whole sweep (spiral throughout: stable at alpha = 2, unstable over
    the middle of the range, stable again from alpha = 6); no purely
    real sink appears, so the crossover value is recorded as None.
    The first half of the expectation holds; the second does not, and
    the criterion is left red with the measured classification
    sequence in the scorecard.
    """
    t0 = perf_counter()
    kinds: dict[float, str] = {}
    complex_alphas = []
    sink_alphas = []
    for alpha in (1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
        pts = [fp for fp in find_fixed_points(reference(alpha), 40) if fp.kind != "saddle"]
        if not pts:
            kinds[alpha] = "none"
            continue
        top = max(pts, key=lambda fp: fp.y)
        kinds[alpha] = top.kind
        if abs(top.eigenvalues[0].imag) > 1e-9:
            complex_alphas.append(alpha)
        elif all(e.real < 0 for e in top.eigenvalues):
            sink_alphas.append(alpha)
    dt = perf_counter() - t0
    crossover = min(sink_alphas) if sink_alphas else None
    ok = bool(complex_alphas) and bool(sink_alphas) and min(complex_alphas) < max(sink_alphas)
    seq = ", ".join(f"{a:g}: {k}" for a, k in kinds.items())
    assert record(
        7, ok,
        f"classification [{seq}]; complex eigenvalues at alpha = "
        f"{complex_alphas or 'none'}, purely-real sink at {sink_alphas or 'none'}; "
        f"crossover = {crossover}; {dt:.0f} s",
    )


def test_criterion_08_chain_drift_aligns_with_replicator_field():
    """Small-beta expected displacement vs deterministic field direction."""
    t0 = perf_counter()
    worst = 1.0
    checked = 0
    for alpha in (1.0, 2.0, 4.0, 8.0):
        p = reference(alpha, mu=0.0)
        model = build_chain(p)
        grad = selection_gradient(model)
        idx = model.index
        for s in range(idx.n_states):
            i_c = int(idx.i_c_of[s])
            i_d = int(idx.i_d_of[s])
            i_o = 100 - i_c - i_d
            if min(i_c, i_d, i_o) < 5:
                continue
            state = PopulationState(i_c=i_c, i_d=i_d, z=100)
            x_dot, y_dot = replicator_field(p, state)
            d_m = 100 * y_dot
            d_c = state.x * d_m + (i_c + i_d) * x_dot
            chain = np.array([grad.drift_c[s], grad.drift_d[s]])
            field = np.array([d_c, d_m - d_c])
            norms = np.linalg.norm(chain) * np.linalg.norm(field)
            if norms == 0.0:
                continue
            worst = min(worst, float(chain @ field) / norms)
            checked += 1
    dt = perf_counter() - t0
    ok = worst > 0.99 and checked == 4 * 3741 and dt < 120.0
    assert record(
        8, ok,
        f"min cosine = {worst:.6f} (needs > 0.99) over {checked} states "
        f"(min count >= 5), beta = 0.1, mu = 0, alpha in {{1, 2, 4, 8}}; "
        f"{dt:.1f} s (< 2 min)",
    )


def _matched_slice_gap(z: int, alpha: float, target_group: int) -> float:
    """max |uninformed x_dot - informed x_dot| over the matched-size slice."""
    p = GameParams(z=z, g_m=0.05, alpha=alpha, benefit=SIGMOID)
    best_i_m, best_err = 2, abs(group_size(p, 2) - target_group)
    for i_m in range(3, z + 1):
        err = abs(group_size(p, i_m) - target_group)
        if err < best_err:
            best_i_m, best_err = i_m, err
        if err == 0:
            break
    gap = 0.0
    for i_c in range(1, best_i_m):
        state = PopulationState(i_c=i_c, i_d=best_i_m - i_c, z=z)
        x_dot_un, _ = replicator_field(p, state)
        x_dot_inf = informed_field(p, state).x_dot
        gap = max(gap, abs(x_dot_un - x_dot_inf))
    return gap


def test_criterion_09_information_gap_shrinks_with_alpha():
    """The informed/uninformed flow gap decreases in alpha, at both Z."""
    t0 = perf_counter()
    gaps = {
        z: [_matched_slice_gap(z, alpha, 25) for alpha in (1.0, 2.0, 4.0, 8.0)]
        for z in (100, 50)
    }
    dt = perf_counter() - t0
    monotone = all(a > b for a, b in zip(gaps[100], gaps[100][1:]))
    same_order = list(np.argsort(gaps[100])) == list(np.argsort(gaps[50]))
    ok = monotone and same_order and dt < 120.0
    assert record(
        9, ok,
        f"max |x_dot gap| over alpha {{1, 2, 4, 8}}: "
        f"Z=100 {[f'{g:.4f}' for g in gaps[100]]} (strictly decreasing: {monotone}), "
        f"Z=50 {[f'{g:.4f}' for g in gaps[50]]} (same ordering: {same_order}); "
        f"{dt:.1f} s (< 2 min)",
    )


SWEEP_CONFIG = """
[game]
z = 100
e = 0.5
c = 1.0
c_c = 1.0
g_m = 0.05
beta = 0.1
mu = 0.01

[benefit]
kind = sigmoid

[experiment]
name = sweep-alpha
values = 1 2 4 8

[output]
formats = csv, json
"""


def test_criterion_10_sweep_is_byte_deterministic(tmp_path):
    """Two runs of the criterion-6 sweep from one config: identical CSVs."""
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CONFIG)
    man_a = run_experiment(load_config(cfg_path, out_dir=tmp_path / "a"))
    man_b = run_experiment(load_config(cfg_path, out_dir=tmp_path / "b"))
    csvs = sorted(n for n in man_a.outputs if n.endswith(".csv"))
    identical = bool(csvs) and set(man_a.outputs) == set(man_b.outputs) and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in csvs
    )
    same_sums = all(man_a.outputs[n] == man_b.outputs[n] for n in csvs)
    summaries_match = json.loads(
        (tmp_path / "a" / "sweep_summary.json").read_text()
    ) == json.loads((tmp_path / "b" / "sweep_summary.json").read_text())
    ok = identical and same_sums and summaries_match
    assert record(
        10, ok,
        f"{len(csvs)} CSV files byte-identical across two runs of the "
        f"alpha-sweep config (checksums match: {same_sums})",
    )
