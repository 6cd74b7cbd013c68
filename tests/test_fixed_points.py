"""Rest-point location and classification on the interpolated field."""

import numpy as np
import pytest

from coaldyn import BenefitFunction, GameParams, find_fixed_points
from coaldyn.replicator import _InterpolatedField

SIGMOID = BenefitFunction.sigmoid()


def params(z=100, **kw):
    base = dict(z=z, g_m=max(0.05, 2 / z), benefit=SIGMOID)
    base.update(kw)
    return GameParams(**base)


def test_alpha_one_has_no_interior_rest_point():
    """Whole-coalition groups decay cooperators everywhere: empty result."""
    assert find_fixed_points(params(alpha=1.0), 40) == []
    assert find_fixed_points(params(alpha=1.0), 80) == []
    assert find_fixed_points(params(z=60, alpha=1.0), 40) == []


def test_interpolated_member_gap_negative_at_alpha_one():
    """The interpolation must not manufacture sign structure: at
    alpha=1 the member gap is -c at every interior node, so the
    interpolated gap stays strictly negative across the square."""
    interp = _InterpolatedField(params(z=40, alpha=1.0))
    for y in (0.06, 0.11, 0.33, 0.52, 0.81, 0.99):
        for x in (0.01, 0.2, 0.5, 0.8, 0.97, 0.999):
            g1, _ = interp.reduced(x, y)
            assert g1 < 0.0, (x, y, g1)


def test_residuals_below_contract():
    for fp in find_fixed_points(params(alpha=4.0), 40):
        assert fp.residual < 1e-8


def test_intermediate_alpha_coexistence_is_spiral():
    pts = find_fixed_points(params(alpha=2.0), 40)
    assert pts, "expected an interior rest point at alpha=2"
    top = max(pts, key=lambda fp: fp.y)
    assert top.kind == "stable-spiral"
    assert abs(top.eigenvalues[0].imag) > 0.0
    assert top.x == pytest.approx(0.7321, abs=2e-3)
    assert top.y == pytest.approx(0.2543, abs=2e-3)


def test_emergence_saddle_present_at_alpha_ge_two():
    # the participation threshold: below it coalitions dissolve, above
    # it they grow toward the coexistence point
    for alpha in (2.0, 4.0, 8.0):
        pts = find_fixed_points(params(alpha=alpha), 40)
        kinds = [fp.kind for fp in pts]
        assert "saddle" in kinds, (alpha, kinds)


@pytest.mark.parametrize(
    "z,alpha",
    [(100, 1.0), (100, 4.0), (100, 6.0), (100, 8.0), (60, 4.0), (50, 8.0), (20, 4.0)],
)
def test_grid_doubling_invariance(z, alpha):
    """Doubling the scan resolution reproduces the same set.

    Holds wherever the rest points are isolated.  Near-degenerate
    clusters of interpolation zeros (alpha=2 grows one along the slow
    manifold) are seeding-sensitive by nature and excluded here; the
    cluster itself is documented in the decisions ledger.
    """
    p = params(z=z, alpha=alpha)
    a = find_fixed_points(p, 40)
    b = find_fixed_points(p, 80)
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert abs(fa.x - fb.x) < 1e-4
        assert abs(fa.y - fb.y) < 1e-4
        assert fa.kind == fb.kind


def test_jacobian_matches_eigenvalues():
    import numpy as np

    for fp in find_fixed_points(params(alpha=6.0), 40):
        jac = np.array(fp.jacobian)
        eigs = sorted(np.linalg.eigvals(jac), key=lambda e: (e.real, e.imag))
        got = sorted(fp.eigenvalues, key=lambda e: (e.real, e.imag))
        for e_want, e_got in zip(eigs, got):
            assert complex(e_want) == pytest.approx(e_got, abs=1e-12)


def test_points_sorted_and_interior():
    pts = find_fixed_points(params(alpha=8.0), 40)
    ys = [fp.y for fp in pts]
    assert ys == sorted(ys)
    for fp in pts:
        assert 0.0 < fp.x < 1.0
        assert 0.0 < fp.y < 1.0


def test_row_scan_equals_pointwise_calls():
    """One array call per mesh row gives exactly the scalar values of every mesh point."""
    z, res = 60, 40
    interp = _InterpolatedField(params(z=z, alpha=4.0))
    xs = np.linspace(1e-3, 1.0 - 1e-3, res + 1)
    for y in np.linspace(2.0 / z + 1e-9, 1.0 - 1e-3, res + 1):
        g1, g2 = interp.reduced(xs, y)
        want = np.array([interp.reduced(x, y) for x in xs.tolist()])
        assert np.array_equal(g1, want[:, 0]) and np.array_equal(g2, want[:, 1])


def test_reduced_on_an_x_array_matches_scalar_calls_bitwise():
    """The Newton polish reads its x-stencil from one array call; it must
    equal the per-point calls bit for bit."""
    z = 60
    xs = np.concatenate((np.linspace(1e-3, 1.0 - 1e-3, 41),
                         [0.0, 1.0, 0.5 + 1.0 / (4 * z), 0.5 - 1.0 / (4 * z), 1.0 / 3.0]))
    for alpha in (1.0, 2.0, 4.0, 8.0):
        interp = _InterpolatedField(params(z=z, alpha=alpha))
        for y in (2.0 / z + 1e-9, 0.1, 0.37, 0.5, 0.83, 1.0 - 1e-3, 1.0):
            g1, g2 = interp.reduced(xs, y)
            scalar = [interp.reduced(float(x), y) for x in xs]
            assert g1.tobytes() == np.array([s[0] for s in scalar]).tobytes(), (alpha, y)
            assert g2.tobytes() == np.array([s[1] for s in scalar]).tobytes(), (alpha, y)
