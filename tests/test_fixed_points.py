"""Rest-point location and classification on the interpolated field."""

import numpy as np
import pytest

from coaldyn import BenefitFunction, GameParams, find_fixed_points
from coaldyn.replicator import _InterpolatedField
from coaldyn.sampling import FitnessTable, fitness_table

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


# Every field of every rest point at grid_resolution 40, as the search gave them:
# (x, y, residual, jacobian by rows, eigenvalues, kind), by (z, alpha).
PINNED = {
    (100, 2.0): [
        (0.6064134373088061, 0.05750843594294474, 4.221300431840031e-11,
         ((2.2419731131477247, 19.48250914148672), (1.3282281070903332, 3.590823773838042)),
         ((-2.215079488309824+0j), (8.04787637529559+0j)), "saddle"),
        (0.7321063628521576, 0.25427905554312963, 6.800387050562626e-12,
         ((0.766467532741747, -1.8362761366566664), (2.9066720001209756, -2.1520161759432836)),
         ((-0.6927743216007682-1.791107378535767j), (-0.6927743216007682+1.791107378535767j)), "stable-spiral"),
    ],
    (100, 4.0): [
        (0.6064134373088061, 0.05750843594294474, 4.221300431840031e-11,
         ((2.2419731131477247, 19.48250914148672), (1.3282281070903332, 3.590823773838042)),
         ((-2.215079488309824+0j), (8.04787637529559+0j)), "saddle"),
        (0.7204363143155663, 0.51903685811405, 4.725514751220383e-11,
         ((0.6362770263350183, -1.4738916755041775), (3.075727132543567, 0.5325174428956911)),
         ((0.5843972346153549-2.1285199327207214j), (0.5843972346153549+2.1285199327207214j)), "unstable-spiral"),
    ],
    (100, 8.0): [
        (0.6064134373088061, 0.05750843594294474, 4.221300431840031e-11,
         ((2.2419731131477247, 19.48250914148672), (1.3282281070903332, 3.590823773838042)),
         ((-2.215079488309824+0j), (8.04787637529559+0j)), "saddle"),
        (0.7194114536380023, 0.7240760768702927, 1.888378391544332e-11,
         ((0.5587887831085068, -2.019674517811242), (2.399149920582881, -1.1651373830106668)),
         ((-0.30317429995108003-2.025468242765737j), (-0.30317429995108003+2.025468242765737j)), "stable-spiral"),
    ],
    (200, 4.0): [
        (0.7071247904868655, 0.10023911599189422, 7.828718041627585e-11,
         ((0.8146562312631378, 1.333995293609125), (1.5525854686502258, 0.2945659757124161)),
         ((-0.9078406654895876+0j), (2.0170628724651416+0j)), "saddle"),
    ],
}


@pytest.mark.parametrize("z, alpha", list(PINNED))
def test_rest_points_are_pinned(z, alpha):
    """Each field to 1e-12 relative: a rewrite of the search must not move a rest point."""
    got = find_fixed_points(params(z=z, alpha=alpha), 40)
    assert [fp.kind for fp in got] == [want[-1] for want in PINNED[z, alpha]]
    for fp, (x, y, residual, jacobian, eigenvalues, _) in zip(got, PINNED[z, alpha]):
        assert (fp.x, fp.y, fp.residual) == pytest.approx((x, y, residual), rel=1e-12, abs=0)
        assert np.ravel(fp.jacobian).tolist() == pytest.approx(np.ravel(jacobian).tolist(), rel=1e-12, abs=0)
        assert fp.eigenvalues == pytest.approx(eigenvalues, rel=1e-12, abs=0)


def test_a_cold_search_builds_only_the_levels_it_reads(monkeypatch):
    """The interpolated field reads each fitness level when it evaluates that row, not up front."""
    built, read = [], set()
    store, row_eval = FitnessTable._store, _InterpolatedField._row_eval

    def spy_store(self, i_m, raw):
        built.append(i_m)
        return store(self, i_m, raw)

    def spy_row_eval(self, i_m, x):
        read.add(i_m)
        return row_eval(self, i_m, x)

    monkeypatch.setattr(FitnessTable, "_store", spy_store)
    monkeypatch.setattr(_InterpolatedField, "_row_eval", spy_row_eval)
    fitness_table.cache_clear()
    z = 200
    assert find_fixed_points(params(z=z, alpha=4.0), 40)
    assert len(built) == len(set(built)) < z - 1
    assert set(built) <= read
