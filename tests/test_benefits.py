import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coaldyn import BenefitFunction


def test_linear_is_linear():
    b = BenefitFunction.linear(slope=2.5)
    assert b(0.0, 10.0) == 0.0
    assert b(4.0, 10.0) == 10.0
    assert b(4.0, 50.0) == 10.0  # slope form ignores the scale


def test_step_threshold():
    b = BenefitFunction.step(amplitude=7.0, threshold=0.5)
    assert b(4.9, 10.0) == 0.0
    assert b(5.0, 10.0) == 7.0
    assert b(10.0, 10.0) == 7.0


def test_sigmoid_endpoints_normalized():
    b = BenefitFunction.sigmoid()
    for scale in (3.0, 10.0, 100.0, 250.0):
        assert abs(b(0.0, scale)) < 1e-9
        assert abs(b(scale, scale) - 100.0) < 1e-9


def test_sigmoid_end_points_cached_outside_the_fields():
    b = BenefitFunction.sigmoid(amplitude=80.0, steepness=30.0, threshold=0.4)
    before = (dataclasses.asdict(b), hash(b))
    b(np.arange(11.0), 10.0)
    assert "_sigmoid_ends" in vars(b)
    assert (dataclasses.asdict(b), hash(b)) == before
    assert b == BenefitFunction.sigmoid(amplitude=80.0, steepness=30.0, threshold=0.4)
    f0, f1 = b._sigmoid_ends
    assert (f0, f1) == (1.0 / (1.0 + np.exp(-12.0)), 1.0 / (1.0 + np.exp(18.0)))


@given(
    scale=st.floats(min_value=2.0, max_value=500.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_sigmoid_bounded_and_nonnegative(scale, frac):
    b = BenefitFunction.sigmoid()
    v = b(frac * scale, scale)
    assert -1e-9 <= v <= 100.0 + 1e-9


def test_sigmoid_monotone_on_grid():
    b = BenefitFunction.sigmoid()
    for n in (3, 10, 40, 100):
        vals = b(np.arange(n + 1, dtype=float), float(n))
        assert np.all(np.diff(vals) >= -1e-12)


def test_vectorized_matches_scalar():
    b = BenefitFunction.sigmoid(amplitude=42.0, steepness=30.0, threshold=0.4)
    grid = np.linspace(0.0, 20.0, 11)
    vec = b(grid, 20.0)
    assert vec.shape == grid.shape
    for u, v in zip(grid, vec):
        assert b(float(u), 20.0) == pytest.approx(float(v), abs=0.0)


def test_tabulated_interpolates_and_rejects_outside():
    b = BenefitFunction.tabulated([(0.0, 0.0), (2.0, 10.0), (4.0, 10.0)])
    assert b(1.0, 4.0) == 5.0
    assert b(3.0, 4.0) == 10.0
    with pytest.raises(ValueError):
        b(5.0, 4.0)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        BenefitFunction.tabulated([(0.0, 0.0)])
    with pytest.raises(ValueError):
        BenefitFunction.tabulated([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        BenefitFunction.tabulated([(0.0, 0.0), (1.0, -1.0)])


def test_from_csv_roundtrip(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("C,B\n0,0\n5,50\n10,80\n")
    b = BenefitFunction.from_csv(path)
    assert b(2.5, 10.0) == 25.0
    assert b(7.5, 10.0) == 65.0


def test_constructor_rejections():
    with pytest.raises(ValueError):
        BenefitFunction.linear(slope=-1.0)
    with pytest.raises(ValueError):
        BenefitFunction.sigmoid(steepness=0.0)
    with pytest.raises(ValueError):
        BenefitFunction.sigmoid(threshold=1.0)
    with pytest.raises(ValueError):
        BenefitFunction.step(threshold=0.0)


@pytest.mark.parametrize("make, name", [
    (lambda v: BenefitFunction.linear(slope=v), "slope"),
    (lambda v: BenefitFunction.step(amplitude=v), "amplitude"),
    (lambda v: BenefitFunction.sigmoid(amplitude=v), "amplitude"),
    (lambda v: BenefitFunction.sigmoid(steepness=v), "steepness"),
    (lambda v: BenefitFunction.tabulated([(0.0, 0.0), (10.0, v)]), "knots"),
    (lambda v: BenefitFunction.tabulated([(0.0, 0.0), (v, 5.0)]), "knots"),
], ids=["linear-slope", "step-amplitude", "sigmoid-amplitude", "sigmoid-steepness", "tabulated-B",
        "tabulated-C"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_constructors_reject_non_finite_parameters(make, name, value):
    """NaN and +inf fail each shape parameter's check, which names the parameter."""
    with pytest.raises(ValueError, match=name):
        make(value)


def test_nonpositive_scale_rejected():
    b = BenefitFunction.linear()
    with pytest.raises(ValueError):
        b(1.0, 0.0)
