import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bbmlab.paths import GridPath, SmoothPath, Tube, TubeFamily

grid_paths = st.lists(
    st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=12
).map(lambda vals: GridPath([0.0] + vals))


def test_grid_path_requires_origin():
    with pytest.raises(ValueError):
        GridPath((0.5, 1.0))
    with pytest.raises(ValueError):
        GridPath((0.0,))


def test_grid_path_eval():
    p = GridPath.line(1.0, 10)
    assert p.value(0.3) == pytest.approx(0.3)
    assert p.value(0.0) == 0.0
    arr = p.value(np.array([0.0, 0.25, 1.0]))
    assert np.allclose(arr, [0.0, 0.25, 1.0])
    with pytest.raises(ValueError):
        p.value(1.5)
    with pytest.raises(ValueError):
        p.value(-0.2)


def test_grid_path_derivative_left_tie_break():
    p = GridPath((0.0, 0.5, 0.5))
    assert p.derivative(0.25) == pytest.approx(1.0)
    assert p.derivative(0.75) == pytest.approx(0.0)
    # knot uses the left segment; s=0 falls back to the first segment
    assert p.derivative(0.5) == pytest.approx(1.0)
    assert p.derivative(0.0) == pytest.approx(1.0)
    assert p.derivative(1.0) == pytest.approx(0.0)


def test_grid_path_energy_examples():
    assert GridPath.zero(8).energy(1.0) == 0.0
    assert GridPath.line(2.0, 5).energy(1.0) == pytest.approx(2.0)
    assert GridPath((0.0, 0.0, 1.5)).energy(1.0) == pytest.approx(2.25)
    # partial segment
    assert GridPath((0.0, 0.0, 1.5)).energy(0.75) == pytest.approx(0.5 * 9.0 * 0.25)


@given(grid_paths)
def test_grid_energy_matches_slope_sum(path):
    n = path.n
    manual = math.fsum(s * s / (2.0 * n) for s in path.slopes)
    assert path.energy(1.0) == pytest.approx(manual, abs=1e-12)


@given(grid_paths, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50)
def test_grid_energy_prefix_quadrature(path, phi):
    # independent oracle: Riemann sum over the piecewise-constant derivative
    s = (np.arange(200_000) + 0.5) / 200_000
    vals = path.derivative(s[s <= phi])
    oracle = 0.5 * np.sum(vals**2) / 200_000
    assert path.energy(phi) == pytest.approx(oracle, abs=1e-3 * (1 + abs(oracle)))


def test_smooth_path_construction():
    with pytest.raises(ValueError):
        SmoothPath((0.5, 1.0, 2.0))
    with pytest.raises(ValueError):
        SmoothPath((0.0, 1.0))
    with pytest.raises(ValueError):
        SmoothPath((0.0, 1.0, 2.0), boundary="weird")
    sp = SmoothPath((0.0, 0.1, 0.4, 0.9), boundary="clamped")
    assert sp.derivative(0.0) == pytest.approx(0.0, abs=1e-12)
    for k, v in enumerate(sp.knots):
        assert sp.value(k / 3) == pytest.approx(v, abs=1e-12)


def test_smooth_path_of_line_is_line():
    sp = SmoothPath.from_function(lambda s: 0.7 * s, 8, boundary="natural")
    s = np.linspace(0, 1, 101)
    assert np.allclose(sp.value(s), 0.7 * s, atol=1e-12)
    assert np.allclose(sp.derivative(s), 0.7, atol=1e-10)
    assert sp.abs_curvature(1.0) == pytest.approx(0.0, abs=1e-10)
    assert sp.energy(1.0) == pytest.approx(0.5 * 0.49, abs=1e-12)


@pytest.mark.parametrize("boundary", ["natural", "clamped"])
@pytest.mark.parametrize(
    "fn", [lambda s: 0.4 * s * s, lambda s: math.sin(2.0 * s), lambda s: s**3 - 0.5 * s]
)
def test_smooth_energy_quadrature_oracle(fn, boundary):
    sp = SmoothPath.from_function(fn, 12, boundary=boundary)
    knots = np.arange(13) / 12
    for phi in (0.21, 0.5, 0.83, 1.0):
        # piecewise quadrature so the oracle is not degraded by spline knots
        cuts = np.concatenate([knots[knots < phi], [phi]])
        oracle = sum(
            quad(lambda s: 0.5 * sp.derivative(s) ** 2, a, b)[0]
            for a, b in zip(cuts[:-1], cuts[1:])
        )
        assert sp.energy(phi) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("fn", [lambda s: 0.4 * s * s, lambda s: math.sin(3.0 * s)])
def test_smooth_abs_curvature_quadrature_oracle(fn):
    sp = SmoothPath.from_function(fn, 10, boundary="natural")
    for phi in (0.3, 0.77, 1.0):
        s = np.linspace(0.0, phi, 200_001)
        oracle = np.trapezoid(np.abs(sp.second_derivative(s)), s)
        assert sp.abs_curvature(phi) == pytest.approx(oracle, abs=1e-6)


def test_smooth_sup_bounds_dominate_dense_scan():
    sp = SmoothPath.from_function(lambda s: math.sin(3.0 * s), 9, boundary="clamped")
    s = np.linspace(0.0, 1.0, 100_001)
    for phi in (0.4, 1.0):
        mask = s <= phi
        d1 = np.abs(sp.derivative(s[mask])).max()
        d2 = np.abs(sp.second_derivative(s[mask])).max()
        assert sp.derivative_sup(phi) >= d1 - 1e-9
        assert sp.derivative_sup(phi) == pytest.approx(d1, rel=1e-4)
        assert sp.second_derivative_sup(phi) >= d2 - 1e-9
        assert sp.second_derivative_sup(phi) == pytest.approx(d2, rel=1e-4)


def test_tube_validation_and_center():
    path = GridPath.line(0.5, 4)
    with pytest.raises(ValueError):
        Tube(path, -0.1, 1.0, 6.0)
    with pytest.raises(ValueError):
        Tube(path, 0.5, 1.2, 6.0)
    with pytest.raises(ValueError):
        Tube(path, 0.5, 1.0, 0.0)
    tube = Tube(path, 0.5, 1.0, 6.0)
    assert tube.radius == pytest.approx(3.0)
    assert tube.center(3.0) == pytest.approx(6.0 * 0.25)
    assert tube.contains(1.4, 3.0)
    assert not tube.contains(4.51, 3.0)


def test_tube_family_consistency():
    t1 = Tube(GridPath.zero(4), 0.5, 1.0, 6.0)
    t2 = Tube(GridPath.line(1.0, 4), 0.4, 1.0, 6.0)
    fam = TubeFamily((t1, t2))
    assert fam.theta == 1.0
    with pytest.raises(ValueError):
        TubeFamily(())
    with pytest.raises(ValueError):
        TubeFamily((t1, Tube(GridPath.zero(4), 0.5, 0.5, 6.0)))
