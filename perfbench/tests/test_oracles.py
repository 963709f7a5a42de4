"""Tests of the benchmark's oracles, each against an independent computation
that does not use bbmlab.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


# -- strip survival ----------------------------------------------------------


def _simulated_strip_survival(t, a, paths, steps, seed):
    """Fraction of Brownian paths on a fine grid that stay in (-a, a), each
    step also rejected with the Brownian-bridge crossing probability of
    either wall, so the only error is Monte Carlo."""
    rng = np.random.default_rng(seed)
    dt = t / steps
    x = np.zeros(paths)
    alive = np.ones(paths, dtype=bool)
    for _ in range(steps):
        y = x + rng.standard_normal(paths) * math.sqrt(dt)
        inside = (np.abs(y) < a) & alive
        up = np.exp(-2.0 * np.maximum(a - x, 0) * np.maximum(a - y, 0) / dt)
        dn = np.exp(-2.0 * np.maximum(a + x, 0) * np.maximum(a + y, 0) / dt)
        crossed = (rng.random(paths) < up) | (rng.random(paths) < dn)
        alive = inside & ~crossed
        x = y
    return alive.mean(), math.sqrt(alive.mean() * (1 - alive.mean()) / paths)


@pytest.mark.parametrize("t,a", [(6.0, 3.0), (5.0, 2.5), (1.0, 0.5), (2.0, 4.0)])
def test_strip_survival_matches_simulation(t, a):
    value, bound = oracles.strip_survival(t, a)
    assert bound < 1e-16
    mc, se = _simulated_strip_survival(t, a, paths=40_000, steps=400, seed=7)
    assert abs(value - mc) < 4.0 * se + 2e-3


def test_strip_survival_truncation_bound_holds():
    exact, _ = oracles.strip_survival(0.3, 1.0)
    for tol in (1e-1, 1e-3, 1e-6):
        value, bound = oracles.strip_survival(0.3, 1.0, tol=tol)
        assert bound < tol
        assert abs(value - exact) <= bound


def test_strip_survival_limits():
    assert oracles.strip_survival(0.0, 1.0) == (1.0, 0.0)
    # tiny strip: essentially no survival; wide strip: essentially certain
    assert oracles.strip_survival(1.0, 0.05)[0] < 1e-100
    assert oracles.strip_survival(1.0, 10.0)[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracles.strip_survival(1.0, 0.0)


# -- line balls ----------------------------------------------------------------


def _lattice_rate(slope, eps, theta, n, rm, per_unit):
    """Best truncated rate over piecewise-linear paths whose knot values lie on
    a lattice of spacing eps/per_unit inside the ball around slope*s, by
    enumerating every such path. A path counts only if energy(phi) <= rm*phi
    at every knot in (0, theta]; prefix energies are linear between knots, so
    that suffices. Knots past theta do not enter the rate."""
    m = int(round(theta * n))
    offsets = np.arange(-per_unit, per_unit + 1) * (eps / per_unit)
    combos = np.array(list(itertools.product(offsets, repeat=m)))
    vals = slope * np.arange(1, m + 1) / n + combos
    steps = np.diff(np.concatenate([np.zeros((len(vals), 1)), vals], axis=1), axis=1)
    prefix = np.cumsum(0.5 * n * steps**2, axis=1)
    feasible = np.all(prefix <= rm * np.arange(1, m + 1) / n + 1e-12, axis=1)
    if not feasible.any():
        return -math.inf
    return float(np.max(rm * theta - prefix[feasible, -1]))


# per_unit puts the closed-form optimum on the lattice: the line of slope
# sign(a)(|a| - eps/theta) when |a| theta > eps, the zero path otherwise.
@pytest.mark.parametrize(
    "slope,eps,theta,n,per_unit",
    [
        (0.25, 0.5, 1.0, 2, 4),
        (1.2, 0.2, 1.0, 3, 3),
        (-0.9, 0.3, 1.0, 4, 4),
        (1.2, 0.2, 0.5, 4, 2),
        (0.8, 0.1, 1.0, 5, 5),
        (2.5, 0.2, 1.0, 4, 4),
        (1.6, 0.1, 1.0, 5, 5),
        (1.0, 0.2, 0.5, 6, 3),
    ],
)
def test_line_ball_rate_matches_lattice(slope, eps, theta, n, per_unit):
    rm = 1.0
    closed = oracles.line_ball_rate(slope, eps, theta, rm)
    brute = _lattice_rate(slope, eps, theta, n, rm, per_unit)
    if math.isinf(closed):
        assert brute == -math.inf
    else:
        assert brute == pytest.approx(closed, abs=1e-12)


def test_line_ball_rate_cases():
    assert oracles.line_ball_rate(0.3, 0.5, 1.0, 1.0) == 1.0  # the zero path is in the ball
    assert oracles.line_ball_rate(1.2, 0.2, 1.0, 1.0) == pytest.approx(0.5)
    assert oracles.line_ball_rate(2.5, 0.2, 1.0, 1.0) == -math.inf
    # at the extinction threshold (gap/theta)^2/2 = rm the line still survives
    assert oracles.line_ball_rate(2.5, 0.5, 1.0, 2.0) == 0.0
    assert oracles.line_ball_rate(2.5, 0.5, 1.0, 1.999) == -math.inf
    with pytest.raises(ValueError):
        oracles.line_ball_rate(1.0, 0.1, 0.0, 1.0)


def test_grid_path_rate_of_a_line():
    n = 8
    line = 0.5 * np.arange(n + 1) / n
    assert oracles.grid_path_rate(line, 1.0, 1.0) == pytest.approx(1.0 - 0.125)
    assert oracles.grid_path_rate(line, 0.5, 1.0) == pytest.approx(0.5 - 0.0625)


# -- counterexample spike measure ------------------------------------------------


def _exact_spike_measure(T):
    """Measure of the union of (T-n-d, T-n+d] over n >= 0, cut to [0, 1], in
    exact rational arithmetic on the float inputs."""
    t = Fraction(T)
    d = Fraction(math.exp(-4.0 * T))
    total = Fraction(0)
    for n in range(0, math.floor(T) + 3):
        lo = max(t - n - d, Fraction(0))
        hi = min(t - n + d, Fraction(1))
        if hi > lo:
            total += hi - lo
    return total


@pytest.mark.parametrize("T", [1.0, 2.0, 5.0, 9.0, 10.0, 13.0, 25.0, 2.5, 3.999999, 7.0000001, 0.2, 11.75])
def test_spike_measure_is_exact(T):
    assert oracles.spike_measure(T) == pytest.approx(float(_exact_spike_measure(T)), rel=1e-15)


def test_spike_measure_at_integers():
    for T in range(1, 40):
        assert oracles.spike_measure(float(T)) == pytest.approx(2.0 * math.exp(-4.0 * T), rel=1e-15)
    with pytest.raises(ValueError):
        oracles.spike_measure(0.1)  # pieces overlap once e^{-4T} >= 1/2


def test_spike_mean_log_rate():
    for T in (2.0, 10.0, 20.0):
        lam = 2.0 * math.exp(-4.0 * T)
        assert oracles.spike_mean_log_rate(T) == pytest.approx(1.0 + math.log1p(lam * math.expm1(T)) / T, rel=1e-15)
    assert abs(oracles.spike_mean_log_rate(20.0) - 1.0) < 1e-3
