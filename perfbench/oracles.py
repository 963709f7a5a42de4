"""Exact answers the benchmark checks the program against.

Each oracle is computed here, from the mathematics alone, without calling
``bbmlab``:

- :func:`strip_survival`: the probability that a standard Brownian motion
  stays in a strip around 0, with a bound on the series truncation;
- :func:`line_ball_rate`: the maximal truncated growth rate over a sup-norm
  ball around a line, in closed form;
- :func:`spike_measure` and :func:`spike_mean_log_rate`: the exact measure of
  the counterexample's spike set and the mean growth rate it gives.
"""

from __future__ import annotations

import math

import numpy as np


def strip_survival(t: float, half_width: float, tol: float = 1e-17) -> tuple[float, float]:
    """P(sup_{s<=t} |B_s| < half_width) for a standard Brownian motion from 0.

    Uses the eigenfunction series

        (4/pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 t / (8 half_width^2)).

    Its terms alternate in sign and shrink in size, so the error of a partial
    sum is at most the first term left out. Returns (value, that bound); the
    sum stops once the next term is below ``tol``.
    """
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")
    if t <= 0.0:
        return 1.0, 0.0
    lam = math.pi**2 * t / (8.0 * half_width**2)
    terms = []
    k = 0
    while True:
        term = (4.0 / math.pi) * (-1) ** k / (2 * k + 1) * math.exp(-((2 * k + 1) ** 2) * lam)
        if abs(term) < tol and k > 0:
            return math.fsum(terms), abs(term)
        terms.append(term)
        k += 1


def expected_tube_count(rm: float, t: float, half_width: float) -> float:
    """e^{rm t} P(sup_{s<=t}|B_s| < half_width): the mean number of particles
    alive at t whose whole lineage stayed in the flat strip (many-to-one)."""
    return math.exp(rm * t) * strip_survival(t, half_width)[0]


def line_ball_rate(slope: float, epsilon: float, theta: float, rm: float) -> float:
    """Maximal truncated growth rate over the sup-norm ball of radius
    ``epsilon`` around f(s) = slope * s, up to rescaled time ``theta``.

    Every path g in the ball has |g(theta)| >= gap = (|slope| theta - eps)+, so
    its energy up to theta is at least gap^2 / (2 theta), and the straight line
    of slope gap/theta reaches that bound while staying in the ball at every
    s <= theta. That line's prefix energies grow linearly, so it survives
    (energy(phi) <= rm phi on every prefix) iff (gap/theta)^2 / 2 <= rm; if it
    does not, every path is already extinct at theta. Hence

        rm theta - gap^2 / (2 theta),  or -inf when (gap/theta)^2 / 2 > rm.

    The same holds for the ball discretised on the grid k/n whenever
    theta * n is an integer, since the line is then feasible at every knot.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    gap = max(abs(slope) * theta - epsilon, 0.0)
    if 0.5 * (gap / theta) ** 2 > rm:
        return -math.inf
    return rm * theta - gap * gap / (2.0 * theta)


def grid_path_rate(values, theta: float, rm: float) -> float:
    """rm * theta minus the energy up to theta of the piecewise-linear path
    through ``values`` at s = k/n (the rate of a path that does not go extinct)."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v) - 1
    s = np.arange(n) / n
    overlap = np.clip(theta - s, 0.0, 1.0 / n)
    slopes = np.diff(v) * n
    return rm * theta - 0.5 * float(np.dot(overlap, slopes * slopes))


def spike_measure(T: float) -> float:
    """Lebesgue measure of {omega in [0, 1]: T - n in [omega - d, omega + d)
    for some integer n >= 0}, d = e^{-4T}; 2 e^{-4T} at every integer T >= 1.

    The set is the union of (j - d, j + d] over the points j = T - n, cut to
    [0, 1]. For d < 1/2 only j = f - 1, f, f + 1 can meet [0, 1], where f is
    the fractional part of T, and the pieces are disjoint. Each length is
    written as a min or max of d against f, so no length is the difference of
    two nearly equal numbers near 1.
    """
    d = math.exp(-4.0 * T)
    if not (T >= 0.0 and d < 0.5):
        raise ValueError("needs T > log(2)/4")
    whole = math.floor(T)
    f = T - whole  # exact in floating point
    total = min(d, f) + min(d, 1.0 - f)  # j = f, n = whole
    if whole >= 1:
        total += max(0.0, d - f)  # j = f + 1, n = whole - 1
    total += max(0.0, (f - 1.0) + d)  # j = f - 1, n = whole + 1
    return total


def spike_mean_log_rate(T: float) -> float:
    """(1/T) log E[X_T] = 1 + log1p(lambda (e^T - 1)) / T, lambda = spike_measure(T)."""
    return 1.0 + math.log1p(spike_measure(T) * math.expm1(T)) / T
