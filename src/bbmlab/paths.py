"""Rescaled paths on [0, 1] and the space-time tubes built around them.

Two path representations are used. :class:`GridPath` is piecewise linear on a
uniform grid and is the working object of the variational rate-function
calculus; it is in the Cameron-Martin class by construction. :class:`SmoothPath`
is a C^2 cubic spline and is required wherever second derivatives enter (the
pathwise integral bounds). Both expose exact closed-form prefix integrals of
f'^2 and |f''| so that inequality checks never depend on numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = ["GridPath", "SmoothPath", "Path", "Tube", "TubeFamily"]


def _check_unit_interval(s):
    if isinstance(s, float):  # one number: the same checks and clip in plain floats, faster
        if s < -1e-12 or s > 1.0 + 1e-12:
            raise ValueError("path argument outside [0, 1]")
        return np.float64(min(max(s, 0.0), 1.0))
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("path argument outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


@dataclass(frozen=True)
class GridPath:
    """Piecewise-linear path on the uniform grid s_k = k/n with f(0) = 0."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise ValueError("a grid path needs at least two values")
        if vals[0] != 0.0:
            raise ValueError(f"paths start at the origin, got f(0)={vals[0]}")
        object.__setattr__(self, "values", vals)
        arr = np.array(vals)
        n = len(vals) - 1
        object.__setattr__(self, "_arr", arr)
        object.__setattr__(self, "_slopes", np.diff(arr) * n)

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @property
    def knots(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n

    @property
    def slopes(self) -> np.ndarray:
        return self._slopes.copy()

    @classmethod
    def zero(cls, n: int) -> "GridPath":
        return cls((0.0,) * (n + 1))

    @classmethod
    def from_function(cls, fn: Callable[[float], float], n: int) -> "GridPath":
        return cls(tuple(fn(k / n) for k in range(n + 1)))

    @classmethod
    def line(cls, slope: float, n: int) -> "GridPath":
        return cls.from_function(lambda s: slope * s, n)

    def value(self, s):
        s = _check_unit_interval(s)
        out = np.interp(s, self.knots, self._arr)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        """Piecewise-constant slope; at a knot the left segment wins (s=0 uses
        the first segment). The tie-break is measure zero and irrelevant to
        every integral."""
        s = _check_unit_interval(s)
        idx = np.clip(np.ceil(s * self.n).astype(int) - 1, 0, self.n - 1)
        out = self._slopes[idx]
        return float(out) if np.ndim(out) == 0 else out

    def energy_profile(self) -> np.ndarray:
        """Cumulative energy (1/2) int_0^{s_k} f'^2 at the knots."""
        seg = 0.5 * self._slopes**2 / self.n
        return np.concatenate([[0.0], np.cumsum(seg)])

    def energy(self, phi: float) -> float:
        """Exact (1/2) int_0^phi f'(s)^2 ds."""
        phi = float(_check_unit_interval(phi))
        k = min(int(phi * self.n), self.n - 1)
        prof = self.energy_profile()
        return float(prof[k] + 0.5 * self._slopes[k] ** 2 * (phi - k / self.n))

    def abs_curvature(self, phi: float) -> float:
        """int |f''| is zero in the interior of every segment; kinks make a
        grid path unusable for curvature-based bounds, so this is only valid
        for the trivially flat case."""
        if np.allclose(self._slopes, self._slopes[0]):
            return 0.0
        raise ValueError("grid paths have distributional curvature; use SmoothPath")


def _abs_linear_integral(alpha: float, beta: float, w: float) -> float:
    """int_0^w |alpha*u + beta| du in closed form."""
    if w <= 0.0:
        return 0.0
    if alpha == 0.0:
        return abs(beta) * w

    def G(u):
        return 0.5 * alpha * u * u + beta * u

    root = -beta / alpha
    if 0.0 < root < w:
        return abs(G(root)) + abs(G(w) - G(root))
    return abs(G(w))


@dataclass(frozen=True)
class SmoothPath:
    """Natural or clamped cubic spline through values on a uniform grid.

    ``boundary`` is "natural" (zero second derivative at both ends) or
    "clamped" (zero *first* derivative at the left end, natural right end);
    the clamped mode is what the pathwise inequality hypotheses with
    f'(0) = 0 call for. All prefix integrals below are exact per-segment
    polynomial algebra.
    """

    knots: tuple[float, ...]
    boundary: str = "natural"

    def __init__(self, knots: Sequence[float], boundary: str = "natural"):
        vals = tuple(float(v) for v in knots)
        if len(vals) < 3:
            raise ValueError("a smooth path needs at least three knot values")
        if vals[0] != 0.0:
            raise ValueError(f"paths start at the origin, got f(0)={vals[0]}")
        if boundary not in ("natural", "clamped"):
            raise ValueError(f"unknown boundary mode {boundary!r}")
        object.__setattr__(self, "knots", vals)
        object.__setattr__(self, "boundary", boundary)
        x = np.arange(len(vals)) / (len(vals) - 1)
        bc = "natural" if boundary == "natural" else ((1, 0.0), (2, 0.0))
        pp = CubicSpline(x, np.array(vals), bc_type=bc)
        object.__setattr__(self, "_pp", pp)
        object.__setattr__(self, "_dpp", pp.derivative())
        object.__setattr__(self, "_d2pp", pp.derivative(2))
        self._precompute(pp)

    def _precompute(self, pp) -> None:
        c = pp.c  # (4, nseg), highest power first, local variable u = s - s_k
        nseg = c.shape[1]
        w = 1.0 / nseg
        a2, a1, a0 = 3.0 * c[0], 2.0 * c[1], c[2]
        # f'(u)^2 is a quartic; store its antiderivative coefficients.
        b = np.stack(
            [
                a2 * a2 / 5.0,
                2.0 * a2 * a1 / 4.0,
                (2.0 * a2 * a0 + a1 * a1) / 3.0,
                2.0 * a1 * a0 / 2.0,
                a0 * a0,
            ]
        )
        object.__setattr__(self, "_energy_anti", b)
        seg_energy = 0.5 * self._poly5(b, np.full(nseg, w), np.arange(nseg))
        object.__setattr__(self, "_energy_cum", np.concatenate([[0.0], np.cumsum(seg_energy)]))
        alpha, beta = 6.0 * c[0], 2.0 * c[1]
        object.__setattr__(self, "_curv_alpha", alpha)
        object.__setattr__(self, "_curv_beta", beta)
        seg_curv = np.array([_abs_linear_integral(alpha[k], beta[k], w) for k in range(nseg)])
        object.__setattr__(self, "_curv_cum", np.concatenate([[0.0], np.cumsum(seg_curv)]))
        object.__setattr__(self, "_nseg", nseg)
        object.__setattr__(self, "_a_coeffs", (a2, a1, a0))

    @staticmethod
    def _poly5(b, u, k):
        return ((((b[0, k] * u + b[1, k]) * u + b[2, k]) * u + b[3, k]) * u + b[4, k]) * u

    @property
    def n(self) -> int:
        return self._nseg

    @classmethod
    def zero(cls, n: int = 8, boundary: str = "clamped") -> "SmoothPath":
        return cls((0.0,) * (n + 1), boundary=boundary)

    @classmethod
    def from_function(cls, fn: Callable[[float], float], n: int, boundary: str = "natural") -> "SmoothPath":
        return cls(tuple(fn(k / n) for k in range(n + 1)), boundary=boundary)

    def _segment(self, s: float) -> tuple[int, float]:
        k = min(int(s * self._nseg), self._nseg - 1)
        return k, s - k / self._nseg

    def value(self, s):
        s = _check_unit_interval(s)
        out = self._pp(s)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        s = _check_unit_interval(s)
        out = self._dpp(s)
        return float(out) if out.ndim == 0 else out

    def second_derivative(self, s):
        s = _check_unit_interval(s)
        out = self._d2pp(s)
        return float(out) if out.ndim == 0 else out

    def energy(self, phi: float) -> float:
        """Exact (1/2) int_0^phi f'(s)^2 ds."""
        phi = float(_check_unit_interval(phi))
        k, u = self._segment(phi)
        return float(self._energy_cum[k] + 0.5 * self._poly5(self._energy_anti, u, k))

    def energy_profile(self) -> np.ndarray:
        return self._energy_cum.copy()

    def abs_curvature(self, phi: float) -> float:
        """Exact int_0^phi |f''(s)| ds."""
        phi = float(_check_unit_interval(phi))
        k, u = self._segment(phi)
        part = _abs_linear_integral(self._curv_alpha[k], self._curv_beta[k], u)
        return float(self._curv_cum[k] + part)

    def derivative_sup(self, phi: float = 1.0) -> float:
        """max |f'| over [0, phi]; the quadratic f' is extremal at segment
        ends or at its vertex."""
        phi = float(_check_unit_interval(phi))
        a2, a1, a0 = self._a_coeffs
        best = abs(self.derivative(0.0))
        kmax, ulast = self._segment(phi)
        for k in range(kmax + 1):
            w = 1.0 / self._nseg if k < kmax else ulast
            cand = [abs((a2[k] * w + a1[k]) * w + a0[k])]
            if a2[k] != 0.0:
                uv = -a1[k] / (2.0 * a2[k])
                if 0.0 < uv < w:
                    cand.append(abs((a2[k] * uv + a1[k]) * uv + a0[k]))
            best = max(best, *cand)
        return float(best)

    def second_derivative_sup(self, phi: float = 1.0) -> float:
        """max |f''| over [0, phi]; f'' is linear per segment."""
        phi = float(_check_unit_interval(phi))
        kmax, ulast = self._segment(phi)
        best = 0.0
        for k in range(kmax + 1):
            w = 1.0 / self._nseg if k < kmax else ulast
            best = max(best, abs(self._curv_beta[k]), abs(self._curv_alpha[k] * w + self._curv_beta[k]))
        return float(best)


Path = Union[GridPath, SmoothPath]


@dataclass(frozen=True)
class Tube:
    """A space-time tube {(x, t): |x - T f(t/T)| < eps*T, t <= theta*T}.

    epsilon and the path live at the rescaled level; ``horizon`` is the
    unrescaled time scale T.
    """

    path: Path
    epsilon: float
    theta: float
    horizon: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("tube radius must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    @property
    def radius(self) -> float:
        """Unrescaled half-width eps*T."""
        return self.epsilon * self.horizon

    @property
    def t_end(self) -> float:
        """Unrescaled endpoint theta*T of the confinement window."""
        return self.theta * self.horizon

    def center(self, t):
        """Tube centre T f(t/T) at unrescaled time(s) t."""
        t = np.asarray(t, dtype=np.float64)
        out = self.horizon * self.path.value(t / self.horizon)
        return float(out) if np.ndim(out) == 0 else out

    def contains(self, x, t) -> bool:
        return bool(abs(float(x) - self.center(t)) < self.radius)


@dataclass(frozen=True)
class TubeFamily:
    """A finite union of tubes sharing theta and horizon."""

    tubes: tuple[Tube, ...]

    def __init__(self, tubes: Sequence[Tube]):
        tubes = tuple(tubes)
        if not tubes:
            raise ValueError("a tube family must be nonempty")
        t0 = tubes[0]
        for tube in tubes[1:]:
            if not (math.isclose(tube.theta, t0.theta) and math.isclose(tube.horizon, t0.horizon)):
                raise ValueError("all tubes in a family share theta and horizon")
        object.__setattr__(self, "tubes", tubes)

    @property
    def theta(self) -> float:
        return self.tubes[0].theta

    @property
    def horizon(self) -> float:
        return self.tubes[0].horizon
