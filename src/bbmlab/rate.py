"""Deterministic rate-function calculus on discretised paths.

The expected exponential growth rate of the particle count along a path f up
to rescaled time theta is ``rm*theta - (1/2) int_0^theta f'^2`` as long as the
expression stays nonnegative on every prefix; the first time it would go
negative is the extinction time, beyond which the rate is minus infinity.
This module computes those quantities exactly on grid paths and maximises the
rate over sup-norm balls exactly.

On the grid s_k = k/n the energy up to theta is (1/2) sum_k d_k^2 / tau_k,
where d_k is the increment over segment k and tau_k = 1/(n^2 w_k) is its
length in stretched time (w_k is its overlap with [0, theta], so a partial
last segment is exact). Minimising it over the ball is a taut string through
the K gates [f(s_k) - eps, f(s_k) + eps] that overlap [0, theta], with a
free end at theta (Davies & Kovac, Ann. Statist. 29, 2001). One forward
string-pulling pass over the K gates finds it, and the funnel left open
after the last gate settles the free end in closed form; the pass counts K
iterations.

Two certificates then settle every ball query. If the box minimiser keeps
E(phi) <= rm*phi on every prefix, its rate is the value. If it breaks the
constraint anywhere, no path in the ball survives: where E(phi)/phi peaks
last, the box minimiser's prefix is itself the least-energy way to get
there (see :func:`max_rate_over_ball`), so the value is -inf.

Plus/minus infinity are returned as genuine float infinities and treated as
sentinels by the reporting layer; they never enter arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .paths import GridPath, Path, SmoothPath

__all__ = [
    "energy",
    "extinction_theta",
    "raw_rate",
    "rate_function",
    "BallQuery",
    "RateReport",
    "ConvergenceError",
    "min_energy_over_ball",
    "max_rate_over_ball",
]

MAX_ITER = 100_000
FEAS_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """The ball solver ran out of its iteration budget; carries the KKT
    residual reached and the iterations spent."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(f"ball solver residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


def energy(path: Path, phi: float) -> float:
    """(1/2) int_0^phi f'(s)^2 ds, in closed form for either path kind."""
    return path.energy(phi)


def extinction_theta(path: Path, rm: float) -> float:
    """First rescaled time at which rm*theta - energy(theta) goes negative.

    Returns +inf when the expression stays nonnegative on all of [0, 1]
    (the infimum over the empty set).
    """
    if isinstance(path, GridPath):
        return _extinction_grid(path, rm)
    return _extinction_smooth(path, rm)


def _extinction_grid(path: GridPath, rm: float) -> float:
    n = path.n
    h = 1.0 / n
    k = np.arange(n)
    g = rm * (k * h) - path.energy_profile()[:n]
    slope = rm - 0.5 * path._slopes**2
    right = (k + 1) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        # g is linear on each segment; a down-crossing pins the infimum
        root = k * h - g / slope
        diff = np.abs(right - root)
        # math.isclose(root, right) at its default rel_tol 1e-9, abs_tol 0
        close = (root == right) | (np.isfinite(root) & ((diff <= 1e-9 * right) | (diff <= np.abs(1e-9 * root))))
        # touching zero exactly at the right knot is not yet negative
        hit = (slope < 0.0) & ((root < right) | close) & (g + slope * h < 0.0)
    first = np.flatnonzero(hit)
    return float(root[first[0]]) if len(first) else math.inf


def _extinction_smooth(path: SmoothPath, rm: float) -> float:
    nseg = path.n
    w = 1.0 / nseg
    b = path._energy_anti  # antiderivative of f'^2 per segment (u^5..u^1)
    for k in range(nseg):
        g_k = rm * (k * w) - path._energy_cum[k]
        # g(u) = g_k + rm*u - (1/2)(b0 u^5 + ... + b4 u)
        coeffs = np.array(
            [-0.5 * b[0, k], -0.5 * b[1, k], -0.5 * b[2, k], -0.5 * b[3, k], rm - 0.5 * b[4, k], g_k]
        )
        roots = np.roots(coeffs)
        real = sorted(
            float(r.real) for r in roots if abs(r.imag) < 1e-10 and -1e-12 <= r.real <= w + 1e-12
        )
        breaks = [0.0] + [min(max(r, 0.0), w) for r in real] + [w]
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if hi - lo < 1e-15:
                continue
            mid = 0.5 * (lo + hi)
            g_mid = np.polyval(coeffs, mid)
            if g_mid < -1e-13 * max(1.0, abs(rm)):
                return float(k * w + lo)
    return math.inf


def raw_rate(path: Path, theta: float, rm: float) -> float:
    """Growth rate without the extinction truncation."""
    return rm * theta - path.energy(theta)


def rate_function(path: Path, theta: float, rm: float) -> float:
    """Truncated growth rate: raw rate while theta <= extinction time, else -inf.

    Representable paths are absolutely continuous with square-integrable
    derivative by construction, so the non-Cameron-Martin branch is
    unreachable here.
    """
    if theta > extinction_theta(path, rm):
        return -math.inf
    return raw_rate(path, theta, rm)


@dataclass(frozen=True)
class BallQuery:
    """Sup-norm ball of radius epsilon around a centre path, discretised at
    ``resolution`` grid points, queried up to rescaled time theta."""

    center: Path
    epsilon: float
    theta: float
    resolution: int = 64

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("ball radius must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")


@dataclass(frozen=True)
class RateReport:
    """Rate-function summary for a path, optionally with a ball-query result."""

    raw_rate: float
    rate: float
    extinction_theta: float
    energy_profile: tuple[float, ...]
    ball_value: Optional[float] = None
    argmax: Optional[tuple[float, ...]] = None
    active_lower: tuple[int, ...] = field(default=())
    active_upper: tuple[int, ...] = field(default=())
    iterations: int = 0
    residual: float = 0.0


class _Ball:
    """The discretised ball. Only the values at s_1..s_K enter the energy up
    to theta, K being the number of segments that overlap [0, theta]; they
    are the variables y, within [lo, hi], and the later values keep the
    centre. Segment k weighs (1/2) n^2 times its overlap with [0, theta], so
    the energy up to theta is ``w @ d**2`` for the increments d."""

    def __init__(self, query: BallQuery):
        n = query.resolution
        s = np.arange(n + 1) / n
        self.n = n
        self.theta = query.theta
        self.center = np.asarray(query.center.value(s), dtype=np.float64)
        w = 0.5 * n * n * np.clip(query.theta - s[:-1], 0.0, 1.0 / n)
        # a segment overlapping [0, theta] by less than 1e-300 of its length
        # is left free, which keeps its stretched time finite
        self.K = int(np.count_nonzero(w > 0.5 * n * 1e-300))
        self.w = w[: self.K]
        self.lo = self.center[1 : self.K + 1] - query.epsilon
        self.hi = self.center[1 : self.K + 1] + query.epsilon
        # E(phi) - rm*phi is piecewise linear in phi, so the grid points in
        # (0, theta] and theta itself stand for the whole interval
        self.phi = np.append(s[1:][s[1:] <= query.theta + 1e-12], query.theta)

    def full(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], y, self.center[self.K + 1 :]])


def _taut_string(t: list, lo: list, hi: list) -> np.ndarray:
    """Values at the knots t_0 < ... < t_K of the path from (t_0, lo_0)
    through the gates [lo_k, hi_k], k = 1..K, with a free end at t_K, that
    minimises sum_k (x_{k+1} - x_k)^2 / (t_{k+1} - t_k): the taut string.

    One forward string-pulling pass fixes the string's vertices from left
    to right (Lee & Preparata, Networks 14, 1984). From the last fixed
    vertex (the apex), ``upper`` is the taut path to the top of the latest
    gate, convex because only upper limits bend it, and ``lower`` the
    concave one to its bottom; both start at the apex. A new gate end that
    passes the other chain pulls the apex along that chain. Each knot
    enters and leaves each chain at most once, so the pass is linear in K.
    The chains are flat lists read from a head index.

    After gate K the funnel is open, and the free end is settled in closed
    form. The upper chain's first slope is at least the lower chain's, so at
    most one of these holds: the upper chain dips below the apex, then the
    string follows it down to its lowest vertex and runs flat to t_K; the
    lower chain rises above the apex, then the string follows it up to its
    highest vertex and runs flat; otherwise it runs flat from the apex.

    Each finish meets the KKT conditions of this strictly convex problem,
    so it is the minimiser. They ask the string to be straight away from
    active gates, to bend up (slopes increasing) only at an active top and
    down only at an active bottom, and to leave t_K with slope 0, or with a
    slope < 0 on hi_K or > 0 on lo_K.

    - Before the apex the string is the pinned one, which meets them.
    - Along a chain they hold: the upper chain is convex with its vertices
      on tops, the lower chain concave with its vertices on bottoms.
    - At the apex the outgoing slope lies between the lower and the upper
      chain's first slope (0 does when neither chain leaves the apex's
      level). An apex fixed from the lower chain came in at least as steep
      as the upper chain's first slope was then, and that slope only falls
      as gates are added, so the bend there is down, at a bottom. Mirrored,
      the same holds for an apex fixed from the upper chain.
    - At the lowest upper vertex the string turns from a falling slope to
      0, a bend up at a top; if that vertex is the top of gate K, the
      string ends there falling. The highest lower vertex is the mirror
      image.
    - The flat run stays in its gates. In the first finish, past the
      lowest vertex v the upper chain rises and keeps below every later
      top. The lower chain falls from the apex, keeps below the upper chain
      and above every later bottom, so each later bottom is at most the
      lower chain at v's knot, hence at most v. The other two finishes
      follow alike.
    """
    vt, vx = [t[0]], [lo[0]]  # fixed vertices; the last is the apex
    ut, ux, lt, lx = [t[0]], [lo[0]], [t[0]], [lo[0]]
    ui = li = 0  # chain heads, both at the apex
    for k in range(1, len(t)):
        tk, hk, lk = t[k], hi[k], lo[k]
        # the top of gate k joins the upper chain; a cross product > 0 iff
        # the slope from o to b exceeds the slope from o to a
        while len(ut) - ui > 1 and (ut[-1] - ut[-2]) * (hk - ux[-2]) - (ux[-1] - ux[-2]) * (tk - ut[-2]) <= 0.0:
            ut.pop()
            ux.pop()
        if len(ut) - ui == 1:
            while len(lt) - li > 1 and (lt[li + 1] - lt[li]) * (hk - lx[li]) - (lx[li + 1] - lx[li]) * (tk - lt[li]) < 0.0:
                li += 1
                vt.append(lt[li])
                vx.append(lx[li])
            ut[ui], ux[ui] = lt[li], lx[li]
        ut.append(tk)
        ux.append(hk)
        # the bottom of gate k joins the lower chain, mirrored
        while len(lt) - li > 1 and (lt[-1] - lt[-2]) * (lk - lx[-2]) - (lx[-1] - lx[-2]) * (tk - lt[-2]) >= 0.0:
            lt.pop()
            lx.pop()
        if len(lt) - li == 1:
            while len(ut) - ui > 1 and (ut[ui + 1] - ut[ui]) * (lk - ux[ui]) - (ux[ui + 1] - ux[ui]) * (tk - ut[ui]) > 0.0:
                ui += 1
                vt.append(ut[ui])
                vx.append(ux[ui])
            lt[li], lx[li] = ut[ui], ux[ui]
        lt.append(tk)
        lx.append(lk)
    # the free end; np.interp holds the last vertex flat up to t_K
    j = min(range(ui, len(ux)), key=ux.__getitem__)
    if ux[j] < vx[-1]:
        vt += ut[ui + 1 : j + 1]
        vx += ux[ui + 1 : j + 1]
    else:
        j = max(range(li, len(lx)), key=lx.__getitem__)
        vt += lt[li + 1 : j + 1]
        vx += lx[li + 1 : j + 1]
    return np.interp(t, vt, vx)


def _box_phase(ball: _Ball):
    """Exact energy minimiser y over the box, with its energies up to the
    points phi, the iterations (one per gate the string-pulling pass
    processes: K) and its KKT residual (the projected gradient of E(theta)).

    Stretched time runs at w_0/w_k on segment k, so full segments last 1
    and a partial last one longer; the free end at theta is settled in
    closed form by :func:`_taut_string`.
    """
    K = ball.K
    if K > MAX_ITER:
        raise ConvergenceError(math.inf, MAX_ITER)
    y = np.empty(0)
    if K:
        t = np.concatenate([[0.0], np.cumsum(ball.w[0] / ball.w)])
        gate_lo = np.concatenate([[0.0], ball.lo])
        gate_hi = np.concatenate([[0.0], ball.hi])
        string = _taut_string(t.tolist(), gate_lo.tolist(), gate_hi.tolist())
        y = np.clip(string[1:], ball.lo, ball.hi)
    d = np.diff(y, prepend=0.0)
    e = np.append(np.cumsum(0.5 * ball.n * d * d)[: len(ball.phi) - 1], ball.w @ (d * d))
    grad = 2.0 * ball.w * d
    grad[:-1] -= grad[1:]
    residual = float(np.max(np.abs(y - np.clip(y - grad, ball.lo, ball.hi)), initial=0.0))
    return y, e, K, residual


def _report(ball: _Ball, y: np.ndarray, iterations: int, residual: float, value: float, rm=None) -> RateReport:
    """Report for the ball optimum y with the given ball value; with rm, the
    rate calculus of the argmax is filled in (for an extinct ball, -inf)."""
    argmax = ball.full(y)
    path = GridPath(argmax)
    if value == -math.inf:
        rates, active_lower, active_upper = (-math.inf, -math.inf, math.nan), (), ()
    else:
        rates = (math.nan,) * 3 if rm is None else (raw_rate(path, ball.theta, rm), value, extinction_theta(path, rm))
        active_lower = tuple(int(i + 1) for i in np.flatnonzero(np.abs(y - ball.lo) < 1e-12))
        active_upper = tuple(int(i + 1) for i in np.flatnonzero(np.abs(y - ball.hi) < 1e-12))
    return RateReport(
        raw_rate=rates[0],
        rate=rates[1],
        extinction_theta=rates[2],
        energy_profile=tuple(path.energy_profile()),
        ball_value=value,
        argmax=tuple(argmax),
        active_lower=active_lower,
        active_upper=active_upper,
        iterations=iterations,
        residual=residual,
    )


def min_energy_over_ball(query: BallQuery) -> RateReport:
    """Minimal path energy over the discretised ball (the single-particle
    large-deviation cost of reaching the ball)."""
    ball = _Ball(query)
    y, e, iters, residual = _box_phase(ball)
    return _report(ball, y, iters, residual, float(e[-1]))


def max_rate_over_ball(query: BallQuery, rm: float) -> RateReport:
    """Maximise the truncated growth rate over the discretised ball.

    Over non-extinct paths the rate orders inversely to the energy, so the
    maximiser is the energy minimiser subject to the prefix constraints
    E(phi) <= rm*phi on (0, theta]. The box minimiser y settles the query
    exactly. If y meets every prefix constraint, rm*theta - E_y(theta) is
    the value. If it breaks one, every path in the ball is extinct (-inf):
    let phi* be the last maximiser of E_y(phi)/phi. If phi* = theta, no path
    has less energy up to theta than y. Otherwise y is steeper on the
    segment into phi* than on the one after, so its gradient there is
    nonzero and y sits on the bound its incoming slope pushes against; y up
    to phi* then meets the KKT conditions of minimising E(phi*) over the
    ball, and every path has E(phi*) >= E_y(phi*) > rm*phi*.
    """
    ball = _Ball(query)
    y, e, iters, residual = _box_phase(ball)
    if np.max(e - rm * ball.phi) > FEAS_TOL * max(1.0, abs(rm)):
        return _report(ball, y, iters, residual, -math.inf, rm)
    return _report(ball, y, iters, residual, float(rm * ball.theta - e[-1]), rm)
