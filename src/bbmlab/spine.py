"""Guided simulation and the additive-martingale machinery.

Under the transformed law the distinguished lineage (the spine) branches at
the accelerated rate (m+1)r into size-biased offspring counts, one uniformly
chosen child continues the spine, and every other particle behaves exactly as
under the natural law. In centred coordinates Y = X - Tf(t/T) the spine is
Knight's taboo process dY = -a*tan(a*Y) dt + dB on (-eps*T, eps*T),
a = pi/(2*eps*T), for any centre f: Girsanov's exp(int f' dX - 1/2 int f'^2)
cancels the drift f' (F. B. Knight, "Brownian local times and taboo
processes", Trans. AMS 143, 1969). It is sampled exactly at its recorded
times, one rejection step from a Gaussian proposal per gap, so it stays
strictly inside the tube by construction. Simulating this measure is
importance sampling for tube events: the natural-law expectation of a
functional is the guided-law average of functional/Z.

The per-particle weight is

    V_u(t) = exp(pi^2 t / (8 eps^2 T^2))
             * cos(a*(X_u(t) - Tf(t/T)))
             * exp(I_u(t) - (1/2) int_0^t f'(s/T)^2 ds),

with I_u the stochastic integral of f'(s/T) along the lineage, discretised as
a left-endpoint sum over recorded increments. V is written once, in
:meth:`TubeWeights.values_at`; the mean-one martingale is Z(t) = sum of
V_u(t) e^{-rmt} over particles whose whole lineage stayed strictly inside the
tube. Every inequality check below carries an explicit slack that provably
covers the discretisation of I (Abel summation over the recorded skeleton),
so a check can only fail for substantive reasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .counting import TubeMembership, recorded_values, series_blocks, series_starts
from .forest import _IDX_EPS, DEFAULT_CAP, Forest, _Builder, propagate
from .model import ModelParams, RngStream, TimeGrid, sample_offspring, size_biased
from .paths import SmoothPath, Tube, _abs_linear_integral

__all__ = [
    "SpineRecord",
    "WeightedForest",
    "TubeWeights",
    "simulate_spine",
    "simulate_guided",
    "taboo_cdf",
    "additive_martingale",
    "spine_decomposition",
    "BoundCheck",
    "integral_bound_check",
    "count_bound_check",
    "envelope_eta",
    "envelope_check",
    "ImportanceResult",
    "importance_estimates",
]


@dataclass(frozen=True)
class SpineRecord:
    """The distinguished lineage: particle ids, branch times S_u, offspring
    counts A_u and child choices. ``gap_draws`` are the raw exponential draws
    (the final one may overshoot the horizon), which makes them an
    unconditioned i.i.d. sample for law checks. ``n_steps`` counts the path
    sampler's proposals; ``n_clamped`` is always 0, since the exact sampler
    never leaves the tube, and stays for readers of the clamp count."""

    pids: tuple[int, ...]
    birth_times: tuple[float, ...]
    offspring: tuple[int, ...]
    gap_draws: tuple[float, ...]
    child_choices: tuple[int, ...]
    n_steps: int
    n_clamped: int


class WeightedForest:
    """A guided-law replicate: forest, its spine (rows 0..S-1), and the tube
    it targets."""

    def __init__(self, forest: Forest, spine: SpineRecord, tube: Tube):
        self.forest = forest
        self.spine = spine
        self.tube = tube

    def membership(self, bridge: bool) -> TubeMembership:
        """The replicate's tube membership. The bridge correction exempts the
        spine: between two recordings it is a taboo bridge, which never
        leaves the tube, so rejecting its segments with the free bridge's
        crossing probability would kill it and every subtree below."""
        return TubeMembership(self.forest, self.tube, bridge=bridge, spine_rows=len(self.spine.pids))


class TubeWeights:
    """Vectorised per-particle stochastic integrals and tube weights.

    The running integral I_u is inherited exactly along lineages: a child's
    integral starts from the parent's value at the branch time. Per forest it
    keeps the running sum of the integrand over the flat recorded series
    (one float per recorded point) and each particle's inherited offset; the
    increments are formed one :class:`~bbmlab.counting.SeriesBlock` at a time.
    """

    def __init__(self, forest: Forest, tube: Tube, membership: TubeMembership):
        self.forest = forest
        self.tube = tube
        self.membership = membership
        T = tube.horizon
        n = len(forest)
        starts = series_starts(forest)
        slope = recorded_values(forest, lambda t: tube.path.derivative(np.clip(t / T, 0.0, 1.0)))
        cum = np.zeros(int(starts[-1]))
        for block in series_blocks(forest, starts):
            # the increments of this block's segments and, unless the block is
            # the last, the zero of the joint to the next one, which carries
            # the running sum over: a cumsum over [carry, increments...] gives
            # the same floats as one cumsum over the whole series
            s, m = block.first, int(block.starts[-1])
            end = s + m - (block.hi == n)
            dI = cum[s + 1 : end + 1]
            np.multiply(block.spread(slope)[: m - 1], np.diff(block.positions), out=dI[: m - 1])
            dI[m - 1 :] = 0.0
            dI[block.starts[1:-1] - 1] = 0.0  # inter-particle joints are not increments
            # the first sum starts at its first increment, not at 0.0 plus
            # it, as one cumsum does (0.0 + -0.0 would drop the sign)
            first = s + 1 if s == 0 else s
            np.cumsum(cum[first : end + 1], out=cum[first : end + 1])
        self._cum = cum
        self._starts = starts
        self._n_grid = np.diff(forest.xs_off).view(np.uint64)
        own_death = cum[starts[1:] - 1] - cum[starts[:-1]]
        parent = forest.parent
        self._offset = propagate(forest, np.where(parent >= 0, own_death[parent], 0.0), np.add)
        self._lam = math.pi**2 / (8.0 * tube.epsilon**2 * T**2)
        self._a = math.pi / (2.0 * tube.radius)

    def _recorded(self, ids, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """I_u(t), X_u(t) and the tube centre for each particle u in ids at its
        time in t, which must be a recorded time of u: a grid time k*dt it
        has a position at, else its birth or its death."""
        ids = np.asarray(ids, dtype=np.intp)
        if not len(ids):
            return np.zeros(0), np.zeros(0), np.zeros(0)
        f = self.forest
        dt = f.grid.dt
        if isinstance(t, float):
            k = round(t / dt)
        else:
            t = np.asarray(t, dtype=np.float64)
            k = np.rint(t / dt).astype(np.int64)
        off, rel, start = f.xs_off[ids], k - f.grid_lo[ids], self._starts[ids]
        # 0 <= rel < the particle's number of grid points, in one unsigned compare
        on = (rel.view(np.uint64) < self._n_grid[ids]) & (abs(k * dt - t) <= _IDX_EPS * max(dt, 1.0))
        j = start + 1 + rel
        if on.all():
            x, centre = f.xs_flat[off + rel], self.membership.center_grid[k]
        else:  # the others must be at their birth or death
            t, off_grid = np.broadcast_to(t, ids.shape), ~on
            u, tu = ids[off_grid], t[off_grid]
            birth = abs(tu - f.t_birth[u]) <= _IDX_EPS * dt
            bad = ~birth & (abs(tu - f.t_death[u]) > _IDX_EPS * dt)
            if bad.any():
                raise ValueError(f"t={tu[bad][0]} is not a recorded time of particle {u[bad][0]}")
            j[off_grid] = np.where(birth, start[off_grid], self._starts[u + 1] - 1)
            x = f.xs_flat[np.where(on, off + rel, 0)]
            x[off_grid] = np.where(birth, f.x_birth[u], f.x_death[u])
            centre = self.membership.center_grid[np.where(on, k, 0)]
            time = np.where(birth, f.t_birth[u], f.t_death[u])
            centre[off_grid] = self.tube.center(np.minimum(time, self.tube.horizon))
        return self._offset[ids] + self._cum[j] - self._cum[start], x, centre

    def integral_at(self, ids, t) -> np.ndarray:
        """Discrete stochastic integral I_u(t) along the lineage of each
        particle u in ids (see :meth:`values_at` for t)."""
        return self._recorded(ids, t)[0]

    def values_at(self, ids, t) -> np.ndarray:
        """V_u(t) for each particle u in ids, strictly positive iff u is
        strictly inside the tube at t. ``t`` is one time or one time per id;
        each must be a recorded time of its particle (its birth, a grid time
        or its death), else ``ValueError``."""
        T = self.tube.horizon
        energy = lambda s: T * self.tube.path.energy(min(s / T, 1.0))
        t = np.asarray(t, dtype=np.float64)
        t = t if t.ndim else float(t)
        half_energy = energy(t) if isinstance(t, float) else np.array([energy(s) for s in t.tolist()])
        integral, x, centre = self._recorded(ids, t)
        return np.exp(self._lam * t) * np.cos(self._a * (x - centre)) * np.exp(integral - half_energy)

    def martingale_at(self, t: float) -> float:
        """Z(t): tube-confined weighted population, e^{-rmt}-normalised."""
        v = self.values_at(self.membership.members_at(t), t)
        return float(np.sum(v) * math.exp(-self.forest.params.rm * t))


def additive_martingale(forest: Forest, t: float, tube: Tube, *, bridge: bool) -> float:
    """Z(t) over the strictly-in-tube population (mean one under the natural
    law for t <= theta*T)."""
    return TubeWeights(forest, tube, TubeMembership(forest, tube, bridge=bridge)).martingale_at(t)


def _bridge_survival(u: float, v: float, h: float, L: float) -> float:
    """P(a Brownian bridge from u to v over time h stays in (0, L)), for u, v
    in (0, L), by the method of images:

        sum over k of exp(-2kL(kL + v - u)/h) - exp(-2(u + kL)(v + kL)/h).

    For |k| = j >= 1 each of the four terms has size at most
    exp(-2(j-1)^2 L^2/h), so the terms with |k| >= K sum to at most
    4 exp(-2(K-1)^2 L^2/h) / (1 - exp(-4(K-1) L^2/h)). The series stops at
    K = 2 + floor(sqrt(20h)/L), where (K-1)^2 L^2/h > 20: the bound is below
    4e^-40/(1 - e^-2) < 3e-17 whenever h <= 80 L^2, and the sampler's steps
    have h < L^2. Every exponent is <= 0, so no term overflows.
    """
    K = 2 + int(math.sqrt(20.0 * h) / L)
    p = 0.0
    for k in range(1 - K, K):
        kL = k * L
        p += math.exp(-2.0 * kL * (kL + v - u) / h) - math.exp(-2.0 * (u + kL) * (v + kL) / h)
    return p


def _taboo_step(y: float, h: float, R: float, rng: np.random.Generator, stats: list) -> float:
    """Y(t + h) given Y(t) = y for the taboo process dY = -a tan(aY) dt + dB on
    (-R, R), a = pi/(2R), drawn exactly by rejection.

    Its kernel is the killed heat kernel h-transformed by cos(az):
    p(y, z) = e^{lam h} cos(az)/cos(ay) * phi_h(z - y) * P(bridge y -> z
    stays inside), lam = a^2/2. So propose z = y + sqrt(h) N(0, 1), reject
    |z| >= R outright, and accept with probability P(bridge) cos(az) <= 1;
    a proposal is accepted with probability e^{-lam h} cos(ay). A gap with
    lam h > 1 is crossed in ceil(lam h) equal transitions, which keeps that
    probability above e^{-1} cos(ay). ``stats[0]`` counts the proposals; h <= 0
    returns y and draws nothing.
    """
    if h <= 0.0:
        return y
    a = math.pi / (2.0 * R)
    pieces = math.ceil(0.5 * a * a * h)
    h /= pieces
    sd = math.sqrt(h)
    for _ in range(pieces):
        while True:
            stats[0] += 1
            z = y + sd * rng.standard_normal()
            if abs(z) < R and rng.random() < _bridge_survival(y + R, z + R, h, 2.0 * R) * math.cos(a * z):
                break
        y = z
    return y


def taboo_cdf(z, y: float, h: float, R: float):
    """CDF at z of the taboo process on (-R, R) after time h from y, from the
    eigen-series: the killed heat kernel h-transformed by cos(a z), integrated
    in closed form and cut after 400 terms. The n = 1 term is the stationary
    cos^2 law; the n-th is damped by exp(-(n^2 - 1) pi^2 h / (8 R^2))."""
    L = 2.0 * R
    om = math.pi / L
    u, S = y + R, np.asarray(z, dtype=np.float64) + R
    total = 0.0
    for n in range(1, 401):
        # int_0^S sin(om s) sin(n om s) ds
        first = S if n == 1 else np.sin((n - 1) * om * S) / ((n - 1) * om)
        integral = 0.5 * (first - np.sin((n + 1) * om * S) / ((n + 1) * om))
        total = total + math.exp(-0.5 * (n * n - 1) * om * om * h) * math.sin(n * om * u) * integral
    return 2.0 / L / math.sin(om * u) * total


def _spine_piece(y, b, d, dt, R, rng, stats):
    """Centred spine path over one spine particle's lifetime [b, d] from Y(b) = y:
    the first grid index i0, Y at the grid times i0*dt, ... inside [b, d], and
    Y(d)."""
    i0 = int(math.ceil(b / dt - _IDX_EPS))
    i1 = int(math.floor(d / dt + _IDX_EPS))
    ys = np.empty(max(i1 - i0 + 1, 0))
    t = b
    for j, k in enumerate(range(i0, i1 + 1)):
        target = max(k * dt, t)
        y = ys[j] = _taboo_step(y, target - t, R, rng, stats)
        t = target
    return i0, ys, _taboo_step(y, d - t, R, rng, stats)


def _spine(params: ModelParams, tube: Tube, grid: TimeGrid, stream: RngStream, cap: int):
    """The spine of one guided replicate as rows 0..S-1 of a new builder,
    with its record and the positions where its particles die. Its genealogy
    (gap, brood and child choice per branch) is drawn from
    ``stream.split(0)`` and its path from ``stream.split(0, 1)``."""
    if abs(tube.horizon - grid.T) > 1e-9 * max(1.0, grid.T):
        raise ValueError("tube horizon and recording grid horizon must agree")
    T, R, dt = grid.T, tube.radius, grid.dt
    centre_grid = tube.center(grid.times())
    builder = _Builder(grid, cap)
    genealogy = stream.split(0).generator()
    path_rng = stream.split(0, 1).generator()
    biased = size_biased(params.offspring)
    spine_rate = (params.m + 1.0) * params.r
    stats = [0]  # proposals
    rows, births, broods, gaps, choices = [], [], [], [], []
    t, x, y = 0.0, 0.0, 0.0
    while True:
        gap = genealogy.exponential(1.0 / spine_rate)
        gaps.append(gap)
        censored = t + gap >= T
        d = T if censored else t + gap
        i0, ys, y = _spine_piece(y, t, d, dt, R, path_rng, stats)
        xd = y + tube.center(d)
        brood = -1 if censored else sample_offspring(biased, genealogy)
        rows.append((t, d, brood, x, xd, i0, ys + centre_grid[i0 : i0 + len(ys)], len(ys), gap))
        if censored:
            break
        births.append(d)
        broods.append(brood)
        choices.append(int(genealogy.integers(brood)))
        t, x = d, xd
    S = len(rows)
    b, d, n_off, xb, xd, lo, xs, n_grid, life = zip(*rows)
    builder.add_chunk(np.arange(S) - 1, b, d, n_off, xb, xd, lo, np.concatenate(xs), n_grid, life, [1] * S)
    record = SpineRecord(tuple(range(S)), tuple(births), tuple(broods), tuple(gaps), tuple(choices), stats[0], 0)
    return builder, record, xd


def simulate_spine(
    params: ModelParams, tube: Tube, grid: TimeGrid, stream: RngStream = RngStream(0)
) -> WeightedForest:
    """The spine alone of the replicate :func:`simulate_guided` draws from the
    same stream: its rows 0..S-1, float for float. Enough for the readers of
    the spine only, :func:`spine_decomposition` and :func:`envelope_check`."""
    builder, record, _ = _spine(params, tube, grid, stream, DEFAULT_CAP)
    return WeightedForest(builder.finish(params, stream), record, tube)


def simulate_guided(
    params: ModelParams,
    tube: Tube,
    grid: TimeGrid,
    stream: RngStream = RngStream(0),
    cap: int = DEFAULT_CAP,
) -> WeightedForest:
    """Simulate one replicate under the spine-transformed law.

    The whole spine comes first, as rows 0..S-1, drawn as by
    :func:`simulate_spine`. Then every sibling spawned at a spine branch
    seeds one natural-law `grow` on ``stream.split(1)``, so neither subtree
    sizes nor the path perturb the spine's branching. A capped replicate
    keeps its whole spine; its subtrees are cut at ``cap``.
    """
    builder, record, x_death = _spine(params, tube, grid, stream, cap)
    siblings = np.asarray(record.offspring, dtype=np.int64) - 1
    builder.grow(np.repeat(record.birth_times, siblings), np.repeat(x_death[:-1], siblings),
                 np.repeat(np.arange(len(siblings)), siblings), params, stream.split(1).generator())
    return WeightedForest(builder.finish(params, stream), record, tube)


def _spine_weights(wf: WeightedForest) -> TubeWeights:
    """Tube weights of the spine rows 0..S-1 alone, the forest
    :func:`simulate_spine` draws. Recorded spine points never leave the tube,
    so the membership of the spine needs no bridge."""
    f, S = wf.forest, len(wf.spine.pids)
    heads = ("parent", "t_birth", "t_death", "n_offspring", "x_birth", "x_death", "grid_lo", "raw_lifetimes")
    f = replace(f, **{name: getattr(f, name)[:S] for name in heads}, gen_off=f.gen_off[: S + 1],
                xs_off=f.xs_off[: S + 1], xs_flat=f.xs_flat[: f.xs_off[S]], capped=False)
    return TubeWeights(f, wf.tube, TubeMembership(f, wf.tube, bridge=False))


def spine_decomposition(wf: WeightedForest, t: float) -> float:
    """Conditional mean of Z(t) given the spine's history:

        sum over spine branches S_u <= t of (A_u - 1) V(S_u) e^{-rm S_u}
        plus V_spine(t) e^{-rm t}.
    """
    f, s = wf.forest, wf.spine
    # spine particle n, born at the last branch up to t, lives to the next (the last to T)
    n = int(np.searchsorted(s.birth_times, t, side="right"))
    if not 0.0 <= t <= f.t_death[s.pids[n]]:
        raise ValueError(f"no spine particle alive at t={t}")
    times = np.append(s.birth_times[:n], t)
    factor = np.append(np.asarray(s.offspring[:n]) - 1.0, 1.0)
    v = _spine_weights(wf).values_at(np.asarray(s.pids[: n + 1]), times)
    return float(np.sum(factor * v * np.exp(-f.params.rm * times)))


@dataclass(frozen=True)
class BoundCheck:
    """lhs <= rhs up to slack; ``lhs`` and ``holds`` have one entry per particle."""

    lhs: float | np.ndarray
    rhs: float
    slack: float
    holds: bool | np.ndarray


def _integral_slack(path: SmoothPath, sigma: float, max_gap: float) -> float:
    """Provable bound on |discrete Ito sum - true pathwise identity| from the
    recorded skeleton alone: max|f'| * max recorded gap * int_0^sigma |f''|.
    Derived by Abel summation against the exact integration-by-parts form;
    zero whenever f is linear or flat."""
    return path.derivative_sup(sigma) * max_gap * path.abs_curvature(sigma)


def integral_bound_check(weights: TubeWeights, ids, t: float) -> BoundCheck:
    """Check the pathwise deviation bound for the in-tube particles ids of
    the weights' forest, in the weights' tube and membership:

        |I_u(t) - int_0^t f'(s/T)^2 ds|
            <= 2 eps T int_0^{t/T} |f''| + eps T |f'(0)|  (+ slack).
    """
    tube = weights.tube
    path = tube.path
    if not isinstance(path, SmoothPath):
        raise TypeError("the curvature bound needs a SmoothPath")
    ids = np.asarray(ids, dtype=np.intp)
    outside = ids[~(weights.membership.first_exit[ids] > t)]
    if len(outside):
        raise ValueError(f"particle {outside[0]} is not in the tube up to t={t}")
    T = tube.horizon
    sigma = min(t / T, 1.0)
    lhs = np.abs(weights.integral_at(ids, t) - 2.0 * T * path.energy(sigma))
    rhs = 2.0 * tube.radius * path.abs_curvature(sigma) + tube.radius * abs(path.derivative(0.0))
    slack = _integral_slack(path, sigma, weights.forest.grid.dt)
    return BoundCheck(lhs, rhs, slack, holds=lhs <= rhs + slack + 1e-9)


def count_bound_check(weights: TubeWeights) -> BoundCheck:
    """Per-replicate domination of the martingale by the tube count, over the
    weights' forest, tube and membership:

        Z(theta T) <= |N| exp(pi^2 theta/(8 eps^2 T) - rm theta T
                              + T * energy(theta) + delta*T)

    with delta*T = 2 eps T int|f''| + eps T |f'(0)| + slack; ``lhs`` is
    Z(theta T) and ``rhs`` the right-hand side.
    """
    forest, tube = weights.forest, weights.tube
    path = tube.path
    if not isinstance(path, SmoothPath):
        raise TypeError("the count bound needs a SmoothPath")
    t_end = tube.t_end
    z = weights.martingale_at(t_end)
    count = len(weights.membership.members_at(t_end))
    T, theta = tube.horizon, tube.theta
    slack = _integral_slack(path, theta, forest.grid.dt)
    exponent = (
        math.pi**2 * theta / (8.0 * tube.epsilon**2 * T)
        - forest.params.rm * t_end
        + T * path.energy(theta)
        + 2.0 * tube.radius * path.abs_curvature(theta)
        + tube.radius * abs(path.derivative(0.0))
        + slack
    )
    bound = count * math.exp(exponent)
    return BoundCheck(z, bound, slack, holds=z <= bound * (1.0 + 1e-9) + 1e-12)


def _max_ratio(pieces) -> float:
    """Largest value of p(u) / (s + u) over pieces (p, s, lo, hi) with p a
    polynomial in the local variable u (highest power first) and s + u > 0
    on (lo, hi]. On a piece the maximum sits at an end or where
    p'(u) (s + u) = p(u); where s + lo = 0 the ratio tends to p'(lo)."""
    best = -math.inf
    for p, s, lo, hi in pieces:
        dp = np.polyder(p)
        crit = np.roots(np.polysub(np.polymul(dp, [1.0, s]), p))
        cands = [hi] + [min(max(r.real, lo), hi) for r in crit if abs(r.imag) <= 1e-7 * (1.0 + abs(r))]
        vals = [np.polyval(p, u) / (s + u) for u in cands if s + u > 0.0]
        vals.append(np.polyval(p, lo) / (s + lo) if s + lo > 0.0 else np.polyval(dp, lo))
        best = max(best, *vals)
    return float(best)


def envelope_eta(path: SmoothPath, rm: float, theta: float, epsilon: float):
    """Hypothesis gate for the spine-sum envelope.

    Needs f'(0)=0 and a positive margin rm*phi - energy(phi) on (0, theta];
    eta is half the worst-case margin per unit time, shaved by 0.1%, and
    epsilon must satisfy 2*eps*int_0^phi|f''| <= eta*phi. The worst cases of
    energy(phi)/phi and int_0^phi|f''|/phi are exact maxima over the
    spline's polynomial pieces. Returns (ok, eta, reason).
    """
    if abs(path.derivative(0.0)) > 1e-9:
        return False, 0.0, "f'(0) != 0"
    kmax, ulast = path._segment(float(theta))
    b, alpha, beta = path._energy_anti, path._curv_alpha, path._curv_beta
    energy_pieces, curv_pieces = [], []
    for k in range(kmax + 1):
        s, w = k / path.n, (1.0 / path.n if k < kmax else ulast)
        energy_pieces.append((np.append(0.5 * b[:, k], path._energy_cum[k]), s, 0.0, w))
        # |f''| = |alpha u + beta| keeps one sign between the ends and its root
        root = -beta[k] / alpha[k] if alpha[k] != 0.0 else 0.0
        ends = [0.0] + ([root] if 0.0 < root < w else []) + [w]
        for lo, hi in zip(ends[:-1], ends[1:]):
            sign = 1.0 if alpha[k] * 0.5 * (lo + hi) + beta[k] >= 0.0 else -1.0
            quad = np.polyint(sign * np.array([alpha[k], beta[k]]))
            quad[-1] = path._curv_cum[k] + _abs_linear_integral(alpha[k], beta[k], lo) - np.polyval(quad, lo)
            curv_pieces.append((quad, s, lo, hi))
    margin = rm - _max_ratio(energy_pieces)
    if margin <= 0.0:
        return False, 0.0, "rm*phi - energy(phi) not positive on (0, theta]"
    eta = 0.999 * 0.5 * margin
    if 2.0 * epsilon * _max_ratio(curv_pieces) > eta:
        return False, eta, "epsilon too large for the curvature condition"
    return True, float(eta), ""


def envelope_check(wf: WeightedForest, t: float, eta: float, decomposition: float) -> BoundCheck:
    """Spine-sum envelope at time t under the gate's hypotheses:

        decomposition <= sum over all spine branches of
            (A_u - 1) exp(pi^2/(8 eps^2 T) - eta S_u)
            + exp(pi^2/(8 eps^2 T) - eta t),

    inflated by the discrete-integral slack; ``decomposition`` is
    :func:`spine_decomposition` of ``wf`` at t, which the caller holds.
    """
    tube = wf.tube
    T = tube.horizon
    lead = math.pi**2 / (8.0 * tube.epsilon**2 * T)
    slack = _integral_slack(tube.path, min(t / T, 1.0), wf.forest.grid.dt)
    rhs = math.exp(lead - eta * t + slack)
    for s_u, a_u in zip(wf.spine.birth_times, wf.spine.offspring):
        rhs += (a_u - 1) * math.exp(lead - eta * s_u + slack)
    return BoundCheck(decomposition, rhs, slack, holds=decomposition <= rhs * (1.0 + 1e-9))


@dataclass(frozen=True)
class ImportanceResult:
    estimate: float
    se: float
    n: int
    n_capped: int


def importance_estimates(
    functionals: Sequence[Callable[[TubeMembership], float]],
    params: ModelParams,
    tube: Tube,
    grid: TimeGrid,
    replicates: int,
    stream: RngStream = RngStream(0),
    cap: int = DEFAULT_CAP,
    *,
    bridge: bool,
) -> list[ImportanceResult]:
    """Guided-law averages of functional/Z(t) at t = ``tube.t_end`` from one
    guided pass; each functional reads the membership that gives Z, the one
    :meth:`WeightedForest.membership` builds.

    This is a consistent estimator of the natural-law mean restricted to the
    tube-populated event, which equals the full mean exactly for functionals
    that vanish when the tube is empty (counts, indicators of counts, and
    every tube statistic of interest). The change of measure is exact for
    continuous-time membership; at finite recording resolution the bridge
    correction should be on, otherwise Z is systematically inflated by
    unseen excursions and the ratio estimator inherits a first-order bias.

    The spine, exempt from the bridge, keeps Z(t) > 0 on every guided
    replicate; a replicate with Z(t) = 0 raises ``ValueError``.
    """
    t = tube.t_end
    vals = [[] for _ in functionals]
    n_capped = 0
    for rep in range(replicates):
        wf = simulate_guided(params, tube, grid, stream=stream.split(rep), cap=cap)
        if wf.forest.capped:
            n_capped += 1
            continue
        membership = wf.membership(bridge)
        z = TubeWeights(wf.forest, tube, membership).martingale_at(t)
        if not z > 0.0:
            raise ValueError(f"Z({t:g}) = {z!r} on guided replicate {rep}, though its spine stays in the tube")
        for out, functional in zip(vals, functionals):
            out.append(functional(membership) / z)
    results = []
    for out in vals:
        arr = np.asarray(out)
        est = float(arr.mean()) if len(arr) else math.nan
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.inf
        results.append(ImportanceResult(estimate=est, se=se, n=len(arr), n_capped=n_capped))
    return results

