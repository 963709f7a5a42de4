"""Guided simulation and the additive-martingale machinery.

Under the transformed law the distinguished lineage (the spine) diffuses with
the inward drift f'(t/T) - a*tan(a*(x - Tf(t/T))), a = pi/(2*eps*T), which
confines it to the tube; it branches at the accelerated rate (m+1)r into
size-biased offspring counts, one uniformly chosen child continues the spine,
and every other particle behaves exactly as under the natural law. Simulating
this measure is importance sampling for tube events: the natural-law
expectation of a functional is the guided-law average of functional/Z.

The per-particle weight is

    V_u(t) = exp(pi^2 t / (8 eps^2 T^2))
             * cos(a*(X_u(t) - Tf(t/T)))
             * exp(I_u(t) - (1/2) int_0^t f'(s/T)^2 ds),

with I_u the stochastic integral of f'(s/T) along the lineage, discretised as
a left-endpoint sum over recorded increments, and the mean-one martingale is
Z(t) = sum of V_u(t) e^{-rmt} over particles whose whole lineage stayed
strictly inside the tube. Every inequality check below carries an explicit
slack that provably covers the discretisation of I (Abel summation over the
recorded skeleton), so a check can only fail for substantive reasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .counting import TubeMembership
from .forest import DEFAULT_CAP, Forest, _Builder, propagate
from .model import ModelParams, RngStream, TimeGrid, sample_offspring, size_biased
from .paths import SmoothPath, Tube, _abs_linear_integral

__all__ = [
    "SpineRecord",
    "WeightedForest",
    "TubeWeights",
    "IntegrationError",
    "simulate_guided",
    "particle_weight",
    "additive_martingale",
    "spine_decomposition",
    "BoundCheck",
    "integral_bound_check",
    "count_bound_check",
    "envelope_eta",
    "envelope_check",
    "ImportanceResult",
    "importance_estimate",
    "importance_estimates",
]

_CLAMP_FRACTION = 1.0 - 1e-6
_NEAR_BOUNDARY = 0.05
_IDX_EPS = 1e-9


class IntegrationError(RuntimeError):
    """The spine integrator hit its step-size floor."""


@dataclass(frozen=True)
class SpineRecord:
    """The distinguished lineage: particle ids, branch times S_u, offspring
    counts A_u, plus integrator diagnostics. ``gap_draws`` are the raw
    exponential draws (the final one may overshoot the horizon), which makes
    them an unconditioned i.i.d. sample for law checks."""

    pids: tuple[int, ...]
    birth_times: tuple[float, ...]
    offspring: tuple[int, ...]
    gap_draws: tuple[float, ...]
    child_choices: tuple[int, ...]
    n_steps: int
    n_clamped: int

    @property
    def clamp_rate(self) -> float:
        return self.n_clamped / self.n_steps if self.n_steps else 0.0


class WeightedForest:
    """A guided-law replicate: forest, its spine, and the tube it targets."""

    def __init__(self, forest: Forest, spine: SpineRecord, tube: Tube):
        self.forest = forest
        self.spine = spine
        self.tube = tube
        self._weights: Optional[TubeWeights] = None

    def weights(self, membership: Optional[TubeMembership] = None) -> "TubeWeights":
        """Tube weights of this replicate, built once. A caller that already
        holds a membership (say a bridge-corrected one) passes it in and the
        weights read it instead of building their own."""
        if self._weights is None or (membership is not None and membership is not self._weights.membership):
            self._weights = TubeWeights(self.forest, self.tube, membership)
        return self._weights


class TubeWeights:
    """Vectorised per-particle stochastic integrals and tube weights.

    The running integral I_u is inherited exactly along lineages: a child's
    integral starts from the parent's value at the branch time.
    """

    def __init__(self, forest: Forest, tube: Tube, membership: Optional[TubeMembership] = None):
        self.forest = forest
        self.tube = tube
        self.membership = membership if membership is not None else TubeMembership(forest, tube)
        mem = self.membership
        T = tube.horizon
        fp = tube.path.derivative(np.clip(mem.times / T, 0.0, 1.0))
        dX = np.diff(mem.positions)
        dI = fp[:-1] * dX
        dI[mem.starts[1:-1] - 1] = 0.0  # inter-particle joints are not increments
        self._cum = np.concatenate([[0.0], np.cumsum(dI)])
        own_death = self._cum[mem.starts[1:] - 1] - self._cum[mem.starts[:-1]]
        parent = forest.parent
        self._offset = propagate(forest, np.where(parent >= 0, own_death[parent], 0.0), np.add)
        self._lam = math.pi**2 / (8.0 * tube.epsilon**2 * T**2)
        self._a = math.pi / (2.0 * tube.radius)

    def _flat_index(self, pid: int, t: float) -> int:
        f = self.forest
        dt = f.grid.dt
        start = self.membership.starts[pid]
        if abs(t - f.t_birth[pid]) <= _IDX_EPS * dt:
            return int(start)
        if abs(t - f.t_death[pid]) <= _IDX_EPS * dt:
            return int(self.membership.starts[pid + 1] - 1)
        k = int(round(t / dt))
        if abs(k * dt - t) <= _IDX_EPS * max(dt, 1.0):
            lo = int(f.grid_lo[pid])
            n_grid = int(f.xs_off[pid + 1] - f.xs_off[pid])
            if lo <= k < lo + n_grid:
                return int(start + 1 + (k - lo))
        raise ValueError(f"t={t} is not a recorded time of particle {pid}")

    def integral_at(self, pid: int, t: float) -> float:
        """Discrete stochastic integral I_u(t) along the lineage."""
        j = self._flat_index(pid, t)
        return float(self._offset[pid] + self._cum[j] - self._cum[self.membership.starts[pid]])

    def weight_at(self, pid: int, t: float) -> float:
        """V_u(t); strictly positive iff u is strictly inside the tube at t."""
        mem = self.membership
        j = self._flat_index(pid, t)
        T = self.tube.horizon
        delta = mem.positions[j] - mem.center_flat[j]
        integral = self._offset[pid] + self._cum[j] - self._cum[mem.starts[pid]]
        half_energy = T * self.tube.path.energy(min(t / T, 1.0))
        return float(math.exp(self._lam * t) * math.cos(self._a * delta) * math.exp(integral - half_energy))

    def martingale_at(self, t: float) -> float:
        """Z(t): tube-confined weighted population, e^{-rmt}-normalised."""
        mem = self.membership
        ids = mem.members_at(t)
        if len(ids) == 0:
            return 0.0
        f = self.forest
        dt = f.grid.dt
        k = int(round(t / dt))
        if abs(k * dt - t) > _IDX_EPS * max(dt, 1.0):
            raise ValueError(f"t={t} is not a recorded grid time")
        idx = mem.starts[ids] + 1 + (k - f.grid_lo[ids])
        T = self.tube.horizon
        delta = mem.positions[idx] - mem.center_flat[idx]
        integral = self._offset[ids] + self._cum[idx] - self._cum[mem.starts[ids]]
        half_energy = T * self.tube.path.energy(min(t / T, 1.0))
        v = np.exp(self._lam * t) * np.cos(self._a * delta) * np.exp(integral - half_energy)
        return float(np.sum(v) * math.exp(-self.forest.params.rm * t))


def particle_weight(forest: Forest, pid: int, t: float, tube: Tube, weights: Optional[TubeWeights] = None) -> float:
    """V weight of one particle alive at recorded time t."""
    if not forest.alive_mask(t)[pid]:
        raise ValueError(f"particle {pid} is not alive at t={t}")
    w = weights if weights is not None else TubeWeights(forest, tube)
    return w.weight_at(pid, t)


def additive_martingale(
    forest: Forest,
    t: float,
    tube: Tube,
    weights: Optional[TubeWeights] = None,
    bridge: bool = False,
) -> float:
    """Z(t) over the strictly-in-tube population (mean one under the natural
    law for t <= theta*T)."""
    if weights is None:
        weights = TubeWeights(forest, tube, TubeMembership(forest, tube, bridge=bridge))
    return weights.martingale_at(t)


def _advance(path, T, eps_T, rng, t0, x0, t1, h_base, stats):
    """Euler micro-stepping of the confined spine from (t0, x0) to time t1.

    The tangent drift diverges at the tube wall, so the step shrinks so that
    |drift|*h <= eps_T/10 and near the wall (within 5% of eps_T) it drops to
    h_base/64; integrator overshoot beyond (1-1e-6)*eps_T is reflected back to
    that radius and counted. The true process never reaches the wall, so the
    clamp only absorbs discretisation overshoot.
    """
    a = math.pi / (2.0 * eps_T)
    h_floor = h_base * 2.0**-20
    clamp_at = _CLAMP_FRACTION * eps_T
    near_h = h_base / 64.0
    t, x = t0, x0
    while t < t1 - 1e-12 * max(1.0, T):
        s = t / T
        center = T * path.value_scalar(s if s < 1.0 else 1.0)
        delta = x - center
        drift = path.derivative_scalar(s if s < 1.0 else 1.0) - a * math.tan(a * delta)
        h = min(h_base, t1 - t)
        if eps_T - abs(delta) < _NEAR_BOUNDARY * eps_T:
            h = min(h, near_h)
        mag = abs(drift)
        if mag * h > eps_T / 10.0:
            h = eps_T / (10.0 * mag)
            if h < h_floor:
                raise IntegrationError(f"step {h:.3e} below floor {h_floor:.3e}")
        x = x + drift * h + rng.standard_normal() * math.sqrt(h)
        t = t + h
        s2 = t / T
        center2 = T * path.value_scalar(s2 if s2 < 1.0 else 1.0)
        if abs(x - center2) >= clamp_at:
            x = center2 + math.copysign(clamp_at, x - center2)
            stats[1] += 1
        stats[0] += 1
    return x


def _spine_piece(path, T, eps_T, rng, dt, h_base, b, xb, d, stats):
    """Integrate one spine particle lifetime, collecting grid-time positions."""
    i0 = int(math.ceil(b / dt - _IDX_EPS))
    i1 = int(math.floor(d / dt + _IDX_EPS))
    xs = np.empty(max(i1 - i0 + 1, 0))
    t, x = b, xb
    for j, k in enumerate(range(i0, i1 + 1)):
        target = max(k * dt, t)
        x = _advance(path, T, eps_T, rng, t, x, target, h_base, stats)
        xs[j] = x
        t = target
    x = _advance(path, T, eps_T, rng, t, x, d, h_base, stats)
    return i0, xs, x


def simulate_guided(
    params: ModelParams,
    tube: Tube,
    grid: TimeGrid,
    stream: RngStream = RngStream(0),
    cap: int = DEFAULT_CAP,
) -> WeightedForest:
    """Simulate one replicate under the spine-transformed law.

    The spine keeps the replicate's primary stream; each sibling spawned at a
    spine branch seeds an independent natural-law sub-forest with a fresh
    stream, so subtree sizes never perturb the spine's randomness.
    """
    if not isinstance(tube.path, SmoothPath):
        raise TypeError("the guided drift needs a SmoothPath (continuous f')")
    if abs(tube.horizon - grid.T) > 1e-9 * max(1.0, grid.T):
        raise ValueError("tube horizon and recording grid horizon must agree")
    T = grid.T
    eps_T = tube.radius
    dt = grid.dt
    h_base = dt / grid.spine_substeps
    builder = _Builder(grid, T, cap)
    spine_rng = stream.split(0).generator()
    biased = size_biased(params.offspring)
    spine_rate = (params.m + 1.0) * params.r
    stats = [0, 0]  # [steps, clamps]
    pids, births, broods, gaps, choices = [], [], [], [], []
    sibling_counter = 0
    t, x = 0.0, 0.0
    parent = -1
    pid = builder.new_pids(1)
    while True:
        gap = spine_rng.exponential(1.0 / spine_rate)
        gaps.append(gap)
        censored = t + gap >= T
        d = T if censored else t + gap
        i0, xs, xd = _spine_piece(tube.path, T, eps_T, spine_rng, dt, h_base, t, x, d, stats)
        brood = -1 if censored else sample_offspring(biased, spine_rng)
        builder.add_chunk([pid], [parent], [t], [d], [brood], [x], [xd], [i0], xs, [len(xs)], [gap])
        pids.append(pid)
        if censored:
            break
        births.append(d)
        broods.append(brood)
        first_child = builder.new_pids(brood)
        chosen = int(spine_rng.integers(brood))
        choices.append(chosen)
        for j in range(brood):
            if j == chosen:
                continue
            sib = stream.split(1 + sibling_counter)
            sibling_counter += 1
            builder.grow(d, xd, first_child + j, pid, params, sib.generator())
            if builder.capped:
                break
        if builder.capped:
            break
        parent, pid = pid, first_child + chosen
        t, x = d, xd
    forest = builder.finish(params, stream)
    record = SpineRecord(
        pids=tuple(pids),
        birth_times=tuple(births),
        offspring=tuple(broods),
        gap_draws=tuple(gaps),
        child_choices=tuple(choices),
        n_steps=stats[0],
        n_clamped=stats[1],
    )
    return WeightedForest(forest, record, tube)


def spine_decomposition(wf: WeightedForest, t: float) -> float:
    """Conditional mean of Z(t) given the spine's history:

        sum over spine branches S_u <= t of (A_u - 1) V(S_u) e^{-rm S_u}
        plus V_spine(t) e^{-rm t}.
    """
    weights = wf.weights()
    rm = wf.forest.params.rm
    total = 0.0
    for pid, s_u, a_u in zip(wf.spine.pids, wf.spine.birth_times, wf.spine.offspring):
        if s_u > t:
            break
        total += (a_u - 1) * weights.weight_at(pid, s_u) * math.exp(-rm * s_u)
    alive = [
        p
        for p in wf.spine.pids
        if wf.forest.t_birth[p] <= t
        and (t < wf.forest.t_death[p] or (wf.forest.n_offspring[p] == -1 and t <= wf.forest.t_death[p]))
    ]
    if not alive:
        raise ValueError(f"no spine particle alive at t={t}")
    total += weights.weight_at(alive[0], t) * math.exp(-rm * t)
    return total


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    slack: float
    holds: bool


def _integral_slack(path: SmoothPath, sigma: float, max_gap: float) -> float:
    """Provable bound on |discrete Ito sum - true pathwise identity| from the
    recorded skeleton alone: max|f'| * max recorded gap * int_0^sigma |f''|.
    Derived by Abel summation against the exact integration-by-parts form;
    zero whenever f is linear or flat."""
    return path.derivative_sup(sigma) * max_gap * path.abs_curvature(sigma)


def integral_bound_check(
    forest: Forest, pid: int, t: float, tube: Tube, weights: Optional[TubeWeights] = None
) -> BoundCheck:
    """Check the pathwise deviation bound for an in-tube particle:

        |I_u(t) - int_0^t f'(s/T)^2 ds|
            <= 2 eps T int_0^{t/T} |f''| + eps T |f'(0)|  (+ slack).
    """
    path = tube.path
    if not isinstance(path, SmoothPath):
        raise TypeError("the curvature bound needs a SmoothPath")
    w = weights if weights is not None else TubeWeights(forest, tube)
    if not (w.membership.first_exit[pid] > t):
        raise ValueError(f"particle {pid} is not in the tube up to t={t}")
    T = tube.horizon
    sigma = min(t / T, 1.0)
    lhs = abs(w.integral_at(pid, t) - 2.0 * T * path.energy(sigma))
    rhs = 2.0 * tube.radius * path.abs_curvature(sigma) + tube.radius * abs(path.derivative(0.0))
    slack = _integral_slack(path, sigma, forest.grid.dt)
    return BoundCheck(lhs, rhs, slack, holds=lhs <= rhs + slack + 1e-9)


def count_bound_check(
    forest: Forest, tube: Tube, weights: Optional[TubeWeights] = None
) -> tuple[float, int, float, bool]:
    """Per-replicate domination of the martingale by the tube count:

        Z(theta T) <= |N| exp(pi^2 theta/(8 eps^2 T) - rm theta T
                              + T * energy(theta) + delta*T)

    with delta*T = 2 eps T int|f''| + eps T |f'(0)| + slack. Returns
    (z, count, bound_factor, holds).
    """
    path = tube.path
    if not isinstance(path, SmoothPath):
        raise TypeError("the count bound needs a SmoothPath")
    w = weights if weights is not None else TubeWeights(forest, tube)
    t_end = tube.t_end
    z = w.martingale_at(t_end)
    count = len(w.membership.members_at(t_end))
    T, theta = tube.horizon, tube.theta
    exponent = (
        math.pi**2 * theta / (8.0 * tube.epsilon**2 * T)
        - forest.params.rm * t_end
        + T * path.energy(theta)
        + 2.0 * tube.radius * path.abs_curvature(theta)
        + tube.radius * abs(path.derivative(0.0))
        + _integral_slack(path, theta, forest.grid.dt)
    )
    bound = count * math.exp(exponent)
    return z, count, bound, z <= bound * (1.0 + 1e-9) + 1e-12


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


def envelope_check(wf: WeightedForest, t: float, eta: float) -> BoundCheck:
    """Spine-sum envelope at time t under the gate's hypotheses:

        decomposition(t) <= sum over all spine branches of
            (A_u - 1) exp(pi^2/(8 eps^2 T) - eta S_u)
            + exp(pi^2/(8 eps^2 T) - eta t),

    inflated by the discrete-integral slack.
    """
    tube = wf.tube
    T = tube.horizon
    lead = math.pi**2 / (8.0 * tube.epsilon**2 * T)
    slack = _integral_slack(tube.path, min(t / T, 1.0), wf.forest.grid.dt)
    rhs = math.exp(lead - eta * t + slack)
    for s_u, a_u in zip(wf.spine.birth_times, wf.spine.offspring):
        rhs += (a_u - 1) * math.exp(lead - eta * s_u + slack)
    lhs = spine_decomposition(wf, t)
    return BoundCheck(lhs, rhs, slack, holds=lhs <= rhs * (1.0 + 1e-9))


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
    t: Optional[float] = None,
    cap: int = DEFAULT_CAP,
    bridge: bool = False,
) -> list[ImportanceResult]:
    """Guided-law averages of functional/Z(t), with 0/0 := 0, from one guided
    pass; each functional reads the membership that gives Z.

    This is a consistent estimator of the natural-law mean restricted to the
    tube-populated event, which equals the full mean exactly for functionals
    that vanish when the tube is empty (counts, indicators of counts, and
    every tube statistic of interest). The change of measure is exact for
    continuous-time membership; at finite recording resolution the bridge
    correction should be on, otherwise Z is systematically inflated by
    unseen excursions and the ratio estimator inherits a first-order bias.

    The spine keeps Z(t) > 0 on every guided replicate (up to bridge
    rejections of its own recorded segments); a zero across all replicates
    signals an integrator bug and raises.
    """
    t = tube.t_end if t is None else t
    vals = [[] for _ in functionals]
    n_capped = 0
    any_positive = False
    for rep in range(replicates):
        wf = simulate_guided(params, tube, grid, stream=stream.split(rep), cap=cap)
        if wf.forest.capped:
            n_capped += 1
            continue
        membership = TubeMembership(wf.forest, tube, bridge=bridge)
        z = TubeWeights(wf.forest, tube, membership).martingale_at(t)
        any_positive |= z > 0.0
        for out, functional in zip(vals, functionals):
            out.append(functional(membership) / z if z > 0.0 else 0.0)
    if replicates > n_capped and not any_positive:
        raise RuntimeError("Z vanished on every guided replicate: integrator bug")
    results = []
    for out in vals:
        arr = np.asarray(out)
        est = float(arr.mean()) if len(arr) else math.nan
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.inf
        results.append(ImportanceResult(estimate=est, se=se, n=len(arr), n_capped=n_capped))
    return results


def importance_estimate(functional: Callable[[Forest], float], *args, **kwargs) -> ImportanceResult:
    """Guided-law average of functional/Z(t) for one forest functional; the
    other arguments are those of :func:`importance_estimates`."""
    return importance_estimates([lambda mem: functional(mem.forest)], *args, **kwargs)[0]
