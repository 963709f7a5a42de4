"""Tube membership and particle counting.

A particle belongs to the tube at time t when its whole ancestral trajectory
stayed *strictly* inside at every recorded time up to t. Membership is
evaluated on recorded times only, which can only overcount (excursions between
recordings go unseen); the optional Brownian-bridge correction rejects a
recorded-inside segment with the exact bridge boundary-crossing probability
exp(-2ab/dt) per side and removes that bias at the cost of extra randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .forest import Forest, lineage_grid_positions, propagate
from .model import RngStream
from .paths import Tube, TubeFamily

__all__ = [
    "TubeMembership",
    "CountReport",
    "in_tube",
    "count_tube",
    "count_family",
    "growth_curve",
    "GrowthRow",
    "rough_increment_check",
    "RoughnessIndeterminate",
    "brownian_tube_indicator",
    "rescaled_lineage",
    "flat_series",
    "lineage_sup_abs",
    "BRIDGE_STREAM_TAG",
]

# Stream-id component reserved for bridge-correction uniforms so they can
# never collide with simulation draws.
BRIDGE_STREAM_TAG = 0xB51D6E


def _flat_ranges(counts: np.ndarray) -> np.ndarray:
    """[0..c0-1, 0..c1-1, ...] for segmented array construction."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - starts


def flat_series(forest: Forest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated recorded series (times, positions, segment starts).

    Each particle contributes [birth, grid times..., death]; ``starts`` has
    length n+1 so particle i owns the slice [starts[i], starts[i+1]).
    Duplicated endpoints (birth or death exactly on the grid) are harmless:
    they produce zero-length increments everywhere downstream.
    """
    dt = forest.grid.dt
    k_counts = np.diff(forest.xs_off)
    lens = k_counts + 2
    starts = np.concatenate([[0], np.cumsum(lens)])
    M = int(starts[-1])
    times = np.empty(M)
    pos = np.empty(M)
    first = starts[:-1]
    last = starts[1:] - 1
    times[first] = forest.t_birth
    pos[first] = forest.x_birth
    times[last] = forest.t_death
    pos[last] = forest.x_death
    inner = np.repeat(first + 1, k_counts) + _flat_ranges(k_counts)
    times[inner] = (np.repeat(forest.grid_lo, k_counts) + _flat_ranges(k_counts)) * dt
    pos[inner] = forest.xs_flat
    return times, pos, starts


def lineage_sup_abs(forest: Forest, t: float) -> np.ndarray:
    """sup over recorded times <= t of |X| along each particle's lineage."""
    times, pos, starts = flat_series(forest)
    vals = np.where(times <= t + 1e-9 * forest.grid.dt, np.abs(pos), -math.inf)
    return propagate(forest, np.maximum.reduceat(vals, starts[:-1]), np.maximum)


def _bridge_rejections(center, radius, pos, gap, valid, u_up, u_dn) -> np.ndarray:
    """Bridge-correction rejections of the recorded segments along the last
    axis of ``pos`` (``center`` matches that axis).

    A bridge pinned strictly inside crosses a wall at distances a and b from
    its ends with probability exp(-2ab/gap), exact for a straight wall and
    nearly so for the tube's moving wall over one gap. A ``valid`` segment is
    rejected when the caller's uniform for either side falls below that
    probability.
    """
    safe_gap = np.where(valid, gap, 1.0)
    rejected = np.zeros(u_up.shape, dtype=bool)
    for dist, u in ((center + radius - pos, u_up), (pos - (center - radius), u_dn)):
        left, right = dist[..., :-1], dist[..., 1:]
        p = np.where(valid & (left > 0) & (right > 0), np.exp(-2.0 * left * right / safe_gap), 0.0)
        rejected |= u < p
    return rejected & valid


class TubeMembership:
    """First-exit times of every lineage from a tube, over recorded data.

    ``first_exit[i]`` is the earliest recorded time (within [0, theta*T]) at
    which the ancestral trajectory of particle i is not strictly inside the
    tube, or +inf. A particle is in the tube up to time t iff it is alive
    then and ``first_exit[i] > t``.
    """

    def __init__(self, forest: Forest, tube: Tube, bridge: bool = False):
        self.forest = forest
        self.tube = tube
        n = len(forest)
        dt = forest.grid.dt
        times, pos, starts = flat_series(forest)
        self.times = times
        self.positions = pos
        self.starts = starts

        center = tube.center(np.minimum(times, tube.horizon))
        radius = tube.radius
        t_end = tube.t_end
        relevant = times <= t_end + 1e-9 * dt
        outside = (np.abs(pos - center) >= radius) & relevant
        exit_vals = np.where(outside, times, math.inf)
        own = np.minimum.reduceat(exit_vals, starts[:-1]) if n else np.empty(0)

        if bridge:
            gap = np.diff(times)
            gap[starts[1:-1] - 1] = -1.0  # inter-particle gaps: not segments
            valid = (gap > 1e-15) & relevant[1:]
            # one interleaved (up, down) uniform pair per segment whatever the
            # data, kept for byte-identical CSVs
            u = forest.stream.split(BRIDGE_STREAM_TAG).generator().random(2 * len(gap))
            rejected = _bridge_rejections(center, radius, pos, gap, valid, u[::2], u[1::2])
            bridge_exits = np.append(np.where(rejected, times[1:], math.inf), math.inf)
            own = np.minimum(own, np.minimum.reduceat(bridge_exits, starts[:-1]))
        self.first_exit = propagate(forest, own, np.minimum)
        self.center_flat = center

    def members_at(self, t: float) -> np.ndarray:
        """Indices of particles alive at recorded time t whose lineage stayed
        strictly inside through t."""
        alive = self.forest.alive_mask(t)
        return np.flatnonzero(alive & (self.first_exit > t))


@dataclass(frozen=True)
class CountReport:
    """Particle count in a tube (or union of tubes) with its growth rate."""

    count: int
    growth_rate: float  # (1/T) log count, -inf sentinel when the count is 0
    per_tube: tuple[int, ...]
    capped: bool


def _report(count: int, per_tube: tuple[int, ...], forest: Forest, T: float) -> CountReport:
    rate = math.log(count) / T if count > 0 else -math.inf
    return CountReport(count=count, growth_rate=rate, per_tube=per_tube, capped=forest.capped)


def in_tube(forest: Forest, pid: int, tube: Tube, bridge: bool = False) -> bool:
    """Whole-lineage strict tube membership of one particle up to theta*T."""
    t_end = tube.t_end
    if t_end > forest.horizon + 1e-9:
        raise ValueError("lineage not recorded up to theta*T")
    if not forest.alive_mask(t_end)[pid]:
        raise ValueError(f"particle {pid} is not alive at theta*T")
    mem = TubeMembership(forest, tube, bridge=bridge)
    return bool(mem.first_exit[pid] > t_end)


def count_tube(forest: Forest, tube: Tube, bridge: bool = False) -> CountReport:
    mem = TubeMembership(forest, tube, bridge=bridge)
    c = len(mem.members_at(tube.t_end))
    return _report(c, (c,), forest, tube.horizon)


def count_family(forest: Forest, family: TubeFamily, bridge: bool = False) -> CountReport:
    """Union count: alive at theta*T and inside at least one tube of the
    family (no multiplicity)."""
    t_end = family.tubes[0].t_end
    member_union: Optional[np.ndarray] = None
    per = []
    for tube in family.tubes:
        ids = TubeMembership(forest, tube, bridge=bridge).members_at(t_end)
        per.append(len(ids))
        member_union = ids if member_union is None else np.union1d(member_union, ids)
    c = int(len(member_union))
    return _report(c, tuple(per), forest, family.horizon)


@dataclass(frozen=True)
class GrowthRow:
    T: float
    mean_rate: float
    se_rate: float
    n_nonempty: int
    empty_fraction: float
    n_capped: int


def growth_curve(
    params,
    make_tube,
    T_list: Sequence[float],
    replicates: int,
    stream: RngStream,
    steps_per_unit: int,
    cap: int,
    bridge: bool = False,
):
    """Monte Carlo growth-rate table across horizons.

    ``make_tube(T)`` builds the tube at each horizon (the path and epsilon
    live at the rescaled level, so only T changes). Empty replicates carry a
    -inf rate, are excluded from the mean, and are reported as a fraction —
    itself a meaningful observable for extinct tubes.
    """
    from .forest import simulate_forest
    from .model import TimeGrid

    rows = []
    raw = []
    for ti, T in enumerate(T_list):
        tube = make_tube(T)
        grid = TimeGrid(T, steps=max(1, int(round(T * steps_per_unit))), spine_substeps=1)
        rates = []
        n_capped = 0
        n_empty = 0
        for rep in range(replicates):
            forest = simulate_forest(params, grid, stream=stream.split(ti, rep), cap=cap)
            if forest.capped:
                n_capped += 1
                continue
            rep_report = count_tube(forest, tube, bridge=bridge)
            raw.append((T, rep, rep_report.count, rep_report.growth_rate, int(rep_report.count == 0)))
            if rep_report.count == 0:
                n_empty += 1
            else:
                rates.append(rep_report.growth_rate)
        n_eff = replicates - n_capped
        mean = float(np.mean(rates)) if rates else -math.inf
        se = float(np.std(rates, ddof=1) / math.sqrt(len(rates))) if len(rates) > 1 else math.inf
        rows.append(
            GrowthRow(
                T=T,
                mean_rate=mean,
                se_rate=se,
                n_nonempty=len(rates),
                empty_fraction=n_empty / n_eff if n_eff else math.nan,
                n_capped=n_capped,
            )
        )
    return rows, raw


def brownian_tube_indicator(
    paths: np.ndarray,
    grid_times: np.ndarray,
    tube: Tube,
    bridge: bool = False,
    stream: Optional[RngStream] = None,
) -> np.ndarray:
    """Strict tube membership of plain Brownian paths on the grid, with the
    same optional bridge correction the forest counters use. ``paths`` is
    (replicates, len(grid_times))."""
    center = tube.center(np.minimum(grid_times, tube.horizon))
    radius = tube.radius
    times_mask = grid_times <= tube.t_end + 1e-9
    inside = (np.abs(paths[:, times_mask] - center[times_mask]) < radius).all(axis=1)
    if not bridge:
        return inside.astype(float)
    if stream is None:
        raise ValueError("bridge correction needs a stream")
    # all up-side uniforms, then all down-side ones: kept for byte-identical CSVs
    u = stream.split(BRIDGE_STREAM_TAG).generator().random((2, len(paths), paths.shape[1] - 1))
    rejected = _bridge_rejections(center, radius, paths, np.diff(grid_times), times_mask[1:], *u)
    return (inside & ~rejected.any(axis=1)).astype(float)


class RoughnessIndeterminate(ValueError):
    """No window scale is decidable at the sampling resolution."""


def rough_increment_check(values: Sequence[float], h: float, n_min: int) -> bool:
    """Detect pathologically rough increments in a sampled path.

    True iff for some integer n >= n_min two samples at distance <= 1/n^2
    differ by more than 1/sqrt(n). Only scales n with 1/n^2 >= h are decidable
    at grid spacing h; the checked range is [n_min, ceil(1/sqrt(h))] and an
    empty range raises :class:`RoughnessIndeterminate`.
    """
    x = np.asarray(values, dtype=np.float64)
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    n_max = int(math.ceil(1.0 / math.sqrt(h)))
    if int(1.0 / (n_min * n_min * h) + 1e-9) < 1:
        raise RoughnessIndeterminate(
            f"no decidable scale: n_min={n_min} exceeds 1/sqrt(h)={1.0 / math.sqrt(h):.3f}"
        )
    for n in range(n_min, n_max + 1):
        w = int(1.0 / (n * n * h) + 1e-9)
        if w < 1:
            continue
        window = min(w + 1, len(x))
        view = np.lib.stride_tricks.sliding_window_view(x, window)
        if np.any(view.max(axis=1) - view.min(axis=1) > 1.0 / math.sqrt(n)):
            return True
    return False


def rescaled_lineage(forest: Forest, pid: int, theta: float) -> tuple[np.ndarray, float]:
    """Lineage trajectory rescaled onto [0, theta]: values X(sT)/T at spacing
    h = dt/T, the input format of :func:`rough_increment_check`."""
    T = forest.horizon
    t_end = theta * T
    xs = lineage_grid_positions(forest, pid, forest.grid.dt * forest.grid.index_of(t_end))
    return xs / T, forest.grid.dt / T
