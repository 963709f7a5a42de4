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
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .forest import _IDX_EPS, Forest, lineage_grid_positions, propagate
from .model import RngStream, TimeGrid
from .paths import Tube, TubeFamily

__all__ = [
    "TubeMembership",
    "CountReport",
    "count_tube",
    "count_family",
    "growth_curve",
    "GrowthRow",
    "rough_increment_check",
    "RoughnessIndeterminate",
    "brownian_tube_indicator",
    "rescaled_lineage",
    "series_starts",
    "series_blocks",
    "SeriesBlock",
    "SERIES_BLOCK_POINTS",
    "recorded_values",
    "lineage_sup_abs",
    "BRIDGE_STREAM_TAG",
]

# Stream-id component reserved for bridge-correction uniforms so they can
# never collide with simulation draws.
BRIDGE_STREAM_TAG = 0xB51D6E

# Most points one SeriesBlock holds; a particle with more is a block of its
# own. Passes over the series keep their per-point temporaries to one block.
SERIES_BLOCK_POINTS = 1 << 16


def series_starts(forest: Forest) -> np.ndarray:
    """Offsets of the particles in the forest's flat recorded series: particle
    i owns points [starts[i], starts[i+1]), its birth, grid times and death."""
    return np.concatenate([[0], np.cumsum(np.diff(forest.xs_off) + 2)])


class SeriesBlock:
    """The recorded series of particles lo..hi-1, laid out flat.

    Each particle contributes [birth, grid times..., death]; ``starts`` has
    length hi - lo + 1, so particle lo + j owns the slice [starts[j],
    starts[j+1]). Duplicated endpoints (birth or death exactly on the grid)
    are harmless: they produce zero-length increments everywhere downstream.
    """

    def __init__(self, forest: Forest, starts: np.ndarray, lo: int, hi: int):
        self.forest, self.lo, self.hi = forest, lo, hi
        self.first = int(starts[lo])  # of the block's points in the whole series
        self.starts = starts[lo : hi + 1] - self.first
        xs_off = forest.xs_off[lo : hi + 1]
        k = np.diff(xs_off)
        # grid index of every grid point: grid_lo, grid_lo + 1, ... per particle
        shift = forest.grid_lo[lo:hi] - (xs_off[:-1] - xs_off[0])
        self._grid = np.arange(int(xs_off[-1] - xs_off[0])) + np.repeat(shift, k)
        self._inner = np.ones(int(self.starts[-1]), dtype=bool)
        self._inner[self.starts[:-1]] = False
        self._inner[self.starts[1:] - 1] = False

    @cached_property
    def times(self) -> np.ndarray:
        f = self.forest
        return self._place(f.t_birth, self._grid * f.grid.dt, f.t_death)

    @cached_property
    def positions(self) -> np.ndarray:
        f = self.forest
        return self._place(f.x_birth, f.xs_flat[f.xs_off[self.lo] : f.xs_off[self.hi]], f.x_death)

    def spread(self, table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Per-point values from a :func:`recorded_values` table."""
        birth, grid, death = table
        return self._place(birth, grid[self._grid], death)

    def _place(self, birth, inner, death) -> np.ndarray:
        out = np.empty(len(self._inner))
        out[self.starts[:-1]] = birth[self.lo : self.hi]
        out[self.starts[1:] - 1] = death[self.lo : self.hi]
        out[self._inner] = inner
        return out


def series_blocks(forest: Forest, starts: Optional[np.ndarray] = None) -> Iterator[SeriesBlock]:
    """The forest's recorded series as consecutive particle ranges of at most
    :data:`SERIES_BLOCK_POINTS` points each, in id order. ``starts`` is
    :func:`series_starts` of the forest, for a caller that holds it."""
    starts = series_starts(forest) if starts is None else starts
    lo, n = 0, len(forest)
    while lo < n:
        hi = int(np.searchsorted(starts, starts[lo] + SERIES_BLOCK_POINTS, side="right")) - 1
        hi = max(hi, lo + 1)
        yield SeriesBlock(forest, starts, lo, hi)
        lo = hi


def recorded_values(forest: Forest, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fn`` (elementwise over an array of times) at every recorded time, as
    (per-particle birth values, values at the grid times k*dt, per-particle
    death values), from one call of ``fn``. A birth takes its parent's death
    value, the same time, so ``fn`` sees only the deaths, the grid and the
    births of roots."""
    n = len(forest)
    parent = forest.parent
    own = np.flatnonzero((parent < 0) | (forest.t_birth != forest.t_death[parent]))
    values = fn(np.concatenate([forest.t_death, forest.grid.times(), forest.t_birth[own]]))
    death = values[:n]
    birth = death[parent]
    birth[own] = values[len(values) - len(own) :]
    return birth, values[n : len(values) - len(own)], death


def lineage_sup_abs(forest: Forest, t: float) -> np.ndarray:
    """sup over recorded times <= t of |X| along each particle's lineage."""
    own = np.empty(len(forest))
    cutoff = t + _IDX_EPS * forest.grid.dt
    for block in series_blocks(forest):
        vals = np.where(block.times <= cutoff, np.abs(block.positions), -math.inf)
        own[block.lo : block.hi] = np.maximum.reduceat(vals, block.starts[:-1])
    return propagate(forest, own, np.maximum)


def _bridge_rejections(center, radius, pos, gap, valid, u_up, u_dn) -> np.ndarray:
    """Bridge-correction rejections of the recorded segments along the last
    axis of ``pos`` (``center`` matches that axis).

    A bridge pinned strictly inside crosses a wall at distances a and b from
    its ends with probability exp(-2ab/gap), exact for a straight wall and
    nearly so for the tube's moving wall over one gap. A ``valid`` segment is
    rejected when the caller's uniform for either side falls below that
    probability.

    The exponent is clipped to [-50, 0] before ``exp``, which is slow on
    underflow: uniforms are multiples of 2^-53 > e^-50, so below e^-50 only
    u = 0 can fall under the probability, and those entries get the exact
    one. A positive exponent means an end outside the tube, masked anyway.
    """
    safe_gap = np.where(valid, gap, 1.0)
    rejected = np.zeros(u_up.shape, dtype=bool)
    for dist, u in ((center + radius - pos, u_up), (pos - (center - radius), u_dn)):
        left, right = dist[..., :-1], dist[..., 1:]
        p = -2.0 * left * right / safe_gap
        np.exp(np.clip(p, -50.0, 0.0, out=p), out=p)
        if not u.all():
            zero = u == 0.0
            exact = -2.0 * left[zero] * right[zero] / np.broadcast_to(safe_gap, left.shape)[zero]
            p[zero] = np.exp(np.minimum(exact, 0.0))
        inside = dist > 0
        rejected |= (u < p) & inside[..., :-1] & inside[..., 1:]
    return rejected & valid


class TubeMembership:
    """First-exit times of every lineage from a tube, over recorded data.

    ``first_exit[i]`` is the earliest recorded time (within [0, theta*T]) at
    which the ancestral trajectory of particle i is not strictly inside the
    tube, or +inf. A particle is in the tube up to time t iff it is alive
    then and ``first_exit[i] > t``. The recorded series is read one
    :class:`SeriesBlock` at a time, so beside ``first_exit`` only the tube
    centre at the grid times, ``center_grid``, is kept.

    With ``bridge`` every segment draws its uniforms, but the bridge never
    rejects a segment of rows 0..spine_rows-1: a guided spine, which is a
    taboo bridge between its recordings and never leaves the tube (see
    :meth:`bbmlab.spine.WeightedForest.membership`).
    """

    def __init__(self, forest: Forest, tube: Tube, *, bridge: bool, spine_rows: int = 0):
        self.forest = forest
        self.tube = tube
        n = len(forest)
        radius = tube.radius
        cutoff = tube.t_end + _IDX_EPS * forest.grid.dt
        own = np.empty(n)
        center = recorded_values(forest, lambda t: tube.center(np.minimum(t, tube.horizon)))
        if bridge:
            rng = forest.stream.split(BRIDGE_STREAM_TAG).generator()
        for block in series_blocks(forest):
            times, pos, starts = block.times, block.positions, block.starts
            center_pts = block.spread(center)
            relevant = times <= cutoff
            outside = (np.abs(pos - center_pts) >= radius) & relevant
            exits = np.minimum.reduceat(np.where(outside, times, math.inf), starts[:-1])
            if bridge:
                gap = np.diff(times)
                gap[starts[1:-1] - 1] = -1.0  # inter-particle gaps: not segments
                valid = (gap > 1e-15) & relevant[1:]
                # one interleaved (up, down) uniform pair per segment whatever
                # the data, the joint to the next block's first particle
                # included, kept for byte-identical CSVs
                u = rng.random(2 * (len(gap) + (block.hi < n)))
                rejected = _bridge_rejections(
                    center_pts, radius, pos, gap, valid, u[0 : 2 * len(gap) : 2], u[1 : 2 * len(gap) : 2]
                )
                if spine_rows > block.lo:
                    rejected[: starts[min(spine_rows, block.hi) - block.lo] - 1] = False
                bridge_exits = np.append(np.where(rejected, times[1:], math.inf), math.inf)
                exits = np.minimum(exits, np.minimum.reduceat(bridge_exits, starts[:-1]))
            own[block.lo : block.hi] = exits
        self.first_exit = propagate(forest, own, np.minimum)
        self.center_grid = center[1]

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


def count_tube(forest: Forest, tube: Tube, *, bridge: bool) -> CountReport:
    mem = TubeMembership(forest, tube, bridge=bridge)
    c = len(mem.members_at(tube.t_end))
    return _report(c, (c,), forest, tube.horizon)


def count_family(forest: Forest, family: TubeFamily, *, bridge: bool) -> CountReport:
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
    *,
    bridge: bool,
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
        grid = TimeGrid(T, steps=max(1, int(round(T * steps_per_unit))))
        rates = []
        n_capped = 0
        n_empty = 0
        for rep in range(replicates):
            forest = simulate_forest(params, grid, stream=stream.split(ti, rep), cap=cap)
            rep_report = None if forest.capped else count_tube(forest, tube, bridge=bridge)
            del forest  # not alive while the next replicate is simulated
            if rep_report is None:
                n_capped += 1
                continue
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
    grid: TimeGrid,
    tube: Tube,
    *,
    bridge: bool,
    stream: Optional[RngStream] = None,
) -> np.ndarray:
    """Strict tube membership up to ``tube.t_end`` of Brownian paths recorded
    on the whole grid (:func:`bbmlab.forest.brownian_paths`), with the window
    and the bridge correction of the forest counters."""
    times = grid.times()
    center = tube.center(np.minimum(times, tube.horizon))
    radius = tube.radius
    window = times <= tube.t_end + _IDX_EPS * grid.dt
    inside = (np.abs(paths[:, window] - center[window]) < radius).all(axis=1)
    if not bridge:
        return inside.astype(float)
    if stream is None:
        raise ValueError("bridge correction needs a stream")
    # all up-side uniforms, then all down-side ones: kept for byte-identical CSVs
    u = stream.split(BRIDGE_STREAM_TAG).generator().random((2, len(paths), grid.steps))
    rejected = _bridge_rejections(center, radius, paths, np.diff(times), window[1:], *u)
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
    h = dt/T up to the last recorded time <= theta*T, the input format of
    :func:`rough_increment_check`."""
    T, dt = forest.horizon, forest.grid.dt
    xs = lineage_grid_positions(forest, pid, dt * math.floor(theta * T / dt + _IDX_EPS))
    return xs / T, dt / T
