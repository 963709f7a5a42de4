"""Exact event-driven simulation of the branching particle system.

Each particle lives an exponential time with mean 1/r, diffuses as a standard
Brownian motion recorded at the grid times inside its lifetime (plus its birth
and death times), and is replaced at death by a random number of offspring at
its current position. Branch times are exact event times, not per-step
Bernoulli approximations, and Gaussian increments are exact at any spacing, so
the recorded skeleton carries no time-discretisation bias; only tube
membership between recorded times does (see `counting`).

Storage is columnar (one numpy array per field across all particles) because
analysis passes are vectorised over the whole forest; `ParticleRecord` is a
per-particle view for callers who want one particle at a time. Particle ids
are assigned in creation order, so a parent always precedes its children.
`propagate`, the one routine that inherits a value along lineages, relies on
that invariant (``parent[i] < i``): it makes every particle reachable from a
root, one generation at a time.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterator, Optional

import numpy as np

from .model import ModelParams, RngStream, TimeGrid, sample_offspring

__all__ = [
    "Forest",
    "ParticleRecord",
    "simulate_forest",
    "population_at",
    "population_size",
    "simulate_population_sizes",
    "brownian_paths",
    "lineage",
    "lineage_grid_positions",
    "propagate",
    "dump_jsonl",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 5_000_000
_IDX_EPS = 1e-9  # index-scale tolerance for float time -> grid index


@dataclass(frozen=True)
class ParticleRecord:
    """One particle: genealogy, lifetime, and its recorded trajectory.

    ``times``/``positions`` are the sorted union of the grid times inside
    [birth, death] with the birth and death times themselves. ``n_offspring``
    is -1 for particles censored at the horizon.
    """

    pid: int
    parent: int
    t_birth: float
    t_death: float
    n_offspring: int
    x_birth: float
    x_death: float
    times: np.ndarray
    positions: np.ndarray


class Forest:
    """Columnar genealogy of one simulated replicate."""

    def __init__(
        self,
        params: ModelParams,
        grid: TimeGrid,
        horizon: float,
        parent: np.ndarray,
        t_birth: np.ndarray,
        t_death: np.ndarray,
        n_offspring: np.ndarray,
        x_birth: np.ndarray,
        x_death: np.ndarray,
        grid_lo: np.ndarray,
        xs_flat: np.ndarray,
        xs_off: np.ndarray,
        raw_lifetimes: np.ndarray,
        capped: bool,
        stream: RngStream,
    ):
        self.params = params
        self.grid = grid
        self.horizon = horizon
        self.parent = parent
        self.t_birth = t_birth
        self.t_death = t_death
        self.n_offspring = n_offspring
        self.x_birth = x_birth
        self.x_death = x_death
        self.grid_lo = grid_lo
        self.xs_flat = xs_flat
        self.xs_off = xs_off
        self.raw_lifetimes = raw_lifetimes
        self.capped = capped
        self.stream = stream

    def __len__(self) -> int:
        return len(self.parent)

    def grid_positions(self, i: int) -> np.ndarray:
        """Positions of particle i at its grid times grid_lo[i], grid_lo[i]+1, ..."""
        return self.xs_flat[self.xs_off[i] : self.xs_off[i + 1]]

    def record(self, i: int) -> ParticleRecord:
        dt = self.grid.dt
        b = float(self.t_birth[i])
        d = float(self.t_death[i])
        xs = self.grid_positions(i)
        lo = int(self.grid_lo[i])
        times = np.arange(lo, lo + len(xs)) * dt
        t_parts = [np.array([b]), times, np.array([d])]
        x_parts = [np.array([self.x_birth[i]]), xs, np.array([self.x_death[i]])]
        if len(times) and abs(times[0] - b) < _IDX_EPS * dt:
            t_parts, x_parts = t_parts[1:], x_parts[1:]
        if len(times) and abs(times[-1] - d) < _IDX_EPS * dt:
            t_parts, x_parts = t_parts[:-1], x_parts[:-1]
        return ParticleRecord(
            pid=i,
            parent=int(self.parent[i]),
            t_birth=b,
            t_death=d,
            n_offspring=int(self.n_offspring[i]),
            x_birth=float(self.x_birth[i]),
            x_death=float(self.x_death[i]),
            times=np.concatenate(t_parts),
            positions=np.concatenate(x_parts),
        )

    def records(self) -> Iterator[ParticleRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def alive_mask(self, t: float) -> np.ndarray:
        censored = self.n_offspring == -1
        return (self.t_birth <= t) & ((t < self.t_death) | (censored & (t <= self.t_death)))


class _Builder:
    """Accumulates particle rows; shared by the plain and guided simulators."""

    def __init__(self, grid: TimeGrid, horizon: float, cap: int):
        if horizon > grid.T + _IDX_EPS * grid.dt:
            raise ValueError("horizon exceeds the recording grid")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.grid = grid
        self.horizon = float(horizon)
        self.cap = cap
        self.pid = []
        self.parent = []
        self.t_birth = []
        self.t_death = []
        self.n_off = []
        self.x_birth = []
        self.x_death = []
        self.grid_lo = []
        self.xs = []
        self.raw_life = []
        self.next_pid = 0
        self.capped = False

    def new_pid(self) -> int:
        pid = self.next_pid
        self.next_pid += 1
        return pid

    def add_row(self, pid, parent, b, d, n_off, xb, xd, lo, xs, raw_life):
        self.pid.append(pid)
        self.parent.append(parent)
        self.t_birth.append(b)
        self.t_death.append(d)
        self.n_off.append(n_off)
        self.x_birth.append(xb)
        self.x_death.append(xd)
        self.grid_lo.append(lo)
        self.xs.append(xs)
        self.raw_life.append(raw_life)
        if len(self.pid) >= self.cap:
            self.capped = True

    def grow(self, queue: deque, params: ModelParams, rng: np.random.Generator) -> None:
        """Event-driven expansion of (birth, pid, parent, x) seeds under the
        natural law, FIFO order for reproducibility."""
        grid, horizon = self.grid, self.horizon
        dt = grid.dt
        sqrt = math.sqrt
        sqrt_dt = sqrt(dt)
        inv_r = 1.0 / params.r
        law = params.offspring
        degenerate = law.is_degenerate
        k_fixed = law.pmf[0][0] if degenerate else 0
        while queue:
            if self.capped:
                return
            b, pid, parent, xb = queue.popleft()
            life = rng.exponential(inv_r)
            d = b + life
            censored = d >= horizon
            if censored:
                d = horizon
            i0 = int(math.ceil(b / dt - _IDX_EPS))
            i1 = int(math.floor(d / dt + _IDX_EPS))
            k = i1 - i0 + 1
            if k < 0:
                k = 0
            z = rng.standard_normal(k + 1)
            if k > 0:
                z[0] *= sqrt(max(i0 * dt - b, 0.0))
                z[-1] *= sqrt(max(d - i1 * dt, 0.0))
                if k > 1:
                    z[1:-1] *= sqrt_dt
            else:
                z[0] *= sqrt(d - b)
            path = z.cumsum()
            path += xb
            xd = float(path[-1])
            if censored:
                n_off = -1
            else:
                n_off = k_fixed if degenerate else sample_offspring(law, rng)
                for _ in range(n_off):
                    queue.append((d, self.new_pid(), pid, xd))
            self.add_row(pid, parent, b, d, n_off, xb, xd, i0, path[:-1], life)

    def finish(self, params: ModelParams, stream: RngStream) -> Forest:
        order = np.argsort(np.array(self.pid, dtype=np.int64), kind="stable")
        xs_list = [self.xs[i] for i in order]
        lens = np.array([len(a) for a in xs_list], dtype=np.int64)
        xs_off = np.concatenate([[0], np.cumsum(lens)])
        xs_flat = np.concatenate(xs_list) if xs_list else np.empty(0)
        take = lambda col, dtype: np.array(col, dtype=dtype)[order]
        return Forest(
            params=params,
            grid=self.grid,
            horizon=self.horizon,
            parent=take(self.parent, np.int64),
            t_birth=take(self.t_birth, np.float64),
            t_death=take(self.t_death, np.float64),
            n_offspring=take(self.n_off, np.int64),
            x_birth=take(self.x_birth, np.float64),
            x_death=take(self.x_death, np.float64),
            grid_lo=take(self.grid_lo, np.int64),
            xs_flat=xs_flat,
            xs_off=xs_off,
            raw_lifetimes=take(self.raw_life, np.float64),
            capped=self.capped,
            stream=stream,
        )


def simulate_forest(
    params: ModelParams,
    grid: TimeGrid,
    horizon: Optional[float] = None,
    stream: RngStream = RngStream(0),
    cap: int = DEFAULT_CAP,
) -> Forest:
    """Simulate one replicate under the natural law from a single particle at
    the origin. A replicate whose record count hits ``cap`` is truncated and
    flagged; capped replicates are kept for diagnostics but excluded from
    estimators by the callers."""
    horizon = grid.T if horizon is None else float(horizon)
    builder = _Builder(grid, horizon, cap)
    queue = deque([(0.0, builder.new_pid(), -1, 0.0)])
    builder.grow(queue, params, stream.generator())
    return builder.finish(params, stream)


def population_at(forest: Forest, t: float) -> list[tuple[int, float]]:
    """Particles alive at a recorded time t with their positions.

    Census semantics are right-continuous: at a branch time the offspring are
    alive, the parent is not. Censored particles count as alive up to the
    horizon.
    """
    dt = forest.grid.dt
    k = int(round(t / dt))
    if abs(k * dt - t) > _IDX_EPS * max(dt, 1.0) or t > forest.horizon + _IDX_EPS:
        raise ValueError(f"t={t} is not a recorded time")
    mask = forest.alive_mask(k * dt)
    idx = np.flatnonzero(mask)
    pos_idx = forest.xs_off[idx] + (k - forest.grid_lo[idx])
    xs = forest.xs_flat[pos_idx]
    return list(zip(idx.tolist(), xs.tolist()))


def population_size(forest: Forest, t: float) -> int:
    dt = forest.grid.dt
    k = int(round(t / dt))
    if abs(k * dt - t) > _IDX_EPS * max(dt, 1.0):
        raise ValueError(f"t={t} is not a recorded time")
    return int(np.count_nonzero(forest.alive_mask(k * dt)))


def simulate_population_sizes(
    params: ModelParams, t: float, replicates: int, stream: RngStream
) -> np.ndarray:
    """Population sizes |N(t)| only, skipping spatial simulation entirely.

    With k particles alive the next branch event arrives at rate k*r; this is
    all the pgf and population-martingale checks need.
    """
    law = params.offspring
    out = np.empty(replicates, dtype=np.int64)
    for rep in range(replicates):
        rng = stream.split(rep).generator()
        alive = 1
        clock = rng.exponential(1.0 / params.r)
        while clock <= t:
            alive += sample_offspring(law, rng) - 1
            clock += rng.exponential(1.0 / (alive * params.r))
        out[rep] = alive
    return out


def brownian_paths(grid: TimeGrid, t: float, replicates: int, stream: RngStream) -> np.ndarray:
    """Standard Brownian paths recorded on the grid up to time t, one row per
    replicate (the single-particle side of many-to-one identities)."""
    k = grid.index_of(t)
    rng = stream.generator()
    z = rng.standard_normal((replicates, k)) * math.sqrt(grid.dt)
    out = np.empty((replicates, k + 1))
    out[:, 0] = 0.0
    np.cumsum(z, axis=1, out=out[:, 1:])
    return out


def lineage(forest: Forest, pid: int) -> list[int]:
    """Ancestor chain root -> pid inclusive."""
    chain = [pid]
    while forest.parent[chain[-1]] >= 0:
        chain.append(int(forest.parent[chain[-1]]))
    return chain[::-1]


def lineage_grid_positions(forest: Forest, pid: int, t: float) -> np.ndarray:
    """Ancestral trajectory of ``pid`` at grid times 0..t (t recorded).

    Requires the particle to be alive at t.
    """
    k = forest.grid.index_of(t)
    out = np.empty(k + 1)
    for anc in lineage(forest, pid):
        lo = int(forest.grid_lo[anc])
        xs = forest.grid_positions(anc)
        hi = min(lo + len(xs), k + 1)
        if hi > lo:
            out[lo:hi] = xs[: hi - lo]
    return out


def propagate(forest: Forest, own: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Inherit ``own`` along lineages: out[i] = ufunc(out[parent[i]], own[i]),
    roots keep own[i]; one vectorised step per generation, found from
    ``parent`` alone."""
    out = np.array(own, dtype=np.float64)
    parent = forest.parent
    has_parent = parent >= 0
    ids = np.flatnonzero(~has_parent)
    while len(ids):
        in_generation = np.zeros(len(parent), dtype=bool)
        in_generation[ids] = True
        ids = np.flatnonzero(has_parent & in_generation[parent])
        out[ids] = ufunc(out[parent[ids]], own[ids])
    return out


def dump_jsonl(forest: Forest, fh: IO[str]) -> None:
    """One JSON object per particle: id, parent, birth/death times, offspring
    count (null when censored), and the recorded trajectory."""
    for rec in forest.records():
        row = {
            "id": rec.pid,
            "parent": rec.parent if rec.parent >= 0 else None,
            "birth": rec.t_birth,
            "death": rec.t_death,
            "offspring": rec.n_offspring if rec.n_offspring >= 0 else None,
            "times": [float(v) for v in rec.times],
            "positions": [float(v) for v in rec.positions],
        }
        fh.write(json.dumps(row) + "\n")
