"""Exact generation-wise simulation of the branching particle system.

Each particle lives an exponential time with mean 1/r, diffuses as a standard
Brownian motion recorded at the grid times inside its lifetime (plus its birth
and death times), and is replaced at death by a random number of offspring at
its current position. Branch times are exact event times, not per-step
Bernoulli approximations, and Gaussian increments are exact at any spacing, so
the recorded skeleton carries no time-discretisation bias; only tube
membership between recorded times does (see `counting`).

The simulator advances one whole generation per step. For a generation of n
particles it makes exactly three draws, which define the random streams:
``exponential(1/r, n)`` for the lifetimes, one ``standard_normal`` call for
all k_i + 1 increments of every particle (k_i recorded grid times; the
increments run birth -> first grid time, grid step by grid step, last grid
time -> death), and one offspring draw for the particles not censored at the
horizon (none for a point-mass law). Ids are breadth-first from the seed,
the order a FIFO queue of particles would give.

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
from dataclasses import dataclass
from typing import IO, Iterator, Optional

import numpy as np

from .model import ModelParams, RngStream, TimeGrid, sample_offspring, sample_offspring_many

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
    """Accumulates particle rows in column chunks, in any id order; shared by
    the plain and guided simulators."""

    def __init__(self, grid: TimeGrid, horizon: float, cap: int):
        if horizon > grid.T + _IDX_EPS * grid.dt:
            raise ValueError("horizon exceeds the recording grid")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.grid = grid
        self.horizon = float(horizon)
        self.cap = cap
        self.chunks = []
        self.rows = 0
        self.next_pid = 0
        self.capped = False

    def new_pids(self, n: int) -> int:
        """Reserve n consecutive ids and return the first."""
        first = self.next_pid
        self.next_pid += n
        return first

    def add_chunk(self, pid, parent, b, d, n_off, xb, xd, lo, xs, n_grid, raw_life):
        """One row per entry of ``pid``; ``xs`` holds the rows' grid positions
        back to back, ``n_grid`` of them per row."""
        self.chunks.append((pid, parent, b, d, n_off, xb, xd, lo, xs, n_grid, raw_life))
        self.rows += len(pid)
        if self.rows >= self.cap:
            self.capped = True

    def grow(self, b: float, x: float, pid: int, parent: int, params: ModelParams,
             rng: np.random.Generator) -> None:
        """Expand seed ``pid`` (born at time b at position x) under the natural
        law one generation per step; ids are breadth-first, as a FIFO queue
        would give them. A generation that would pass ``cap`` is cut to its
        first seeds. Positions wait for the genealogy: one pass over all
        generations turns the drawn normals into paths."""
        if self.capped:
            return
        dt, horizon = self.grid.dt, self.horizon
        inv_r = 1.0 / params.r
        rows, gens = self.rows, []
        b, ids, parent = np.array([b], dtype=np.float64), np.array([pid]), np.array([parent])
        while len(b) and rows < self.cap:
            n = min(len(b), self.cap - rows)
            b, ids, parent = b[:n], ids[:n], parent[:n]
            life = rng.exponential(inv_r, n)
            d = np.minimum(b + life, horizon)
            alive = d < horizon
            i0 = np.ceil(b / dt - _IDX_EPS).astype(np.int64)
            k = np.maximum(np.floor(d / dt + _IDX_EPS).astype(np.int64) - i0 + 1, 0)
            z = rng.standard_normal(n + int(k.sum()))
            n_off = np.full(n, -1, dtype=np.int64)
            n_off[alive] = sample_offspring_many(params.offspring, int(np.count_nonzero(alive)), rng)
            gens.append((ids, parent, b, d, n_off, i0, k, z, life))
            rows += n
            broods = n_off[alive]
            parent = np.repeat(ids[alive], broods)
            b = np.repeat(d[alive], broods)
            first = self.new_pids(len(b))
            ids = np.arange(first, first + len(b))
        ids, parent, b, d, n_off, i0, k, path, life = (np.concatenate(col) for col in zip(*gens))
        # k + 1 increments per particle: birth -> first grid time, grid steps,
        # last grid time -> death (one increment birth -> death when k = 0)
        end = np.cumsum(k + 1)
        start, last = end - (k + 1), end - 1
        inner = k > 0
        scale = np.full(len(path), math.sqrt(dt))
        scale[start] = np.sqrt(np.where(inner, np.maximum(i0 * dt - b, 0.0), d - b))
        scale[last[inner]] = np.sqrt(np.maximum(d - (i0 + k - 1) * dt, 0.0)[inner])
        path *= scale
        np.cumsum(path, out=path)
        base = np.zeros(len(b))
        base[1:] = path[last[:-1]]
        path -= np.repeat(base, k + 1)
        # a generation starts where its parents died; a generation's ids are
        # consecutive, so a parent's row is its id less ``shift``, the first
        # id of the parents' generation less that generation's first row
        xb, xd = np.full(len(b), float(x)), path[last]
        lo, shift = 0, 0
        for g in gens:
            hi = lo + len(g[0])
            if lo:
                xb[lo:hi] = xd[parent[lo:hi] - shift]
            xd[lo:hi] += xb[lo:hi]
            lo, shift = hi, g[0][0] - lo
        path += np.repeat(xb, k + 1)
        on_grid = np.ones(len(path), dtype=bool)
        on_grid[last] = False
        self.add_chunk(ids, parent, b, d, n_off, xb, xd, i0, path[on_grid], k, life)

    def finish(self, params: ModelParams, stream: RngStream) -> Forest:
        dtypes = (np.int64, np.int64, np.float64, np.float64, np.int64, np.float64, np.float64,
                  np.int64, np.float64, np.int64, np.float64)
        pid, parent, b, d, n_off, xb, xd, lo, xs, n_grid, life = (
            np.concatenate(col, dtype=t) for col, t in zip(zip(*self.chunks), dtypes)
        )
        order = np.argsort(pid, kind="stable")
        xs_off = np.concatenate([[0], np.cumsum(n_grid[order])])
        # grid positions follow their rows into id order
        xs_start = (np.cumsum(n_grid) - n_grid)[order]
        xs = xs[np.repeat(xs_start - xs_off[:-1], n_grid[order]) + np.arange(len(xs))]
        return Forest(
            params=params,
            grid=self.grid,
            horizon=self.horizon,
            parent=parent[order],
            t_birth=b[order],
            t_death=d[order],
            n_offspring=n_off[order],
            x_birth=xb[order],
            x_death=xd[order],
            grid_lo=lo[order],
            xs_flat=xs,
            xs_off=xs_off,
            raw_lifetimes=life[order],
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
    builder.grow(0.0, 0.0, builder.new_pids(1), -1, params, stream.generator())
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
