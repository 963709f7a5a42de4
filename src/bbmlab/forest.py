"""Exact generation-wise simulation of the branching particle system.

Each particle lives an exponential time with mean 1/r, diffuses as a standard
Brownian motion recorded at the grid times inside its lifetime (plus its birth
and death times), and is replaced at death by a random number of offspring at
its current position. Branch times are exact event times, not per-step
Bernoulli approximations, and Gaussian increments are exact at any spacing, so
the recorded skeleton carries no time-discretisation bias; only tube
membership between recorded times does (see `counting`).

The simulator advances one whole generation per step from an array of seeds.
For a generation of n particles it makes exactly three draws, which define
the random streams: ``exponential(1/r, n)`` for the lifetimes, one
``standard_normal`` call for all k_i + 1 increments of every particle (k_i
recorded grid times; the increments run birth -> first grid time, grid step
by grid step, last grid time -> death), and one offspring draw for the
particles not censored at the horizon (none for a point-mass law). Ids are
breadth-first from the seeds, the order a FIFO queue of particles would give.

Storage is columnar (one numpy array per field across all particles) because
analysis passes are vectorised over the whole forest; `ParticleRecord` is a
per-particle view for callers who want one particle at a time. Particle ids
are assigned in creation order, so a parent always precedes its children.
The builder also keeps ``gen_off``: row offsets of blocks in which every
row's parent comes before the block's first row (one block per generation of
each `grow`, one per row added on its own). `propagate`, the one routine
that inherits a value along lineages, relies on it: one vectorised step per
block finds every parent's value already final.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .model import ModelParams, RngStream, TimeGrid, sample_offspring, sample_offspring_many

__all__ = [
    "Forest",
    "ParticleRecord",
    "simulate_forest",
    "population_at",
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


@dataclass(eq=False, repr=False)
class Forest:
    """Columnar genealogy of one simulated replicate: one array per field
    across all particles, ``xs_flat`` their grid positions back to back
    (particle i owns xs_flat[xs_off[i]:xs_off[i+1]]) and ``gen_off`` the
    builder's block offsets (see the module docstring). A replicate ends
    where its grid ends: ``horizon`` is ``grid.T``."""

    params: ModelParams
    grid: TimeGrid
    horizon: float
    parent: np.ndarray
    gen_off: np.ndarray
    t_birth: np.ndarray
    t_death: np.ndarray
    n_offspring: np.ndarray
    x_birth: np.ndarray
    x_death: np.ndarray
    grid_lo: np.ndarray
    xs_flat: np.ndarray
    xs_off: np.ndarray
    raw_lifetimes: np.ndarray
    capped: bool
    stream: RngStream

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
    """Accumulates particle rows in column chunks; a row's id is its index
    when it is added, so a caller adds each parent before its children.
    Shared by the plain and guided simulators."""

    def __init__(self, grid: TimeGrid, cap: int):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.grid = grid
        self.cap = cap
        self.chunks = []
        self.gen_off = [0]
        self.rows = 0
        self.capped = False

    def add_chunk(self, parent, b, d, n_off, xb, xd, lo, xs, n_grid, raw_life, blocks):
        """One row per entry of ``parent``, with ids from ``rows`` on; ``xs``
        holds the rows' grid positions back to back, ``n_grid`` of them per
        row. ``blocks`` are the sizes of consecutive runs of rows whose
        parents all come before the run."""
        self.chunks.append((parent, b, d, n_off, xb, xd, lo, xs, n_grid, raw_life))
        self.gen_off.extend((self.rows + np.cumsum(blocks)).tolist())
        self.rows += len(parent)
        if self.rows >= self.cap:
            self.capped = True

    def grow(self, b, x, parent, params: ModelParams, rng: np.random.Generator) -> None:
        """Expand the seeds (arrays: children of ``parent``, born at times b
        at positions x) under the natural law one generation per step; ids
        are breadth-first, as a FIFO queue would give them. A generation that
        would pass ``cap`` is cut to its first seeds. Positions wait for the
        genealogy: one pass over all generations turns the drawn normals into
        paths."""
        if self.capped or not len(b):
            return
        dt, horizon = self.grid.dt, self.grid.T
        inv_r = 1.0 / params.r
        first_row = rows = self.rows
        gens, draws = [], []
        while len(b) and rows < self.cap:
            n = min(len(b), self.cap - rows)
            b, parent = b[:n], parent[:n]
            life = rng.exponential(inv_r, n)
            d = np.minimum(b + life, horizon)
            alive = d < horizon
            i0 = np.ceil(b / dt - _IDX_EPS).astype(np.int64)
            k = np.maximum(np.floor(d / dt + _IDX_EPS).astype(np.int64) - i0 + 1, 0)
            draws.append(rng.standard_normal(n + int(k.sum())))
            n_off = np.full(n, -1, dtype=np.int64)
            n_off[alive] = sample_offspring_many(params.offspring, int(np.count_nonzero(alive)), rng)
            gens.append((parent, b, d, n_off, i0, k, life))
            broods = n_off[alive]
            parent = np.repeat(np.arange(rows, rows + n)[alive], broods)
            b = np.repeat(d[alive], broods)
            rows += n
        sizes = [len(g[0]) for g in gens]
        parent, b, d, n_off, i0, k, life = (np.concatenate(col) for col in zip(*gens))
        del gens
        path = np.concatenate(draws)
        del draws
        # k + 1 increments per particle: birth -> first grid time, grid steps,
        # last grid time -> death (one increment birth -> death when k = 0);
        # the two end increments are scaled from their own draws, kept aside
        end = np.cumsum(k + 1)
        start, last = end - (k + 1), end - 1
        inner = k > 0
        z_start, z_last = path[start], path[last[inner]]
        path *= math.sqrt(dt)
        path[start] = z_start * np.sqrt(np.where(inner, np.maximum(i0 * dt - b, 0.0), d - b))
        path[last[inner]] = z_last * np.sqrt(np.maximum(d - (i0 + k - 1) * dt, 0.0)[inner])
        np.cumsum(path, out=path)
        base = np.zeros(len(b))
        base[1:] = path[last[:-1]]
        path -= np.repeat(base, k + 1)
        # the seeds start at x, a later generation where its parents died; a
        # parent's row in this call is its id less the first row's
        xb, xd = np.empty(len(b)), path[last]
        xb[: sizes[0]] = x[: sizes[0]]
        lo = 0
        for size in sizes:
            hi = lo + size
            if lo:
                xb[lo:hi] = xd[parent[lo:hi] - first_row]
            xd[lo:hi] += xb[lo:hi]
            lo = hi
        path += np.repeat(xb, k + 1)
        on_grid = np.ones(len(path), dtype=bool)
        on_grid[last] = False
        self.add_chunk(parent, b, d, n_off, xb, xd, i0, path[on_grid], k, life, sizes)

    def finish(self, params: ModelParams, stream: RngStream) -> Forest:
        """The rows as a forest. A single chunk is used as it is, without a
        copy."""
        dtypes = (np.int64, np.float64, np.float64, np.int64, np.float64, np.float64,
                  np.int64, np.float64, np.int64, np.float64)
        if len(self.chunks) == 1:
            cols = [np.asarray(col, dtype=t) for col, t in zip(self.chunks[0], dtypes)]
        else:
            cols = [np.concatenate(col, dtype=t) for col, t in zip(zip(*self.chunks), dtypes)]
        self.chunks = []
        parent, b, d, n_off, xb, xd, lo, xs, n_grid, life = cols
        return Forest(
            params=params,
            grid=self.grid,
            horizon=self.grid.T,
            parent=parent,
            gen_off=np.array(self.gen_off, dtype=np.int64),
            t_birth=b,
            t_death=d,
            n_offspring=n_off,
            x_birth=xb,
            x_death=xd,
            grid_lo=lo,
            xs_flat=xs,
            xs_off=np.concatenate([[0], np.cumsum(n_grid)]),
            raw_lifetimes=life,
            capped=self.capped,
            stream=stream,
        )


def simulate_forest(
    params: ModelParams,
    grid: TimeGrid,
    stream: RngStream = RngStream(0),
    cap: int = DEFAULT_CAP,
) -> Forest:
    """Simulate one replicate under the natural law from a single particle at
    the origin up to the grid's end time T. A replicate whose record count
    hits ``cap`` is truncated and flagged; capped replicates are kept for
    diagnostics but excluded from estimators by the callers."""
    builder = _Builder(grid, cap)
    builder.grow(np.zeros(1), np.zeros(1), np.array([-1]), params, stream.generator())
    return builder.finish(params, stream)


def population_at(forest: Forest, t: float) -> list[tuple[int, float]]:
    """Particles alive at a recorded time t with their positions.

    Census semantics are right-continuous: at a branch time the offspring are
    alive, the parent is not. Censored particles count as alive up to the
    horizon. A time the grid does not record raises ``ValueError``.
    """
    k = forest.grid.index_of(t)
    mask = forest.alive_mask(k * forest.grid.dt)
    idx = np.flatnonzero(mask)
    pos_idx = forest.xs_off[idx] + (k - forest.grid_lo[idx])
    xs = forest.xs_flat[pos_idx]
    return list(zip(idx.tolist(), xs.tolist()))


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


def brownian_paths(grid: TimeGrid, replicates: int, stream: RngStream) -> np.ndarray:
    """Standard Brownian paths recorded at every time of the grid, one row per
    replicate (the single-particle side of many-to-one identities)."""
    k = grid.steps
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
    roots keep own[i]; one vectorised step per block of ``gen_off``, whose
    rows' parents are all final by then."""
    out = np.array(own, dtype=np.float64)
    parent, off = forest.parent, forest.gen_off.tolist()
    for lo, hi in zip(off[:-1], off[1:]):
        p = parent[lo:hi]
        ufunc(out[p], own[lo:hi], out=out[lo:hi], where=p >= 0)
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
