"""Shared domain types: offspring laws, model parameters, time grids, RNG streams.

Everything here is immutable after construction and safe to share across
threads. Randomness is always routed through :class:`RngStream` so that any
quantity in the package is reproducible from a seed and a stream id, and
replicate-parallel runs are order independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "OffspringLaw",
    "ModelParams",
    "TimeGrid",
    "RngStream",
    "DYADIC",
    "size_biased",
    "sample_offspring",
    "sample_offspring_many",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class OffspringLaw:
    """Finitely supported offspring distribution on {2, 3, ...}.

    ``pmf`` may be given as any mapping ``k -> probability``; it is normalised
    to a sorted tuple of pairs. Finite support keeps sampling exact and makes
    the log-moment sum(k log k p_k) automatically finite.
    """

    pmf: tuple[tuple[int, float], ...]

    def __init__(self, pmf: Mapping[int, float] | tuple[tuple[int, float], ...]):
        items = tuple(sorted((int(k), float(p)) for k, p in dict(pmf).items()))
        if not items:
            raise ValueError("offspring pmf is empty")
        for k, p in items:
            if k < 2:
                raise ValueError(f"offspring support must lie in {{2,3,...}}, got {k}")
            if p < 0.0:
                raise ValueError(f"negative probability {p} for k={k}")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"offspring probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "pmf", items)
        ks = np.array([k for k, _ in items], dtype=np.int64)
        ps = np.array([p for _, p in items], dtype=np.float64)
        object.__setattr__(self, "_ks", ks)
        object.__setattr__(self, "_ps", ps)
        object.__setattr__(self, "_cum", np.cumsum(ps))

    @property
    def mean(self) -> float:
        return float(np.dot(self._ks, self._ps))

    @property
    def m(self) -> float:
        """Mean number of offspring minus one (the net growth multiplier)."""
        return self.mean - 1.0

    @property
    def a_log_a(self) -> float:
        return float(np.dot(self._ks * np.log(self._ks), self._ps))

    @property
    def is_degenerate(self) -> bool:
        """True when the law is a point mass (a single atom)."""
        return len(self.pmf) == 1


DYADIC = OffspringLaw({2: 1.0})


def size_biased(law: OffspringLaw) -> OffspringLaw:
    """Reweight an offspring law proportionally to the offspring count.

    Returns the law q_k = k p_k / mean. The support is unchanged and the
    mean can only go up.
    """
    mean = law.mean
    return OffspringLaw({k: k * p / mean for k, p in law.pmf})


def sample_offspring(law: OffspringLaw, rng: np.random.Generator) -> int:
    """Draw one offspring count from ``law``.

    Point masses short-circuit without consuming randomness, which keeps
    dyadic simulations cheap.
    """
    if law.is_degenerate:
        return int(law.pmf[0][0])
    idx = int(np.searchsorted(law._cum, rng.random(), side="right"))
    return int(law._ks[min(idx, len(law.pmf) - 1)])


def sample_offspring_many(law: OffspringLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    if law.is_degenerate:
        return np.full(size, law.pmf[0][0], dtype=np.int64)
    idx = np.searchsorted(law._cum, rng.random(size), side="right")
    return law._ks[np.minimum(idx, len(law.pmf) - 1)]


@dataclass(frozen=True)
class ModelParams:
    """Branching rate and offspring law of the particle system.

    Lifetimes are exponential with mean ``1/r``. Offspring counts are at
    least 2, so m >= 1; m = 1 is the standard binary branching Brownian
    motion.
    """

    r: float
    offspring: OffspringLaw

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"branching rate must be positive, got {self.r}")

    @property
    def m(self) -> float:
        return self.offspring.m

    @property
    def rm(self) -> float:
        """Malthusian growth exponent r*m of the expected population."""
        return self.r * self.offspring.m


@dataclass(frozen=True)
class TimeGrid:
    """Recording grid: positions are stored at times k*T/steps, k = 0..steps.

    ``spine_substeps`` is accepted and validated but read by nothing: the
    guided spine is sampled exactly at the recorded times. It stays because
    ``perfbench/workloads.py`` constructs ``TimeGrid(..., spine_substeps=8)``.
    """

    T: float
    steps: int
    spine_substeps: int = 8

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError(f"grid horizon must be positive, got {self.T}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.spine_substeps < 1:
            raise ValueError("spine_substeps must be >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def index_of(self, t: float) -> int:
        """Grid index of a recorded time; raises if ``t`` is off-grid."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.steps or abs(k * self.dt - t) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"t={t} is not a recorded time of the grid")
        return k


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream id) -> reproducible generator.

    Distinct (seed, stream) pairs yield statistically independent streams and
    the same pair always reproduces the identical sequence, so replicates can
    be simulated in any order without affecting results.
    """

    seed: int
    stream: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for part in self.stream:
            if part < 0 or part >= 2**32:
                raise ValueError("stream id components must be uint32")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, *ids: int) -> "RngStream":
        """Derive a child stream by extending the stream id."""
        return RngStream(self.seed, self.stream + tuple(int(i) for i in ids))
