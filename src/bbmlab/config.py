"""Experiment configuration: a flat dataclass, JSON on disk.

The defaults are the standard validation setup (unit branching rate, dyadic
offspring, tube of rescaled radius 0.5 around the flat path, horizon 6).
Every tolerance has a default and can be overridden per config file; reports
echo the configuration they ran under.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .model import ModelParams, OffspringLaw, TimeGrid
from .paths import GridPath, SmoothPath, Tube

__all__ = ["ExperimentConfig", "DEFAULT_TOLERANCES", "load_config", "build_path"]

DEFAULT_TOLERANCES: dict[str, float] = {
    # Monte Carlo identities are accepted within this many standard errors.
    "z_sigma": 3.0,
    # law checks (Kolmogorov-Smirnov / chi-square) pass above this p-value
    "law_alpha": 1e-3,
    # guided-spine integrator quality gate
    "clamp_rate_max": 0.01,
    # growth-rate agreement with the optimizer benchmark at the largest horizon
    "growth_abs": 0.15,
    # fraction of empty replicates required for an extinct ball
    "empty_fraction_min": 0.99,
    # exact-evaluator mean growth window
    "counterexample_mean_tol": 1e-3,
    # tail-mass surrogate threshold E[Z; Z > tail_cut]
    "tail_mass_max": 0.05,
    "tail_cut": 50.0,
}


def build_path(spec: dict):
    """Construct a path from its config description.

    ``form`` is one of zero | line | parabola | explicit, rendered either as a
    C^2 spline (``kind: smooth``, default) or a piecewise-linear grid path;
    ``boundary`` applies to splines ("clamped" pins f'(0)=0).
    """
    form = spec.get("form", "zero")
    kind = spec.get("kind", "smooth")
    n = int(spec.get("resolution", 16))
    boundary = spec.get("boundary", "clamped")
    if form == "zero":
        fn = lambda s: 0.0
    elif form == "line":
        slope = float(spec["slope"])
        fn = lambda s: slope * s
    elif form == "parabola":
        coef = float(spec["coefficient"])
        fn = lambda s: coef * s * s
    elif form == "explicit":
        values = tuple(float(v) for v in spec["values"])
        if kind == "grid":
            return GridPath(values)
        return SmoothPath(values, boundary=boundary)
    else:
        raise ValueError(f"unknown path form {form!r}")
    if kind == "grid":
        return GridPath.from_function(fn, n)
    return SmoothPath.from_function(fn, n, boundary=boundary)


@dataclass
class ExperimentConfig:
    name: str = "standard"
    r: float = 1.0
    offspring: dict[int, float] = field(default_factory=lambda: {2: 1.0})
    steps_per_unit: int = 20
    spine_substeps: int = 8
    # tube / ball specification at the rescaled level
    path: dict = field(default_factory=lambda: {"form": "zero", "kind": "smooth", "boundary": "clamped"})
    epsilon: float = 0.5
    theta: float = 1.0
    horizon: float = 6.0
    # replicate budgets
    replicates: int = 10_000
    spine_replicates: int = 1_000
    bound_sweep_replicates: int = 200
    tail_replicates: int = 800
    tail_sweep: tuple[float, ...] = (4.0, 6.0, 8.0)
    # cross-measure consistency block (small horizon so direct MC is feasible)
    cross_horizon: float = 4.0
    cross_replicates: int = 2_000
    # envelope check may need a smaller tube radius than the main experiments
    envelope_epsilon: Optional[float] = None
    # growth experiment
    growth_t_sweep: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0)
    growth_replicates: int = 150
    extinct_slope: float = 2.5
    extinct_epsilon: float = 0.2
    extinct_horizon: float = 8.0
    extinct_replicates: int = 300
    ball_resolution: int = 64
    # many-to-one / pgf experiments
    many_to_one_time: float = 5.0
    many_to_one_replicates: int = 3_000
    pgf_alpha: float = 0.5
    pgf_time: float = 2.0
    pgf_replicates: int = 30_000
    # path-roughness diagnostic
    roughness_n: int = 50
    roughness_lineages: int = 1_000
    roughness_replicates: int = 50
    # plumbing
    seed: int = 20260810
    cap: int = 5_000_000
    bridge_correction: bool = False
    out: str = "out"
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        self.offspring = {int(k): float(v) for k, v in self.offspring.items()}
        self.tolerances = {**DEFAULT_TOLERANCES, **self.tolerances}
        self.growth_t_sweep = tuple(float(t) for t in self.growth_t_sweep)
        self.tail_sweep = tuple(float(t) for t in self.tail_sweep)

    # ---- derived objects -------------------------------------------------
    def offspring_law(self) -> OffspringLaw:
        return OffspringLaw(self.offspring)

    def model_params(self) -> ModelParams:
        return ModelParams(self.r, self.offspring_law())

    def grid(self, horizon: Optional[float] = None) -> TimeGrid:
        T = self.horizon if horizon is None else horizon
        return TimeGrid(T, steps=max(1, int(round(T * self.steps_per_unit))), spine_substeps=self.spine_substeps)

    def build_path(self):
        return build_path(self.path)

    def tube(self, horizon: Optional[float] = None, epsilon: Optional[float] = None) -> Tube:
        return Tube(
            self.build_path(),
            self.epsilon if epsilon is None else epsilon,
            self.theta,
            self.horizon if horizon is None else horizon,
        )

    def tol(self, key: str) -> float:
        return self.tolerances[key]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["offspring"] = {str(k): v for k, v in d["offspring"].items()}
        return d

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    raw = json.loads(Path(path).read_text())
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**raw)
