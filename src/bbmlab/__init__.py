"""bbmlab: a Monte Carlo laboratory for path counting in branching Brownian motion.

Simulates the branching system under its natural law and under the
spine-transformed importance-sampling law, counts particles along rescaled
path tubes, computes the variational growth-rate function of ball queries,
and verifies the desk-scale identities that tie them together (martingale
means, population-to-single-path reductions, generating-function bounds,
pathwise inequality sweeps, and an exact evaluator separating pathwise from
mean growth).
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config
from .counting import CountReport, count_family, count_tube, growth_curve
from .forest import Forest, ParticleRecord, population_at, simulate_forest
from .model import DYADIC, ModelParams, OffspringLaw, RngStream, TimeGrid, sample_offspring, size_biased
from .paths import GridPath, SmoothPath, Tube, TubeFamily
from .rate import BallQuery, RateReport, extinction_theta, max_rate_over_ball, min_energy_over_ball, rate_function
from .spine import (
    SpineRecord,
    WeightedForest,
    additive_martingale,
    simulate_guided,
    simulate_spine,
    spine_decomposition,
)

__all__ = [
    "__version__",
    "ExperimentConfig",
    "load_config",
    "CountReport",
    "count_family",
    "count_tube",
    "growth_curve",
    "Forest",
    "ParticleRecord",
    "population_at",
    "simulate_forest",
    "DYADIC",
    "ModelParams",
    "OffspringLaw",
    "RngStream",
    "TimeGrid",
    "sample_offspring",
    "size_biased",
    "GridPath",
    "SmoothPath",
    "Tube",
    "TubeFamily",
    "BallQuery",
    "RateReport",
    "extinction_theta",
    "max_rate_over_ball",
    "min_energy_over_ball",
    "rate_function",
    "SpineRecord",
    "WeightedForest",
    "additive_martingale",
    "simulate_guided",
    "simulate_spine",
    "spine_decomposition",
]
