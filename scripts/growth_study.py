#!/usr/bin/env python3
"""Growth-rate convergence study with benchmark refinement.

The variational benchmark is a supremum over all continuous paths; a grid
discretisation can only undershoot it, so this script doubles the grid
resolution until the ball optimum stabilises, then compares the Monte Carlo
growth curve against the refined value.

Usage: python scripts/growth_study.py [config.json]
"""

import sys

from bbmlab import rate
from bbmlab.config import ExperimentConfig, load_config
from bbmlab.counting import growth_curve
from bbmlab.model import RngStream
from bbmlab.paths import Tube


def main() -> int:
    cfg = load_config(sys.argv[1]) if len(sys.argv) > 1 else ExperimentConfig()
    params = cfg.model_params()
    path = cfg.build_path()

    print("benchmark refinement (grid doubling):")
    value = None
    for n in (16, 32, 64, 128, 256):
        q = rate.BallQuery(path, cfg.epsilon, cfg.theta, n)
        rep = rate.max_rate_over_ball(q, params.rm)
        print(f"  n={n:4d}: ball value {rep.ball_value!r}  ({rep.iterations} iterations)")
        value = rep.ball_value

    rows, _ = growth_curve(
        params,
        lambda T: Tube(path, cfg.epsilon, cfg.theta, T),
        cfg.growth_t_sweep,
        cfg.growth_replicates,
        RngStream(cfg.seed, (99,)),
        cfg.steps_per_unit,
        cfg.cap,
        bridge=cfg.bridge_correction,
    )
    print(f"\nempirical growth rates vs benchmark {value!r}:")
    for row in rows:
        print(
            f"  T={row.T:5.1f}: mean {row.mean_rate:8.4f} +- {row.se_rate:6.4f}  "
            f"(nonempty {row.n_nonempty}, empty fraction {row.empty_fraction:.3f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
