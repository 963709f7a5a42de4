"""Command-line entry point.

Every subcommand loads a JSON config (defaults when omitted), applies the
common flag overrides, runs its experiment, writes per-replicate CSVs plus a
machine-readable ``summary.json`` into the output directory, prints one line
per check, and exits 0 iff every non-skipped check passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .experiments import (
    run_all,
    run_counterexample,
    run_diagnose_paths,
    run_growth,
    run_many_to_one,
    run_martingale_suite,
    run_pgf_bound,
    run_rate_query,
    run_simulate,
)
from .reporting import write_summary, versions_dict

_RUNNERS = {
    "simulate": run_simulate,
    "rate": run_rate_query,
    "growth": run_growth,
    "martingale": run_martingale_suite,
    "many-to-one": run_many_to_one,
    "pgf": run_pgf_bound,
    "counterexample": run_counterexample,
    "diagnose-paths": run_diagnose_paths,
    "all": run_all,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbmlab",
        description="Monte Carlo laboratory for path counting in branching Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument(
            "--replicates",
            type=int,
            default=None,
            help="override `replicates`, the natural-law martingale budget "
            "(other budgets come from the config)",
        )
        p.add_argument(
            "--bridge-correction",
            action="store_true",
            default=None,
            help="enable the Brownian-bridge boundary-crossing correction",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.bridge_correction is not None:
        overrides["bridge_correction"] = True
    if overrides:
        cfg = cfg.replace(**overrides)

    out_dir = Path(cfg.out)
    runner = _RUNNERS[args.command]
    result = runner(cfg, out_dir)
    reports = result if isinstance(result, list) else [result]
    for report in reports:
        for check in report.checks:
            print(check.line())
    write_summary(out_dir / "summary.json", reports, cfg.to_dict(), versions_dict())
    ok = all(r.passed for r in reports)
    print(f"summary: {'PASS' if ok else 'FAIL'} ({out_dir / 'summary.json'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
