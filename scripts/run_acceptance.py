#!/usr/bin/env python3
"""Run the full verification sweep with the standard configuration.

Equivalent to `bbmlab all --out out/acceptance`: the default configuration,
whose Brownian-bridge membership correction is on, so the identity-checking
experiments run the way the acceptance suite runs them. Writes per-replicate
CSVs and summary.json; exits 0 iff every non-skipped check passed.
"""

import sys
from pathlib import Path

from bbmlab.cli import main

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out/acceptance"
    Path(out).mkdir(parents=True, exist_ok=True)
    sys.exit(main(["all", "--out", out]))
