"""Check records, CSV emission, and the machine-readable run summary.

Some pass/fail lines can be re-derived from the CSVs, the others only by a
rerun at the same seed (:mod:`bbmlab.experiments` says which). CSV rows are
written in a canonical order with shortest round-trip float formatting,
which makes runs with the same seed byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = ["CheckResult", "RunReport", "write_csv", "write_summary", "fmt"]


def fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return fmt(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class CheckResult:
    """One acceptance line: observed value against its benchmark."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    observed: Optional[float] = None
    benchmark: Optional[float] = None
    se: Optional[float] = None
    tolerance: Optional[float] = None
    note: str = ""

    def line(self) -> str:
        parts = [f"[{self.status.upper():4}] {self.name}"]
        if self.observed is not None:
            parts.append(f"observed={fmt(self.observed)}")
        if self.benchmark is not None:
            parts.append(f"benchmark={fmt(self.benchmark)}")
        if self.se is not None:
            parts.append(f"se={fmt(self.se)}")
        if self.tolerance is not None:
            parts.append(f"tol={fmt(self.tolerance)}")
        if self.note:
            parts.append(self.note)
        return "  ".join(parts)


def check_z(name: str, observed: float, benchmark: float, se: float, sigmas: float, note: str = "") -> CheckResult:
    """Benchmark agreement within ``sigmas`` standard errors."""
    ok = abs(observed - benchmark) <= sigmas * se
    return CheckResult(name, "pass" if ok else "fail", observed, benchmark, se, sigmas, note)


def check_bound(name: str, observed: float, limit: float, below: bool = True, note: str = "") -> CheckResult:
    ok = observed <= limit if below else observed >= limit
    return CheckResult(name, "pass" if ok else "fail", observed, limit, None, None, note)


def check_pvalue(name: str, p: float, alpha: float, note: str = "") -> CheckResult:
    """A law check (Kolmogorov-Smirnov, chi-square) passes above ``alpha``."""
    return CheckResult(name, "pass" if p > alpha else "fail", observed=float(p), benchmark=alpha, note=note)


@dataclass
class RunReport:
    """A runner's checks, files and details; its clock starts when it is made
    and :meth:`done` stops it."""

    experiment: str
    checks: list[CheckResult] = field(default_factory=list)
    csv_files: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    _t0: float = field(init=False, repr=False, compare=False, default_factory=time.perf_counter)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def add_capped(self, n_capped: int) -> CheckResult:
        """Fails when an estimator dropped a replicate that hit the cap; a
        nonzero count is also kept in ``details["capped_replicates"]``."""
        if n_capped:
            self.details["capped_replicates"] = n_capped
        return self.add(check_bound("capped_replicates", n_capped, 0, note="replicates dropped at the cap"))

    def done(self) -> "RunReport":
        self.wall_clock = time.perf_counter() - self._t0
        return self

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "observed": _jsonable(c.observed),
                    "benchmark": _jsonable(c.benchmark),
                    "se": _jsonable(c.se),
                    "tolerance": _jsonable(c.tolerance),
                    "note": c.note,
                }
                for c in self.checks
            ],
            "csv_files": self.csv_files,
            "details": _jsonable(self.details),
            "wall_clock_s": round(self.wall_clock, 3),
        }


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_summary(path: Path, reports: list[RunReport], config_echo: dict, versions: dict) -> dict:
    summary = {
        "config": _jsonable(config_echo),
        "versions": versions,
        "experiments": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def versions_dict() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {"bbmlab": __version__, "numpy": numpy.__version__, "scipy": scipy.__version__}
