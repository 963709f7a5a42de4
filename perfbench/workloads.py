"""The four workloads: inputs made from the seed, one round of operations,
the exact per-operation oracles and the workload-level checks.

A round is a fixed list of operations. ``run.py`` repeats rounds; round r of
a seed is always the same work, and the workload-level statistical checks
pool round 0 only, so a run's verdict depends on its seed alone and not on
how many rounds fit in it.

The program is called through module attributes (``forest.simulate_forest``,
``counting.TubeMembership``, ...) so that the traced round sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

import oracles
from spans import RUNNERS, clock

Z_SIGMA = 3.0  # Monte Carlo checks: agreement within this many standard errors
LAW_ALPHA = 1e-3  # KS and chi-square checks pass above this p-value

HERE = Path(__file__).resolve().parent


class PopulationCapped(RuntimeError):
    """The replicate hit the program's particle cap."""


@dataclass(frozen=True)
class Op:
    label: str
    ms: float
    failed: str  # empty when the operation succeeded
    value: object  # what the traced replay must reproduce exactly


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


class Recorder:
    """Collects the operations of one round; times each one."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []

    def add(self, label, ms, failed, value):
        self.ops.append(Op(label, ms, failed, value))

    def timed(self, label, run, judge):
        """Time ``run()``; ``judge(outputs)`` then returns (value, problems)
        outside the timed region. An exception counts the operation failed."""
        span = self.tracer.span("op") if self.tracer is not None else nullcontext()
        t0 = clock()
        try:
            with span:
                outputs = run()
        except Exception as exc:  # one failed operation must not end the run
            self.add(label, (clock() - t0) * 1e3, f"{type(exc).__name__}: {exc}", None)
            return
        ms = (clock() - t0) * 1e3
        value, problems = judge(outputs)
        self.add(label, ms, "; ".join(problems), value)


def _z_check(name, values, expected):
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = math.sqrt(float(arr.var(ddof=1)) / len(arr))
    z = (mean - expected) / se if se > 0 else (0.0 if mean == expected else math.inf)
    return Check(
        name,
        abs(z) <= Z_SIGMA,
        f"mean={mean:.6g} se={se:.3g} expected={expected:.6g} z={z:+.2f} n={len(arr)}",
    )


def _quiet_params(r, offspring):
    # ModelParams warns for every law with m <= 1, dyadic branching included.
    from bbmlab.model import ModelParams, OffspringLaw

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ModelParams(r, OffspringLaw(offspring))


def _flat_tube(epsilon, horizon):
    from bbmlab.config import build_path
    from bbmlab.paths import Tube

    return Tube(build_path({"form": "zero", "kind": "smooth", "boundary": "clamped"}), epsilon, 1.0, horizon)


class Natural:
    """Natural-law replicates: simulate, membership, weights, Z at the
    quarter times, alive and tube counts (dyadic, r = 1, flat tube eps = 0.5,
    T = 6, recording step 0.05, bridge correction on)."""

    name = "natural"
    replicates = 2000  # per round
    T = 6.0
    epsilon = 0.5

    def __init__(self, seed: int, out_dir: Path):
        from bbmlab.model import RngStream, TimeGrid

        self.params = _quiet_params(1.0, {2: 1.0})
        self.grid = TimeGrid(self.T, steps=120, spine_substeps=8)
        self.tube = _flat_tube(self.epsilon, self.T)
        self.times = tuple(k * self.grid.dt for k in (30, 60, 90, 120))
        self.base = RngStream(seed, (1,))

    def run_round(self, r: int, rec: Recorder) -> None:
        from bbmlab import counting, forest, spine

        T, tube = self.T, self.tube

        def judge(out):
            z, alive, count, particles = out
            problems = [] if (z[-1] > 0.0) == (count > 0) else ["Z(T) > 0 differs from tube count > 0"]
            return out, problems

        for i in range(self.replicates):
            stream = self.base.split(r, i)

            def run():
                f = forest.simulate_forest(self.params, self.grid, stream=stream)
                if f.capped:
                    raise PopulationCapped(len(f))
                mem = counting.TubeMembership(f, tube, bridge=True)
                w = spine.TubeWeights(f, tube, mem)
                z = tuple(w.martingale_at(t) for t in self.times)
                alive = int(np.count_nonzero(f.alive_mask(T)))
                return z, alive, int(len(mem.members_at(T))), len(f)

            rec.timed(f"replicate {r}.{i}", run, judge)

    def checks(self, rounds: list[list[Op]]) -> list[Check]:
        vals = [op.value for op in rounds[0] if not op.failed]
        rm = self.params.rm
        out = [
            _z_check(f"natural: mean Z({t:g}) = 1", [v[0][k] for v in vals], 1.0)
            for k, t in enumerate(self.times)
        ]
        out.append(_z_check("natural: mean alive count = e^{rmT}", [v[1] for v in vals], math.exp(rm * self.T)))
        out.append(
            _z_check(
                "natural: mean tube count = e^{rmT} P(strip)",
                [v[2] for v in vals],
                oracles.expected_tube_count(rm, self.T, self.epsilon * self.T),
            )
        )
        return out

    def particles(self, ops: list[Op]) -> int:
        return sum(op.value[3] for op in ops if not op.failed)


class Guided:
    """Spine-law replicates: guided simulation, membership, weights, Z(theta T),
    tube count and the spine decomposition ({2: 1/2, 3: 1/2} law, r = 1, flat
    tube eps = 0.5, T = 5, bridge correction on)."""

    name = "guided"
    replicates = 200  # per round
    T = 5.0
    epsilon = 0.5
    offspring = {2: 0.5, 3: 0.5}

    def __init__(self, seed: int, out_dir: Path):
        from bbmlab.model import RngStream, TimeGrid

        self.params = _quiet_params(1.0, self.offspring)
        self.grid = TimeGrid(self.T, steps=100, spine_substeps=8)
        self.tube = _flat_tube(self.epsilon, self.T)
        self.base = RngStream(seed, (2,))

    def _spine_inside(self, wf) -> bool:
        """Every recorded spine position, read from the forest arrays, lies
        strictly inside the flat tube |x| < eps T."""
        f = wf.forest
        radius = self.epsilon * self.T
        for pid in wf.spine.pids:
            xs = f.xs_flat[f.xs_off[pid] : f.xs_off[pid + 1]]
            if np.any(np.abs(xs) >= radius) or abs(f.x_birth[pid]) >= radius or abs(f.x_death[pid]) >= radius:
                return False
        return True

    def run_round(self, r: int, rec: Recorder) -> None:
        from bbmlab import counting, spine

        T, tube = self.T, self.tube

        def judge(out):
            wf, z, count, decomp = out
            value = (z, count, decomp, wf.spine.gap_draws, wf.spine.offspring, len(wf.forest))
            problems = [] if self._spine_inside(wf) else ["spine left the tube"]
            return value, problems

        for i in range(self.replicates):
            stream = self.base.split(r, i)

            def run():
                wf = spine.simulate_guided(self.params, tube, self.grid, stream=stream)
                if wf.forest.capped:
                    raise PopulationCapped(len(wf.forest))
                mem = counting.TubeMembership(wf.forest, tube, bridge=True)
                w = spine.TubeWeights(wf.forest, tube, mem)
                z = w.martingale_at(T)
                count = int(len(mem.members_at(T)))
                # The decomposition reads only V weights, which the bridge
                # draws do not change; hand it this replicate's weights, as
                # run_martingale_suite does, instead of building a second set.
                wf._weights = w
                return wf, z, count, spine.spine_decomposition(wf, T)

            rec.timed(f"replicate {r}.{i}", run, judge)

    def checks(self, rounds: list[list[Op]]) -> list[Check]:
        vals = [op.value for op in rounds[0] if not op.failed]
        m, r = self.params.m, self.params.r
        gaps = [g for v in vals for g in v[3]]
        ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / ((m + 1.0) * r)))
        broods = [b for v in vals for b in v[4]]
        support = sorted(self.offspring)
        mean = sum(k * p for k, p in self.offspring.items())
        observed = np.array([broods.count(k) for k in support], dtype=float)
        expected = np.array([k * self.offspring[k] / mean for k in support]) * len(broods)
        chi = stats.chisquare(observed, expected)
        ratio = [v[1] / v[0] if v[0] > 0.0 else 0.0 for v in vals]
        return [
            Check("guided: spine gaps ~ Exp((m+1)r), KS", ks.pvalue > LAW_ALPHA,
                  f"p={ks.pvalue:.3g} n={len(gaps)}"),
            Check("guided: spine broods ~ size-biased law, chi-square", chi.pvalue > LAW_ALPHA,
                  f"p={chi.pvalue:.3g} n={len(broods)}"),
            _z_check("guided: mean count/Z = e^{rmT} P(strip)", ratio,
                     oracles.expected_tube_count(self.params.rm, self.T, self.epsilon * self.T)),
            _z_check("guided: mean Z - spine decomposition = 0", [v[0] - v[2] for v in vals], 0.0),
        ]

    def particles(self, ops: list[Op]) -> int:
        return sum(op.value[5] for op in ops if not op.failed)


class Rate:
    """Ball queries on line centres f(s) = a s at n = 64 and n = 256; no
    simulation. The inputs do not depend on the seed: the queries are
    deterministic."""

    name = "rate"
    rm = 1.0
    # (slope a, epsilon, theta): the flat centre, where |a| theta < eps; two
    # interior centres, the second at theta = 1/2 so that theta n is integral
    # at both resolutions; an extinct centre.
    balls = ((0.0, 0.5, 1.0), (1.2, 0.2, 1.0), (-0.9, 0.3, 0.5), (2.5, 0.2, 1.0))
    resolutions = (64, 256)

    def __init__(self, seed: int, out_dir: Path):
        from bbmlab import rate
        from bbmlab.paths import GridPath

        self.queries = [
            (f"a={a:g} eps={eps:g} theta={theta:g} n={n}", (a, eps, theta),
             rate.BallQuery(GridPath.line(a, n), eps, theta, n))
            for n in self.resolutions
            for a, eps, theta in self.balls
        ]

    def run_round(self, r: int, rec: Recorder) -> None:
        from bbmlab import rate

        for label, (a, eps, theta), query in self.queries:

            def judge(rep, a=a, eps=eps, theta=theta, n=query.resolution):
                problems = []
                expected = oracles.line_ball_rate(a, eps, theta, self.rm)
                value = rep.ball_value
                if math.isinf(expected) or math.isinf(value):
                    if value != expected:
                        problems.append(f"value {value!r} != {expected!r}")
                elif abs(value - expected) > 1e-8:
                    problems.append(f"value {value!r} != {expected!r}")
                x = np.asarray(rep.argmax, dtype=np.float64)
                if x[0] != 0.0:
                    problems.append("argmax does not start at 0")
                if np.any(np.abs(x - a * np.arange(n + 1) / n) > eps + 1e-12):
                    problems.append("argmax leaves the ball")
                if math.isfinite(value) and abs(oracles.grid_path_rate(x, theta, self.rm) - value) > 1e-8:
                    problems.append("rate of the argmax differs from ball_value")
                return (value, rep.iterations), problems

            rec.timed(label, lambda query=query: rate.max_rate_over_ball(query, self.rm), judge)

    def checks(self, rounds: list[list[Op]]) -> list[Check]:
        return []


class Sweep:
    """``bbmlab all`` through the CLI entry point on ``sweep.json``, bridge
    correction on; each of the six runners is one operation.

    The seed of the sweep is the one in ``sweep.json``, not ``--seed``: the
    program's twelve 3-SE checks would fail by chance on about one seed in
    thirty, and a run's verdict and failures must not depend on its seed.
    """

    name = "sweep"
    config = HERE / "sweep.json"

    def __init__(self, seed: int, out_dir: Path):
        from bbmlab import cli, experiments  # noqa: F401  (importing cli is part of set-up)
        from bbmlab.config import load_config

        self.cfg = load_config(self.config)
        self.out_dir = out_dir
        self.exit_codes: list[int] = []
        self.rec: Recorder | None = None
        for runner in RUNNERS:
            setattr(experiments, runner, self._operation(runner, getattr(experiments, runner)))

    def _operation(self, runner, fn):
        from bbmlab.reporting import CheckResult, RunReport

        def wrapper(cfg, out_dir=None):
            rec = self.rec
            span = rec.tracer.span(f"experiments.{runner}") if rec.tracer is not None else nullcontext()
            t0 = clock()
            try:
                with span:
                    report = fn(cfg, out_dir)
            except Exception as exc:  # the sweep goes on to the next runner
                rec.add(runner, (clock() - t0) * 1e3, f"{type(exc).__name__}: {exc}", None)
                return RunReport(runner, checks=[CheckResult(runner, "fail", note=repr(exc))])
            ms = (clock() - t0) * 1e3
            digests = tuple((name, _digest(out_dir / name)) for name in report.csv_files)
            problems = []
            if report.details.get("capped_replicates"):
                problems.append("population cap hit")
            if runner == "run_counterexample":
                problems += _counterexample_problems(out_dir / "counterexample_mean.csv")
            rec.add(runner, ms, "; ".join(problems), (report.passed, digests))
            return report

        return wrapper

    def run_round(self, r: int, rec: Recorder) -> None:
        from bbmlab import cli

        self.rec = rec
        out = self.out_dir / ("sweep-traced" if rec.tracer is not None else "sweep")
        argv = ["all", "--config", str(self.config), "--out", str(out), "--bridge-correction"]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if rec.tracer is None:
            self.exit_codes.append(code)
            self.last_out = out

    def checks(self, rounds: list[list[Op]]) -> list[Check]:
        cfg, out = self.cfg, self.last_out
        # every round has the same seed, so every round writes the same bytes
        digests = [[op.value for op in ops] for ops in rounds]
        summary = json.loads((out / "summary.json").read_text())
        failing = [c["name"] for e in summary["experiments"] for c in e["checks"] if c["status"] == "fail"]
        checks = [
            Check("sweep: bbmlab all exits 0 in every round", all(c == 0 for c in self.exit_codes),
                  f"exit codes {sorted(set(self.exit_codes))}; failing checks {failing}"),
            Check("sweep: every round writes byte-identical CSVs", all(d == digests[0] for d in digests),
                  f"{len(digests)} rounds"),
        ]
        z_rows = _read_csv(out / "martingale.csv")
        for t in sorted({row["t"] for row in z_rows}, key=float):
            checks.append(_z_check(f"sweep: martingale.csv mean Z({float(t):g}) = 1",
                                   [float(row["martingale"]) for row in z_rows if row["t"] == t], 1.0))
        alpha, t_pgf = cfg.pgf_alpha, cfg.pgf_time
        checks.append(_z_check("sweep: pgf.csv mean alpha^N = a/(a + (1-a)e^{rt})",
                               [float(row["alpha_power"]) for row in _read_csv(out / "pgf.csv")],
                               alpha / (alpha + (1.0 - alpha) * math.exp(cfg.r * t_pgf))))
        rm = cfg.r * (sum(int(k) * p for k, p in cfg.offspring.items()) - 1.0)
        ones = [float(row["value"]) for row in _read_csv(out / "many_to_one.csv")
                if row["functional"] == "ones" and row["side"] == "forest"]
        checks.append(_z_check("sweep: many_to_one.csv mean |N(t)| = e^{rmt}", ones,
                               math.exp(rm * cfg.many_to_one_time)))
        return checks


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _counterexample_problems(path: Path) -> list[str]:
    """Rows of counterexample_mean.csv that differ from the exact spike
    measure (relative 1e-9) or from the mean rate it gives (relative 1e-12)."""
    bad = []
    for row in _read_csv(path):
        T = float(row["T"])
        got, want = float(row["spike_measure"]), oracles.spike_measure(T)
        if abs(got - want) > 1e-9 * want:
            bad.append(f"T={T:g} spike_measure {got!r} != {want!r}")
        got_rate, want_rate = float(row["mean_rate"]), oracles.spike_mean_log_rate(T)
        if abs(got_rate - want_rate) > 1e-12 * abs(want_rate):
            bad.append(f"T={T:g} mean_rate {got_rate!r} != {want_rate!r}")
    return bad


WORKLOADS = {w.name: w for w in (Natural, Guided, Rate, Sweep)}
