"""Named experiments: reproducible Monte Carlo verification runs.

Each runner simulates from streams derived deterministically from the config
seed, writes per-replicate CSVs, and returns a :class:`RunReport` whose
pass/fail lines are recomputable from those CSVs. Monte Carlo identities are
accepted within a 3-standard-error band by default; deterministic quantities
carry explicit absolute bands. Checks whose mathematical hypotheses are not
met by the configuration are reported as skipped, not failed.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import stats as sstats

from . import counting, rate, spine
from .config import ExperimentConfig
from .counting import TubeMembership, count_tube, growth_curve, lineage_sup_abs
from .forest import brownian_paths, dump_jsonl, simulate_forest, simulate_population_sizes
from .model import RngStream, size_biased
from .paths import GridPath, SmoothPath, Tube
from .reporting import CheckResult, RunReport, check_bound, check_z, write_csv

__all__ = [
    "run_many_to_one",
    "run_pgf_bound",
    "run_martingale_suite",
    "run_growth",
    "run_counterexample",
    "run_simulate",
    "run_rate_query",
    "run_diagnose_paths",
    "run_all",
    "counterexample_value",
    "counterexample_log_value",
    "counterexample_mean_measure",
    "counterexample_mean_log_rate",
]

# stream-id namespaces per experiment, so no two runners share randomness
_S_MANY = 1
_S_PGF = 2
_S_MEANONE = 3
_S_SPINE = 4
_S_TAIL = 5
_S_CROSS_DIRECT = 6
_S_CROSS_GUIDED = 7
_S_ENVELOPE = 8
_S_GROWTH = 9
_S_SIM = 10
_S_DIAG = 11

_NO_GUIDED = "no uncapped guided replicates"


def _pooled_se(*ses: float) -> float:
    return math.sqrt(sum(se * se for se in ses))


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) == 0:
        return math.nan, math.inf
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.inf
    return float(arr.mean()), se


# ---------------------------------------------------------------------------
# many-to-one
# ---------------------------------------------------------------------------

def run_many_to_one(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Population sums versus e^{rmt} times a single-Brownian-path average.

    Three functionals: the constant 1, the tube-lineage indicator, and a
    bounded exponential path functional exp(-sup|X|/t).
    """
    t0 = time.perf_counter()
    report = RunReport("many_to_one")
    params = cfg.model_params()
    t = cfg.many_to_one_time
    grid = cfg.grid(t)
    tube = cfg.tube(horizon=t)
    R = cfg.many_to_one_replicates
    base = RngStream(cfg.seed, (_S_MANY,))

    lhs_ones, lhs_tube, lhs_exp = [], [], []
    n_capped = 0
    for rep in range(R):
        forest = simulate_forest(params, grid, stream=base.split(0, rep), cap=cfg.cap)
        if forest.capped:
            n_capped += 1
            continue
        alive = np.flatnonzero(forest.alive_mask(t))
        lhs_ones.append(float(len(alive)))
        mem = TubeMembership(forest, tube, bridge=cfg.bridge_correction)
        lhs_tube.append(float(len(mem.members_at(t))))
        sup = lineage_sup_abs(forest, t)
        lhs_exp.append(float(np.exp(-sup[alive] / t).sum()))

    paths = brownian_paths(grid, t, R, base.split(1))
    growth = math.exp(params.rm * t)
    rhs_tube_raw = counting.brownian_tube_indicator(
        paths, grid.times(), tube, bridge=cfg.bridge_correction, stream=base.split(2)
    )
    rhs_exp_raw = np.exp(-np.abs(paths).max(axis=1) / t)

    rows = []
    for name, lhs_vals, rhs_vals, rhs_exact in (
        ("ones", lhs_ones, None, 1.0),
        ("tube_indicator", lhs_tube, rhs_tube_raw, None),
        ("exp_sup", lhs_exp, rhs_exp_raw, None),
    ):
        lhs_mean, lhs_se = _mean_se(lhs_vals)
        if rhs_vals is None:
            rhs_mean, rhs_se = growth * rhs_exact, 0.0
        else:
            m, s = _mean_se(rhs_vals)
            rhs_mean, rhs_se = growth * m, growth * s
        se = _pooled_se(lhs_se, rhs_se)
        report.add(
            check_z(f"many_to_one[{name}]", lhs_mean, rhs_mean, se, cfg.tol("z_sigma"))
        )
        for i, v in enumerate(lhs_vals):
            rows.append((name, "forest", i, v))
        if rhs_vals is not None:
            for i, v in enumerate(rhs_vals):
                rows.append((name, "brownian", i, float(v)))
    if n_capped:
        report.details["capped_replicates"] = n_capped
    if out_dir is not None:
        p = out_dir / "many_to_one.csv"
        write_csv(p, ["functional", "side", "replicate", "value"], rows)
        report.csv_files.append(p.name)
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# probability generating function bound
# ---------------------------------------------------------------------------

def run_pgf_bound(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """E[alpha^{|N(t)|}] against alpha/(alpha + (1-alpha) e^{rt}).

    Equality for strictly dyadic branching, an upper bound otherwise.
    """
    t0 = time.perf_counter()
    report = RunReport("pgf_bound")
    params = cfg.model_params()
    alpha, t = cfg.pgf_alpha, cfg.pgf_time
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    counts = simulate_population_sizes(params, t, cfg.pgf_replicates, RngStream(cfg.seed, (_S_PGF,)))
    vals = alpha ** counts.astype(np.float64)
    mc, se = _mean_se(vals)
    closed = alpha / (alpha + (1.0 - alpha) * math.exp(params.r * t))
    dyadic = params.offspring.is_degenerate and params.offspring.pmf[0][0] == 2
    if dyadic:
        report.add(check_z("pgf[dyadic equality]", mc, closed, se, cfg.tol("z_sigma")))
    else:
        limit = closed + cfg.tol("z_sigma") * se
        report.add(
            check_bound("pgf[upper bound]", mc, limit, note=f"closed_form={closed!r}")
        )
    report.details["closed_form"] = closed
    if out_dir is not None:
        p = out_dir / "pgf.csv"
        write_csv(
            p,
            ["replicate", "population", "alpha_power"],
            [(i, int(c), float(v)) for i, (c, v) in enumerate(zip(counts, vals))],
        )
        report.csv_files.append(p.name)
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# martingale suite
# ---------------------------------------------------------------------------

def _quarter_times(cfg: ExperimentConfig) -> list[float]:
    grid = cfg.grid()
    t_end = cfg.theta * cfg.horizon
    out = []
    for frac in (0.25, 0.5, 0.75, 1.0):
        k = int(round(frac * t_end / grid.dt))
        out.append(k * grid.dt)
    return sorted(set(out))


def run_martingale_suite(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Mean-one checks, guided-law spine checks, pathwise inequality sweeps,
    the cross-measure consistency block, and the tail-mass surrogate."""
    t0 = time.perf_counter()
    report = RunReport("martingale_suite")
    params = cfg.model_params()
    grid = cfg.grid()
    tube = cfg.tube()
    path = tube.path
    smooth = isinstance(path, SmoothPath)
    t_eval = _quarter_times(cfg)
    t_end = tube.t_end
    sigmas = cfg.tol("z_sigma")

    # -- natural-law block: Z mean-one, inequality sweeps ------------------
    z_rows = []
    bound_rows = []
    z_by_t = {t: [] for t in t_eval}
    bound_failures = 0
    bound_particles = 0
    lemma7_failures = 0
    n_capped = 0
    base = RngStream(cfg.seed, (_S_MEANONE,))
    sweep_reps = min(cfg.bound_sweep_replicates, cfg.replicates)
    for rep in range(cfg.replicates):
        forest = simulate_forest(params, grid, stream=base.split(rep), cap=cfg.cap)
        if forest.capped:
            n_capped += 1
            continue
        mem = TubeMembership(forest, tube, bridge=cfg.bridge_correction)
        weights = spine.TubeWeights(forest, tube, mem)
        for t in t_eval:
            z = weights.martingale_at(t)
            z_by_t[t].append(z)
            z_rows.append((rep, t, z))
        if smooth and rep < sweep_reps:
            members = mem.members_at(t_end)
            chk = spine.integral_bound_check(forest, members, t_end, tube, weights)
            rep_fail = int(np.count_nonzero(~chk.holds))
            bound_particles += len(members)
            bound_failures += rep_fail
            z, count, bound, holds = spine.count_bound_check(forest, tube, weights)
            lemma7_failures += 0 if holds else 1
            bound_rows.append((rep, len(members), rep_fail, z, bound, int(holds)))
    for t in t_eval:
        mean, se = _mean_se(z_by_t[t])
        report.add(check_z(f"martingale_mean_one[t={t:g}]", mean, 1.0, se, sigmas))
    if smooth:
        report.add(
            CheckResult(
                "integral_bound[in-tube particles]",
                "pass" if bound_failures == 0 else "fail",
                observed=bound_failures,
                benchmark=0,
                note=f"{bound_particles} particles over {sweep_reps} replicates",
            )
        )
        report.add(
            CheckResult(
                "count_bound[per replicate]",
                "pass" if lemma7_failures == 0 else "fail",
                observed=lemma7_failures,
                benchmark=0,
                note=f"{sweep_reps} replicates",
            )
        )
    else:
        report.add(CheckResult("integral_bound", "skip", note="needs a smooth path"))
        report.add(CheckResult("count_bound", "skip", note="needs a smooth path"))

    # -- guided-law block ---------------------------------------------------
    gaps, broods, diffs = [], [], []
    spine_rows = []
    in_tube_ok = True
    steps_total = clamps_total = 0
    if smooth:
        qbase = RngStream(cfg.seed, (_S_SPINE,))
        for rep in range(cfg.spine_replicates):
            wf = spine.simulate_guided(params, tube, grid, stream=qbase.split(rep), cap=cfg.cap)
            if wf.forest.capped:
                n_capped += 1
                continue
            gaps.extend(wf.spine.gap_draws)
            broods.extend(wf.spine.offspring)
            steps_total += wf.spine.n_steps
            clamps_total += wf.spine.n_clamped
            w = wf.weights()
            pids = np.asarray(wf.spine.pids)
            in_tube_ok &= bool(np.all(w.membership.first_exit[pids] > np.minimum(wf.forest.t_death[pids], t_end)))
            z_q = w.martingale_at(t_end)
            decomp = spine.spine_decomposition(wf, t_end)
            diffs.append(z_q - decomp)
            spine_rows.append(
                (rep, t_end, z_q, decomp, wf.spine.n_clamped, len(w.membership.members_at(t_end)))
            )
        if diffs:
            rate_spine = (params.m + 1.0) * params.r
            ks = sstats.kstest(gaps, "expon", args=(0.0, 1.0 / rate_spine))
            report.add(
                CheckResult(
                    "spine_gap_law[KS vs Exp((m+1)r)]",
                    "pass" if ks.pvalue > cfg.tol("law_alpha") else "fail",
                    observed=float(ks.pvalue),
                    benchmark=cfg.tol("law_alpha"),
                    note=f"{len(gaps)} gap draws",
                )
            )
            biased = size_biased(params.offspring)
            if biased.is_degenerate:
                only = biased.pmf[0][0]
                ok = all(b == only for b in broods)
                report.add(
                    CheckResult(
                        "spine_offspring_law[point mass]",
                        "pass" if ok else "fail",
                        observed=float(sum(b != only for b in broods)),
                        benchmark=0.0,
                    )
                )
            else:
                ks_list = [k for k, _ in biased.pmf]
                observed = np.array([broods.count(k) for k in ks_list], dtype=float)
                expected = np.array([p for _, p in biased.pmf]) * len(broods)
                chi = sstats.chisquare(observed, expected)
                report.add(
                    CheckResult(
                        "spine_offspring_law[chi-square vs size-biased]",
                        "pass" if chi.pvalue > cfg.tol("law_alpha") else "fail",
                        observed=float(chi.pvalue),
                        benchmark=cfg.tol("law_alpha"),
                        note=f"{len(broods)} births",
                    )
                )
        else:
            for name in ("spine_gap_law", "spine_offspring_law"):
                report.add(CheckResult(name, "fail", note=_NO_GUIDED))
        report.add(
            CheckResult(
                "spine_in_tube[all recorded points]",
                "pass" if in_tube_ok else "fail",
                observed=1.0 if in_tube_ok else 0.0,
                benchmark=1.0,
            )
        )
        clamp_rate = clamps_total / steps_total if steps_total else 0.0
        report.add(
            check_bound("spine_clamp_rate", clamp_rate, cfg.tol("clamp_rate_max"), note=f"{steps_total} proposals")
        )
        if diffs:
            dmean, dse = _mean_se(diffs)
            report.add(
                check_z("decomposition_vs_martingale[guided mean]", dmean, 0.0, dse, sigmas,
                        note="paired difference")
            )
        else:
            report.add(CheckResult("decomposition_vs_martingale", "fail", note=_NO_GUIDED))
    else:
        for name in ("spine_gap_law", "spine_offspring_law", "spine_in_tube", "spine_clamp_rate",
                     "decomposition_vs_martingale"):
            report.add(CheckResult(name, "skip", note="needs a smooth path"))

    # -- envelope check (hypothesis gated) ----------------------------------
    if smooth:
        env_eps = cfg.envelope_epsilon if cfg.envelope_epsilon is not None else cfg.epsilon
        ok, eta, reason = spine.envelope_eta(path, params.rm, cfg.theta, env_eps)
        if not ok:
            report.add(CheckResult("spine_envelope", "skip", note=f"hypothesis unmet: {reason}"))
        else:
            env_tube = cfg.tube(epsilon=env_eps)
            ebase = RngStream(cfg.seed, (_S_ENVELOPE,))
            env_failures = 0
            n_env = max(cfg.spine_replicates // 2, 1)
            for rep in range(n_env):
                wf = spine.simulate_guided(params, env_tube, grid, stream=ebase.split(rep), cap=cfg.cap)
                if wf.forest.capped:
                    n_capped += 1
                    continue
                chk = spine.envelope_check(wf, t_end, eta)
                env_failures += 0 if chk.holds else 1
            report.add(
                CheckResult(
                    "spine_envelope[per replicate]",
                    "pass" if env_failures == 0 else "fail",
                    observed=env_failures,
                    benchmark=0,
                    note=f"eta={eta:.4g}, eps={env_eps}, {n_env} replicates",
                )
            )
    else:
        report.add(CheckResult("spine_envelope", "skip", note="needs a smooth path"))

    # -- tail-mass surrogate -------------------------------------------------
    cut = cfg.tol("tail_cut")
    for T in cfg.tail_sweep:
        tgrid = cfg.grid(T)
        ttube = cfg.tube(horizon=T)
        tb = RngStream(cfg.seed, (_S_TAIL, int(round(T * 1000))))
        zs = []
        for rep in range(cfg.tail_replicates):
            forest = simulate_forest(params, tgrid, stream=tb.split(rep), cap=cfg.cap)
            if forest.capped:
                n_capped += 1
                continue
            zs.append(
                spine.additive_martingale(forest, ttube.t_end, ttube, bridge=cfg.bridge_correction)
            )
        zs = np.asarray(zs)
        tail_mass = float((zs * (zs > cut)).mean()) if len(zs) else math.nan
        report.add(
            check_bound(
                f"tail_mass[T={T:g}]", tail_mass, cfg.tol("tail_mass_max"),
                note=f"E[Z; Z>{cut:g}] over {len(zs)} replicates",
            )
        )

    # -- cross-measure consistency (importance sampling vs direct) ----------
    if smooth:
        Tc = cfg.cross_horizon
        cgrid = cfg.grid(Tc)
        ctube = cfg.tube(horizon=Tc)
        dbase = RngStream(cfg.seed, (_S_CROSS_DIRECT,))
        direct_counts, direct_nonempty = [], []
        for rep in range(cfg.cross_replicates):
            forest = simulate_forest(params, cgrid, stream=dbase.split(rep), cap=cfg.cap)
            if forest.capped:
                n_capped += 1
                continue
            c = count_tube(forest, ctube, bridge=cfg.bridge_correction).count
            direct_counts.append(float(c))
            direct_nonempty.append(1.0 if c > 0 else 0.0)
        mem_count = lambda mem: float(len(mem.members_at(ctube.t_end)))
        imp_count, imp_nonempty = spine.importance_estimates(
            (mem_count, lambda mem: 1.0 if mem_count(mem) > 0 else 0.0),
            params, ctube, cgrid, cfg.cross_replicates,
            stream=RngStream(cfg.seed, (_S_CROSS_GUIDED,)), cap=cfg.cap,
            bridge=cfg.bridge_correction,
        )
        n_capped += imp_count.n_capped
        dmean, dse = _mean_se(direct_counts)
        report.add(
            check_z("cross_measure[E|N| importance vs direct]", imp_count.estimate, dmean,
                    _pooled_se(imp_count.se, dse), sigmas)
        )
        # Brownian-path oracle for the same expected count
        bm = brownian_paths(cgrid, ctube.t_end, cfg.cross_replicates, dbase.split(999_999))
        inside = counting.brownian_tube_indicator(
            bm, cgrid.times(), ctube, bridge=cfg.bridge_correction, stream=dbase.split(999_998)
        )
        omean, ose = _mean_se(inside)
        oracle = math.exp(params.rm * ctube.t_end) * omean
        report.add(
            check_z("cross_measure[direct vs Brownian oracle]", dmean, oracle,
                    _pooled_se(dse, math.exp(params.rm * ctube.t_end) * ose), sigmas)
        )
        nmean, nse = _mean_se(direct_nonempty)
        report.add(
            check_z("cross_measure[P(N>=1) importance vs direct]", imp_nonempty.estimate, nmean,
                    _pooled_se(imp_nonempty.se, nse), sigmas)
        )
    else:
        report.add(CheckResult("cross_measure", "skip", note="needs a smooth path"))

    if n_capped:
        report.details["capped_replicates"] = n_capped
    if out_dir is not None:
        p = out_dir / "martingale.csv"
        write_csv(p, ["replicate", "t", "martingale"], z_rows)
        report.csv_files.append(p.name)
        if spine_rows:
            sp = out_dir / "spine.csv"
            write_csv(
                sp,
                ["replicate", "t", "martingale", "spine_decomposition", "clamp_count", "in_tube_count"],
                spine_rows,
            )
            report.csv_files.append(sp.name)
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# growth-rate convergence
# ---------------------------------------------------------------------------

def run_growth(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Empirical (1/T) log counts against the variational benchmark, plus an
    extinct ball whose benchmark is -inf."""
    t0 = time.perf_counter()
    report = RunReport("growth")
    params = cfg.model_params()
    sigmas = cfg.tol("z_sigma")
    path = cfg.build_path()
    query = rate.BallQuery(path, cfg.epsilon, cfg.theta, cfg.ball_resolution)
    benchmark = rate.max_rate_over_ball(query, params.rm).ball_value
    report.details["benchmark"] = benchmark

    make_tube = lambda T: Tube(path, cfg.epsilon, cfg.theta, T)
    rows, raw = growth_curve(
        params, make_tube, cfg.growth_t_sweep, cfg.growth_replicates,
        RngStream(cfg.seed, (_S_GROWTH, 0)), cfg.steps_per_unit, cfg.cap, cfg.bridge_correction,
    )
    for prev, cur in zip(rows[:-1], rows[1:]):
        slack = 2.0 * _pooled_se(prev.se_rate, cur.se_rate)
        report.add(
            check_bound(
                f"growth_monotone[T={prev.T:g}->{cur.T:g}]", prev.mean_rate - slack, cur.mean_rate,
                note="nondecreasing within SE",
            )
        )
    last = rows[-1]
    if math.isfinite(benchmark):
        report.add(
            CheckResult(
                f"growth_benchmark[T={last.T:g}]",
                "pass" if abs(last.mean_rate - benchmark) <= cfg.tol("growth_abs") else "fail",
                observed=last.mean_rate,
                benchmark=benchmark,
                se=last.se_rate,
                tolerance=cfg.tol("growth_abs"),
            )
        )
    else:
        report.add(
            check_bound("growth_empty_fraction[main ball]", last.empty_fraction,
                        cfg.tol("empty_fraction_min"), below=False)
        )

    # extinct ball: grid-path line centre, small radius
    eline = GridPath.line(cfg.extinct_slope, cfg.ball_resolution)
    equery = rate.BallQuery(eline, cfg.extinct_epsilon, cfg.theta, cfg.ball_resolution)
    ebench = rate.max_rate_over_ball(equery, params.rm).ball_value
    report.details["extinct_benchmark"] = ebench
    report.add(
        CheckResult(
            "extinct_ball_benchmark",
            "pass" if ebench == -math.inf else "fail",
            observed=ebench,
            benchmark=-math.inf,
        )
    )
    make_etube = lambda T: Tube(eline, cfg.extinct_epsilon, cfg.theta, T)
    erows, eraw = growth_curve(
        params, make_etube, (cfg.extinct_horizon,), cfg.extinct_replicates,
        RngStream(cfg.seed, (_S_GROWTH, 1)), cfg.steps_per_unit, cfg.cap, cfg.bridge_correction,
    )
    report.add(
        check_bound(
            f"extinct_ball_empty_fraction[T={cfg.extinct_horizon:g}]",
            erows[0].empty_fraction, cfg.tol("empty_fraction_min"), below=False,
        )
    )

    if out_dir is not None:
        p = out_dir / "growth.csv"
        all_rows = [("main", *r) for r in raw] + [("extinct", *r) for r in eraw]
        write_csv(p, ["ball", "T", "replicate", "count", "growth_rate", "empty"], all_rows)
        report.csv_files.append(p.name)
    report.details["curve"] = [
        {"T": r.T, "mean_rate": r.mean_rate, "se": r.se_rate, "empty_fraction": r.empty_fraction}
        for r in rows
    ]
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# the cadlag counterexample: limsup growth 2, mean growth 1
# ---------------------------------------------------------------------------

def counterexample_log_value(T: float, omega: float) -> float:
    """log X_T(omega), exactly: 2T on the spike set, T otherwise.

    The spike condition is T - n in [omega - e^{-4T}, omega + e^{-4T}) for
    some integer n >= 0 (zero included).
    """
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    delta = math.exp(-4.0 * T)
    n_lo = max(0, math.floor(T - omega - delta) - 1)
    n_hi = math.floor(T - omega + delta) + 1
    for n in range(n_lo, n_hi + 1):
        if omega - delta <= T - n < omega + delta:
            return 2.0 * T
    return T


def counterexample_value(T: float, omega: float) -> float:
    return math.exp(counterexample_log_value(T, omega))


def counterexample_mean_measure(T: float) -> float:
    """Exact Lebesgue measure of the spike set {omega: X_T(omega) = e^{2T}}.

    The set is a union over n of half-open intervals (T-n-delta, T-n+delta]
    intersected with [0, 1]; for delta < 1/2 they are disjoint. Only centres
    c = T - n in {frac(T) - 1, frac(T), frac(T) + 1} can meet [0, 1]. Each
    length is min(delta, c) + min(delta, 1 - c), clipped at 0: offsets from
    the centre, never a difference of endpoints near 1, where delta can be
    below half an ulp.
    """
    delta = math.exp(-4.0 * T)
    n0 = math.floor(T)
    return sum(
        max(0.0, min(delta, c) + min(delta, 1.0 - c))
        for c in (T - n for n in (n0 + 1, n0, n0 - 1) if n >= 0)
    )


def counterexample_mean_log_rate(T: float) -> float:
    """(1/T) log E[X_T] with E[X_T] = e^{2T} lambda_T + e^T (1 - lambda_T),
    evaluated stably as 1 + log1p(lambda_T (e^T - 1))/T."""
    lam = counterexample_mean_measure(T)
    return 1.0 + math.log1p(lam * math.expm1(T)) / T


def run_counterexample(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Exhibit the limsup-versus-mean growth gap numerically: along T = n + omega
    every pathwise rate is exactly 2, while the mean growth rate tends to 1."""
    t0 = time.perf_counter()
    report = RunReport("counterexample")
    omegas = np.linspace(0.0, 1.0, 100)
    n_sweep = range(1, 13)
    path_rows = []
    exact_two = True
    for omega in omegas:
        best = -math.inf
        for n in n_sweep:
            T = n + float(omega)
            log_x = counterexample_log_value(T, float(omega))
            rate_val = log_x / T
            best = max(best, rate_val)
            path_rows.append((float(omega), n, T, log_x, rate_val))
        if best != 2.0:
            exact_two = False
    report.add(
        CheckResult(
            "pathwise_rate[max over sweep == 2 exactly]",
            "pass" if exact_two else "fail",
            observed=1.0 if exact_two else 0.0,
            benchmark=1.0,
            note=f"{len(omegas)} omega grid points",
        )
    )
    mean_rows = []
    for T in [float(v) for v in range(2, 26)]:
        lam = counterexample_mean_measure(T)
        mean_rows.append((T, lam, counterexample_mean_log_rate(T)))
    rate20 = counterexample_mean_log_rate(20.0)
    tol = cfg.tol("counterexample_mean_tol")
    report.add(
        CheckResult(
            "mean_rate[T=20 within 1e-3 of 1]",
            "pass" if abs(rate20 - 1.0) <= tol else "fail",
            observed=rate20,
            benchmark=1.0,
            tolerance=tol,
        )
    )
    if out_dir is not None:
        p1 = out_dir / "counterexample_path.csv"
        write_csv(p1, ["omega", "n", "T", "log_x", "rate"], path_rows)
        p2 = out_dir / "counterexample_mean.csv"
        write_csv(p2, ["T", "spike_measure", "mean_rate"], mean_rows)
        report.csv_files.extend([p1.name, p2.name])
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# plain simulation dump, rate query, path diagnostics
# ---------------------------------------------------------------------------

def run_simulate(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """One replicate dumped to JSON-lines plus a population-count CSV."""
    t0 = time.perf_counter()
    report = RunReport("simulate")
    params = cfg.model_params()
    grid = cfg.grid()
    forest = simulate_forest(params, grid, stream=RngStream(cfg.seed, (_S_SIM,)), cap=cfg.cap)
    report.details["particles"] = len(forest)
    report.details["capped"] = forest.capped
    report.add(
        CheckResult("simulate[completed]", "pass" if not forest.capped else "fail",
                    observed=float(len(forest)))
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        jp = out_dir / "forest.jsonl"
        with open(jp, "w") as fh:
            dump_jsonl(forest, fh)
        rows = []
        for k, t in enumerate(grid.times()):
            rows.append((float(t), int(np.count_nonzero(forest.alive_mask(t)))))
        cp = out_dir / "population.csv"
        write_csv(cp, ["t", "population"], rows)
        report.csv_files.extend([jp.name, cp.name])
    report.wall_clock = time.perf_counter() - t0
    return report


def run_rate_query(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Variational report for the configured ball."""
    t0 = time.perf_counter()
    report = RunReport("rate_query")
    params = cfg.model_params()
    path = cfg.build_path()
    query = rate.BallQuery(path, cfg.epsilon, cfg.theta, cfg.ball_resolution)
    rep = rate.max_rate_over_ball(query, params.rm)
    report.details["rate_report"] = {
        "raw_rate": rep.raw_rate,
        "rate": rep.rate,
        "extinction_theta": rep.extinction_theta,
        "ball_value": rep.ball_value,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "active_lower": list(rep.active_lower),
        "active_upper": list(rep.active_upper),
    }
    report.add(CheckResult("rate_query[optimised]", "pass", observed=rep.ball_value))
    if out_dir is not None:
        import json

        from .reporting import _jsonable

        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "rate_report.json").write_text(
            json.dumps(_jsonable(report.details["rate_report"]), indent=2, sort_keys=True) + "\n"
        )
        if rep.argmax is not None:
            p = out_dir / "rate_argmax.csv"
            n = len(rep.argmax) - 1
            write_csv(p, ["s", "value"], [(k / n, v) for k, v in enumerate(rep.argmax)])
            report.csv_files.append(p.name)
    report.wall_clock = time.perf_counter() - t0
    return report


def run_diagnose_paths(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> RunReport:
    """Frequency of pathologically rough rescaled lineages (expected: zero;
    hits are logged, never failed, since the event is merely super-rare)."""
    t0 = time.perf_counter()
    report = RunReport("diagnose_paths")
    params = cfg.model_params()
    # scale n is decidable only when 1/n^2 >= 1/steps, so record finely
    # enough that the requested n itself is checkable
    from .model import TimeGrid

    steps = max(int(round(cfg.horizon * cfg.steps_per_unit)), cfg.roughness_n**2)
    grid = TimeGrid(cfg.horizon, steps=steps)
    base = RngStream(cfg.seed, (_S_DIAG,))
    checked = 0
    hits = 0
    n_capped = 0
    indeterminate = False
    t_end = cfg.theta * cfg.horizon
    for rep in range(cfg.roughness_replicates):
        if checked >= cfg.roughness_lineages:
            break
        forest = simulate_forest(params, grid, stream=base.split(rep), cap=cfg.cap)
        if forest.capped:
            n_capped += 1
            continue
        alive = np.flatnonzero(forest.alive_mask(t_end))
        for pid in alive[: max(0, cfg.roughness_lineages - checked)]:
            values, h = counting.rescaled_lineage(forest, int(pid), cfg.theta)
            try:
                rough = counting.rough_increment_check(values, h, cfg.roughness_n)
            except counting.RoughnessIndeterminate:
                indeterminate = True
                break
            checked += 1
            hits += 1 if rough else 0
        if indeterminate:
            break
    if indeterminate:
        report.add(CheckResult("rough_paths", "skip", note="no decidable scale at this resolution"))
    else:
        freq = hits / checked if checked else math.nan
        report.add(
            CheckResult(
                "rough_paths[frequency]", "pass", observed=freq, benchmark=0.0,
                note=f"{hits} hits / {checked} lineages (hits logged, not failed)",
            )
        )
    report.details["checked"] = checked
    report.details["hits"] = hits
    if n_capped:
        report.details["capped_replicates"] = n_capped
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# the whole sweep
# ---------------------------------------------------------------------------

def run_all(cfg: ExperimentConfig, out_dir: Optional[Path] = None) -> list[RunReport]:
    """Full verification sweep under a single seed."""
    runners = [
        run_many_to_one,
        run_pgf_bound,
        run_martingale_suite,
        run_growth,
        run_counterexample,
        run_diagnose_paths,
    ]
    return [runner(cfg, out_dir) for runner in runners]
