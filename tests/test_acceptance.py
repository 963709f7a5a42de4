"""Acceptance suite: one test per criterion, at the stated tolerances.

Monte Carlo identities use 3-standard-error bands; deterministic quantities
use explicit absolute bands. Each test prints one pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). The heavy criteria
share the standard configuration: unit branching rate, dyadic offspring,
radius-0.5 tube around the flat path, horizon 6, recording step 0.05, with
the Brownian-bridge membership correction enabled so recorded-data membership
matches the continuous-time identities being verified.
"""

import math

import numpy as np
import pytest
from scipy import stats as sstats

from bbmlab import rate
from bbmlab.config import ExperimentConfig
from bbmlab.counting import TubeMembership, brownian_tube_indicator, count_tube
from bbmlab.experiments import (
    counterexample_log_value,
    counterexample_mean_log_rate,
    run_all,
    run_counterexample,
    run_growth,
    run_many_to_one,
    run_pgf_bound,
    _spine_offsets,
)
from bbmlab.forest import brownian_paths, simulate_forest, simulate_population_sizes
from bbmlab.model import OffspringLaw, RngStream, TimeGrid, size_biased
from bbmlab.paths import GridPath, SmoothPath, Tube
from bbmlab.spine import (
    TubeWeights,
    count_bound_check,
    envelope_check,
    envelope_eta,
    importance_estimates,
    integral_bound_check,
    simulate_spine,
    spine_decomposition,
    taboo_cdf,
)

from conftest import make_params

SIGMAS = 3.0
MIXED = OffspringLaw({2: 0.5, 3: 0.5})


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. mean-one martingale
# ---------------------------------------------------------------------------


def test_criterion_01_martingale_mean_one():
    params = make_params()
    grid = TimeGrid(6.0, 120)
    tube = Tube(SmoothPath.zero(16, "clamped"), 0.5, 1.0, 6.0)
    times = (1.5, 3.0, 4.5, 6.0)
    sums = {t: [] for t in times}
    base = RngStream(20260810, (1,))
    for rep in range(10_000):
        forest = simulate_forest(params, grid, stream=base.split(rep))
        weights = TubeWeights(forest, tube, TubeMembership(forest, tube, bridge=True))
        for t in times:
            sums[t].append(weights.martingale_at(t))
    details = []
    ok = True
    for t in times:
        arr = np.asarray(sums[t])
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        ok &= abs(arr.mean() - 1.0) <= SIGMAS * se
        details.append(f"t={t:g}: {arr.mean():.4f}+-{se:.4f}")
    report(1, ok, "mean-one martingale over 10^4 replicates; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 2. many-to-one
# ---------------------------------------------------------------------------


def test_criterion_02_many_to_one():
    cfg = ExperimentConfig(bridge_correction=True)
    rep = run_many_to_one(cfg)
    by_name = {c.name: c for c in rep.checks}
    ones = by_name["many_to_one[ones]"]
    assert ones.benchmark == pytest.approx(math.exp(5.0))
    tube_chk = by_name["many_to_one[tube_indicator]"]
    ok = ones.status == "pass" and tube_chk.status == "pass"
    report(
        2,
        ok,
        f"population mean {ones.observed:.2f} vs e^5={ones.benchmark:.2f} (se {ones.se:.2f}); "
        f"tube-indicator {tube_chk.observed:.2f} vs Brownian oracle {tube_chk.benchmark:.2f}",
    )


# ---------------------------------------------------------------------------
# 3. generating-function identity and bound
# ---------------------------------------------------------------------------


def test_criterion_03_pgf():
    closed = 0.5 / (0.5 + 0.5 * math.exp(2.0))
    assert closed == pytest.approx(1.0 / (1.0 + math.exp(2.0)))
    dyadic = run_pgf_bound(ExperimentConfig())
    eq = dyadic.checks[0]
    assert eq.benchmark == pytest.approx(closed)
    mixed = run_pgf_bound(ExperimentConfig(offspring={2: 0.5, 3: 0.5}))
    ub = mixed.checks[0]
    ok = eq.status == "pass" and ub.status == "pass"
    report(
        3,
        ok,
        f"dyadic mean {eq.observed:.5f} vs closed form {closed:.5f} (se {eq.se:.5f}); "
        f"mixed law bounded by {ub.benchmark:.5f}",
    )


# ---------------------------------------------------------------------------
# 4. guided-law spine checks
# ---------------------------------------------------------------------------


def test_criterion_04_guided_law_checks():
    # every check reads the spine alone, so no subtree is simulated
    params = make_params(law=MIXED)
    grid = TimeGrid(6.0, 120)
    tube = Tube(SmoothPath.zero(16, "clamped"), 0.5, 1.0, 6.0)
    gaps, broods, ends = [], [], []
    confined = True
    base = RngStream(20260810, (4,))
    for rep in range(800):
        wf = simulate_spine(params, tube, grid, stream=base.split(rep))
        gaps.extend(wf.spine.gap_draws)
        broods.extend(wf.spine.offspring)
        ys = _spine_offsets(wf, tube.t_end)
        confined &= bool(np.all(np.abs(ys) < tube.radius))
        ends.append(ys[-1])
    spine_rate = (params.m + 1.0) * params.r
    ks = sstats.kstest(gaps, "expon", args=(0.0, 1.0 / spine_rate))
    biased = size_biased(MIXED)
    kvals = [k for k, _ in biased.pmf]
    observed = np.array([broods.count(k) for k in kvals], dtype=float)
    expected = np.array([p for _, p in biased.pmf]) * len(broods)
    chi = sstats.chisquare(observed, expected)
    pos = sstats.kstest(ends, lambda z: taboo_cdf(z, 0.0, tube.t_end, tube.radius))
    ok = ks.pvalue > 1e-3 and chi.pvalue > 1e-3 and confined and pos.pvalue > 1e-3
    report(
        4,
        ok,
        f"gap KS p={ks.pvalue:.4f} ({len(gaps)} draws); offspring chi2 p={chi.pvalue:.4f}; "
        f"spine confined={confined}; position at theta*T KS vs taboo law p={pos.pvalue:.4f}",
    )


# ---------------------------------------------------------------------------
# 5. cross-measure consistency at T=4
# ---------------------------------------------------------------------------


def test_criterion_05_cross_measure():
    params = make_params()
    T = 4.0
    grid = TimeGrid(T, 80)
    tube = Tube(SmoothPath.zero(16, "clamped"), 0.5, 1.0, T)
    counter = lambda f: float(count_tube(f, tube, bridge=True).count)
    direct = []
    dstream = RngStream(20260810, (5, 0))
    for rep in range(2000):
        direct.append(counter(simulate_forest(params, grid, stream=dstream.split(rep))))
    direct = np.asarray(direct)
    d_mean = direct.mean()
    d_se = direct.std(ddof=1) / math.sqrt(len(direct))
    # the guided side counts the members of the membership that gives Z,
    # which draws the same bridge uniforms as count_tube
    imp = importance_estimates(
        [lambda mem: float(len(mem.members_at(tube.t_end)))],
        params, tube, grid, 2000, stream=RngStream(20260810, (5, 1)), bridge=True,
    )[0]
    bm = brownian_paths(grid, 20_000, RngStream(20260810, (5, 2)))
    ind = brownian_tube_indicator(bm, grid, tube, bridge=True, stream=RngStream(20260810, (5, 3)))
    oracle = math.exp(params.rm * T) * ind.mean()
    oracle_se = math.exp(params.rm * T) * ind.std(ddof=1) / math.sqrt(len(ind))
    z_imp = abs(imp.estimate - d_mean) / math.hypot(imp.se, d_se)
    z_oracle = abs(d_mean - oracle) / math.hypot(d_se, oracle_se)
    z_imp_oracle = abs(imp.estimate - oracle) / math.hypot(imp.se, oracle_se)
    ok = z_imp <= SIGMAS and z_oracle <= SIGMAS and z_imp_oracle <= SIGMAS
    report(
        5,
        ok,
        f"E|N|: importance {imp.estimate:.2f}+-{imp.se:.2f}, direct {d_mean:.2f}+-{d_se:.2f}, "
        f"Brownian oracle {oracle:.2f}+-{oracle_se:.2f} (z={z_imp:.2f},{z_oracle:.2f},{z_imp_oracle:.2f})",
    )


# ---------------------------------------------------------------------------
# 6. growth-rate convergence toward the variational benchmark
# ---------------------------------------------------------------------------


def test_criterion_06_growth_convergence():
    cfg = ExperimentConfig()
    rep = run_growth(cfg)
    by_name = {c.name: c for c in rep.checks}
    assert rep.details["benchmark"] == pytest.approx(1.0, abs=1e-9)  # rm*theta
    curve = rep.details["curve"]
    monotone = all(c.status == "pass" for c in rep.checks if c.name.startswith("growth_monotone"))
    bench = by_name["growth_benchmark[T=10]"]
    extinct_bench = by_name["extinct_ball_benchmark"]
    empty = by_name["extinct_ball_empty_fraction[T=8]"]
    # brute-force confirmation that the extinct ball has no feasible path
    n = 6
    center = GridPath.line(2.5, n)
    axes = [np.linspace(center.values[k] - 0.2, center.values[k] + 0.2, 9) for k in range(1, n + 1)]
    mesh = np.array(np.meshgrid(*axes, indexing="ij"), dtype=float).reshape(n, -1).T
    f = np.concatenate([np.zeros((len(mesh), 1)), mesh], axis=1)
    pref = np.cumsum(0.5 * n * np.diff(f, axis=1) ** 2, axis=1)
    s = np.arange(1, n + 1) / n
    feasible = (pref <= s + 1e-12).all(axis=1)
    ok = (
        monotone
        and bench.status == "pass"
        and extinct_bench.status == "pass"
        and empty.status == "pass"
        and not feasible.any()
    )
    trace = ", ".join(f"T={c['T']:g}:{c['mean_rate']:.3f}" for c in curve)
    report(
        6,
        ok,
        f"growth {trace} vs benchmark 1.0 (|diff| at T=10: {abs(bench.observed - 1.0):.3f} <= 0.15); "
        f"extinct ball: optimizer -inf, brute force confirms, empty fraction {empty.observed:.3f} >= 0.99",
    )


# ---------------------------------------------------------------------------
# 7. variational oracles
# ---------------------------------------------------------------------------


def dense_scan_extinction(values, rm, points=1_000_000):
    """Independent scan + bisection root for the extinction time."""
    n = len(values) - 1
    slopes = np.diff(np.asarray(values)) * n
    prof = np.concatenate([[0.0], np.cumsum(0.5 * slopes**2 / n)])
    knots = np.arange(n + 1) / n
    phis = np.linspace(0.0, 1.0, points + 1)
    g = rm * phis - np.interp(phis, knots, prof)
    neg = np.flatnonzero(g < 0.0)
    if len(neg) == 0:
        return math.inf
    j = neg[0]
    lo, hi = phis[max(j - 1, 0)], phis[j]
    gg = lambda p: rm * p - float(np.interp(p, knots, prof))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gg(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def lattice_oracle(query, rm, points=9):
    n = query.resolution
    s_all = np.arange(n + 1) / n
    center = np.asarray(query.center.value(s_all))
    axes = [np.linspace(center[k] - query.epsilon, center[k] + query.epsilon, points) for k in range(1, n + 1)]
    mesh = np.array(np.meshgrid(*axes, indexing="ij"), dtype=float).reshape(n, -1).T
    f = np.concatenate([np.zeros((len(mesh), 1)), mesh], axis=1)
    pref = np.cumsum(0.5 * n * np.diff(f, axis=1) ** 2, axis=1)
    s = np.arange(1, n + 1) / n
    feasible = (pref <= rm * s + 1e-12).all(axis=1)
    max_rate = float(rm - pref[feasible, -1].min()) if feasible.any() else -math.inf
    return max_rate, float(pref[:, -1].min())


def rounding_bound(argmax, n, spacing):
    d = np.abs(np.diff(np.asarray(argmax)))
    return float(np.sum(0.5 * n * spacing * (2.0 * d + spacing)))


def test_criterion_07_rate_oracles():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        values = np.concatenate([[0.0], rng.normal(0.0, 0.8, n)])
        rm = float(rng.uniform(0.2, 2.5))
        path = GridPath(values)
        exact = rate.extinction_theta(path, rm)
        scanned = dense_scan_extinction(values, rm)
        if math.isinf(exact) or math.isinf(scanned):
            assert math.isinf(exact) and math.isinf(scanned)
        else:
            worst = max(worst, abs(exact - scanned))
    ok_scan = worst <= 1e-9

    # optimizer against the exhaustive lattice at n=6, 9 points per axis
    ok_lattice = True
    lattice_details = []
    for seed in (1, 2, 3):
        q_rng = np.random.default_rng(seed)
        center = GridPath(np.concatenate([[0.0], q_rng.normal(0.0, 0.5, 6)]))
        q = rate.BallQuery(center, 0.6, 1.0, 6)
        rm = 1.0
        opt = rate.max_rate_over_ball(q, rm)
        sch = rate.min_energy_over_ball(q)
        lat_rate, lat_energy = lattice_oracle(q, rm)
        bound = rounding_bound(sch.argmax, 6, 2.0 * 0.6 / 8.0)
        ok_lattice &= sch.ball_value <= lat_energy + 1e-9 <= sch.ball_value + bound + 2e-9
        ok_lattice &= lat_rate <= opt.ball_value + 1e-9
        if opt.ball_value > -math.inf and lat_rate > -math.inf:
            ok_lattice &= opt.ball_value <= lat_rate + bound + 2e-9
        lattice_details.append(f"seed{seed}: opt {opt.ball_value:.4f} lattice {lat_rate:.4f} (bound {bound:.3f})")

    # the worked extinct ball: optimizer and brute force both return -inf
    q_ext = rate.BallQuery(GridPath.line(2.0, 6), 0.5, 1.0, 6)
    opt_ext = rate.max_rate_over_ball(q_ext, 1.0)
    lat_ext, _ = lattice_oracle(q_ext, 1.0)
    ok_ext = opt_ext.ball_value == -math.inf and lat_ext == -math.inf

    ok = ok_scan and ok_lattice and ok_ext
    report(
        7,
        ok,
        f"extinction-time scan worst |diff| = {worst:.2e} <= 1e-9 over 100 paths; "
        + "; ".join(lattice_details)
        + f"; extinct ball -inf under both optimizer and brute force",
    )


# ---------------------------------------------------------------------------
# 8. pathwise inequalities on the validation run
# ---------------------------------------------------------------------------


def test_criterion_08_pathwise_inequalities():
    params = make_params()
    grid = TimeGrid(6.0, 120)
    parab = SmoothPath.from_function(lambda s: 0.4 * s * s, 16, boundary="clamped")
    tube = Tube(parab, 0.5, 1.0, 6.0)
    base = RngStream(20260810, (8, 0))
    n_particles = 0
    bound_ok = True
    lemma7_ok = True
    for rep in range(300):
        forest = simulate_forest(params, grid, stream=base.split(rep))
        mem = TubeMembership(forest, tube, bridge=False)
        weights = TubeWeights(forest, tube, mem)
        lemma7_ok &= count_bound_check(weights).holds
        chk = integral_bound_check(weights, mem.members_at(tube.t_end), tube.t_end)
        bound_ok &= bool(chk.holds.all())
        n_particles += len(chk.holds)

    eps_env = 0.25
    env_tube = Tube(parab, eps_env, 1.0, 6.0)
    gate_ok, eta, reason = envelope_eta(parab, params.rm, 1.0, eps_env)
    env_ok = gate_ok
    ebase = RngStream(20260810, (8, 1))
    n_env = 300
    for rep in range(n_env):
        wf = simulate_spine(params, env_tube, grid, stream=ebase.split(rep))
        env_ok &= envelope_check(wf, env_tube.t_end, eta, spine_decomposition(wf, env_tube.t_end)).holds
    ok = bound_ok and lemma7_ok and env_ok
    report(
        8,
        ok,
        f"integral bound holds for {n_particles}/{n_particles} in-tube particles over 300 replicates; "
        f"count bound holds per replicate; envelope (eta={eta:.3f}, eps={eps_env}) holds over {n_env} guided replicates",
    )


# ---------------------------------------------------------------------------
# 9. the exact spiking counterexample
# ---------------------------------------------------------------------------


def test_criterion_09_counterexample():
    omegas = np.linspace(0.0, 1.0, 100)
    exact = all(
        max(counterexample_log_value(n + w, w) / (n + w) for n in range(1, 13)) == 2.0
        for w in map(float, omegas)
    )
    mean_rate = counterexample_mean_log_rate(20.0)
    rep = run_counterexample(ExperimentConfig())
    ok = exact and abs(mean_rate - 1.0) <= 1e-3 and rep.passed
    report(
        9,
        ok,
        f"pathwise rate exactly 2 on a 100-point grid; mean growth at T=20 is {mean_rate:.6f} (|diff|<=1e-3)",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical reproducibility of the full sweep
# ---------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        name="repro",
        horizon=3.0,
        replicates=300,
        spine_replicates=40,
        bound_sweep_replicates=20,
        tail_replicates=50,
        tail_sweep=(2.0, 3.0),
        cross_horizon=2.0,
        cross_replicates=60,
        growth_t_sweep=(2.0, 3.0),
        growth_replicates=40,
        extinct_horizon=3.0,
        extinct_replicates=40,
        many_to_one_time=2.0,
        many_to_one_replicates=150,
        pgf_replicates=3000,
        roughness_n=20,
        roughness_lineages=40,
        roughness_replicates=3,
        ball_resolution=16,
        bridge_correction=True,
        seed=424242,
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_all(cfg, out1)
    run_all(cfg, out2)
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names, "no CSV output produced"
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    report(10, identical, f"{len(names)} CSV files byte-identical across two runs with the same seed")
