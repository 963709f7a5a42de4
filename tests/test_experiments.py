import json
import math

import numpy as np
import pytest

from bbmlab import spine
from bbmlab.config import DEFAULT_TOLERANCES, ExperimentConfig, build_path, load_config
from bbmlab.counting import TubeMembership, rescaled_lineage
from bbmlab.experiments import (
    _S_SPINE,
    counterexample_log_value,
    counterexample_mean_log_rate,
    counterexample_mean_measure,
    counterexample_value,
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
from bbmlab.forest import simulate_forest
from bbmlab.model import RngStream
from bbmlab.paths import GridPath, SmoothPath
from bbmlab.reporting import CheckResult, RunReport, check_pvalue, fmt, write_summary


def tiny_config(**over):
    base = dict(
        name="tiny",
        horizon=3.0,
        replicates=60,
        spine_replicates=25,
        bound_sweep_replicates=10,
        tail_replicates=30,
        tail_sweep=(2.0,),
        cross_horizon=2.0,
        cross_replicates=40,
        growth_t_sweep=(2.0, 3.0),
        growth_replicates=25,
        extinct_horizon=3.0,
        extinct_replicates=25,
        many_to_one_time=2.0,
        many_to_one_replicates=80,
        pgf_replicates=2000,
        roughness_n=20,
        roughness_lineages=30,
        roughness_replicates=4,
        ball_resolution=16,
        bridge_correction=True,
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# the exact spiking evaluator
# ---------------------------------------------------------------------------


def test_counterexample_spike_hit():
    # T = 7.3, omega = 0.3: T - 7 = 0.3 lands inside the half-open window
    assert counterexample_log_value(7.3, 0.3) == pytest.approx(14.6)
    assert counterexample_log_value(7.3, 0.3) / 7.3 == 2.0  # exact in floats


def test_counterexample_spike_miss():
    # T = 7.0: neither T-7 = 0 nor T-6 = 1 is within e^{-28} of 0.3
    assert counterexample_log_value(7.0, 0.3) == pytest.approx(7.0)
    assert counterexample_log_value(7.0, 0.3) / 7.0 == 1.0


def test_counterexample_window_is_half_open():
    delta = math.exp(-4.0 * 5.0)
    # left endpoint included
    assert counterexample_log_value(5.0, 0.0 + delta) == pytest.approx(10.0)
    # right endpoint excluded: omega exactly at T - n - delta fails
    omega = 0.25
    T = 5.0 + omega + delta
    assert counterexample_log_value(T, omega) == pytest.approx(T)


def test_counterexample_value_matches_log():
    assert counterexample_value(3.25, 0.25) == pytest.approx(math.exp(6.5))


def test_counterexample_measure_exact():
    # at integer T the spike set is (0, delta] from n=T plus (1-delta, 1]
    # from n=T-1, even once delta is below half an ulp of 1
    for T in (5.0, 9.0, 10.0, 20.0, 25.0):
        delta = math.exp(-4.0 * T)
        assert counterexample_mean_measure(T) == pytest.approx(2.0 * delta, rel=1e-12, abs=0), T


def test_counterexample_mean_rate_limits():
    assert counterexample_mean_log_rate(20.0) == pytest.approx(1.0, abs=1e-3)
    # at small T the spike still dominates the mean
    assert counterexample_mean_log_rate(0.5) > 1.1


def test_run_counterexample_checks(tmp_path):
    report = run_counterexample(ExperimentConfig(), tmp_path)
    assert report.passed
    assert set(report.csv_files) == {"counterexample_path.csv", "counterexample_mean.csv"}
    lines = (tmp_path / "counterexample_path.csv").read_text().splitlines()
    assert lines[0] == "omega,n,T,log_x,rate"
    assert len(lines) == 1 + 100 * 12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_and_tolerances():
    cfg = ExperimentConfig()
    assert cfg.tol("z_sigma") == DEFAULT_TOLERANCES["z_sigma"]
    cfg2 = ExperimentConfig(tolerances={"z_sigma": 4.0})
    assert cfg2.tol("z_sigma") == 4.0
    assert cfg2.tol("law_alpha") == 1e-3
    # a typo, or a band no check reads any more, is an error, not a no-op
    for key in ("z_sigmaa", "clamp_rate_max"):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(tolerances={key: 1.0})


def test_config_round_trip(tmp_path):
    cfg = tiny_config(seed=99)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded.seed == 99
    assert loaded.horizon == 3.0
    assert loaded.offspring == {2: 1.0}


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"replicates": 10, "bogus": 1}))
    with pytest.raises(ValueError):
        load_config(path)


def test_build_path_forms():
    assert isinstance(build_path({"form": "zero"}), SmoothPath)
    assert isinstance(build_path({"form": "zero", "kind": "grid", "resolution": 8}), GridPath)
    line = build_path({"form": "line", "slope": 2.0, "kind": "grid", "resolution": 4})
    assert line.value(0.5) == pytest.approx(1.0)
    parab = build_path({"form": "parabola", "coefficient": 0.4, "boundary": "clamped"})
    assert parab.derivative(0.0) == pytest.approx(0.0, abs=1e-12)
    explicit = build_path({"form": "explicit", "values": [0.0, 0.1, 0.3], "kind": "grid"})
    assert explicit.values == (0.0, 0.1, 0.3)
    with pytest.raises(ValueError):
        build_path({"form": "spiral"})


# ---------------------------------------------------------------------------
# runners on a tiny budget
# ---------------------------------------------------------------------------


def test_run_many_to_one_structure(tmp_path):
    report = run_many_to_one(tiny_config(), tmp_path)
    names = [c.name for c in report.checks]
    assert names == ["many_to_one[ones]", "many_to_one[tube_indicator]", "many_to_one[exp_sup]", "capped_replicates"]
    assert report.passed
    assert (tmp_path / "many_to_one.csv").exists()


def test_run_pgf_dyadic_and_bound(tmp_path):
    report = run_pgf_bound(tiny_config(), tmp_path)
    assert report.checks[0].name == "pgf[dyadic equality]"
    assert report.passed
    mixed = tiny_config(offspring={2: 0.5, 3: 0.5})
    report2 = run_pgf_bound(mixed, tmp_path)
    assert report2.checks[0].name == "pgf[upper bound]"
    assert report2.passed


def test_run_martingale_suite_structure(tmp_path):
    report = run_martingale_suite(tiny_config(), tmp_path)
    names = [c.name for c in report.checks]
    assert any(n.startswith("martingale_mean_one") for n in names)
    assert any(n.startswith("spine_gap_law") for n in names)
    assert any(n.startswith("cross_measure") for n in names)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses.get("spine_envelope[per replicate]") == "pass"
    assert report.passed
    assert (tmp_path / "martingale.csv").exists()
    assert (tmp_path / "spine.csv").exists()
    header = (tmp_path / "spine.csv").read_text().splitlines()[0]
    assert header == "replicate,t,martingale,spine_decomposition,spine_offset,in_tube_count"


def test_guided_martingale_reads_the_bridge_corrected_membership(tmp_path):
    # with the bridge correction on, the guided block's Z comes from the
    # replicate's bridge-corrected membership, spine exempt, as the spine
    # decomposition it is compared with assumes; on recorded points alone it
    # would come out larger
    cfg = tiny_config(replicates=2, spine_replicates=1, bound_sweep_replicates=1, tail_replicates=2,
                      cross_replicates=2)
    run_martingale_suite(cfg, tmp_path)
    row = (tmp_path / "spine.csv").read_text().splitlines()[1].split(",")
    tube = cfg.tube()
    wf = spine.simulate_guided(cfg.model_params(), tube, cfg.grid(),
                               stream=RngStream(cfg.seed, (_S_SPINE,)).split(0), cap=cfg.cap)
    z = spine.TubeWeights(wf.forest, tube, wf.membership(True)).martingale_at(tube.t_end)
    assert float(row[2]) == z
    plain = TubeMembership(wf.forest, tube, bridge=False)
    assert z != spine.TubeWeights(wf.forest, tube, plain).martingale_at(tube.t_end)


def test_run_martingale_grid_path_skips_smooth_only_checks(tmp_path):
    cfg = tiny_config(path={"form": "zero", "kind": "grid", "resolution": 8},
                      replicates=30, spine_replicates=5)
    report = run_martingale_suite(cfg, tmp_path)
    skip_names = {c.name for c in report.checks if c.status == "skip"}
    assert skip_names == {"integral_bound", "count_bound", "spine_envelope"}
    # the guided simulation follows a grid path: its checks run
    ran = {c.name.split("[")[0] for c in report.checks if c.status != "skip"}
    assert {"spine_gap_law", "spine_offspring_law", "spine_in_tube", "spine_position_law",
            "decomposition_vs_martingale", "cross_measure"} <= ran
    assert (tmp_path / "spine.csv").exists()


def test_envelope_skipped_when_start_slope_nonzero(tmp_path):
    # a line has f'(0) != 0: the envelope hypothesis gate must skip, not fail
    cfg = tiny_config(
        path={"form": "line", "slope": 0.3, "kind": "smooth", "boundary": "natural"},
        replicates=20, spine_replicates=5, bound_sweep_replicates=3,
    )
    report = run_martingale_suite(cfg)
    env = [c for c in report.checks if c.name.startswith("spine_envelope")][0]
    assert env.status == "skip"
    assert "hypothesis unmet" in env.note


def test_envelope_reads_the_guided_blocks_uncapped_replicates(tmp_path):
    # the envelope is checked on the guided block's own spines: its note
    # counts the block's uncapped replicates, one per spine.csv row
    cfg = tiny_config(cap=100, replicates=6, tail_replicates=3, cross_replicates=5)
    report = run_martingale_suite(cfg, tmp_path)
    uncapped = len((tmp_path / "spine.csv").read_text().splitlines()) - 1
    assert 0 < uncapped < cfg.spine_replicates
    env = {c.name: c for c in report.checks}["spine_envelope[per replicate]"]
    assert env.status == "pass"
    assert env.note.endswith(f", {uncapped} replicates")


def test_run_growth_structure(tmp_path):
    report = run_growth(tiny_config(), tmp_path)
    names = [c.name for c in report.checks]
    assert any(n.startswith("growth_monotone") for n in names)
    assert any(n.startswith("extinct_ball") for n in names)
    assert report.details["extinct_benchmark"] == -math.inf
    assert (tmp_path / "growth.csv").exists()


def test_run_simulate_and_outputs(tmp_path):
    report = run_simulate(tiny_config(), tmp_path)
    assert report.passed
    assert (tmp_path / "forest.jsonl").exists()
    pop = (tmp_path / "population.csv").read_text().splitlines()
    assert pop[0] == "t,population"
    assert pop[1] == "0.0,1"


def test_run_rate_query_outputs(tmp_path):
    report = run_rate_query(tiny_config(), tmp_path)
    assert report.passed
    data = json.loads((tmp_path / "rate_report.json").read_text())
    assert data["rate"] == pytest.approx(1.0, abs=1e-8)
    assert (tmp_path / "rate_argmax.csv").exists()


def test_run_diagnose_paths(tmp_path):
    report = run_diagnose_paths(tiny_config(), tmp_path)
    assert report.passed
    assert report.details["checked"] > 0
    assert report.details["hits"] == 0


def test_capped_replicates_are_counted_in_every_block():
    # cap=1 truncates every replicate, natural or guided: each one must be
    # dropped from its estimator and counted, in every block
    cfg = tiny_config(cap=1, replicates=6, spine_replicates=4, tail_replicates=3,
                      cross_replicates=5, roughness_replicates=3)
    report = run_martingale_suite(cfg)
    expected = (cfg.replicates + cfg.spine_replicates + cfg.tail_replicates
                + 2 * cfg.cross_replicates)  # cross block: direct and guided
    assert report.details["capped_replicates"] == expected
    assert not report.passed
    # the guided-law block had nothing left to test, and says so
    empty = {c.name: c for c in report.checks if c.note == "no uncapped guided replicates"}
    assert set(empty) == {"spine_gap_law", "spine_offspring_law", "spine_position_law",
                          "decomposition_vs_martingale", "spine_envelope"}
    assert all(c.status == "fail" for c in empty.values())
    assert run_diagnose_paths(cfg).details["capped_replicates"] == cfg.roughness_replicates


def test_a_capped_replicate_fails_its_runner_check():
    # every runner that drops capped replicates reports one check with the
    # count: it fails with every replicate capped and passes with none
    capped = tiny_config(cap=1, replicates=6, spine_replicates=4, tail_replicates=3, cross_replicates=5,
                         roughness_replicates=3, growth_replicates=4, extinct_replicates=2)
    for runner in (run_many_to_one, run_martingale_suite, run_growth, run_diagnose_paths):
        for cfg, failed in ((capped, True), (tiny_config(), False)):
            checks = [c for c in runner(cfg).checks if c.name == "capped_replicates"]
            assert len(checks) == 1, runner.__name__
            assert (checks[0].status == "fail") is failed and (checks[0].observed > 0) is failed


# ---------------------------------------------------------------------------
# reporting and determinism
# ---------------------------------------------------------------------------


def test_add_capped_fails_and_records_a_nonzero_count():
    none = RunReport("demo")
    assert none.add_capped(0).status == "pass"
    assert none.checks[0].name == "capped_replicates" and "capped_replicates" not in none.details
    some = RunReport("demo")
    check = some.add_capped(3)
    assert check.status == "fail" and check.observed == 3
    assert some.details["capped_replicates"] == 3


def test_check_pvalue_passes_only_above_alpha():
    def by_hand(p, alpha, note):
        return CheckResult("law", "pass" if p > alpha else "fail", observed=float(p), benchmark=alpha, note=note)

    for p in (0.5, 1e-3, 1e-4):
        assert check_pvalue("law", np.float64(p), 1e-3, note="40 draws") == by_hand(p, 1e-3, "40 draws")
    assert check_pvalue("law", 1e-3, 1e-3).status == "fail"


def test_fmt_sentinels():
    assert fmt(math.inf) == "inf"
    assert fmt(-math.inf) == "-inf"
    assert fmt(math.nan) == "nan"
    assert fmt(0.1) == "0.1"
    assert fmt(3) == "3"


def test_summary_serialises_sentinels(tmp_path):
    report = RunReport("demo")
    report.add(CheckResult("x", "pass", observed=-math.inf))
    out = write_summary(tmp_path / "summary.json", [report], {"theta": 1.0}, {"v": "1"})
    assert out["experiments"][0]["checks"][0]["observed"] == "-inf"
    parsed = json.loads((tmp_path / "summary.json").read_text())
    assert parsed["all_passed"] is True


def test_run_all_byte_identical(tmp_path):
    cfg = tiny_config(
        replicates=25, spine_replicates=8, tail_replicates=10, cross_replicates=15,
        growth_replicates=10, extinct_replicates=10, many_to_one_replicates=30,
        pgf_replicates=500, roughness_lineages=10, roughness_replicates=2,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_all(cfg, out1)
    run_all(cfg, out2)
    files1 = sorted(p.name for p in out1.glob("*.csv"))
    files2 = sorted(p.name for p in out2.glob("*.csv"))
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_martingale_suite_runs_below_theta_one():
    # the Brownian oracle's paths span the cross-measure grid, and its
    # indicator reads them up to theta*T only
    report = run_martingale_suite(tiny_config(theta=0.5))
    names = {c.name for c in report.checks}
    assert {"cross_measure[direct vs Brownian oracle]", "martingale_mean_one[t=1.5]"} <= names
    assert report.passed


def test_martingale_suite_rejects_theta_t_off_the_grid():
    # theta*T = 0.99 falls between the recorded times 0.95 and 1.0
    with pytest.raises(ValueError, match=r"theta\*T = 0.33\*3 .*\(dt = 0.05\)"):
        run_martingale_suite(tiny_config(theta=0.33))


def test_diagnose_paths_reads_lineages_to_the_last_recorded_time():
    # roughness_n = 5 keeps dt = 0.05, so theta*T = 0.99 is not recorded: the
    # lineages are read up to 0.95
    cfg = tiny_config(theta=0.33, roughness_n=5)
    report = run_diagnose_paths(cfg)
    assert report.passed and report.details["checked"] > 0
    forest = simulate_forest(cfg.model_params(), cfg.grid(), stream=RngStream(3, (0,)))
    values, h = rescaled_lineage(forest, int(np.flatnonzero(forest.alive_mask(0.99))[0]), 0.33)
    assert len(values) == 20 and h == cfg.grid().dt / 3.0
