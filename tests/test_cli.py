import json
import subprocess
import sys

import pytest

from bbmlab.cli import main
from bbmlab.config import ExperimentConfig


def write_cfg(tmp_path, **over):
    cfg = dict(
        name="cli",
        horizon=2.0,
        replicates=30,
        spine_replicates=8,
        bound_sweep_replicates=5,
        tail_replicates=10,
        tail_sweep=[2.0],
        cross_horizon=2.0,
        cross_replicates=15,
        growth_t_sweep=[2.0, 3.0],
        growth_replicates=10,
        extinct_horizon=2.0,
        extinct_replicates=10,
        many_to_one_time=2.0,
        many_to_one_replicates=30,
        pgf_replicates=500,
        roughness_n=20,
        roughness_lineages=10,
        roughness_replicates=2,
        ball_resolution=8,
        bridge_correction=True,
        out=str(tmp_path / "out"),
    )
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_counterexample(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["counterexample", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pathwise_rate" in out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert summary["versions"]["bbmlab"]


def test_cli_simulate_writes_dump(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "forest.jsonl").exists()
    assert (tmp_path / "out" / "population.csv").exists()


def test_cli_rate(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["rate", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "rate_report.json").read_text())
    assert report["ball_value"] == pytest.approx(1.0, abs=1e-8)


def test_cli_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out2 = tmp_path / "elsewhere"
    assert main(["pgf", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["config"]["seed"] == 7


def test_bridge_correction_defaults_on_and_a_config_turns_it_off(tmp_path, capsys):
    assert ExperimentConfig().bridge_correction is True
    with pytest.raises(SystemExit):
        main(["pgf", "--help"])
    assert '`"bridge_correction": false` in a config turns it off' in " ".join(capsys.readouterr().out.split())
    cfg = write_cfg(tmp_path, bridge_correction=False)
    for flags, on in (([], False), (["--bridge-correction"], True)):
        assert main(["pgf", "--config", str(cfg), *flags]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["bridge_correction"] is on


def test_cli_failure_exit_code(tmp_path, capsys):
    # a growth sweep ending at a small horizon cannot reach the rm*theta
    # benchmark within the configured band: the exit code must reflect it
    cfg = write_cfg(tmp_path, growth_t_sweep=[1.0, 2.0], growth_replicates=20)
    assert main(["growth", "--config", str(cfg)]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is False


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bbmlab", "counterexample", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mean_rate" in proc.stdout
