"""Tests of the span recorder and of the wrappers that install it.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402


def _spin(seconds):
    """Busy-wait: spans read the CPU clock, which a sleep does not advance."""
    end = spans.clock() + seconds
    while spans.clock() < end:
        pass


def test_self_time_subtracts_children(tmp_path):
    tracer = spans.Tracer()
    with tracer.span("outer"):
        _spin(0.02)
        with tracer.span("inner"):
            _spin(0.03)
        with tracer.span("inner"):
            _spin(0.01)
    st = tracer.self_times()
    assert st["inner"][0] == 2 and st["outer"][0] == 1
    outer_total = tracer.spans[0][2] - tracer.spans[0][1]
    assert abs(st["outer"][1] + st["inner"][1] - outer_total) < 1e-9
    assert 0.015 < st["outer"][1] < 0.035
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    tracer.dump(tmp_path / "t.json")
    dumped = json.loads((tmp_path / "t.json").read_text())
    assert [s["name"] for s in dumped["spans"]] == ["outer", "inner", "inner"]


def test_span_closes_on_exception():
    tracer = spans.Tracer()
    try:
        with tracer.span("boom"):
            raise KeyError
    except KeyError:
        pass
    assert tracer.spans[0][2] is not None and tracer._stack == []


def test_install_traces_without_changing_results():
    from bbmlab import counting, experiments, forest, spine
    from bbmlab.model import DYADIC, ModelParams, RngStream, TimeGrid
    from bbmlab.paths import SmoothPath, Tube

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = ModelParams(1.0, DYADIC)
    grid = TimeGrid(3.0, steps=60)
    tube = Tube(SmoothPath.zero(), 0.5, 1.0, 3.0)
    originals = (forest.simulate_forest, counting.TubeMembership, spine.TubeWeights,
                 spine.TubeWeights.martingale_at, experiments.simulate_forest)

    def replicate():
        f = forest.simulate_forest(params, grid, stream=RngStream(3, (1,)))
        w = spine.TubeWeights(f, tube, counting.TubeMembership(f, tube, bridge=True))
        return len(f), w.martingale_at(3.0)

    plain = replicate()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = replicate()
        assert isinstance(counting.TubeMembership(forest.simulate_forest(params, grid), tube),
                          originals[1])
    finally:
        restore()
    assert traced == plain
    assert (forest.simulate_forest, counting.TubeMembership, spine.TubeWeights,
            spine.TubeWeights.martingale_at, experiments.simulate_forest) == originals

    st = tracer.self_times()
    assert st["forest.simulate_forest"][0] == 2
    assert st["counting.TubeMembership"][0] == 2
    assert st["spine.TubeWeights"][0] == 1 and st["spine.martingale_at"][0] == 1
    assert tracer.counters["forest.simulate_forest.particles"] >= plain[0]

    m = spans.per_layer_metrics(tracer, overhead_s=0.5)
    assert m["trace.overhead_s"] == (0.5, "s")
    assert 0.0 < m["forest.useful_ratio"][0] <= 1.0
    assert m["forest.simulate_forest.us_per_particle"][0] > 0.0
    assert m["rate.max_rate_over_ball.n64.ms_per_query"] == (0.0, "ms")
    assert all(np.isfinite(v) for v, _ in m.values())


def test_rate_wrapper_counts_iterations_of_failed_queries():
    from bbmlab import rate
    from bbmlab.paths import GridPath

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    saved, rate.MAX_ITER = rate.MAX_ITER, 50
    try:
        query = rate.BallQuery(GridPath.line(1.2, 64), 0.2, 1.0, 64)
        try:
            rate.max_rate_over_ball(query, 1.0)
        except rate.ConvergenceError:
            pass
        else:
            raise AssertionError("expected ConvergenceError at 50 iterations")
    finally:
        rate.MAX_ITER = saved
        restore()
    assert tracer.counters["rate.max_rate_over_ball.n64.iterations"] == 50
    assert tracer.counters["rate.max_rate_over_ball.n64.queries"] == 1
