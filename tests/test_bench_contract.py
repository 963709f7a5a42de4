"""What the benchmark harness under ``perfbench/`` uses of the package.

The harness calls the program through module attributes, reads spine
diagnostics and private fields, and wraps public names in timed spans. One
small natural and one small guided replicate go through its workloads with
the spans installed, so an edit to ``src/`` that would break
``perfbench/run.py --trace 1`` fails here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workloads

    return spans, workloads


def test_one_natural_and_one_guided_replicate_run_traced(harness, tmp_path):
    spans, workloads = harness
    from bbmlab import forest, spine

    originals = (forest.simulate_forest, spine.simulate_guided, spine.TubeWeights,
                 spine.spine_decomposition)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for name in ("natural", "guided"):
            wl = workloads.WORKLOADS[name](0, tmp_path)  # builds TimeGrid(..., spine_substeps=8)
            wl.replicates = 1
            rec = workloads.Recorder(tracer)
            wl.run_round(0, rec)
            assert [op.failed for op in rec.ops] == [""], name
            assert wl.particles(rec.ops) > 0
    finally:
        restore()
    assert (forest.simulate_forest, spine.simulate_guided, spine.TubeWeights,
            spine.spine_decomposition) == originals
    c = tracer.counters
    assert c["forest.simulate_forest.particles"] > 0
    assert c["spine.simulate_guided.particles"] > c["spine.simulate_guided.subtree_particles"] > 0
    assert c["spine.simulate_guided.spine_steps"] > 0
    assert c["spine.simulate_guided.spine_clamps"] == 0
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    assert calls["spine.simulate_guided"] == calls["spine.spine_decomposition"] == 1
    metrics = spans.per_layer_metrics(tracer, 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
