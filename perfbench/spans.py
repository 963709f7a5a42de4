"""In-memory spans and the module-attribute wrappers that record them.

A span is (name, start, end, parent). Spans are kept in a list while the
traced round runs and written out as JSON when the run ends. A layer's self
time is its spans' durations minus the time their child spans cover.

Every time here is read from :data:`clock`, the CPU clock of the workload
process. The workload is single-threaded (BLAS and OpenMP pinned to one
thread), so that clock is its wall time minus the time the host takes the CPU
away from it; on a shared two-vCPU host that part alone added up to a third
to single runs.

The program is never edited: :func:`install` replaces public functions and
classes of the ``bbmlab`` modules with timed wrappers at the module
attributes where callers look them up, and the function it returns puts the
originals back.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


clock = time.process_time


class Tracer:
    """Span recorder with counters, for one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = clock()
            self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), cover in zip(self.spans, covered):
            out[name][0] += 1
            out[name][1] += (end - start) - cover
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [
                {"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload) + "\n")


def _timed_function(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    return wrapper


def _timed_class(tracer: Tracer, cls, name: str, after):
    """Subclass whose constructor is one span, so isinstance still holds."""

    def __init__(self, *args, **kwargs):
        with tracer.span(name):
            cls.__init__(self, *args, **kwargs)
        after(self)

    return type(cls.__name__, (cls,), {"__init__": __init__, "__module__": cls.__module__})


def install(tracer: Tracer):
    """Wrap the public entry points of every timed layer; returns a function
    that restores the originals.

    Layers are the modules ``forest``, ``counting``, ``spine``, ``rate`` and
    ``reporting``. The runners of ``experiments`` are timed by the sweep
    workload itself, because each of them is one of its operations.
    """
    from bbmlab import cli, counting, experiments, forest, rate, reporting, spine

    saved: list[tuple[object, str, object]] = []

    def patch(value, *targets):
        for module, attr in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

    counted = weakref.WeakSet()  # forests whose useful particles are counted

    def after_forest(out, *args, **kwargs):
        tracer.count("forest.simulate_forest.particles", len(out))

    def after_sizes(out, *args, **kwargs):
        tracer.count("forest.simulate_population_sizes.replicates", len(out))

    def after_membership(mem):
        f = mem.forest
        tracer.count("counting.TubeMembership.particles", len(f))
        if f not in counted:
            counted.add(f)
            end = np.minimum(f.t_death, mem.tube.t_end)
            tracer.count("forest.useful_particles", int(np.count_nonzero(mem.first_exit > end)))

    def after_weights(w):
        tracer.count("spine.TubeWeights.particles", len(w.forest))

    def after_guided(wf, *args, **kwargs):
        n = len(wf.forest)
        tracer.count("spine.simulate_guided.particles", n)
        tracer.count("spine.simulate_guided.subtree_particles", n - len(wf.spine.pids))
        tracer.count("spine.simulate_guided.spine_steps", wf.spine.n_steps)
        tracer.count("spine.simulate_guided.spine_clamps", wf.spine.n_clamped)

    def after_csv(out, path, *args, **kwargs):
        tracer.count("reporting.csv_bytes", os.path.getsize(path))

    max_rate = rate.max_rate_over_ball

    @functools.wraps(max_rate)
    def timed_max_rate(query, rm):
        name = f"rate.max_rate_over_ball.n{query.resolution}"
        tracer.count(name + ".queries")
        try:
            with tracer.span(name):
                report = max_rate(query, rm)
        except rate.ConvergenceError as exc:
            tracer.count(name + ".iterations", exc.iterations)
            raise
        tracer.count(name + ".iterations", report.iterations)
        return report

    weights_cls = spine.TubeWeights

    patch(_timed_function(tracer, forest.simulate_forest, "forest.simulate_forest", after_forest),
          (forest, "simulate_forest"), (experiments, "simulate_forest"))
    patch(_timed_function(tracer, forest.simulate_population_sizes,
                          "forest.simulate_population_sizes", after_sizes),
          (forest, "simulate_population_sizes"), (experiments, "simulate_population_sizes"))
    patch(_timed_function(tracer, forest.brownian_paths, "forest.brownian_paths"),
          (forest, "brownian_paths"), (experiments, "brownian_paths"))
    patch(_timed_class(tracer, counting.TubeMembership, "counting.TubeMembership", after_membership),
          (counting, "TubeMembership"), (experiments, "TubeMembership"), (spine, "TubeMembership"))
    patch(_timed_function(tracer, counting.lineage_sup_abs, "counting.lineage_sup_abs"),
          (counting, "lineage_sup_abs"), (experiments, "lineage_sup_abs"))
    patch(_timed_function(tracer, counting.count_tube, "counting.count_tube"),
          (counting, "count_tube"), (experiments, "count_tube"))
    patch(_timed_function(tracer, counting.brownian_tube_indicator, "counting.brownian_tube_indicator"),
          (counting, "brownian_tube_indicator"))
    patch(_timed_class(tracer, spine.TubeWeights, "spine.TubeWeights", after_weights),
          (spine, "TubeWeights"))
    patch(_timed_function(tracer, weights_cls.martingale_at, "spine.martingale_at"),
          (weights_cls, "martingale_at"))
    patch(_timed_function(tracer, spine.simulate_guided, "spine.simulate_guided", after_guided),
          (spine, "simulate_guided"))
    patch(_timed_function(tracer, spine.spine_decomposition, "spine.spine_decomposition"),
          (spine, "spine_decomposition"))
    patch(timed_max_rate, (rate, "max_rate_over_ball"))
    patch(_timed_function(tracer, reporting.write_csv, "reporting.write_csv", after_csv),
          (reporting, "write_csv"), (experiments, "write_csv"))
    patch(_timed_function(tracer, reporting.write_summary, "reporting.write_summary"),
          (reporting, "write_summary"), (cli, "write_summary"))

    def restore():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return restore


RUNNERS = (
    "run_many_to_one",
    "run_pgf_bound",
    "run_martingale_suite",
    "run_growth",
    "run_counterexample",
    "run_diagnose_paths",
)


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, from one traced round.

    Counts are totals over the round. A layer the workload never calls reads 0.
    """
    st = tracer.self_times()
    c = tracer.counters

    def busy(name):
        return st.get(name, (0, 0.0))[1]

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    forest_particles = c["forest.simulate_forest.particles"]
    simulated = forest_particles + c["spine.simulate_guided.particles"]
    m = {
        "forest.simulate_forest.us_per_particle": (
            per(busy("forest.simulate_forest"), forest_particles, 1e6), "us"),
        "forest.simulate_forest.particles": (forest_particles, "count"),
        "forest.simulate_forest.busy_s": (busy("forest.simulate_forest"), "s"),
        "forest.useful_ratio": (per(c["forest.useful_particles"], simulated, 1.0), "ratio"),
        "forest.simulate_population_sizes.us_per_replicate": (
            per(busy("forest.simulate_population_sizes"),
                c["forest.simulate_population_sizes.replicates"], 1e6), "us"),
        "forest.brownian_paths.busy_s": (busy("forest.brownian_paths"), "s"),
        "counting.TubeMembership.us_per_particle": (
            per(busy("counting.TubeMembership"), c["counting.TubeMembership.particles"], 1e6), "us"),
        "counting.TubeMembership.busy_s": (busy("counting.TubeMembership"), "s"),
        "counting.lineage_sup_abs.busy_s": (busy("counting.lineage_sup_abs"), "s"),
        "counting.count_tube.busy_s": (busy("counting.count_tube"), "s"),
        "counting.brownian_tube_indicator.busy_s": (busy("counting.brownian_tube_indicator"), "s"),
        "spine.TubeWeights.us_per_particle": (
            per(busy("spine.TubeWeights"), c["spine.TubeWeights.particles"], 1e6), "us"),
        "spine.martingale_at.busy_s": (busy("spine.martingale_at"), "s"),
        "spine.simulate_guided.ms_per_replicate": (
            per(busy("spine.simulate_guided"), calls("spine.simulate_guided"), 1e3), "ms"),
        "spine.simulate_guided.particles": (c["spine.simulate_guided.particles"], "count"),
        "spine.simulate_guided.subtree_particles": (c["spine.simulate_guided.subtree_particles"], "count"),
        "spine.simulate_guided.spine_steps": (c["spine.simulate_guided.spine_steps"], "count"),
        "spine.simulate_guided.spine_clamps": (c["spine.simulate_guided.spine_clamps"], "count"),
        "spine.spine_decomposition.busy_s": (busy("spine.spine_decomposition"), "s"),
    }
    for n in (64, 256):
        name = f"rate.max_rate_over_ball.n{n}"
        m[name + ".ms_per_query"] = (per(busy(name), c[name + ".queries"], 1e3), "ms")
        m[name + ".iterations"] = (c[name + ".iterations"], "count")
    for runner in RUNNERS:
        m[f"experiments.{runner}.busy_s"] = (busy(f"experiments.{runner}"), "s")
    m["reporting.write_csv.busy_s"] = (busy("reporting.write_csv"), "s")
    m["reporting.csv_bytes"] = (c["reporting.csv_bytes"], "bytes")
    m["reporting.write_summary.busy_s"] = (busy("reporting.write_summary"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
