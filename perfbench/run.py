"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload natural --seed 0 --seconds 5 --trace 0

Run it from the root of a bbmlab checkout; it imports the package from
``src/`` there, without installing it. It sets one workload up, runs whole
rounds of its operations in a closed loop (each operation starts when the
previous one ends) until ``--seconds`` have passed, checks the outputs, and
prints a report whose last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. All times are read from
``spans.clock``, the CPU clock of this process; ``setup_s`` is the CPU time
from process start until the first operation can run.

With ``--trace 1`` it then replays round 0 with every layer wrapped in spans,
requires the replay to reproduce round 0 exactly, and reports the per-layer
metrics instead of the end-to-end ones.
"""

import os

# One thread for BLAS, OpenMP and numexpr; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("natural", "guided", "rate", "sweep")


def _percentile_line(ms: list[float]) -> str:
    """Median with the sample count, plus the highest of p90/p99/p99.9 that
    has at least ten samples beyond it (none below forty samples)."""
    n = len(ms)
    line = f"op_ms p50={statistics.median(ms):.4g} n={n}"
    for p in (99.9, 99.0, 90.0):
        if n >= 40 and n * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(ms, n=1000, method="inclusive")[int(round(p * 10)) - 1]
            return line + f" p{p:g}={q:.4g}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "bbmlab" / "__init__.py").is_file():
        print(f"run.py: no src/bbmlab under {root}; run it from the root of a bbmlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bbmlab

    if Path(bbmlab.__file__).resolve().parent != (root / "src" / "bbmlab").resolve():
        print(f"run.py: bbmlab imported from {bbmlab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import spans
    import workloads

    out_dir = HERE / "out"
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = spans.clock()  # CPU time of this process since it started

    rounds: list[list] = []
    round_s: list[float] = []
    start, wall_start = spans.clock(), time.monotonic()
    while not rounds or spans.clock() - start < args.seconds:
        rec = workloads.Recorder()
        t0 = spans.clock()
        wl.run_round(len(rounds), rec)
        round_s.append(spans.clock() - t0)
        rounds.append(rec.ops)
    timed_s = spans.clock() - start
    timed_wall_s = time.monotonic() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.failed]
    checks = wl.checks(rounds)

    if args.trace:
        tracer = spans.Tracer()
        rec = workloads.Recorder(tracer)
        restore = spans.install(tracer)
        try:
            t0 = spans.clock()
            wl.run_round(0, rec)
            traced_s = spans.clock() - t0
        finally:
            restore()
        same = [(o.label, o.failed, o.value) for o in rec.ops] == [(o.label, o.failed, o.value) for o in rounds[0]]
        checks.append(workloads.Check("traced round 0 reproduces untraced round 0", same,
                                      f"{len(rec.ops)} operations"))
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = spans.per_layer_metrics(tracer, traced_s - round_s[0])
    else:
        ms = [op.ms for op in ops]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (timed_s / len(rounds), "s"),
            "ops_per_s": ((len(ops) - len(failed)) / timed_s, "1/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"round_s={[round(s, 3) for s in round_s]} attempted={len(ops)} failed={len(failed)}")
    print(f"timed phase: {timed_s:.3f} s CPU, {timed_wall_s:.3f} s wall-clock; set-up {setup_s:.3f} s CPU")
    print(_percentile_line([op.ms for op in ops]))
    if len(rounds[0]) <= 12:
        print("round 0 ms: " + ", ".join(f"{op.label}={op.ms:.1f}" for op in rounds[0]))
    if hasattr(wl, "particles"):
        print(f"particles per round: {[wl.particles(r) for r in rounds]}")
    for reason, n in Counter(op.failed for op in failed).most_common():
        print(f"failed x{n}: {reason[:300]}")
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    result = {
        "correct": all(c.ok for c in checks),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
