import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from bbmlab import counting, spine
from bbmlab.forest import (
    Forest,
    brownian_paths,
    dump_jsonl,
    lineage,
    lineage_grid_positions,
    population_at,
    propagate,
    simulate_forest,
    simulate_population_sizes,
)
from bbmlab.model import OffspringLaw, RngStream, TimeGrid
from bbmlab.paths import SmoothPath, Tube

from conftest import assert_gen_off_valid, block_offsets, make_params


def census(forest, t):
    """|N(t)|, as the runners count it."""
    return int(np.count_nonzero(forest.alive_mask(t)))


def test_population_census_semantics(dyadic_params, grid6):
    forest = simulate_forest(dyadic_params, grid6, stream=RngStream(2, (0,)))
    # single ancestor at the origin
    assert population_at(forest, 0.0) == [(0, 0.0)]
    # before the first branch there is still exactly one particle
    first_branch = forest.t_death[0]
    t = math.floor(first_branch / grid6.dt) * grid6.dt
    assert census(forest, t) == 1
    # dyadic counting identity: each branch before t adds exactly one particle
    for t in (2.0, 4.0, 6.0):
        branches = np.sum((forest.n_offspring == 2) & (forest.t_death <= t))
        assert census(forest, t) == 1 + branches
    with pytest.raises(ValueError):
        population_at(forest, 1.512)


def test_genealogy_consistency(dyadic_params, grid6):
    forest = simulate_forest(dyadic_params, grid6, stream=RngStream(3, (0,)))
    for i in range(1, len(forest)):
        p = forest.parent[i]
        assert p >= 0 and p < i
        assert forest.t_birth[i] == forest.t_death[p]
        assert forest.x_birth[i] == forest.x_death[p]
    for rec in forest.records():
        assert np.all(np.diff(rec.times) >= 0)
        assert rec.times[0] == rec.t_birth
        assert rec.times[-1] == rec.t_death
        assert len(rec.times) == len(rec.positions)
        assert len(np.unique(np.round(rec.times, 12))) == len(rec.times)
    # every non-censored particle has exactly A children recorded
    children = {i: 0 for i in range(len(forest))}
    for i in range(1, len(forest)):
        children[int(forest.parent[i])] += 1
    for i in range(len(forest)):
        expected = forest.n_offspring[i]
        assert children[i] == (expected if expected >= 0 else 0)


def test_lifetimes_ks_against_exponential(dyadic_params, grid6):
    draws = []
    for rep in range(60):
        forest = simulate_forest(dyadic_params, grid6, stream=RngStream(4, (rep,)))
        draws.extend(forest.raw_lifetimes.tolist())
    res = sstats.kstest(draws, "expon", args=(0.0, 1.0))
    assert res.pvalue > 1e-3, f"KS p-value {res.pvalue} on {len(draws)} lifetimes"


def test_population_martingale_constant_mean(dyadic_params):
    grid = TimeGrid(3.0, 60)
    ts = (1.0, 2.0, 3.0)
    vals = {t: [] for t in ts}
    for rep in range(400):
        forest = simulate_forest(dyadic_params, grid, stream=RngStream(5, (rep,)))
        for t in ts:
            vals[t].append(census(forest, t) * math.exp(-dyadic_params.rm * t))
    for t1, t2 in ((1.0, 2.0), (2.0, 3.0), (1.0, 3.0)):
        diff = np.array(vals[t2]) - np.array(vals[t1])
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) <= 3.0 * se


def test_mean_population_matches_growth(dyadic_params):
    # E|N(t)| = e^{rmt}; exercised at t=5 where the mean is ~148.4
    grid = TimeGrid(5.0, 100)
    counts = [
        census(simulate_forest(dyadic_params, grid, stream=RngStream(6, (rep,))), 5.0)
        for rep in range(1500)
    ]
    arr = np.array(counts, dtype=float)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean() - math.exp(5.0)) <= 3.0 * se


def test_standardised_increments_are_gaussian(dyadic_params, grid6):
    zs = []
    for rep in range(25):
        forest = simulate_forest(dyadic_params, grid6, stream=RngStream(7, (rep,)))
        block = counting.SeriesBlock(forest, counting.series_starts(forest), 0, len(forest))
        times, pos, starts = block.times, block.positions, block.starts
        dt = np.diff(times)
        dx = np.diff(pos)
        keep = np.ones(len(dt), dtype=bool)
        keep[starts[1:-1] - 1] = False  # joints between particles
        keep &= dt > 1e-12
        zs.append(dx[keep] / np.sqrt(dt[keep]))
    z = np.concatenate(zs)
    assert abs(z.mean()) <= 3.0 / math.sqrt(len(z))
    var_se = math.sqrt(2.0 / (len(z) - 1))
    assert abs(z.var(ddof=1) - 1.0) <= 3.0 * var_se


def test_determinism_per_stream(dyadic_params, grid6):
    a = simulate_forest(dyadic_params, grid6, stream=RngStream(42, (3,)))
    b = simulate_forest(dyadic_params, grid6, stream=RngStream(42, (3,)))
    c = simulate_forest(dyadic_params, grid6, stream=RngStream(42, (4,)))
    assert np.array_equal(a.xs_flat, b.xs_flat)
    assert np.array_equal(a.t_death, b.t_death)
    assert len(a) != len(c) or not np.array_equal(a.xs_flat, c.xs_flat)


def test_population_cap(dyadic_params, grid6):
    forest = simulate_forest(dyadic_params, grid6, stream=RngStream(8, (0,)), cap=10)
    assert forest.capped
    assert len(forest) <= 11


def test_offspring_law_respected():
    params = make_params(law=OffspringLaw({3: 1.0}))
    grid = TimeGrid(2.0, 40)
    forest = simulate_forest(params, grid, stream=RngStream(9, (0,)))
    branched = forest.n_offspring[forest.n_offspring >= 0]
    assert np.all(branched == 3)


def test_lineage_helpers(dyadic_params, grid6):
    forest = simulate_forest(dyadic_params, grid6, stream=RngStream(10, (0,)))
    alive = np.flatnonzero(forest.alive_mask(6.0))
    pid = int(alive[0])
    chain = lineage(forest, pid)
    assert chain[0] == 0 and chain[-1] == pid
    xs = lineage_grid_positions(forest, pid, 6.0)
    assert len(xs) == grid6.steps + 1
    assert xs[0] == 0.0
    # the chain is connected in time
    for a, b in zip(chain[:-1], chain[1:]):
        assert forest.parent[b] == a


def test_dump_jsonl_round_trip(dyadic_params, tmp_path):
    grid = TimeGrid(2.0, 20)
    forest = simulate_forest(dyadic_params, grid, stream=RngStream(11, (0,)))
    path = tmp_path / "forest.jsonl"
    with open(path, "w") as fh:
        dump_jsonl(forest, fh)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(forest)
    assert rows[0]["parent"] is None
    for row in rows:
        assert len(row["times"]) == len(row["positions"])
        if row["offspring"] is None:
            assert row["death"] == pytest.approx(2.0)


def test_counts_only_simulation_matches_mean(dyadic_params):
    counts = simulate_population_sizes(dyadic_params, 2.0, 8000, RngStream(12, (0,)))
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - math.exp(2.0)) <= 3.0 * se


def test_full_forest_generating_function(dyadic_params):
    # E[0.5^{|N(2)|}] has the closed form 1/(1+e^2) for dyadic branching
    grid = TimeGrid(2.0, 40)
    vals = [
        0.5 ** census(simulate_forest(dyadic_params, grid, stream=RngStream(14, (rep,))), 2.0)
        for rep in range(2500)
    ]
    arr = np.array(vals)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean() - 1.0 / (1.0 + math.exp(2.0))) <= 3.0 * se


def test_brownian_paths_shape_and_variance():
    grid = TimeGrid(4.0, 80)
    paths = brownian_paths(grid, 4000, RngStream(13, (0,)))
    assert paths.shape == (4000, 81)
    assert np.all(paths[:, 0] == 0.0)
    end_var = paths[:, -1].var(ddof=1)
    se = 4.0 * math.sqrt(2.0 / 3999)
    assert abs(end_var - 4.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# generation-wise core: structural invariants of any simulated forest
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    law=st.sampled_from([{2: 1.0}, {2: 0.5, 3: 0.5}]),
    T=st.floats(0.25, 3.0),
    steps=st.integers(1, 40),
    cap=st.sampled_from([1, 2, 7, 40, 10**6]),
    seed=st.integers(0, 2**16),
)
def test_forest_invariants(law, T, steps, cap, seed):
    grid = TimeGrid(T, steps)
    forest = simulate_forest(make_params(law=OffspringLaw(law)), grid, RngStream(seed, (0,)), cap)
    n, parent, dt = len(forest), forest.parent, grid.dt
    assert n <= cap and (forest.capped or n < cap)
    # ids are breadth-first: parents precede children, broods are contiguous
    assert parent[0] == -1
    assert np.all((parent[1:] >= 0) & (parent[1:] < np.arange(1, n)))
    assert np.all(np.diff(parent[1:]) >= 0)
    # one block per generation, each after all its parents
    assert_gen_off_valid(forest)
    # a child starts exactly where and when its parent died
    assert forest.t_birth[1:].tobytes() == forest.t_death[parent[1:]].tobytes()
    assert forest.x_birth[1:].tobytes() == forest.x_death[parent[1:]].tobytes()
    # censored iff the lifetime reaches the grid's end; a capped forest may
    # miss children from its last parent on
    assert np.array_equal(forest.n_offspring == -1, forest.t_death == forest.horizon)
    children = np.bincount(parent[1:], minlength=n)
    brood = np.maximum(forest.n_offspring, 0)
    complete = n if not forest.capped else (parent[-1] if n > 1 else 0)
    assert np.array_equal(children[:complete], brood[:complete]) and np.all(children <= brood)
    # grid positions: exactly the grid times inside [birth, death]
    assert forest.xs_off[0] == 0 and forest.xs_off[-1] == len(forest.xs_flat)
    times = grid.times()
    tol = 1e-9 * dt
    for i in range(n):
        inside = np.flatnonzero((times >= forest.t_birth[i] - tol) & (times <= forest.t_death[i] + tol))
        assert len(forest.grid_positions(i)) == len(inside)
        if len(inside):
            assert forest.grid_lo[i] == inside[0]
    assert forest.grid_positions(0)[0] == 0.0


# ---------------------------------------------------------------------------
# lineage propagation
# ---------------------------------------------------------------------------


def reference_propagate(forest, own, ufunc):
    """Per-particle loop in id order; valid because parents precede children."""
    out = np.empty(len(forest))
    for i, p in enumerate(forest.parent):
        out[i] = own[i] if p < 0 else ufunc(out[p], own[i])
    return out


def bare_forest(parent):
    """A genealogy with no trajectories: only ``parent`` is meaningful."""
    n = len(parent)
    zeros = np.zeros(n)
    ints = np.zeros(n, dtype=np.int64)
    return Forest(None, None, 0.0, np.asarray(parent, dtype=np.int64), block_offsets(parent), zeros,
                  zeros, ints, zeros, zeros, ints, np.empty(0), np.zeros(n + 1, dtype=np.int64), zeros,
                  False, RngStream(0))


@st.composite
def genealogies(draw):
    """Parent arrays with parent[i] < i, where any particle may be a root."""
    n = draw(st.integers(1, 60))
    return [-1] + [draw(st.integers(-1, i - 1)) for i in range(1, n)]


@settings(max_examples=200, deadline=None)
@given(
    parent=genealogies(),
    ufunc=st.sampled_from([np.minimum, np.maximum, np.add]),
    data=st.data(),
)
def test_propagate_matches_reference_loop(parent, ufunc, data):
    # sums stay finite: inf + -inf would be a NaN, and 60 terms of 1e300 fit
    values = (st.floats(-1e300, 1e300) if ufunc is np.add else st.floats(allow_nan=False))
    own = np.array(data.draw(st.lists(values, min_size=len(parent), max_size=len(parent))))
    forest = bare_forest(parent)
    out = propagate(forest, own, ufunc)
    assert out.tobytes() == reference_propagate(forest, own, ufunc).tobytes()


def test_lineage_consumers_match_reference_loop(monkeypatch):
    # a guided forest holds one block per spine row, then the generations of
    # the one natural-law grow over the spine's siblings
    params = make_params()
    grid = TimeGrid(3.0, 60)
    tube = Tube(SmoothPath.zero(8, "clamped"), 0.5, 1.0, 3.0)
    forest = spine.simulate_guided(params, tube, grid, stream=RngStream(31, (0,))).forest
    assert max(len(lineage(forest, i)) for i in range(len(forest))) > 4

    def lineage_values():
        mem = counting.TubeMembership(forest, tube, bridge=True)
        weights = spine.TubeWeights(forest, tube, mem)
        return mem.first_exit, weights._offset, counting.lineage_sup_abs(forest, 2.0)

    fast = lineage_values()
    monkeypatch.setattr(counting, "propagate", reference_propagate)
    monkeypatch.setattr(spine, "propagate", reference_propagate)
    for got, want in zip(fast, lineage_values()):
        assert got.tobytes() == want.tobytes()
