import math
import tracemalloc

import numpy as np
import pytest

from bbmlab import counting
from bbmlab.counting import (
    RoughnessIndeterminate,
    TubeMembership,
    brownian_tube_indicator,
    count_family,
    count_tube,
    lineage_sup_abs,
    rescaled_lineage,
    rough_increment_check,
)
from bbmlab.forest import brownian_paths, simulate_forest
from bbmlab.model import OffspringLaw, RngStream, TimeGrid
from bbmlab.paths import GridPath, SmoothPath, Tube, TubeFamily
from bbmlab.spine import TubeWeights, simulate_guided

from conftest import make_params, synth_forest


def flat_tube(eps, theta=1.0, T=1.0):
    return Tube(GridPath.zero(4), eps, theta, T)


def stays_in(forest, pid, tube):
    """Whole-lineage strict membership of one particle up to theta*T."""
    return TubeMembership(forest, tube, bridge=False).first_exit[pid] > tube.t_end


def test_single_stationary_particle():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0)])
    tube = flat_tube(0.5)
    assert stays_in(forest, 0, tube)
    rep = count_tube(forest, tube, bridge=False)
    assert rep.count == 1
    assert rep.growth_rate == pytest.approx(0.0)
    # enormous radius swallows anything
    assert stays_in(forest, 0, flat_tube(1e6))


def test_boundary_contact_is_outside():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    # touches the wall +eps*T exactly at one recorded time: strict inequality fails
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.5 if t == 0.5 else 0.0)])
    tube = flat_tube(0.5)
    assert not stays_in(forest, 0, tube)
    assert count_tube(forest, tube, bridge=False).count == 0
    assert count_tube(forest, tube, bridge=False).growth_rate == -math.inf
    # just inside passes
    forest2 = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.4999 if t == 0.5 else 0.0)])
    assert stays_in(forest2, 0, tube)


def test_membership_covers_whole_lineage():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    # parent strays out of the tube, child returns: the child is excluded too
    specs = [
        (-1, 0.0, 0.5, 2, lambda t: 2.0 * t),         # reaches 1.0 > eps*T at t=0.5
        (0, 0.5, 1.0, -1, lambda t: 1.0 - 2.0 * (t - 0.5) if t > 0.5 else 1.0),
        (0, 0.5, 1.0, -1, lambda t: 1.0),
    ]
    forest = synth_forest(params, grid, specs)
    tube = flat_tube(0.75)
    mem = TubeMembership(forest, tube, bridge=False)
    assert mem.first_exit[0] == pytest.approx(0.4)  # first recorded time at distance >= 0.75
    assert mem.first_exit[1] == pytest.approx(0.4)
    assert count_tube(forest, tube, bridge=False).count == 0


def test_theta_limits_membership_window():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    # excursion after theta*T must not matter
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0 if t <= 0.5 else 99.0)])
    tube = Tube(GridPath.zero(4), 0.5, 0.5, 1.0)
    assert stays_in(forest, 0, tube)
    assert count_tube(forest, tube, bridge=False).count == 1


def test_theta_zero_counts_the_root():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0)])
    tube = Tube(GridPath.zero(4), 0.5, 0.0, 1.0)
    rep = count_tube(forest, tube, bridge=False)
    assert rep.count == 1 and rep.growth_rate == 0.0


def test_family_union_semantics():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    specs = [
        (-1, 0.0, 0.2, 2, lambda t: 0.0),
        (0, 0.2, 1.0, -1, lambda t: min(t, 0.45)),      # drifts toward +0.45
        (0, 0.2, 1.0, -1, lambda t: -min(t, 0.45)),     # mirror image
    ]
    forest = synth_forest(params, grid, specs)
    up = Tube(GridPath.from_function(lambda s: 0.45 * s, 4), 0.3, 1.0, 1.0)
    down = Tube(GridPath.from_function(lambda s: -0.45 * s, 4), 0.3, 1.0, 1.0)
    both = TubeFamily((up, down))
    rep = count_family(forest, both, bridge=False)
    assert rep.per_tube == (1, 1)
    assert rep.count == 2  # disjoint tubes: union equals the sum
    single = count_family(forest, TubeFamily((up,)), bridge=False)
    assert single.count == count_tube(forest, up, bridge=False).count
    wide_up = Tube(GridPath.from_function(lambda s: 0.45 * s, 4), 1.5, 1.0, 1.0)
    wide_down = Tube(GridPath.from_function(lambda s: -0.45 * s, 4), 1.5, 1.0, 1.0)
    overlap = count_family(forest, TubeFamily((wide_up, wide_down)), bridge=False)
    assert overlap.count <= sum(overlap.per_tube)
    assert overlap.count == 2 and overlap.per_tube == (2, 2)


def test_monotone_in_epsilon_and_theta():
    params = make_params()
    grid = TimeGrid(4.0, 80)
    for rep in range(20):
        forest = simulate_forest(params, grid, stream=RngStream(21, (rep,)))
        prev = -1
        for eps in (0.2, 0.4, 0.8, 1.6):
            c = count_tube(forest, Tube(GridPath.zero(4), eps, 1.0, 4.0), bridge=False).count
            assert c >= prev
            prev = c
        # an empty prefix forces an empty full window
        small = Tube(GridPath.zero(4), 0.12, 0.5, 4.0)
        full = Tube(GridPath.zero(4), 0.12, 1.0, 4.0)
        if count_tube(forest, small, bridge=False).count == 0:
            assert count_tube(forest, full, bridge=False).count == 0


def test_bridge_correction_only_removes():
    params = make_params()
    grid = TimeGrid(4.0, 40)
    removed_any = False
    for rep in range(40):
        forest = simulate_forest(params, grid, stream=RngStream(22, (rep,)))
        tube = Tube(GridPath.zero(4), 0.5, 1.0, 4.0)
        raw = count_tube(forest, tube, bridge=False).count
        corrected = count_tube(forest, tube, bridge=True).count
        assert corrected <= raw
        removed_any |= corrected < raw
    assert removed_any  # at this resolution some crossings must be caught


def test_bridge_correction_deterministic():
    params = make_params()
    grid = TimeGrid(4.0, 40)
    forest = simulate_forest(params, grid, stream=RngStream(23, (0,)))
    tube = Tube(GridPath.zero(4), 0.5, 1.0, 4.0)
    a = count_tube(forest, tube, bridge=True).count
    b = count_tube(forest, tube, bridge=True).count
    assert a == b


def test_in_tube_requires_recorded_lineage():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 0.5, 2, lambda t: 0.0)])
    # the lineage never left, but the particle is dead before theta*T, so it
    # is no member there
    mem = TubeMembership(forest, flat_tube(0.5), bridge=False)
    assert mem.first_exit[0] == math.inf
    assert len(mem.members_at(1.0)) == 0 and count_tube(forest, flat_tube(0.5), bridge=False).count == 0


def test_rough_increment_examples():
    h = 1.0 / 1024
    n_pts = 1025
    assert not rough_increment_check([0.0] * n_pts, h, 4)
    # a unit jump across one grid cell is caught at scale n=4
    step = [0.0] * 512 + [1.0] * 513
    assert rough_increment_check(step, h, 4)
    # smooth slope stays regular
    gentle = np.linspace(0.0, 1.0, n_pts)
    assert not rough_increment_check(gentle, h, 4)
    with pytest.raises(RoughnessIndeterminate):
        rough_increment_check([0.0] * 11, 0.1, 50)


def test_rescaled_lineage_format():
    params = make_params()
    grid = TimeGrid(4.0, 80)
    forest = simulate_forest(params, grid, stream=RngStream(24, (0,)))
    alive = np.flatnonzero(forest.alive_mask(4.0))
    values, h = rescaled_lineage(forest, int(alive[0]), 1.0)
    assert h == pytest.approx(grid.dt / 4.0)
    assert len(values) == grid.steps + 1
    assert values[0] == 0.0


def test_lineage_sup_abs():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    specs = [
        (-1, 0.0, 0.5, 2, lambda t: 4.0 * t),  # peaks at 2.0
        (0, 0.5, 1.0, -1, lambda t: 2.0 - 2.0 * (t - 0.5) if t > 0.5 else 2.0),
        (0, 0.5, 1.0, -1, lambda t: 2.0),
    ]
    forest = synth_forest(params, grid, specs)
    sup = lineage_sup_abs(forest, 1.0)
    assert sup[0] == pytest.approx(2.0)
    assert sup[1] == pytest.approx(2.0)  # inherits the ancestral peak
    assert sup[2] == pytest.approx(2.0)


def test_brownian_tube_indicator_consistency():
    grid = TimeGrid(2.0, 40)
    paths = brownian_paths(grid, 500, RngStream(25, (0,)))
    wide = Tube(GridPath.zero(4), 50.0, 1.0, 2.0)
    assert brownian_tube_indicator(paths, grid, wide, bridge=False).mean() == 1.0
    tube = Tube(GridPath.zero(4), 0.5, 1.0, 2.0)
    raw = brownian_tube_indicator(paths, grid, tube, bridge=False)
    corrected = brownian_tube_indicator(paths, grid, tube, bridge=True, stream=RngStream(9, (1,)))
    assert np.all(corrected <= raw)
    assert corrected.mean() < raw.mean()


def test_brownian_tube_indicator_ignores_exits_after_theta_t():
    # the paths span the whole grid; with theta = 1/2 only times up to 1.0
    # count, so the path that leaves at 1.5 is inside and the one that leaves
    # at 0.5 is not, with or without the bridge
    grid = TimeGrid(2.0, 40)
    tube = Tube(GridPath.zero(4), 0.5, 0.5, 2.0)
    times = grid.times()
    paths = np.stack([np.where(times >= 1.5, 5.0, 0.0), np.where(times >= 0.5, 5.0, 0.0)])
    assert brownian_tube_indicator(paths, grid, tube, bridge=False).tolist() == [1.0, 0.0]
    assert brownian_tube_indicator(paths, grid, tube, bridge=True, stream=RngStream(9, (2,))).tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# the bridge exponent and the blockwise passes over the recorded series
# ---------------------------------------------------------------------------


def reference_bridge_rejections(center, radius, pos, gap, valid, u_up, u_dn):
    """The bridge rejections with ``exp`` taken of the unclipped exponent."""
    safe_gap = np.where(valid, gap, 1.0)
    rejected = np.zeros(u_up.shape, dtype=bool)
    for dist, u in ((center + radius - pos, u_up), (pos - (center - radius), u_dn)):
        left, right = dist[..., :-1], dist[..., 1:]
        with np.errstate(over="ignore"):
            p = np.where(valid & (left > 0) & (right > 0), np.exp(-2.0 * left * right / safe_gap), 0.0)
        rejected |= u < p
    return rejected & valid


@pytest.mark.parametrize("replicates", [None, 3])
def test_clipped_bridge_exponent_is_exact(replicates):
    rng = np.random.default_rng(51)
    n, radius = 20000, 1.0
    shape = (n + 1,) if replicates is None else (replicates, n + 1)
    center = rng.normal(0.0, 0.1, n + 1)
    pos = center + rng.uniform(-1.1, 1.1, shape)  # some ends outside the tube
    # gaps from 1 down to 1e-3 spread the exponent from about -8 to -8000
    gap = rng.choice([1.0, 0.05, 0.02, 1e-3], n)
    valid = rng.random(n) < 0.9
    u_up, u_dn = rng.random((2,) + shape[:-1] + (n,))
    for u in (u_up, u_dn):
        # uniforms are multiples of 2^-53: the clip matters only at u = 0
        u[..., ::37] = 0.0
        u[..., 5::41] = 2.0**-53
    got = counting._bridge_rejections(center, radius, pos, gap, valid, u_up, u_dn)
    want = reference_bridge_rejections(center, radius, pos, gap, valid, u_up, u_dn)
    assert np.array_equal(got, want)
    # u = 0 entries below e^-50 both ways: rejected above e^-745, kept below
    dist = center + radius - pos
    exponent = -2.0 * dist[..., :-1] * dist[..., 1:] / gap
    inside = valid & (dist[..., :-1] > 0) & (dist[..., 1:] > 0) & (u_up == 0.0)
    assert np.any(got & inside & (exponent < -50.0) & (exponent > -745.0))
    assert np.any(~got & inside & (exponent < -746.0))


def test_series_blocks_cover_the_forest_in_order(monkeypatch):
    forest = simulate_forest(make_params(), TimeGrid(6.0, 120), stream=RngStream(43, (0,)))
    monkeypatch.setattr(counting, "SERIES_BLOCK_POINTS", 40)
    blocks = list(counting.series_blocks(forest))
    starts = counting.series_starts(forest)
    assert [b.lo for b in blocks] == [0] + [b.hi for b in blocks[:-1]] and blocks[-1].hi == len(forest)
    for b in blocks:
        # at most 40 points unless one particle has more; no block could
        # have taken the next particle too
        assert starts[b.hi] - starts[b.lo] <= 40 or b.hi - b.lo == 1
        assert b.hi == len(forest) or starts[b.hi + 1] - starts[b.lo] > 40
    assert any(starts[b.hi] - starts[b.lo] > 40 for b in blocks)
    whole = counting.SeriesBlock(forest, starts, 0, len(forest))
    assert np.concatenate([b.times for b in blocks]).tobytes() == whole.times.tobytes()
    assert np.concatenate([b.positions for b in blocks]).tobytes() == whole.positions.tobytes()
    assert whole.starts.tobytes() == starts.tobytes()


@pytest.mark.parametrize("bridge", [False, True])
def test_blockwise_passes_match_one_block(monkeypatch, bridge):
    grid = TimeGrid(6.0, 120)
    flat = Tube(SmoothPath.zero(8, "clamped"), 0.5, 1.0, 6.0)
    curved = Tube(SmoothPath.from_function(lambda s: 0.8 * s * s - 0.3 * s, 8), 0.4, 0.75, 6.0)
    cases = [
        (simulate_forest(make_params(), grid, stream=RngStream(44, (rep,))), tube)
        for rep in range(3)
        for tube in (flat, curved)
    ]
    guided_tube = Tube(SmoothPath.from_function(lambda s: 0.6 * s * s, 8), 0.5, 1.0, 5.0)
    mixed = make_params(law=OffspringLaw({2: 0.5, 3: 0.5}))
    wf = simulate_guided(mixed, guided_tube, TimeGrid(5.0, 100), stream=RngStream(45, (0,)))
    cases.append((wf.forest, guided_tube))

    def outputs(forest, tube):
        mem = TubeMembership(forest, tube, bridge=bridge)
        weights = TubeWeights(forest, tube, mem)
        steps = forest.grid.steps
        quarters = [weights.martingale_at(k * forest.grid.dt) for k in range(0, steps + 1, steps // 4)]
        sup = lineage_sup_abs(forest, forest.grid.T / 2)
        return mem.first_exit, weights._cum, weights._offset, sup, np.array(quarters)

    monkeypatch.setattr(counting, "SERIES_BLOCK_POINTS", 10**9)
    one_block = [outputs(*case) for case in cases]
    monkeypatch.setattr(counting, "SERIES_BLOCK_POINTS", 40)
    for case, want in zip(cases, one_block):
        assert len(list(counting.series_blocks(case[0]))) > 10
        for got, expected in zip(outputs(*case), want):
            assert got.tobytes() == expected.tobytes()


def test_membership_and_weights_memory_is_bounded_per_point():
    forest = simulate_forest(make_params(), TimeGrid(10.0, 200), stream=RngStream(3, (0,)))
    points = len(forest.xs_flat) + 2 * len(forest)
    assert points >= 500_000
    tube = Tube(SmoothPath.zero(8, "clamped"), 0.5, 1.0, 10.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        TubeWeights(forest, tube, TubeMembership(forest, tube, bridge=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the forest: one float per point for the weights' running sum,
    # plus one block's temporaries
    assert (peak - before) / points < 40.0
