import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from bbmlab import spine
from bbmlab.counting import TubeMembership, count_tube
from bbmlab.forest import _Builder, lineage, simulate_forest
from bbmlab.model import OffspringLaw, RngStream, TimeGrid, sample_offspring, size_biased
from bbmlab.paths import GridPath, SmoothPath, Tube
from bbmlab.spine import (
    TubeWeights,
    WeightedForest,
    additive_martingale,
    count_bound_check,
    envelope_check,
    envelope_eta,
    importance_estimates,
    integral_bound_check,
    simulate_guided,
    spine_decomposition,
)

from conftest import make_params, synth_forest

MIXED = OffspringLaw({2: 0.5, 3: 0.5})


def flat_tube(T, eps=0.5, theta=1.0, n=8):
    return Tube(SmoothPath.zero(n), eps, theta, T)


# ---------------------------------------------------------------------------
# weights on synthetic forests: closed-form expectations
# ---------------------------------------------------------------------------


def test_weight_of_centred_particle():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0)])
    tube = flat_tube(1.0)
    lam = math.pi**2 / (8.0 * 0.25)
    v = TubeWeights(forest, tube).values_at([0, 0, 0], [0.0, 0.5, 1.0])
    assert v == pytest.approx([1.0, math.exp(lam * 0.5), math.exp(lam)])


def test_weight_vanishes_on_the_wall():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.5 if t >= 0.5 else 0.0)])
    tube = flat_tube(1.0)
    w = TubeWeights(forest, tube).values_at([0], 0.5)
    assert abs(w[0]) < 1e-12


def test_weight_requires_living_particle():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 0.5, 2, lambda t: 0.0)])
    with pytest.raises(ValueError):
        TubeWeights(forest, flat_tube(1.0)).values_at([0], 0.7)


def test_martingale_trivial_cases():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0)])
    tube = flat_tube(1.0)
    assert additive_martingale(forest, 0.0, tube) == pytest.approx(1.0)
    # everything outside the tube sums to zero
    far = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 10.0 * t)])
    assert additive_martingale(far, 1.0, tube) == 0.0


def test_stochastic_integral_inherited_along_lineage():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    # drifting centre path => nonzero integrand f'(s/T) = 1
    line = SmoothPath.from_function(lambda s: s, 8, boundary="natural")
    tube = Tube(line, 2.0, 1.0, 1.0)
    specs = [
        (-1, 0.0, 0.5, 2, lambda t: 2.0 * t),
        (0, 0.5, 1.0, -1, lambda t: 1.0),
        (0, 0.5, 1.0, -1, lambda t: 1.0 + (t - 0.5)),
    ]
    forest = synth_forest(params, grid, specs)
    w = TubeWeights(forest, tube)
    # I(t) = sum f' dX = X(t) here, since f' == 1; particle 1 keeps its
    # parent's value, then stays flat
    assert w.integral_at([0, 1, 2], [0.5, 1.0, 1.0]) == pytest.approx([1.0, 1.0, 1.5])


def test_martingale_is_exactly_one_at_time_zero():
    # the root sits at the tube centre: V(0) = 1 and e^0 = 1, per replicate
    params = make_params()
    grid = TimeGrid(2.0, 40)
    tube = flat_tube(2.0)
    for rep in range(5):
        forest = simulate_forest(params, grid, stream=RngStream(30, (rep,)))
        assert additive_martingale(forest, 0.0, tube) == pytest.approx(1.0, abs=1e-14)


def test_martingale_mean_one_small():
    # mean-one desk check at modest scale; the acceptance suite runs the
    # full-size version
    params = make_params()
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0)
    zs = []
    for rep in range(1200):
        forest = simulate_forest(params, grid, stream=RngStream(31, (rep,)))
        mem = TubeMembership(forest, tube, bridge=True)
        zs.append(TubeWeights(forest, tube, mem).martingale_at(4.0))
    arr = np.array(zs)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean() - 1.0) <= 3.0 * se


# ---------------------------------------------------------------------------
# the one weight formula: TubeWeights.values_at
# ---------------------------------------------------------------------------


def reference_point(w, pid, t):
    """Flat series index, recorded time and position of particle pid at t,
    looked up one particle at a time: its birth, else its death, else the
    grid time t."""
    f = w.forest
    dt = f.grid.dt
    start = int(w._starts[pid])
    if abs(t - f.t_birth[pid]) <= 1e-9 * dt:
        return start, float(f.t_birth[pid]), float(f.x_birth[pid])
    if abs(t - f.t_death[pid]) <= 1e-9 * dt:
        return int(w._starts[pid + 1] - 1), float(f.t_death[pid]), float(f.x_death[pid])
    k, lo = int(round(t / dt)), int(f.grid_lo[pid])
    assert abs(k * dt - t) <= 1e-9 * max(dt, 1.0) and 0 <= k - lo < f.xs_off[pid + 1] - f.xs_off[pid]
    return start + 1 + (k - lo), k * dt, float(f.xs_flat[f.xs_off[pid] + (k - lo)])


def reference_integral(w, pid, t):
    j = reference_point(w, pid, t)[0]
    return float(w._offset[pid] + w._cum[j] - w._cum[w._starts[pid]])


def reference_weight(w, pid, t):
    """V_u(t) from scalars with math.exp and math.cos."""
    j, time, x = reference_point(w, pid, t)
    T = w.tube.horizon
    delta = x - w.tube.center(min(time, T))
    integral = w._offset[pid] + w._cum[j] - w._cum[w._starts[pid]]
    half_energy = T * w.tube.path.energy(min(t / T, 1.0))
    return float(math.exp(w._lam * t) * math.cos(w._a * delta) * math.exp(integral - half_energy))


def recorded_times(forest, pid):
    lo, n = int(forest.grid_lo[pid]), int(forest.xs_off[pid + 1] - forest.xs_off[pid])
    grid = [k * forest.grid.dt for k in range(lo, lo + n)]
    return [float(forest.t_birth[pid])] + grid + [float(forest.t_death[pid])]


CURVED = SmoothPath.from_function(lambda s: 0.8 * s * s - 0.3 * s, 8)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["natural", "curved", "guided"]),
    seed=st.integers(0, 10**6),
    T=st.sampled_from([2.0, 3.0, 4.0]),
    bridge=st.booleans(),
)
def test_values_at_is_the_one_weight_formula(kind, seed, T, bridge):
    params = make_params(law=MIXED)
    grid = TimeGrid(T, int(20 * T))
    tube = flat_tube(T) if kind == "natural" else Tube(CURVED, 0.5, 1.0, T)
    if kind == "guided":
        forest = simulate_guided(params, tube, grid, stream=RngStream(46, (seed,))).forest
    else:
        forest = simulate_forest(params, grid, stream=RngStream(46, (seed,)))
    w = TubeWeights(forest, tube, TubeMembership(forest, tube, bridge=bridge))
    # Z is the sum of V over the members, e^{-rmt}-normalised, bit for bit
    for k in range(0, grid.steps + 1, grid.steps // 4):
        t = k * grid.dt
        v = w.values_at(w.membership.members_at(t), t)
        assert w.martingale_at(t) == float(v.sum() * math.exp(-params.rm * t))
    # at births, grid times and deaths V matches the scalar formula
    rng = np.random.default_rng(seed)
    pids = rng.choice(len(forest), size=min(len(forest), 25), replace=False)
    ids = [int(p) for p in pids for _ in recorded_times(forest, p)]
    times = [t for p in pids for t in recorded_times(forest, p)]
    want = [reference_weight(w, p, t) for p, t in zip(ids, times)]
    assert w.values_at(ids, times) == pytest.approx(want, rel=1e-14, abs=0.0)
    # a child's V at its birth is its parent's V at its death
    c = np.flatnonzero(forest.parent >= 0)
    p = forest.parent[c]
    assert w.values_at(c, forest.t_birth[c]) == pytest.approx(w.values_at(p, forest.t_death[p]), rel=1e-12)
    # a time the particle did not record raises, alone or among good ones
    pid = int(pids[0])
    rec = recorded_times(forest, pid)
    gap = int(np.argmax(np.diff(rec)))
    if rec[gap + 1] - rec[gap] > 1e-6 * grid.dt:
        t_bad = 0.5 * (rec[gap] + rec[gap + 1])
        with pytest.raises(ValueError):
            w.values_at([pid], t_bad)
        with pytest.raises(ValueError):
            w.values_at([pid, pid], [rec[0], t_bad])


def test_integral_bound_check_array_matches_per_id_loop():
    params = make_params()
    grid = TimeGrid(4.0, 80)
    parab = SmoothPath.from_function(lambda s: 0.4 * s * s, 16, boundary="clamped")
    tube = Tube(parab, 0.5, 1.0, 4.0)
    checked = 0
    for rep in range(8):
        forest = simulate_forest(params, grid, stream=RngStream(47, (rep,)))
        w = TubeWeights(forest, tube)
        for t in (3.0, 4.0):
            members = w.membership.members_at(t)
            chk = integral_bound_check(forest, members, t, tube, w)
            energy = 2.0 * 4.0 * parab.energy(t / 4.0)
            want = np.array([abs(reference_integral(w, int(p), t) - energy) for p in members])
            assert chk.lhs.tobytes() == want.tobytes()
            assert chk.holds.tobytes() == (want <= chk.rhs + chk.slack + 1e-9).tobytes()
            checked += len(members)
    assert checked > 50


# ---------------------------------------------------------------------------
# guided simulation
# ---------------------------------------------------------------------------


def test_guided_requires_matching_grid():
    params = make_params()
    grid = TimeGrid(2.0, 40)
    with pytest.raises(ValueError):
        simulate_guided(params, flat_tube(3.0), grid)


def test_guided_follows_a_grid_path():
    # the sampler never reads f', so a piecewise-linear centre works too: the
    # spine stays strictly inside the sloped tube at every recorded point
    params = make_params(law=MIXED)
    grid = TimeGrid(4.0, 80)
    tube = Tube(GridPath.line(0.8, 4), 0.3, 1.0, 4.0)
    for rep in range(5):
        wf = simulate_guided(params, tube, grid, stream=RngStream(21, (rep,)))
        membership = wf.weights().membership
        for pid in wf.spine.pids:
            rec = wf.forest.record(pid)
            assert np.all(np.abs(rec.positions - tube.center(rec.times)) < tube.radius)
            assert membership.first_exit[pid] > rec.t_death


def test_guided_spine_confined_and_lawful():
    params = make_params(law=MIXED)
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0)
    gaps, broods = [], []
    steps = clamps = 0
    for rep in range(250):
        wf = simulate_guided(params, tube, grid, stream=RngStream(32, (rep,)))
        w = wf.weights()
        for pid in wf.spine.pids:
            d = min(wf.forest.t_death[pid], tube.t_end)
            assert w.membership.first_exit[pid] > d
        gaps.extend(wf.spine.gap_draws)
        broods.extend(wf.spine.offspring)
        steps += wf.spine.n_steps
        clamps += wf.spine.n_clamped
        # genealogy: the spine is a root-to-leaf chain with increasing times
        assert wf.spine.pids[0] == 0
        assert all(s1 < s2 for s1, s2 in zip(wf.spine.birth_times, wf.spine.birth_times[1:]))
    rate_spine = (params.m + 1.0) * params.r
    ks = sstats.kstest(gaps, "expon", args=(0.0, 1.0 / rate_spine))
    assert ks.pvalue > 1e-3
    # accelerated-rate sanity on the mean gap
    arr = np.array(gaps)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean() - 1.0 / rate_spine) <= 3.0 * se
    # offspring follow the size-biased law
    biased = size_biased(MIXED)
    ks_vals = [k for k, _ in biased.pmf]
    observed = np.array([broods.count(k) for k in ks_vals], dtype=float)
    expected = np.array([p for _, p in biased.pmf]) * len(broods)
    assert sstats.chisquare(observed, expected).pvalue > 1e-3
    assert clamps / steps < 0.01


def test_guided_dyadic_gap_mean():
    # dyadic: branch gaps have mean 1/((m+1)r) = 1/(2r)
    params = make_params()
    grid = TimeGrid(6.0, 120)
    tube = flat_tube(6.0)
    gaps = []
    for rep in range(80):
        wf = simulate_guided(params, tube, grid, stream=RngStream(33, (rep,)))
        gaps.extend(wf.spine.gap_draws)
    arr = np.array(gaps)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean() - 0.5) <= 3.0 * se


def test_guided_wide_tube_is_almost_free_brownian():
    # with a huge radius the confining drift vanishes and spine increments
    # look like raw Brownian increments
    params = make_params()
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0, eps=1000.0)
    incs = []
    for rep in range(60):
        wf = simulate_guided(params, tube, grid, stream=RngStream(34, (rep,)))
        f = wf.forest
        for pid in wf.spine.pids:
            xs = f.grid_positions(pid)
            if len(xs) > 1:
                incs.append(np.diff(xs))
    z = np.concatenate(incs) / math.sqrt(grid.dt)
    var_se = math.sqrt(2.0 / (len(z) - 1))
    assert abs(z.var(ddof=1) - 1.0) <= 3.0 * var_se
    assert abs(z.mean()) <= 3.0 / math.sqrt(len(z))


def test_guided_determinism():
    params = make_params()
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0)
    a = simulate_guided(params, tube, grid, stream=RngStream(35, (0,)))
    b = simulate_guided(params, tube, grid, stream=RngStream(35, (0,)))
    assert a.spine.birth_times == b.spine.birth_times
    assert np.array_equal(a.forest.xs_flat, b.forest.xs_flat)


# ---------------------------------------------------------------------------
# the exact spine sampler against the eigen-series of the killed heat kernel
# ---------------------------------------------------------------------------


def killed_kernel(h, u, v, L, n_max=400):
    """Density of Brownian motion from u at v after time h, killed on leaving
    (0, L): (2/L) sum_n exp(-n^2 pi^2 h/(2L^2)) sin(n pi u/L) sin(n pi v/L)."""
    n = np.arange(1, n_max + 1)
    w = n * math.pi / L
    return 2.0 / L * float(np.sum(np.exp(-0.5 * w * w * h) * np.sin(w * u) * np.sin(w * v)))


def taboo_cdf(z, y, h, R, n_max=400):
    """CDF at z of the taboo process after time h from y, from the eigen-series:
    the killed kernel h-transformed by cos(a z), integrated in closed form
    (the n = 1 term carries the stationary cos^2 law)."""
    L = 2.0 * R
    om = math.pi / L
    u, S = y + R, np.asarray(z, dtype=np.float64) + R
    total = 0.0
    for n in range(1, n_max + 1):
        # int_0^S sin(om s) sin(n om s) ds
        first = S if n == 1 else np.sin((n - 1) * om * S) / ((n - 1) * om)
        integral = 0.5 * (first - np.sin((n + 1) * om * S) / ((n + 1) * om))
        total = total + math.exp(-0.5 * (n * om) ** 2 * h) * math.sin(n * om * u) * integral
    return math.exp(0.5 * om * om * h) / math.sin(om * u) * 2.0 / L * total


@pytest.mark.parametrize("h_over_L2", [0.01, 0.2, 1.0])
def test_bridge_survival_is_the_killed_kernel_over_the_free_one(h_over_L2):
    # at h/L^2 = 1 the images k = +-1 and +-2 both matter
    L = 2.0
    h = h_over_L2 * L * L
    points = (0.02, 0.3, 0.9, 1.0, 1.6, 1.97)
    checked = 0
    for u in points:
        for v in points:
            if abs(v - u) > 3.0 * math.sqrt(h):
                continue  # the free kernel is too small to divide by at 1e-12
            free = math.exp(-((v - u) ** 2) / (2.0 * h)) / math.sqrt(2.0 * math.pi * h)
            want = killed_kernel(h, u, v, L) / free
            assert spine._bridge_survival(u, v, h, L) == pytest.approx(want, abs=1e-12)
            checked += 1
    assert checked >= 12


@pytest.mark.parametrize("y0_over_R", [0.0, 0.9, -0.97])
@pytest.mark.parametrize("h", [0.05, 0.6, 3.0, 12.0])
def test_taboo_step_has_the_eigen_series_law(y0_over_R, h):
    # R = 3: lam = pi^2/72, so h = 12 crosses the gap in two transitions
    R = 3.0
    y0 = y0_over_R * R
    rng = np.random.default_rng([int(1000 * h), int(100 + 100 * y0_over_R)])
    stats = [0]
    zs = np.array([spine._taboo_step(y0, h, R, rng, stats) for _ in range(3000)])
    assert np.all(np.abs(zs) < R)
    ks = sstats.kstest(zs, lambda z: taboo_cdf(z, y0, h, R))
    assert ks.pvalue > 1e-3
    # a proposal is accepted with probability e^{-lam h} cos(a y0) (one piece)
    lam = math.pi**2 / (8.0 * R * R)
    if lam * h <= 1.0:
        p = math.exp(-lam * h) * math.cos(math.pi * y0 / (2.0 * R))
        assert abs(stats[0] - 3000 / p) < 4.0 * math.sqrt(3000 * (1.0 - p)) / p


def test_taboo_step_of_zero_gap_draws_nothing():
    rng = np.random.default_rng(0)
    stats = [0]
    assert spine._taboo_step(0.7, 0.0, 1.0, rng, stats) == 0.7
    assert stats == [0] and rng.random() == np.random.default_rng(0).random()


def test_spine_genealogy_replays_from_its_own_stream():
    # gaps, broods and child choices come from stream.split(0) in that order,
    # whatever the path sampler drew
    params = make_params(law=MIXED)
    T = 5.0
    tube = flat_tube(T)
    biased = size_biased(MIXED)
    for rep in range(10):
        stream = RngStream(19, (rep,))
        s = simulate_guided(params, tube, TimeGrid(T, 100), stream=stream).spine
        rng = stream.split(0).generator()
        gaps, broods, choices, t = [], [], [], 0.0
        while True:
            gaps.append(rng.exponential(1.0 / ((params.m + 1.0) * params.r)))
            if t + gaps[-1] >= T:
                break
            t += gaps[-1]
            broods.append(sample_offspring(biased, rng))
            choices.append(int(rng.integers(broods[-1])))
        assert s.gap_draws == tuple(gaps)
        assert s.offspring == tuple(broods)
        assert s.child_choices == tuple(choices)
        assert s.n_steps >= 100 and s.n_clamped == 0


# ---------------------------------------------------------------------------
# spine decomposition
# ---------------------------------------------------------------------------


def test_spine_stream_ignores_subtrees(monkeypatch):
    # each sibling subtree has its own stream, so growing none of them leaves
    # the spine's draws, diagnostics and rows exactly as they were
    params = make_params(law=MIXED)
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0)

    def spine_view(rows):
        wf = simulate_guided(params, tube, grid, stream=RngStream(17, (2,)))
        s, f = wf.spine, wf.forest
        record = (s.birth_times, s.offspring, s.gap_draws, s.child_choices, s.n_steps, s.n_clamped)
        return wf, record, [
            (f.t_birth[i], f.t_death[i], f.n_offspring[i], f.x_birth[i], f.x_death[i],
             f.grid_lo[i], f.raw_lifetimes[i], f.grid_positions(i).tobytes())
            for i in rows(wf)
        ]

    real, record, rows = spine_view(lambda wf: wf.spine.pids)
    assert len(real.spine.offspring) >= 2 and len(real.forest) > len(real.spine.pids)
    monkeypatch.setattr(_Builder, "grow", lambda self, *args: None)
    # with no subtree rows the spine rows are the whole forest, in id order
    alone, alone_record, alone_rows = spine_view(lambda wf: range(len(wf.forest)))
    assert len(alone.forest) == len(alone.spine.pids)
    assert alone_record == record
    assert alone_rows == rows


def test_capped_guided_forest_has_contiguous_ids():
    # ids are rows in the order they are added, so a capped replicate (its
    # siblings past the cap and the spine's next particle never added) has
    # no gaps: parents precede children and each child starts where its
    # parent died
    params = make_params(law=MIXED)
    grid = TimeGrid(5.0, 100)
    tube = flat_tube(5.0)
    for rep in range(30):
        wf = simulate_guided(params, tube, grid, stream=RngStream(7, (rep,)), cap=300)
        f, pids = wf.forest, wf.spine.pids
        assert f.capped
        c = np.flatnonzero(f.parent >= 0)
        assert np.all(f.parent[c] < c)
        assert f.t_birth[c].tobytes() == f.t_death[f.parent[c]].tobytes()
        assert f.x_birth[c].tobytes() == f.x_death[f.parent[c]].tobytes()
        assert lineage(f, pids[-1]) == list(pids)


def test_weights_read_a_given_membership():
    params = make_params()
    grid = TimeGrid(2.0, 40)
    tube = flat_tube(2.0)
    wf = simulate_guided(params, tube, grid, stream=RngStream(18, (0,)))
    mem = TubeMembership(wf.forest, tube, bridge=True)
    w = wf.weights(mem)
    assert w.membership is mem and wf.weights() is w and wf.weights(mem) is w
    assert w.martingale_at(2.0) == TubeWeights(wf.forest, tube, mem).martingale_at(2.0)
    # the default still builds its own membership, without the bridge draws
    plain = WeightedForest(wf.forest, wf.spine, tube).weights()
    assert plain.membership is not mem
    assert np.array_equal(plain.membership.first_exit, TubeMembership(wf.forest, tube).first_exit)


def test_decomposition_before_first_branch():
    params = make_params()
    grid = TimeGrid(6.0, 120)
    tube = flat_tube(6.0)
    wf = simulate_guided(params, tube, grid, stream=RngStream(36, (0,)))
    first = wf.spine.birth_times[0]
    t = math.floor(first / grid.dt) * grid.dt  # recorded time before any branch
    w = wf.weights()
    expected = w.values_at([0], t)[0] * math.exp(-params.rm * t)
    assert spine_decomposition(wf, t) == pytest.approx(expected)


def test_decomposition_dyadic_summands():
    params = make_params()
    grid = TimeGrid(6.0, 120)
    tube = flat_tube(6.0)
    wf = simulate_guided(params, tube, grid, stream=RngStream(37, (0,)))
    w = wf.weights()
    t = tube.t_end
    total = 0.0
    for pid, s_u, a_u in zip(wf.spine.pids, wf.spine.birth_times, wf.spine.offspring):
        if s_u > t:
            break
        assert a_u == 2  # dyadic: every summand weight is exactly V e^{-rm S}
        total += w.values_at([pid], s_u)[0] * math.exp(-params.rm * s_u)
    alive = [p for p in wf.spine.pids if wf.forest.alive_mask(t)[p]]
    total += w.values_at([alive[0]], t)[0] * math.exp(-params.rm * t)
    assert spine_decomposition(wf, t) == pytest.approx(total)


def test_decomposition_matches_martingale_in_mean():
    params = make_params()
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0)
    diffs = []
    for rep in range(500):
        wf = simulate_guided(params, tube, grid, stream=RngStream(38, (rep,)))
        w = wf.weights()
        diffs.append(w.martingale_at(4.0) - spine_decomposition(wf, 4.0))
    arr = np.array(diffs)
    se = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean()) <= 3.0 * se


# ---------------------------------------------------------------------------
# pathwise inequality checks
# ---------------------------------------------------------------------------


def test_integral_bound_flat_path_is_zero():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.3)])
    # positions constant but inside; flat centre path: both sides vanish
    forest.x_birth[0] = 0.3
    chk = integral_bound_check(forest, [0], 1.0, flat_tube(1.0))
    assert chk.lhs[0] == pytest.approx(0.0, abs=1e-14)
    assert chk.rhs == pytest.approx(0.0, abs=1e-14)
    assert chk.slack == pytest.approx(0.0, abs=1e-14)
    assert chk.holds.all()


def test_integral_bound_linear_path_closed_form():
    params = make_params()
    grid = TimeGrid(2.0, 40)
    c = 0.7
    line = SmoothPath.from_function(lambda s: c * s, 8, boundary="natural")
    tube = Tube(line, 0.5, 1.0, 2.0)
    for rep in range(10):
        forest = simulate_forest(params, grid, stream=RngStream(39, (rep,)))
        mem = TubeMembership(forest, tube)
        w = TubeWeights(forest, tube, mem)
        chk = integral_bound_check(forest, mem.members_at(2.0), 2.0, tube, w)
        # f'' == 0: the bound is exactly eps*T*|c| with zero slack
        assert chk.rhs == pytest.approx(tube.radius * c, abs=1e-9)
        assert chk.slack == pytest.approx(0.0, abs=1e-12)
        assert chk.holds.all()


def test_integral_bound_validation_sweep():
    params = make_params()
    grid = TimeGrid(4.0, 80)
    parab = SmoothPath.from_function(lambda s: 0.4 * s * s, 16, boundary="clamped")
    tube = Tube(parab, 0.5, 1.0, 4.0)
    checked = 0
    for rep in range(50):
        forest = simulate_forest(params, grid, stream=RngStream(40, (rep,)))
        mem = TubeMembership(forest, tube)
        w = TubeWeights(forest, tube, mem)
        z, count, bound, holds = count_bound_check(forest, tube, w)
        assert holds
        chk = integral_bound_check(forest, mem.members_at(4.0), 4.0, tube, w)
        assert chk.holds.all()
        checked += len(chk.holds)
    assert checked > 100


def test_integral_bound_requires_membership():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 10.0 * t)])
    with pytest.raises(ValueError):
        integral_bound_check(forest, [0], 1.0, flat_tube(1.0))


# ---------------------------------------------------------------------------
# envelope check and its hypothesis gate
# ---------------------------------------------------------------------------


def test_envelope_gate():
    parab = SmoothPath.from_function(lambda s: 0.4 * s * s, 16, boundary="clamped")
    ok, eta, reason = envelope_eta(parab, 1.0, 1.0, 0.25)
    assert ok and eta > 0.0
    ok2, _, reason2 = envelope_eta(parab, 1.0, 1.0, 0.5)
    assert not ok2 and "epsilon" in reason2
    steep = SmoothPath.from_function(lambda s: 2.0 * s * s, 16, boundary="clamped")
    ok3, _, reason3 = envelope_eta(steep, 1.0, 1.0, 0.1)
    assert not ok3 and "positive" in reason3
    sloped = SmoothPath.from_function(lambda s: 0.3 * s, 16, boundary="natural")
    ok4, _, reason4 = envelope_eta(sloped, 1.0, 1.0, 0.1)
    assert not ok4 and "f'(0)" in reason4


def test_envelope_holds_per_replicate():
    params = make_params()
    grid = TimeGrid(4.0, 80)
    parab = SmoothPath.from_function(lambda s: 0.4 * s * s, 16, boundary="clamped")
    eps = 0.25
    tube = Tube(parab, eps, 1.0, 4.0)
    ok, eta, _ = envelope_eta(parab, params.rm, 1.0, eps)
    assert ok
    for rep in range(60):
        wf = simulate_guided(params, tube, grid, stream=RngStream(41, (rep,)))
        chk = envelope_check(wf, tube.t_end, eta)
        assert chk.holds


# ---------------------------------------------------------------------------
# importance sampling
# ---------------------------------------------------------------------------


def test_importance_of_constant_is_one_when_tube_cannot_empty():
    # E_Q[1/Z] is the natural-law probability that the tube is populated;
    # with an enormous radius that probability is one, recovering E_P[1]
    params = make_params()
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0, eps=1000.0)
    res = importance_estimates([lambda mem: 1.0], params, tube, grid, 400, stream=RngStream(42, (0,)))[0]
    assert res.n == 400
    assert abs(res.estimate - 1.0) <= 3.0 * res.se


def test_importance_of_constant_targets_populated_probability():
    params = make_params()
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0)
    res = importance_estimates(
        [lambda mem: 1.0], params, tube, grid, 800, stream=RngStream(42, (1,)), bridge=True
    )[0]
    direct = []
    for rep in range(2000):
        forest = simulate_forest(params, grid, stream=RngStream(45, (rep,)))
        direct.append(1.0 if count_tube(forest, tube, bridge=True).count > 0 else 0.0)
    arr = np.array(direct)
    pooled = math.sqrt(res.se**2 + arr.var(ddof=1) / len(arr))
    assert abs(res.estimate - arr.mean()) <= 3.0 * pooled


def test_importance_matches_direct_count():
    # the ratio estimator needs membership consistent with the continuous
    # change of measure: bridge correction on, on both sides
    params = make_params()
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0)
    counter = lambda f: float(count_tube(f, tube, bridge=True).count)
    # the guided side counts the members of the membership that gives Z,
    # which draws the same bridge uniforms as count_tube
    res = importance_estimates(
        [lambda mem: float(len(mem.members_at(tube.t_end)))],
        params, tube, grid, 600, stream=RngStream(43, (0,)), bridge=True,
    )[0]
    direct = []
    for rep in range(1500):
        forest = simulate_forest(params, grid, stream=RngStream(44, (rep,)))
        direct.append(counter(forest))
    arr = np.array(direct)
    dse = arr.std(ddof=1) / math.sqrt(len(arr))
    pooled = math.sqrt(res.se**2 + dse**2)
    assert abs(res.estimate - arr.mean()) <= 3.0 * pooled
