import hashlib
import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from bbmlab import counting, spine
from bbmlab.counting import TubeMembership, count_tube
from bbmlab.forest import _Builder, lineage, propagate, simulate_forest
from bbmlab.model import OffspringLaw, RngStream, TimeGrid, sample_offspring, size_biased
from bbmlab.paths import GridPath, SmoothPath, Tube
from bbmlab.spine import (
    TubeWeights,
    additive_martingale,
    count_bound_check,
    envelope_check,
    envelope_eta,
    importance_estimates,
    integral_bound_check,
    simulate_guided,
    simulate_spine,
    spine_decomposition,
    taboo_cdf,
)

from conftest import assert_gen_off_valid, make_params, synth_forest

MIXED = OffspringLaw({2: 0.5, 3: 0.5})


def flat_tube(T, eps=0.5, theta=1.0, n=8):
    return Tube(SmoothPath.zero(n), eps, theta, T)


def weights(forest, tube, bridge):
    return TubeWeights(forest, tube, TubeMembership(forest, tube, bridge=bridge))


# ---------------------------------------------------------------------------
# weights on synthetic forests: closed-form expectations
# ---------------------------------------------------------------------------


def test_weight_of_centred_particle():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0)])
    tube = flat_tube(1.0)
    lam = math.pi**2 / (8.0 * 0.25)
    v = weights(forest, tube, bridge=False).values_at([0, 0, 0], [0.0, 0.5, 1.0])
    assert v == pytest.approx([1.0, math.exp(lam * 0.5), math.exp(lam)])


def test_weight_vanishes_on_the_wall():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.5 if t >= 0.5 else 0.0)])
    tube = flat_tube(1.0)
    w = weights(forest, tube, bridge=False).values_at([0], 0.5)
    assert abs(w[0]) < 1e-12


def test_weight_requires_living_particle():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 0.5, 2, lambda t: 0.0)])
    with pytest.raises(ValueError):
        weights(forest, flat_tube(1.0), bridge=False).values_at([0], 0.7)


def test_martingale_trivial_cases():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.0)])
    tube = flat_tube(1.0)
    assert additive_martingale(forest, 0.0, tube, bridge=False) == pytest.approx(1.0)
    # everything outside the tube sums to zero
    far = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 10.0 * t)])
    assert additive_martingale(far, 1.0, tube, bridge=False) == 0.0


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
    w = weights(forest, tube, bridge=False)
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
        assert additive_martingale(forest, 0.0, tube, bridge=False) == pytest.approx(1.0, abs=1e-14)


def test_martingale_mean_one_small():
    # mean-one desk check at modest scale; the acceptance suite runs the
    # full-size version
    params = make_params()
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0)
    zs = []
    for rep in range(1200):
        forest = simulate_forest(params, grid, stream=RngStream(31, (rep,)))
        zs.append(weights(forest, tube, bridge=True).martingale_at(4.0))
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
    w = weights(forest, tube, bridge)
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
        w = weights(forest, tube, bridge=False)
        for t in (3.0, 4.0):
            members = w.membership.members_at(t)
            chk = integral_bound_check(w, members, t)
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
        membership = wf.membership(bridge=False)
        for pid in wf.spine.pids:
            rec = wf.forest.record(pid)
            assert np.all(np.abs(rec.positions - tube.center(rec.times)) < tube.radius)
            assert membership.first_exit[pid] > rec.t_death


def test_guided_spine_confined_and_lawful():
    params = make_params(law=MIXED)
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0)
    gaps, broods = [], []
    for rep in range(250):
        wf = simulate_spine(params, tube, grid, stream=RngStream(32, (rep,)))
        membership = wf.membership(bridge=False)
        for pid in wf.spine.pids:
            d = min(wf.forest.t_death[pid], tube.t_end)
            assert membership.first_exit[pid] > d
        gaps.extend(wf.spine.gap_draws)
        broods.extend(wf.spine.offspring)
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
    F = taboo_cdf(np.linspace(-R, R, 2001), y0, h, R)
    assert F[0] == pytest.approx(0.0, abs=1e-12) and F[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(F) >= -1e-12)  # monotone up to the rounding of a 400-term sum
    ks = sstats.kstest(zs, lambda z: taboo_cdf(z, y0, h, R))
    assert ks.pvalue > 1e-3
    # a proposal is accepted with probability e^{-lam h} cos(a y0) (one piece)
    lam = math.pi**2 / (8.0 * R * R)
    if lam * h <= 1.0:
        p = math.exp(-lam * h) * math.cos(math.pi * y0 / (2.0 * R))
        assert abs(stats[0] - 3000 / p) < 4.0 * math.sqrt(3000 * (1.0 - p)) / p


@pytest.mark.parametrize("y0_over_R", [0.0, 0.5, -0.99])
@pytest.mark.parametrize("R", [0.5, 3.0])
def test_taboo_cdf_settles_to_the_stationary_law(y0_over_R, R):
    # at h = 50 R^2 the n >= 2 terms are below e^-185: the cos^2 law is left
    z = np.linspace(-R, R, 201)
    stationary = (z + R) / (2.0 * R) + np.sin(math.pi * z / R) / (2.0 * math.pi)
    assert np.max(np.abs(taboo_cdf(z, y0_over_R * R, 50.0 * R * R, R) - stationary)) <= 1e-12


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


@pytest.mark.parametrize("law", [None, MIXED], ids=["dyadic", "mixed"])
@pytest.mark.parametrize("kind", ["flat", "line"])
def test_simulate_spine_is_the_guided_spine(law, kind):
    # the spine is drawn whole before the subtrees, on streams of its own, so
    # alone it is the guided replicate's rows 0..S-1 float for float, and the
    # readers of the spine only give the same values on both
    params = make_params() if law is None else make_params(law=law)
    grid = TimeGrid(4.0, 80)
    tube = flat_tube(4.0) if kind == "flat" else Tube(GridPath.line(0.8, 4), 0.3, 1.0, 4.0)
    for rep in range(4):
        stream = RngStream(29, (rep,))
        alone, whole = simulate_spine(params, tube, grid, stream), simulate_guided(params, tube, grid, stream)
        a, f, S = alone.forest, whole.forest, len(whole.spine.pids)
        assert alone.spine == whole.spine and len(a) == S < len(f) and not a.capped
        for name in ("parent", "t_birth", "t_death", "n_offspring", "x_birth", "x_death", "grid_lo",
                     "raw_lifetimes", "gen_off", "xs_off"):
            assert getattr(a, name).tobytes() == getattr(f, name)[: len(getattr(a, name))].tobytes(), name
        assert a.xs_flat.tobytes() == f.xs_flat[: f.xs_off[S]].tobytes()
        for t in (0.0, 1.0, 2.35, 4.0):
            assert spine_decomposition(alone, t) == spine_decomposition(whole, t)
            if kind == "flat":  # the envelope needs a smooth centre
                eta = envelope_eta(tube.path, params.rm, 1.0, tube.epsilon)[1]
                d = spine_decomposition(whole, t)
                assert envelope_check(alone, t, eta, d) == envelope_check(whole, t, eta, d)
    for t in (-0.1, 4.1):
        with pytest.raises(ValueError, match="no spine particle alive"):
            spine_decomposition(alone, t)


def test_capped_guided_forest_has_contiguous_ids():
    # ids are rows in the order they are added, so a capped replicate (its
    # whole spine, then subtrees cut at the cap) has no gaps: parents precede
    # children and each child starts where its parent died
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
        assert_gen_off_valid(f)


def test_guided_forest_is_its_spine_then_one_grow(monkeypatch):
    # the spine is rows 0..S-1, one block each; one natural-law grow over
    # every sibling of the spine adds all the subtrees after it
    params = make_params(law=MIXED)
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0)
    seeds = []
    grow = _Builder.grow

    def counted(self, b, *args):
        seeds.append(len(b))
        grow(self, b, *args)

    monkeypatch.setattr(_Builder, "grow", counted)
    for rep in range(5):
        seeds.clear()
        wf = simulate_guided(params, tube, grid, stream=RngStream(23, (rep,)))
        f, s = wf.forest, wf.spine
        S = len(s.pids)
        siblings = np.asarray(s.offspring, dtype=np.int64) - 1
        assert seeds == [int(siblings.sum())]
        assert s.pids == tuple(range(S)) and len(f) > S
        assert np.array_equal(f.parent[:S], np.arange(S) - 1)
        assert np.array_equal(np.bincount(f.parent[S:], minlength=S)[:S], np.append(siblings, 0))
        for i in range(S, len(f)):
            # a subtree row's ancestors: a prefix of the spine, then subtree rows
            chain = lineage(f, i)
            on_spine = sum(a < S for a in chain)
            assert on_spine >= 1 and chain[:on_spine] == list(range(on_spine))
        assert_gen_off_valid(f)
        assert np.array_equal(f.gen_off[: S + 1], np.arange(S + 1))


def test_membership_is_built_by_the_replicate_on_the_stated_bridge():
    params = make_params()
    grid = TimeGrid(2.0, 40)
    tube = flat_tube(2.0)
    wf = simulate_guided(params, tube, grid, stream=RngStream(18, (0,)))
    for bridge in (False, True):
        mem = wf.membership(bridge)
        assert mem.forest is wf.forest and mem.tube is tube and mem is not wf.membership(bridge)
        assert mem.first_exit.tobytes() == wf.membership(bridge).first_exit.tobytes()
    # without the bridge there is nothing to exempt
    plain = TubeMembership(wf.forest, tube, bridge=False)
    assert wf.membership(False).first_exit.tobytes() == plain.first_exit.tobytes()
    assert np.all(wf.membership(True).first_exit <= plain.first_exit)


def spine_ancestor(forest, S):
    """Each row's last ancestor (itself included) among the spine rows 0..S-1."""
    rows = np.arange(len(forest), dtype=np.float64)
    return propagate(forest, np.where(rows < S, rows, -1.0), np.maximum).astype(np.intp)


def assert_spine_exempt(wf):
    """The spine's membership against one without the exemption: every spine
    row stays in, no row exits earlier, and a row whose exit did not come
    from a spine segment exits at the same time, bit for bit. Returns
    whether the bridge cuts the spine without the exemption."""
    f, S = wf.forest, len(wf.spine.pids)
    exempt = wf.membership(True).first_exit
    unexempt = TubeMembership(f, wf.tube, bridge=True).first_exit
    assert np.all(exempt[:S] == math.inf)
    assert np.all(exempt >= unexempt)
    from_spine = np.isfinite(unexempt) & (unexempt == unexempt[spine_ancestor(f, S)])
    assert exempt[~from_spine].tobytes() == unexempt[~from_spine].tobytes()
    return np.isfinite(unexempt[:S]).any()


def test_bridge_exempts_the_guided_spine_on_default_replicates():
    # guided replicates of the default config's guided block whose spine the
    # bridge rejects when it is not exempt (11 of its 1000 do)
    from bbmlab.config import ExperimentConfig
    from bbmlab.experiments import _S_SPINE

    cfg = ExperimentConfig()
    base = RngStream(cfg.seed, (_S_SPINE,))
    for rep in (458, 530, 664):
        wf = simulate_guided(cfg.model_params(), cfg.tube(), cfg.grid(), stream=base.split(rep), cap=cfg.cap)
        assert assert_spine_exempt(wf), rep
        assert len(wf.membership(True).members_at(cfg.tube().t_end)) > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), curved=st.booleans(), block_points=st.sampled_from([40, 1 << 16]))
def test_bridge_exemption_moves_only_exits_from_the_spine(seed, curved, block_points):
    # small block sizes split the spine's rows over several series blocks
    params = make_params(law=MIXED)
    grid = TimeGrid(3.0, 60)
    tube = Tube(CURVED, 0.4, 1.0, 3.0) if curved else flat_tube(3.0, eps=0.4)
    wf = simulate_guided(params, tube, grid, stream=RngStream(49, (seed,)))
    with unittest.mock.patch.object(counting, "SERIES_BLOCK_POINTS", block_points):
        assert_spine_exempt(wf)


def test_bridge_membership_of_natural_forests_is_unchanged():
    # sha-256 of first_exit on four natural forests, recorded before the
    # spine exemption existed: nothing without a spine row moves
    grid = TimeGrid(6.0, 120)
    tube = Tube(CURVED, 0.4, 0.75, 6.0)
    digest = hashlib.sha256()
    for rep in range(4):
        forest = simulate_forest(make_params(), grid, stream=RngStream(48, (rep,)))
        digest.update(TubeMembership(forest, tube, bridge=True).first_exit.tobytes())
    assert digest.hexdigest() == "f6349a7d452e184789eca4929440e54f5ad2ace38855d4e3cec13e3a52aedacb"


def test_decomposition_before_first_branch():
    params = make_params()
    grid = TimeGrid(6.0, 120)
    tube = flat_tube(6.0)
    wf = simulate_guided(params, tube, grid, stream=RngStream(36, (0,)))
    first = wf.spine.birth_times[0]
    t = math.floor(first / grid.dt) * grid.dt  # recorded time before any branch
    w = weights(wf.forest, tube, bridge=False)
    expected = w.values_at([0], t)[0] * math.exp(-params.rm * t)
    assert spine_decomposition(wf, t) == pytest.approx(expected)


def test_decomposition_dyadic_summands():
    params = make_params()
    grid = TimeGrid(6.0, 120)
    tube = flat_tube(6.0)
    wf = simulate_guided(params, tube, grid, stream=RngStream(37, (0,)))
    w = weights(wf.forest, tube, bridge=False)
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
        w = TubeWeights(wf.forest, tube, wf.membership(bridge=False))
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
    chk = integral_bound_check(weights(forest, flat_tube(1.0), bridge=False), [0], 1.0)
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
        mem = TubeMembership(forest, tube, bridge=False)
        w = TubeWeights(forest, tube, mem)
        chk = integral_bound_check(w, mem.members_at(2.0), 2.0)
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
        mem = TubeMembership(forest, tube, bridge=False)
        w = TubeWeights(forest, tube, mem)
        assert count_bound_check(w).holds
        chk = integral_bound_check(w, mem.members_at(4.0), 4.0)
        assert chk.holds.all()
        checked += len(chk.holds)
    assert checked > 100


def test_integral_bound_requires_membership():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 10.0 * t)])
    with pytest.raises(ValueError):
        integral_bound_check(weights(forest, flat_tube(1.0), bridge=False), [0], 1.0)


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
        wf = simulate_spine(params, tube, grid, stream=RngStream(41, (rep,)))
        chk = envelope_check(wf, tube.t_end, eta, spine_decomposition(wf, tube.t_end))
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
    res = importance_estimates([lambda mem: 1.0], params, tube, grid, 400, stream=RngStream(42, (0,)),
                               bridge=False)[0]
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


def test_importance_raises_on_a_replicate_without_weight(monkeypatch):
    # the exempt spine keeps Z > 0 on every guided replicate; a zero is a
    # fault, named with its replicate, not a 0/0 to average away
    params = make_params()
    grid = TimeGrid(2.0, 40)
    tube = flat_tube(2.0)
    monkeypatch.setattr(TubeWeights, "martingale_at", lambda self, t: 0.0)
    with pytest.raises(ValueError, match="guided replicate 0"):
        importance_estimates([lambda mem: 1.0], params, tube, grid, 3, stream=RngStream(50, (0,)), bridge=True)
