import math

import numpy as np
import pytest
from scipy import stats as sstats

from bbmlab.counting import TubeMembership, count_tube
from bbmlab.forest import _Builder, simulate_forest
from bbmlab.model import OffspringLaw, RngStream, TimeGrid, size_biased
from bbmlab.paths import GridPath, SmoothPath, Tube
from bbmlab.spine import (
    TubeWeights,
    WeightedForest,
    additive_martingale,
    count_bound_check,
    envelope_check,
    envelope_eta,
    importance_estimate,
    integral_bound_check,
    particle_weight,
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
    assert particle_weight(forest, 0, 0.0, tube) == pytest.approx(1.0)
    assert particle_weight(forest, 0, 0.5, tube) == pytest.approx(math.exp(lam * 0.5))
    assert particle_weight(forest, 0, 1.0, tube) == pytest.approx(math.exp(lam))


def test_weight_vanishes_on_the_wall():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 0.5 if t >= 0.5 else 0.0)])
    tube = flat_tube(1.0)
    w = particle_weight(forest, 0, 0.5, tube)
    assert abs(w) < 1e-12


def test_weight_requires_living_particle():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 0.5, 2, lambda t: 0.0)])
    with pytest.raises(ValueError):
        particle_weight(forest, 0, 0.7, flat_tube(1.0))


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
    # I(t) = sum f' dX = X(t) here, since f' == 1
    assert w.integral_at(0, 0.5) == pytest.approx(1.0)
    assert w.integral_at(1, 1.0) == pytest.approx(1.0)  # parent's value, then flat
    assert w.integral_at(2, 1.0) == pytest.approx(1.5)


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
# guided simulation
# ---------------------------------------------------------------------------


def test_guided_requires_smooth_path_and_matching_grid():
    params = make_params()
    grid = TimeGrid(2.0, 40)
    with pytest.raises(TypeError):
        simulate_guided(params, Tube(GridPath.zero(4), 0.5, 1.0, 2.0), grid)
    with pytest.raises(ValueError):
        simulate_guided(params, flat_tube(3.0), grid)


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
    expected = w.weight_at(0, t) * math.exp(-params.rm * t)
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
        total += w.weight_at(pid, s_u) * math.exp(-params.rm * s_u)
    alive = [p for p in wf.spine.pids if wf.forest.alive_mask(t)[p]]
    total += w.weight_at(alive[0], t) * math.exp(-params.rm * t)
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
    chk = integral_bound_check(forest, 0, 1.0, flat_tube(1.0))
    assert chk.lhs == pytest.approx(0.0, abs=1e-14)
    assert chk.rhs == pytest.approx(0.0, abs=1e-14)
    assert chk.slack == pytest.approx(0.0, abs=1e-14)
    assert chk.holds


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
        for pid in mem.members_at(2.0):
            chk = integral_bound_check(forest, int(pid), 2.0, tube, w)
            # f'' == 0: the bound is exactly eps*T*|c| with zero slack
            assert chk.rhs == pytest.approx(tube.radius * c, abs=1e-9)
            assert chk.slack == pytest.approx(0.0, abs=1e-12)
            assert chk.holds


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
        for pid in mem.members_at(4.0):
            chk = integral_bound_check(forest, int(pid), 4.0, tube, w)
            assert chk.holds
            checked += 1
    assert checked > 100


def test_integral_bound_requires_membership():
    params = make_params()
    grid = TimeGrid(1.0, 10)
    forest = synth_forest(params, grid, [(-1, 0.0, 1.0, -1, lambda t: 10.0 * t)])
    with pytest.raises(ValueError):
        integral_bound_check(forest, 0, 1.0, flat_tube(1.0))


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
    res = importance_estimate(lambda f: 1.0, params, tube, grid, 400, stream=RngStream(42, (0,)))
    assert res.n == 400
    assert abs(res.estimate - 1.0) <= 3.0 * res.se


def test_importance_of_constant_targets_populated_probability():
    params = make_params()
    grid = TimeGrid(3.0, 60)
    tube = flat_tube(3.0)
    res = importance_estimate(
        lambda f: 1.0, params, tube, grid, 800, stream=RngStream(42, (1,)), bridge=True
    )
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
    res = importance_estimate(
        counter, params, tube, grid, 600, stream=RngStream(43, (0,)), bridge=True
    )
    direct = []
    for rep in range(1500):
        forest = simulate_forest(params, grid, stream=RngStream(44, (rep,)))
        direct.append(counter(forest))
    arr = np.array(direct)
    dse = arr.std(ddof=1) / math.sqrt(len(arr))
    pooled = math.sqrt(res.se**2 + dse**2)
    assert abs(res.estimate - arr.mean()) <= 3.0 * pooled
