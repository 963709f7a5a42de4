import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbmlab import rate
from bbmlab.paths import GridPath, SmoothPath

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_energy(values, phi):
    """Prefix energy from raw slope arithmetic (no library path code), at a
    scalar phi or at every point of an array; a segment past phi adds 0.0."""
    n = len(values) - 1
    total = 0.0
    for k in range(n):
        lo, hi = k / n, (k + 1) / n
        c = (values[k + 1] - values[k]) * n
        total = total + np.where(phi > lo, 0.5 * c * c * (np.minimum(phi, hi) - lo), 0.0)
    return total


def scan_theta0(values, rm, points=100_000, tol=1e-12):
    """Dense scan for the first sign change of rm*phi - E(phi), refined by
    bisection; independent of the closed-form segment root."""
    phis = np.linspace(0.0, 1.0, points + 1)
    g = lambda p: rm * p - oracle_energy(values, p)
    neg = np.flatnonzero(g(phis) < 0.0)
    if len(neg) == 0:
        return math.inf
    j = neg[0]
    lo, hi = phis[j - 1], phis[j]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


def lattice_search(query, rm, points=9):
    """Exhaustive lattice maximiser of the truncated rate (theta must be
    grid-aligned). Returns (max_rate, min_energy)."""
    n = query.resolution
    s = np.arange(n + 1) / n
    center = np.asarray(query.center.value(s))
    j_theta = int(round(query.theta * n))
    assert abs(j_theta / n - query.theta) < 1e-12, "oracle needs grid-aligned theta"
    axes = [np.linspace(center[k] - query.epsilon, center[k] + query.epsilon, points) for k in range(1, n + 1)]
    mesh = np.array(np.meshgrid(*axes, indexing="ij"), dtype=float).reshape(n, -1).T
    f = np.concatenate([np.zeros((len(mesh), 1)), mesh], axis=1)
    d = np.diff(f, axis=1)
    pref = np.cumsum(0.5 * n * d * d, axis=1)  # energies at s_1..s_n
    e_theta = pref[:, j_theta - 1] if j_theta >= 1 else np.zeros(len(mesh))
    feasible = np.ones(len(mesh), dtype=bool)
    for j in range(1, j_theta + 1):
        feasible &= pref[:, j - 1] <= rm * (j / n) + 1e-12
    max_rate = float(rm * query.theta - e_theta[feasible].min()) if feasible.any() else -math.inf
    return max_rate, float(e_theta.min())


def rounding_bound(argmax_values, n, spacing):
    """Energy increase from snapping every coordinate by at most spacing/2."""
    d = np.abs(np.diff(np.asarray(argmax_values)))
    return float(np.sum(0.5 * n * spacing * (2.0 * d + spacing)))


def scalar_extinction_grid(path, rm):
    """Knot-by-knot scan for the first down-crossing of rm*phi - E(phi) on
    a grid path; the vectorised scan must agree with it bit for bit."""
    n = path.n
    h = 1.0 / n
    prof = path.energy_profile()
    slopes = path.slopes
    for k in range(n):
        g_k = rm * (k * h) - prof[k]
        slope = rm - 0.5 * slopes[k] ** 2
        if slope < 0.0:
            root = k * h - g_k / slope
            if root < (k + 1) * h or math.isclose(root, (k + 1) * h):
                if g_k + slope * h < 0.0:
                    return float(root)
    return math.inf


def pinned_taut_string(t, lo, hi):
    """String pulling with both ends pinned (lo_0 = hi_0, lo_N = hi_N), on
    deques of (t, x) points."""

    def cross(o, a, b):  # > 0 iff the slope from o to b exceeds the slope from o to a
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    apex = (t[0], lo[0])
    vertices = [apex]
    upper, lower = deque([apex]), deque([apex])
    for tk, lk, hk in zip(t[1:], lo[1:], hi[1:]):
        for point, chain, other, side in (((tk, hk), upper, lower, 1.0), ((tk, lk), lower, upper, -1.0)):
            while len(chain) > 1 and side * cross(chain[-2], chain[-1], point) <= 0.0:
                chain.pop()
            if len(chain) == 1:
                while len(other) > 1 and side * cross(other[0], other[1], point) < 0.0:
                    other.popleft()
                    vertices.append(other[0])
                chain[0] = other[0]
            chain.append(point)
    vertices.extend(list(upper)[1:])
    vt, vx = zip(*vertices)
    return np.interp(t, vt, vx)


def reflected_box_phase(ball):
    """The box minimiser by reflection: mirror the corridor about theta, pin
    both ends to 0 and keep the first half of the symmetric optimum. A
    stand-in for ``rate._box_phase`` that counts 2K iterations."""
    K = ball.K
    y = np.empty(0)
    if K:
        times = np.concatenate([[0.0], np.cumsum(ball.w[0] / ball.w)])
        t = np.concatenate([times, 2.0 * times[K] - times[K - 1 :: -1]])
        gate_lo = np.concatenate([[0.0], ball.lo, ball.lo[:-1][::-1], [0.0]])
        gate_hi = np.concatenate([[0.0], ball.hi, ball.hi[:-1][::-1], [0.0]])
        string = pinned_taut_string(t.tolist(), gate_lo.tolist(), gate_hi.tolist())
        y = np.clip(string[1 : K + 1], ball.lo, ball.hi)
    d = np.diff(y, prepend=0.0)
    e = np.append(np.cumsum(0.5 * ball.n * d * d)[: len(ball.phi) - 1], ball.w @ (d * d))
    grad = 2.0 * ball.w * d
    grad[:-1] -= grad[1:]
    residual = float(np.max(np.abs(y - np.clip(y - grad, ball.lo, ball.hi)), initial=0.0))
    return y, e, 2 * K, residual


def reflected_max_rate(query, rm):
    with mock.patch.object(rate, "_box_phase", reflected_box_phase):
        return rate.max_rate_over_ball(query, rm)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_energy_examples():
    assert rate.energy(GridPath.zero(6), 1.0) == 0.0
    assert rate.energy(GridPath.line(3.0, 7), 1.0) == pytest.approx(4.5)
    assert rate.energy(GridPath((0.0, 0.0, 1.5)), 1.0) == pytest.approx(2.25)


def test_extinction_theta_examples():
    assert rate.extinction_theta(GridPath.zero(4), 1.0) == math.inf
    # slope c with c^2 > 2 rm goes extinct immediately
    assert rate.extinction_theta(GridPath.line(2.0, 4), 1.0) == 0.0
    # hand-computed piecewise-linear root 2.25/3.5
    got = rate.extinction_theta(GridPath((0.0, 0.0, 1.5)), 1.0)
    assert got == pytest.approx(2.25 / 3.5, abs=1e-12)


def test_extinction_theta_smooth():
    sp = SmoothPath.from_function(lambda s: 2.0 * s, 8, boundary="natural")
    assert rate.extinction_theta(sp, 1.0) == pytest.approx(0.0, abs=1e-9)
    flat = SmoothPath.zero(8)
    assert rate.extinction_theta(flat, 1.0) == math.inf


grid_paths = st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=11).map(
    lambda vals: GridPath([0.0] + vals)
)


knot_values = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=-12, max_value=12).map(lambda k: k / 4),  # exact slopes and ties
    st.floats(min_value=-1e150, max_value=1e150),  # far beyond any rm
)


@given(
    st.lists(knot_values, min_size=1, max_size=40).map(lambda vals: GridPath([0.0] + vals)),
    st.one_of(st.floats(min_value=0.01, max_value=5.0), st.sampled_from([0.5, 1.0, 2.0, 4.5])),
)
@settings(max_examples=300, deadline=None)
def test_vectorised_extinction_scan_matches_the_knot_loop(path, rm):
    got = rate.extinction_theta(path, rm)
    want = scalar_extinction_grid(path, rm)
    assert got == want or (math.isnan(got) and math.isnan(want))


@given(grid_paths, st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_extinction_theta_against_scan(path, rm):
    exact = rate.extinction_theta(path, rm)
    scanned = scan_theta0(path.values, rm)
    if math.isinf(exact):
        assert math.isinf(scanned)
    else:
        assert abs(exact - scanned) <= 1e-6  # scan bracket resolution


def test_rate_function_examples():
    assert rate.rate_function(GridPath.zero(4), 1.0, 1.0) == pytest.approx(1.0)
    assert rate.rate_function(GridPath.line(2.0, 4), 1.0, 1.0) == -math.inf
    assert rate.rate_function(GridPath.line(1.0, 4), 1.0, 1.0) == pytest.approx(0.5)
    assert rate.extinction_theta(GridPath.line(1.0, 4), 1.0) == math.inf


@given(grid_paths, st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60)
def test_raw_rate_dominates_rate(path, rm, theta):
    raw = rate.raw_rate(path, theta, rm)
    k = rate.rate_function(path, theta, rm)
    assert raw >= k
    if theta <= rate.extinction_theta(path, rm):
        assert raw == k
    else:
        assert k == -math.inf


# ---------------------------------------------------------------------------
# ball optimisation
# ---------------------------------------------------------------------------


def test_ball_zero_center():
    rep = rate.max_rate_over_ball(rate.BallQuery(GridPath.zero(32), 0.5, 1.0, 32), 1.0)
    assert rep.ball_value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(rep.argmax, 0.0, atol=1e-10)


def test_ball_line_inside_band():
    # |0 - c s| <= eps for eps >= |c|: the flat path is feasible and optimal
    rep = rate.max_rate_over_ball(rate.BallQuery(GridPath.line(0.4, 16), 0.5, 1.0, 16), 1.0)
    assert rep.ball_value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rep.argmax, 0.0, atol=1e-6)


def test_ball_extinct_line():
    q = rate.BallQuery(GridPath.line(2.0, 16), 0.5, 1.0, 16)
    rep = rate.max_rate_over_ball(q, 1.0)
    assert rep.ball_value == -math.inf
    # brute force confirms: no feasible path anywhere in the ball
    q6 = rate.BallQuery(GridPath.line(2.0, 6), 0.5, 1.0, 6)
    lattice_rate, lattice_energy = lattice_search(q6, 1.0)
    assert lattice_rate == -math.inf
    # taut line at slope 1.5 is the minimal-energy feasible path
    srep = rate.min_energy_over_ball(q)
    assert srep.ball_value == pytest.approx(1.125, abs=1e-8)
    srep6 = rate.min_energy_over_ball(q6)
    assert srep6.ball_value == pytest.approx(1.125, abs=1e-8)
    bound = rounding_bound(srep6.argmax, 6, 2.0 * 0.5 / 8.0)
    assert srep6.ball_value <= lattice_energy + 1e-9 <= srep6.ball_value + bound + 2e-9


def test_schilder_examples():
    assert rate.min_energy_over_ball(rate.BallQuery(GridPath.zero(16), 0.3, 1.0, 16)).ball_value == pytest.approx(0.0, abs=1e-12)
    big = rate.min_energy_over_ball(rate.BallQuery(GridPath.line(2.0, 16), 50.0, 1.0, 16))
    assert big.ball_value == pytest.approx(0.0, abs=1e-10)


def test_ball_monotone_in_epsilon():
    center = GridPath((0.0, 0.4, 1.1, 1.3, 0.9, 1.6, 1.2, 0.8, 1.0))
    prev = -math.inf
    for eps in (0.15, 0.3, 0.6, 1.2):
        val = rate.max_rate_over_ball(rate.BallQuery(center, eps, 1.0, 8), 1.0).ball_value
        assert val >= prev - 1e-9
        prev = val


def test_ball_dominates_center_rate():
    center = GridPath((0.0, 0.3, 0.9, 0.8, 1.4))
    q = rate.BallQuery(center, 0.25, 1.0, 4)
    rep = rate.max_rate_over_ball(q, 1.2)
    assert rep.ball_value >= rate.rate_function(center, 1.0, 1.2) - 1e-9


def test_active_set_reported():
    rep = rate.min_energy_over_ball(rate.BallQuery(GridPath.line(2.0, 8), 0.5, 1.0, 8))
    # the taut line from the origin only touches the band at the far end
    assert rep.active_lower == (8,)
    assert rep.active_upper == ()


centers = st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=4, max_size=4).map(
    lambda vals: GridPath([0.0] + vals)
)


@given(centers, st.floats(min_value=0.2, max_value=1.0), st.floats(min_value=0.3, max_value=2.5))
@settings(max_examples=25, deadline=None)
def test_optimizer_matches_lattice(center, eps, rm):
    q = rate.BallQuery(center, eps, 1.0, 4)
    rep = rate.max_rate_over_ball(q, rm)
    lattice_rate, lattice_energy = lattice_search(q, rm)
    srep = rate.min_energy_over_ball(q)
    bound = rounding_bound(srep.argmax, 4, 2.0 * eps / 8.0)
    # energy: two-sided within the rounding bound
    assert srep.ball_value <= lattice_energy + 1e-9
    assert lattice_energy <= srep.ball_value + bound + 1e-9
    # truncated rate: the lattice is a subset of the ball
    assert lattice_rate <= rep.ball_value + 1e-9
    if rep.ball_value == -math.inf:
        assert lattice_rate == -math.inf


def test_curved_ball_settled_by_feasibility_certificate():
    # a curved centre whose ball minimiser of E(theta) meets every prefix
    # constraint (E = 0.208, 0.415, 0.660, 0.904 at s = 1/4..1 against
    # rm*s = 0.245, 0.491, 0.736, 0.981): the value is finite, at least the
    # lattice search's, and the argmax survives every prefix
    center = GridPath((0.0, -0.19113457, -0.97312417, -0.53002325, 0.38354279))
    q = rate.BallQuery(center, 0.3286981786619302, 1.0, 4)
    rm = 0.9811459644261078
    rep = rate.max_rate_over_ball(q, rm)
    lattice_rate, _ = lattice_search(q, rm, points=17)
    assert rep.ball_value > -math.inf
    assert rep.ball_value >= lattice_rate - 1e-6
    # argmax must satisfy every prefix constraint
    path = GridPath(rep.argmax)
    prof = path.energy_profile()
    s = np.arange(5) / 4
    assert np.all(prof <= rm * s + 1e-6)


# ---------------------------------------------------------------------------
# exact solver: closed forms, KKT certificates, extinction certificate, budget
# ---------------------------------------------------------------------------


def line_ball_value(slope, eps, theta, rm):
    """Closed form over the ball around f(s) = slope*s when theta*n is whole:
    the straight line of slope gap/theta, gap = (|slope| theta - eps)+, is
    the least-energy path and survives iff its energy rate is <= rm."""
    gap = max(abs(slope) * theta - eps, 0.0)
    if 0.5 * (gap / theta) ** 2 > rm:
        return -math.inf
    return rm * theta - gap * gap / (2.0 * theta)


def grid_energy_gradient(values, theta):
    """Gradient in f(s_1..s_n) of (1/2) int_0^theta f'^2, segment by segment."""
    v = np.asarray(values, dtype=float)
    n = len(v) - 1
    w = np.clip(theta - np.arange(n) / n, 0.0, 1.0 / n)
    flux = n * n * w * np.diff(v)
    return flux - np.append(flux[1:], 0.0)


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize(
    "slope, eps, theta",
    [(0.0, 0.5, 1.0), (1.2, 0.2, 1.0), (-0.9, 0.3, 0.5), (1.2, 0.2, 0.5), (2.5, 0.2, 1.0), (-3.0, 0.1, 0.5)],
)
def test_line_balls_match_closed_form(n, slope, eps, theta):
    rm = 1.0
    q = rate.BallQuery(GridPath.line(slope, n), eps, theta, n)
    rep = rate.max_rate_over_ball(q, rm)
    expected = line_ball_value(slope, eps, theta, rm)
    x = np.asarray(rep.argmax)
    s = np.arange(n + 1) / n
    assert x[0] == 0.0 and np.all(np.abs(x - slope * s) <= eps + 1e-12)
    assert rep.iterations == round(theta * n)
    if expected == -math.inf:
        assert rep.ball_value == -math.inf
    else:
        assert rep.ball_value == pytest.approx(expected, abs=1e-10)
        assert rm * theta - oracle_energy(x, theta) == pytest.approx(rep.ball_value, abs=1e-10)
        assert rep.residual <= 1e-9


@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=32),
    st.floats(min_value=0.01, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.0),
)
@example([0.0], 1.0, 5e-324)  # an overlap too small for finite stretched time
@settings(max_examples=150, deadline=None)
def test_box_minimiser_meets_kkt(values, eps, theta):
    center = np.array([0.0] + values)
    n = len(values)
    rep = rate.min_energy_over_ball(rate.BallQuery(GridPath(center), eps, theta, n))
    x = np.asarray(rep.argmax)
    lo, hi = center[1:] - eps, center[1:] + eps
    assert x[0] == 0.0 and np.all(x[1:] >= lo) and np.all(x[1:] <= hi)
    assert rep.ball_value == pytest.approx(oracle_energy(x, theta), rel=1e-12, abs=1e-12)
    # g = lambda_lo - lambda_hi: a lower-bound multiplier is g where g > 0,
    # an upper-bound one -g where g < 0
    g = grid_energy_gradient(x, theta)
    lam_lo, lam_hi = np.maximum(g, 0.0), np.maximum(-g, 0.0)
    on_lo, on_hi = x[1:] - lo <= 1e-12, hi - x[1:] <= 1e-12
    assert np.all(np.abs(g[~on_lo & ~on_hi]) <= 1e-9)  # stationarity off the bounds
    assert np.all(lam_lo[~on_lo] <= 1e-9) and np.all(lam_hi[~on_hi] <= 1e-9)  # signs
    assert np.all(lam_lo * (x[1:] - lo) <= 1e-9) and np.all(lam_hi * (hi - x[1:]) <= 1e-9)
    assert rep.residual <= 1e-9


@given(
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=16),
    st.floats(min_value=0.05, max_value=1.0),
    st.sampled_from([1.0, 0.5, 0.3]),
    st.floats(min_value=0.2, max_value=2.5),
)
@example([1.11, -0.67, 0.19, -0.3], 0.69, 1.0, 0.73)  # extinct through its first prefix only
@settings(max_examples=150, deadline=None)
def test_ball_argmax_meets_prefixes_or_certifies_extinction(values, eps, theta, rm):
    center = GridPath([0.0] + values)
    n = len(values)
    q = rate.BallQuery(center, eps, theta, n)
    rep = rate.max_rate_over_ball(q, rm)
    x = np.asarray(rep.argmax)
    s = np.arange(n + 1) / n
    assert np.all(np.abs(x - np.asarray(center.value(s))) <= eps + 1e-12)
    phis = np.array([p for p in s[1:] if p <= theta + 1e-12] + [theta])
    energies = oracle_energy(x, phis)
    if rep.ball_value > -math.inf:
        assert np.all(energies <= rm * phis + 1e-9)
        assert rep.ball_value == pytest.approx(rm * theta - energies[-1], abs=1e-12)
        return
    # extinct: where E(phi)/phi of the box minimiser peaks last, no path in
    # the ball has less energy (the box optimum up to phi* agrees), and that
    # energy already exceeds rm*phi*
    ratio = energies / phis
    phi_star = phis[int(np.flatnonzero(ratio >= ratio.max() * (1.0 - 1e-12))[-1])]
    least = rate.min_energy_over_ball(rate.BallQuery(center, eps, phi_star, n)).ball_value
    assert least > rm * phi_star
    if n <= 4 and theta == 1.0:
        assert lattice_search(q, rm)[0] == -math.inf


def random_center(kind, n, seed):
    rng = np.random.default_rng(seed)
    s = np.arange(n + 1) / n
    if kind == "walk":
        scale = rng.uniform(0.05, 1.0) / math.sqrt(n)
        return GridPath(np.concatenate([[0.0], np.cumsum(rng.normal(0.0, scale, n))]))
    if kind == "line":
        return GridPath(rng.uniform(-3.0, 3.0) * s)
    if kind == "lattice":  # collinear gate ends and exact ties
        return GridPath(np.concatenate([[0.0], rng.integers(-3, 4, n) / 4]))
    return GridPath(rng.uniform(0.2, 2.0) * np.sin(rng.uniform(1.0, 20.0) * s))


@given(
    st.sampled_from(["walk", "line", "sine", "lattice"]),
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.005, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_forward_pass_matches_the_reflected_corridor(kind, n, seed, eps, theta, rm):
    q = rate.BallQuery(random_center(kind, n, seed), eps, theta, n)
    rep = rate.max_rate_over_ball(q, rm)
    ref = reflected_max_rate(q, rm)
    assert np.max(np.abs(np.subtract(rep.argmax, ref.argmax))) <= 1e-12
    assert rep.ball_value == ref.ball_value
    assert rep.iterations == ref.iterations // 2 == rate._Ball(q).K


# One ball for each way the string leaves the open funnel after the last
# gate; each argmax is (0, -0.7, -1.4, -1.4, -1.4) or its mirror image.
@pytest.mark.parametrize(
    "values, eps, expected",
    [
        # the upper chain dips to its lowest vertex, the top of gate 2, and
        # the apex stays at the origin: every later bottom lies below the
        # line through it
        ((0.0, -1.0, -2.9, -1.5, -1.6), 1.5, (0.0, -0.7, -1.4, -1.4, -1.4)),
        # the mirror image: the lower chain rises to the bottom of gate 2
        ((0.0, 1.0, 2.9, 1.5, 1.6), 1.5, (0.0, 0.7, 1.4, 1.4, 1.4)),
        # the bottom of gate 3 fixes the top of gate 2 as the apex, and
        # neither chain leaves its level: flat from the apex
        ((0.0, -1.0, -2.0, -1.0, -1.4), 0.6, (0.0, -0.7, -1.4, -1.4, -1.4)),
    ],
    ids=["upper-chain-dips", "lower-chain-rises", "flat-from-apex"],
)
def test_free_end_finishes(values, eps, expected):
    q = rate.BallQuery(GridPath(values), eps, 1.0, 4)
    rep = rate.min_energy_over_ball(q)
    assert rep.argmax == pytest.approx(expected, abs=1e-12)
    assert rep.ball_value == pytest.approx(0.5 * 4 * 2 * 0.7**2, abs=1e-12)
    assert rep.iterations == 4 and rep.residual <= 1e-12
    assert rep.argmax == reflected_max_rate(q, 1.0).argmax


def test_budget_caps_iterations(monkeypatch):
    monkeypatch.setattr(rate, "MAX_ITER", 50)
    with pytest.raises(rate.ConvergenceError) as info:
        rate.max_rate_over_ball(rate.BallQuery(GridPath.line(1.2, 64), 0.2, 1.0, 64), 1.0)
    assert info.value.iterations == 50
