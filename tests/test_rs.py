import math

import numpy as np
import pytest

from mskglass import (
    ModelSpec,
    NotConverged,
    TempField,
    Unsupported,
    map_derivatives,
    rs_functional,
    uniqueness_threshold,
)
from mskglass import rs
from .oracles import (
    mean_log_cosh, rs_gradient, rs_value, sech_moment, single_species_rs_value, solve_one, two_species_bisection,
)


def test_functional_beta_to_zero(reference_spec):
    tf = TempField(beta=1e-5, h=0.3)
    want = math.log(2.0) + math.log(math.cosh(0.3))
    for q in (np.zeros(2), np.array([0.4, 0.6])):
        assert abs(rs_functional(reference_spec, tf, q) - want) < 1e-8


def test_functional_sk_reduction_matches_single_species(sk_spec):
    for beta, h, q in ((0.3, 0.5, 0.2), (0.6, 0.2, 0.35), (0.9, 1.0, 0.6)):
        tf = TempField(beta=beta, h=h)
        ours = rs_functional(sk_spec, tf, np.array([q, q]))
        assert abs(ours - single_species_rs_value(beta, h, q)) < 1e-10


def test_mean_log_cosh_against_the_oracle():
    """E log cosh(s Z + h) by Stein's identity and the Fourier-side trapezoid rule is within 2 ulp of a
    30-digit mpmath quadrature from s = 0 to 20 and h = 0 to 20, and each entry gives the same bits
    alone as in the batch."""
    s, h = (v.ravel() for v in np.meshgrid([0.0, 0.05, 0.3, 0.5, 0.8, 1.2, 2.0, 3.0, 5.0, 10.0, 20.0],
                                           [0.0, 0.1, 0.3, 1.0, 3.0, 8.0, 20.0], indexing="ij"))
    got = rs._mean_log_cosh(s, h)
    for i in range(s.size):
        want = mean_log_cosh(s[i], h[i])
        assert abs(got[i] - want) <= 2.0 * np.spacing(want), (s[i], h[i], got[i] - want)
        assert rs._mean_log_cosh(s[i : i + 1], h[i : i + 1]).tobytes() == got[i : i + 1].tobytes()


@pytest.mark.parametrize("beta", [0.3, 0.8, 1.2, 1.6])
def test_functional_against_the_quadrature_oracle(reference_spec, beta):
    """The single-atom value against adaptive quadrature (`oracles.rs_value`) to 1e-13 from h = 0 to 8,
    where the order-61 Gauss-Hermite rule it once took was off by up to 2.2e-5 (beta = 1.6, h = 8)."""
    qs = np.array([[0.0, 0.0], [0.2, 0.5], [0.7, 0.3], [0.9, 0.95], [1.0, 1.0]])
    for h in (0.0, 0.3, 1.0, 3.0, 8.0):
        got = rs_functional(reference_spec, TempField(beta=np.full(len(qs), beta), h=np.full(len(qs), h)), qs)
        for q, value in zip(qs, got):
            assert abs(value - rs_value(reference_spec, beta, h, q)) < 1e-13, (h, q)


def test_gradient_zero_at_critical_point(reference_spec):
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_one(reference_spec, tf)
    assert np.abs(rs_gradient(reference_spec, tf, sol.q_star)).max() < 1e-9


def test_gradient_matches_finite_differences(reference_spec):
    tf = TempField(beta=0.7, h=0.3)
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(5):
        q = rng.uniform(0.05, 0.95, 2)
        grad = rs_gradient(reference_spec, tf, q)
        for t in range(2):
            e_t = np.eye(2)[t] * step
            fd = (
                rs_functional(reference_spec, tf, q + e_t)
                - rs_functional(reference_spec, tf, q - e_t)
            ) / (2.0 * step)
            assert abs(fd - grad[t]) < 1e-6 * max(1.0, abs(grad[t]))


def test_gradient_zero_field_zero_overlap(reference_spec):
    tf = TempField(beta=0.8, h=0.0)
    np.testing.assert_array_equal(rs_gradient(reference_spec, tf, np.zeros(2)), np.zeros(2))


def test_solver_zero_field_below_threshold(reference_spec):
    beta = math.sqrt(0.5 * uniqueness_threshold(reference_spec))
    sol = solve_one(reference_spec, TempField(beta=beta, h=0.0))
    np.testing.assert_array_equal(sol.q_star, np.zeros(2))
    assert sol.guaranteed_unique
    assert sol.on_boundary.all()


def test_solver_beta_to_zero_decouples(reference_spec):
    sol = solve_one(reference_spec, TempField(beta=1e-4, h=0.4))
    want = math.tanh(0.4) ** 2
    assert np.abs(sol.q_star - want).max() < 1e-6


def test_solver_against_bisection_oracle(reference_spec):
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_one(reference_spec, tf, tol=1e-12)
    q_oracle = two_species_bisection(reference_spec, 0.5, 0.4)
    assert np.abs(sol.q_star - q_oracle).max() < 1e-8
    # h > 0 forces a strictly interior point
    assert not sol.on_boundary.any()
    assert ((sol.q_star > 0) & (sol.q_star < 1)).all()


def test_solver_multistart_above_threshold(reference_spec):
    beta = math.sqrt(2.5 * uniqueness_threshold(reference_spec))
    sol = solve_one(reference_spec, TempField(beta=beta, h=0.0))
    assert not sol.guaranteed_unique
    assert len(sol.candidates) == 2  # paramagnetic and glassy branches
    values = [rs_functional(reference_spec, TempField(beta=beta, h=0.0), q) for q in sol.candidates]
    assert abs(rs_functional(reference_spec, TempField(beta=beta, h=0.0), sol.q_star) - min(values)) < 1e-14


def _kernel_at(spec, beta, h, q):
    """`map_derivatives` at one point (beta, h) and one overlap vector q, each field without its row axis."""
    k = map_derivatives(spec, TempField(beta=beta, h=h), np.asarray(q, dtype=float)[None])
    return k._make(f[0] for f in k)


def _counting_kernel(monkeypatch):
    """Count the solver's kernel calls; returns the list of (beta, h) per call."""
    calls = []
    kernel = rs.map_derivatives

    def counting(spec, tf, q):
        calls.append((tf.beta, tf.h))
        return kernel(spec, tf, q)

    monkeypatch.setattr(rs, "map_derivatives", counting)
    return calls


def test_one_start_where_unique_and_few_kernel_calls(reference_spec, monkeypatch):
    """Where the critical point is unique the solver runs one start, and
    Newton needs few kernel calls: at most 6 at (1.2, 0.3), 10 at (0.68,
    0.01), where beta^2 is above the h = 0 threshold, and 6 per point on 60
    points of the README grid (the plain iteration took about 20)."""
    calls = _counting_kernel(monkeypatch)
    for beta, h, budget in ((1.2, 0.3, 6), (0.68, 0.01, 10)):
        calls.clear()
        sol = solve_one(reference_spec, TempField(beta=beta, h=h))
        assert sol.guaranteed_unique and len(sol.candidates) == 1
        assert len(calls) == sol.iterations <= budget
    calls.clear()
    for h in (0.1, 0.5, 1.0):
        for beta in np.linspace(0.4, 1.6, 20):
            solve_one(reference_spec, TempField(beta=float(beta), h=h))
    assert len(calls) <= 6 * 60


def test_error_estimate_bounds_the_error(reference_spec):
    """The reported error estimate |(I - J)^-1 (q - T(q))| is at most tol and
    bounds the distance to a tol-1e-15 solve, near the line at small h too."""
    for beta, h in ((1.2, 0.3), (0.66, 0.005), (1.6, 0.9), (0.5, 0.4)):
        tf = TempField(beta=beta, h=h)
        sol = solve_one(reference_spec, tf)
        tight = solve_one(reference_spec, tf, tol=1e-15)
        assert sol.error <= rs.DEFAULT_TOL and tight.error <= 1e-15
        assert np.abs(sol.q_star - tight.q_star).max() <= 2.0 * sol.error + 1e-15


def test_zero_field_multistart_finds_both_branches(reference_spec, monkeypatch):
    """Above the h = 0 threshold three starts run: the zero start stays on the
    paramagnetic branch q = 0 (where the map expands, so the plain step
    holds it), and the all-ones start reaches the glassy branch."""
    calls = _counting_kernel(monkeypatch)
    beta = math.sqrt(2.5 * uniqueness_threshold(reference_spec))
    sol = solve_one(reference_spec, TempField(beta=beta, h=0.0))
    assert not sol.guaranteed_unique
    assert len(sol.candidates) == 2
    assert any((c == 0).all() for c in sol.candidates)
    assert any((c > 0.1).all() for c in sol.candidates)
    assert len(calls) <= 3 * 10


def test_equal_starts_run_once(reference_spec, monkeypatch):
    """At h = 0 the decoupled start tanh^2(h) equals the zero start, so above
    the threshold, at (1.2, 0), two rows reach the kernel, not three.  The
    candidates are the limits of one-row runs from 0 and from 1, and q* is
    the glassy one, whose value is lower."""
    rows = []
    kernel = rs.map_derivatives
    monkeypatch.setattr(rs, "map_derivatives",
                        lambda spec, tf, q: rows.append(np.size(q) // spec.m) or kernel(spec, tf, q))
    tf = TempField(beta=1.2, h=0.0)
    sol = solve_one(reference_spec, tf)
    assert rows[0] == 2 and max(rows) == 2
    limits = [rs._run(reference_spec, tf, np.full(2, start))[0].q for start in (0.0, 1.0)]
    assert len(sol.candidates) == 2
    assert all(np.array_equal(c, limit) for c, limit in zip(sol.candidates, limits))
    assert not limits[0].any() and np.array_equal(sol.q_star, limits[1])
    assert rs_functional(reference_spec, tf, limits[1]) < rs_functional(reference_spec, tf, limits[0])


def test_row_batches_match_one_point_solves(reference_spec):
    """Solving the README grid one h row at a time, each row one batch, gives
    every point's q*, gamma, error estimate and iteration count bit for bit
    as its own solve."""
    betas = np.linspace(0.4, 1.6, 25)
    for h in np.linspace(0.1, 1.0, 10):
        batch = rs.solve_points(reference_spec, TempField(beta=betas, h=np.full(betas.size, h)))
        for beta, got in zip(betas, batch):
            want = solve_one(reference_spec, TempField(beta=float(beta), h=float(h)))
            assert np.array_equal(got.q_star, want.q_star) and np.array_equal(got.gamma, want.gamma)
            assert (got.error, got.iterations) == (want.error, want.iterations)


def test_plain_steps_leave_an_unstable_fixed_point(reference_spec):
    """Until the spectral radius of J drops below 1 the solver takes plain
    steps: from q = 1e-3 at h = 0 above the threshold a run leaves the
    unstable q = 0 for the glassy branch, to which Newton alone would fall."""
    tf = TempField(beta=math.sqrt(2.5 * uniqueness_threshold(reference_spec)), h=0.0)
    glassy = max(solve_one(reference_spec, tf).candidates, key=lambda q: q.sum())
    (run,) = rs._run(reference_spec, tf, np.full(2, 1e-3))
    assert run.converged and np.abs(run.q - glassy).max() < 1e-9


@pytest.mark.parametrize("beta, h", [(1.2, 0.3), (1.6, 0.5), (3.0, 0.05), (1.2, 20.0), (1.2, 100.0)])
def test_kernel_derivatives_match_central_differences(reference_spec, beta, h):
    """The kernel's derivatives in q and beta against central differences of
    its own T and gamma, at an interior q and at q = 0, where s = 0 and the
    closed form holds (one-sided second-order differences there, from the
    rule or the tail form).  Bulk rows, and tail rows at h = 20 and
    h = 100, where gamma is about 1e-35 and 1e-174: gamma is divided by its
    value at the base point, so its derivatives are checked relative to it."""
    spec, step = reference_spec, 1e-5

    def both(q, b, scale):
        k = _kernel_at(spec, b, h, q)
        return np.concatenate([k.t, k.gamma / scale])

    for q in (np.array([0.43, 0.61]), np.zeros(2)):
        k = _kernel_at(spec, beta, h, q)
        scale = k.gamma
        if q.any():
            fd_q = np.column_stack([(both(q + step * e, beta, scale) - both(q - step * e, beta, scale)) / (2.0 * step)
                                    for e in np.eye(2)])
        else:
            one = 0.1 * step
            fd_q = np.column_stack([(4.0 * both(q + one * e, beta, scale) - both(q + 2.0 * one * e, beta, scale)
                                     - 3.0 * both(q, beta, scale)) / (2.0 * one) for e in np.eye(2)])
        fd_beta = (both(q, beta + step, scale) - both(q, beta - step, scale)) / (2.0 * step)
        np.testing.assert_allclose(np.vstack([k.dt_dq, k.dgamma_dq / scale[:, None]]), fd_q, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(np.concatenate([k.dt_dbeta, k.dgamma_dbeta / scale]), fd_beta, rtol=1e-7, atol=1e-9)


def test_kernel_gamma_matches_the_sech4_pass(reference_spec):
    """gamma equals lam_s E sech^4(y_s) by the 30-digit oracle to 1e-12
    relative out to h = 150, where gamma is about 1e-250 and T = 1 - E sech^2
    is 1 to the last bit.  The cavity scales are formed in float64 as the
    kernel forms them."""
    spec = reference_spec
    for h in (10.0, 150.0):
        for beta, q in ((0.5, np.array([0.3, 0.7])), (3.0, np.array([0.99, 0.98]))):
            k = _kernel_at(spec, beta, h, q)
            scales = beta * np.sqrt(2.0 * ((q * spec.lam) @ spec.delta2))
            want = [lam * sech_moment(4, s, h) for lam, s in zip(spec.lam, scales.tolist())]
            assert min(want) > 0
            np.testing.assert_allclose(k.gamma, want, rtol=1e-12, atol=0)


def _moments(s, h):
    """rs._moments, (T, m2, m4, m6), at scales s and fields h (broadcast to 1-D)."""
    s, h = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=float)), np.asarray(h, dtype=float))
    return rs._moments(s.ravel().copy(), h.ravel().copy())


def test_sech_moment_oracle_matches_a_dense_trapezoid():
    """At small s the mass of E sech^p(s Z + h) sits near z = -p s, far from
    the sech peak at z = -h/s: the oracle agrees there with a step-0.01
    trapezoid rule in z over [-12, 12] to 1e-13 relative."""
    z = np.linspace(-12.0, 12.0, 2401)
    weights = np.exp(-0.5 * z * z) * (z[1] - z[0]) / math.sqrt(2.0 * math.pi)
    for s, h in ((0.05, 2.0), (0.05, 8.0), (0.1, 0.3)):
        for p in (2, 4):
            dense = weights @ np.cosh(s * z + h) ** -float(p)
            assert sech_moment(p, s, h) == pytest.approx(dense, rel=1e-13, abs=0)


# (s, h) over [0, 200] x [0, 400]: the closed form, the rule at small and large s, and the tail form, where
# (5, 100) has its E sech^4 and E sech^6 peaks near y = 2 and 1, far below h - 9 s, (0.6, 30) a window
# just below h, and (38, 160) lies where the phase line ends
_ORACLE_POINTS = ((0.0, 0.0), (0.0, 400.0), (1e-6, 0.001), (1.0, 0.3), (10.0, 0.0), (0.05, 8.0), (0.3, 100.0),
                  (3.0, 30.0), (200.0, 400.0), (5.0, 100.0), (0.6, 30.0), (38.0, 160.0))


def test_kernel_matches_the_sech_moment_oracle():
    """T and gamma of the classical model at q = (1/2, 1/2), where every
    cavity scale is beta, against `oracles.sech_moment`: within 1e-12
    absolute on T and gamma, and 1e-10 relative on gamma, from s = 0 to 200
    and h = 0 to 400.  T stays in [0, 1] up to rounding, and gamma stays
    positive until float64 underflows (h = 400, s <= 3)."""
    spec = ModelSpec(delta2=np.ones((2, 2)), lam=[0.5, 0.5])
    for s, h in _ORACLE_POINTS:
        beta = s if s > 0 else 1.0
        k = _kernel_at(spec, beta, h, np.full(2, 0.5 if s > 0 else 0.0))
        t, gamma = 1.0 - sech_moment(2, s, h), 0.5 * sech_moment(4, s, h)
        np.testing.assert_allclose(k.t, t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(k.gamma, gamma, rtol=1e-10, atol=0)
        assert ((0.0 <= k.t) & (k.t <= 1.0 + 1e-15)).all() and ((k.gamma > 0) == (gamma > 0)).all()


def test_the_tail_form_matches_the_sech_moment_oracle():
    """The tail form (`rs._tail_moments`) at every oracle point above
    s = _Z_UP_TO, and where E sech^4 reaches the float64 underflow, against
    `oracles.sech_moment`: all three moments within 5e-14 relative wherever
    the oracle's value is a normal float, and positive exactly where it is
    (E sech^4(0.51 Z + 185) is subnormal, E sech^6 there and every moment at
    h = 400 round to 0).  Each point gives the same bits alone and in one
    batch with the others."""
    points = [(s, h) for s, h in _ORACLE_POINTS if s > rs._Z_UP_TO] + [(0.51, 185.0), (0.51, 400.0)]
    batch = rs._tail_moments(*np.array(points).T.copy())
    for j, (s, h) in enumerate(points):
        got = rs._tail_moments(np.array([s]), np.array([h]))[:, 0]
        want = np.array([sech_moment(p, s, h) for p in (2, 4, 6)])
        normal = want >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], want[normal], rtol=5e-14, atol=0)
        assert ((got > 0) == (want > 0)).all() and got.tobytes() == batch[:, j].tobytes()


@pytest.mark.parametrize("s, h", [(0.4, 0.3), (2.5, 9.0)])
def test_kernel_scale_derivatives_match_the_oracle(s, h):
    """dT/d(s^2) and d E sech^4 / d(s^2), which Stein's identity makes
    3 m4 - 2 m2 and 8 m4 - 10 m6, against mpmath.diff of the oracle's
    quadrature at 20 digits, in the bulk and in the tail (E sech^4(2.5 Z + 9)
    is 1e-6)."""
    import mpmath as mp

    _, m2, m4, m6 = _moments(s, h)[:, 0]
    with mp.workdps(20):
        for p, got in ((2, 2.0 * m2 - 3.0 * m4), (4, 8.0 * m4 - 10.0 * m6)):
            want = float(mp.diff(lambda v: _oracle_mp(p, mp.sqrt(v), h), mp.mpf(s) ** 2))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def _oracle_mp(p, s, h):
    """E sech^p(s Z + h) as an mpf at the working precision, for mpmath.diff: the oracle's quadrature without
    its float rounding or cache."""
    import mpmath as mp

    return mp.quad(lambda z: mp.exp(-z * z / 2) * mp.sech(s * z + h) ** p, [-mp.inf, -h / s, 0, mp.inf]) \
        / mp.sqrt(2 * mp.pi)


@pytest.mark.parametrize("s", [0.6, 2.0, 10.0, 60.0])
def test_the_fourier_and_laplace_forms_agree_across_their_switch(s):
    """The Fourier-side rule and the tail form (`rs._tail_moments`) agree
    to 1e-12 relative on all three moments where E sech^4 is 0.2 to 5 times
    the switch value, and the kernel takes the rule above it and the tail
    form below: no jump where the form changes."""
    lo, hi = 0.0, 400.0  # the field at which the rule's E sech^4 crosses the switch
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rs._fourier_moments(np.array([s]), np.array([mid]))[1, 0] > rs._TAIL_BELOW else (lo, mid)
    for h in np.linspace(0.95, 1.05, 5) * hi:
        fourier = rs._fourier_moments(np.array([s]), np.array([h]))
        tail = rs._tail_moments(np.array([s]), np.array([h]))
        assert 0.2 < fourier[1, 0] / rs._TAIL_BELOW < 5.0
        np.testing.assert_allclose(fourier, tail, rtol=1e-12, atol=0)
        form = fourier if fourier[1, 0] >= rs._TAIL_BELOW else tail
        assert _moments(s, h)[1:].tobytes() == form.tobytes()


@pytest.mark.parametrize("h", [0.0, 0.3, 2.0, 4.0])
def test_the_z_and_fourier_forms_agree_across_their_switch(h):
    """At the cavity scale _Z_UP_TO = 0.5, below which the kernel sums in z
    and above which on the Fourier side (the tail form where E sech^4 is
    below the switch value, as at h = 4), the two sides give T and the
    three moments to 1e-13 relative on either side of it."""
    for s in (0.45, 0.5, 0.55):
        z_side = rs._z_moments(np.array([s]), np.array([h]))
        other = rs._fourier_moments(np.array([s]), np.array([h]))
        if other[1, 0] < rs._TAIL_BELOW:
            other = rs._tail_moments(np.array([s]), np.array([h]))
        np.testing.assert_allclose(z_side, np.vstack([1.0 - other[0], other]), rtol=1e-13, atol=0)
        assert _moments(s, h).tobytes() == (z_side if s <= rs._Z_UP_TO else np.vstack([1.0 - other[0], other])).tobytes()


def test_solver_not_converged():
    spec = ModelSpec(delta2=[[1.5, 1.0], [1.0, 1.2]], lam=[0.6, 0.4])
    with pytest.raises(NotConverged) as info:
        solve_one(spec, TempField(beta=0.9, h=0.5), max_iter=2)
    assert info.value.last_iterate is not None


def test_uniqueness_threshold_values(reference_spec, sk_spec):
    assert uniqueness_threshold(sk_spec) == 0.5
    # independent high-precision recomputation
    import mpmath as mp

    mp.mp.dps = 40
    a = mp.mpf("0.6") * mp.mpf("1.5")
    b = mp.mpf("0.4") * mp.mpf("1.2")
    want = 1 / (a + b + mp.sqrt((a - b) ** 2 + 4 * mp.mpf("0.6") * mp.mpf("0.4")))
    assert abs(uniqueness_threshold(reference_spec) - float(want)) < 1e-15
    assert abs(uniqueness_threshold(reference_spec) - 0.40883) < 5e-6


def test_uniqueness_threshold_small_species_limit():
    spec = ModelSpec(delta2=[[2.0, 1.0], [1.0, 1.0]], lam=[0.999, 0.001])
    assert abs(uniqueness_threshold(spec) - 1.0 / (2.0 * 0.999 * 2.0)) < 1e-3


def test_uniqueness_threshold_unsupported():
    spec = ModelSpec(delta2=np.eye(3) + 1.0, lam=np.full(3, 1.0 / 3.0))
    with pytest.raises(Unsupported):
        uniqueness_threshold(spec)


def test_contraction_certificate(reference_spec, sk_spec):
    """Empirical sup-norm contraction of the map below 0.9 x the threshold."""
    rng = np.random.default_rng(5)
    for spec in (reference_spec, sk_spec):
        beta = math.sqrt(0.85 * uniqueness_threshold(spec))
        worst = 0.0
        for _ in range(200):
            qa, qb = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            num = np.abs(_kernel_at(spec, beta, 0.0, qa).t - _kernel_at(spec, beta, 0.0, qb).t).max()
            worst = max(worst, num / np.abs(qa - qb).max())
        assert worst < 1.0


def test_interior_minimum_beats_boundary(reference_spec):
    """For h > 0 the critical point beats every boundary point of [0,1]^2."""
    tf = TempField(beta=0.6, h=0.5)
    sol = solve_one(reference_spec, tf)
    best = rs_functional(reference_spec, tf, sol.q_star)
    ts = np.linspace(0.0, 1.0, 21)
    boundary = (
        [np.array([t, 0.0]) for t in ts]
        + [np.array([t, 1.0]) for t in ts]
        + [np.array([0.0, t]) for t in ts]
        + [np.array([1.0, t]) for t in ts]
    )
    for q in boundary:
        assert best < rs_functional(reference_spec, tf, q)
