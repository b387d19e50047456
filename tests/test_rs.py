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
from .oracles import rs_gradient, single_species_rs_value, solve_one, two_species_bisection


def test_functional_beta_to_zero(reference_spec, rule):
    tf = TempField(beta=1e-5, h=0.3)
    want = math.log(2.0) + math.log(math.cosh(0.3))
    for q in (np.zeros(2), np.array([0.4, 0.6])):
        assert abs(rs_functional(reference_spec, tf, q, rule) - want) < 1e-8


def test_functional_sk_reduction_matches_single_species(sk_spec, rule):
    for beta, h, q in ((0.3, 0.5, 0.2), (0.6, 0.2, 0.35), (0.9, 1.0, 0.6)):
        tf = TempField(beta=beta, h=h)
        ours = rs_functional(sk_spec, tf, np.array([q, q]), rule)
        assert abs(ours - single_species_rs_value(beta, h, q)) < 1e-10


def test_gradient_zero_at_critical_point(reference_spec, rule):
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_one(reference_spec, tf, rule)
    assert np.abs(rs_gradient(reference_spec, tf, sol.q_star, rule)).max() < 1e-9


def test_gradient_matches_finite_differences(reference_spec, rule):
    tf = TempField(beta=0.7, h=0.3)
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(5):
        q = rng.uniform(0.05, 0.95, 2)
        grad = rs_gradient(reference_spec, tf, q, rule)
        for t in range(2):
            e_t = np.eye(2)[t] * step
            fd = (
                rs_functional(reference_spec, tf, q + e_t, rule)
                - rs_functional(reference_spec, tf, q - e_t, rule)
            ) / (2.0 * step)
            assert abs(fd - grad[t]) < 1e-6 * max(1.0, abs(grad[t]))


def test_gradient_zero_field_zero_overlap(reference_spec, rule):
    tf = TempField(beta=0.8, h=0.0)
    np.testing.assert_array_equal(rs_gradient(reference_spec, tf, np.zeros(2), rule), np.zeros(2))


def test_solver_zero_field_below_threshold(reference_spec, rule):
    beta = math.sqrt(0.5 * uniqueness_threshold(reference_spec))
    sol = solve_one(reference_spec, TempField(beta=beta, h=0.0), rule)
    np.testing.assert_array_equal(sol.q_star, np.zeros(2))
    assert sol.guaranteed_unique
    assert sol.on_boundary.all()


def test_solver_beta_to_zero_decouples(reference_spec, rule):
    sol = solve_one(reference_spec, TempField(beta=1e-4, h=0.4), rule)
    want = math.tanh(0.4) ** 2
    assert np.abs(sol.q_star - want).max() < 1e-6


def test_solver_against_bisection_oracle(reference_spec, rule):
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_one(reference_spec, tf, rule, tol=1e-12)
    q_oracle = two_species_bisection(reference_spec, 0.5, 0.4)
    assert np.abs(sol.q_star - q_oracle).max() < 1e-8
    # h > 0 forces a strictly interior point
    assert not sol.on_boundary.any()
    assert ((sol.q_star > 0) & (sol.q_star < 1)).all()


def test_solver_multistart_above_threshold(reference_spec, rule):
    beta = math.sqrt(2.5 * uniqueness_threshold(reference_spec))
    sol = solve_one(reference_spec, TempField(beta=beta, h=0.0), rule)
    assert not sol.guaranteed_unique
    assert len(sol.candidates) == 2  # paramagnetic and glassy branches
    values = [rs_functional(reference_spec, TempField(beta=beta, h=0.0), q, rule) for q in sol.candidates]
    assert abs(rs_functional(reference_spec, TempField(beta=beta, h=0.0), sol.q_star, rule) - min(values)) < 1e-14


def _kernel_at(spec, beta, h, q, rule):
    """`map_derivatives` at one point (beta, h) and one overlap vector q, each field without its row axis."""
    k = map_derivatives(spec, TempField(beta=beta, h=h), np.asarray(q, dtype=float)[None], rule)
    return k._make(f[0] for f in k)


def _counting_kernel(monkeypatch):
    """Count the solver's kernel calls; returns the list of (beta, h) per call."""
    calls = []
    kernel = rs.map_derivatives

    def counting(spec, tf, q, rule):
        calls.append((tf.beta, tf.h))
        return kernel(spec, tf, q, rule)

    monkeypatch.setattr(rs, "map_derivatives", counting)
    return calls


def test_one_start_where_unique_and_few_kernel_calls(reference_spec, rule, monkeypatch):
    """Where the critical point is unique the solver runs one start, and
    Newton needs few kernel calls: at most 6 at (1.2, 0.3), 10 at (0.68,
    0.01), where beta^2 is above the h = 0 threshold, and 6 per point on 60
    points of the README grid (the plain iteration took about 20)."""
    calls = _counting_kernel(monkeypatch)
    for beta, h, budget in ((1.2, 0.3, 6), (0.68, 0.01, 10)):
        calls.clear()
        sol = solve_one(reference_spec, TempField(beta=beta, h=h), rule)
        assert sol.guaranteed_unique and len(sol.candidates) == 1
        assert len(calls) == sol.iterations <= budget
    calls.clear()
    for h in (0.1, 0.5, 1.0):
        for beta in np.linspace(0.4, 1.6, 20):
            solve_one(reference_spec, TempField(beta=float(beta), h=h), rule)
    assert len(calls) <= 6 * 60


def test_error_estimate_bounds_the_error(reference_spec, rule):
    """The reported error estimate |(I - J)^-1 (q - T(q))| is at most tol and
    bounds the distance to a tol-1e-15 solve, near the line at small h too."""
    for beta, h in ((1.2, 0.3), (0.66, 0.005), (1.6, 0.9), (0.5, 0.4)):
        tf = TempField(beta=beta, h=h)
        sol = solve_one(reference_spec, tf, rule)
        tight = solve_one(reference_spec, tf, rule, tol=1e-15)
        assert sol.error <= rs.DEFAULT_TOL and tight.error <= 1e-15
        assert np.abs(sol.q_star - tight.q_star).max() <= 2.0 * sol.error + 1e-15


def test_zero_field_multistart_finds_both_branches(reference_spec, rule, monkeypatch):
    """Above the h = 0 threshold three starts run: the zero start stays on the
    paramagnetic branch q = 0 (where the map expands, so the plain step
    holds it), and the all-ones start reaches the glassy branch."""
    calls = _counting_kernel(monkeypatch)
    beta = math.sqrt(2.5 * uniqueness_threshold(reference_spec))
    sol = solve_one(reference_spec, TempField(beta=beta, h=0.0), rule)
    assert not sol.guaranteed_unique
    assert len(sol.candidates) == 2
    assert any((c == 0).all() for c in sol.candidates)
    assert any((c > 0.1).all() for c in sol.candidates)
    assert len(calls) <= 3 * 10


def test_equal_starts_run_once(reference_spec, rule, monkeypatch):
    """At h = 0 the decoupled start tanh^2(h) equals the zero start, so above
    the threshold, at (1.2, 0), two rows reach the kernel, not three.  The
    candidates are the limits of one-row runs from 0 and from 1, and q* is
    the glassy one, whose value is lower."""
    rows = []
    kernel = rs.map_derivatives
    monkeypatch.setattr(rs, "map_derivatives",
                        lambda spec, tf, q, rule: rows.append(np.size(q) // spec.m) or kernel(spec, tf, q, rule))
    tf = TempField(beta=1.2, h=0.0)
    sol = solve_one(reference_spec, tf, rule)
    assert rows[0] == 2 and max(rows) == 2
    limits = [rs._run(reference_spec, tf, rule, np.full(2, start))[0].q for start in (0.0, 1.0)]
    assert len(sol.candidates) == 2
    assert all(np.array_equal(c, limit) for c, limit in zip(sol.candidates, limits))
    assert not limits[0].any() and np.array_equal(sol.q_star, limits[1])
    assert rs_functional(reference_spec, tf, limits[1], rule) < rs_functional(reference_spec, tf, limits[0], rule)


def test_row_batches_match_one_point_solves(reference_spec, rule):
    """Solving the README grid one h row at a time, each row one batch, gives
    every point's q*, gamma, error estimate and iteration count bit for bit
    as its own solve."""
    betas = np.linspace(0.4, 1.6, 25)
    for h in np.linspace(0.1, 1.0, 10):
        batch = rs.solve_points(reference_spec, TempField(beta=betas, h=np.full(betas.size, h)), rule)
        for beta, got in zip(betas, batch):
            want = solve_one(reference_spec, TempField(beta=float(beta), h=float(h)), rule)
            assert np.array_equal(got.q_star, want.q_star) and np.array_equal(got.gamma, want.gamma)
            assert (got.error, got.iterations) == (want.error, want.iterations)


def test_plain_steps_leave_an_unstable_fixed_point(reference_spec, rule):
    """Until the spectral radius of J drops below 1 the solver takes plain
    steps: from q = 1e-3 at h = 0 above the threshold a run leaves the
    unstable q = 0 for the glassy branch, to which Newton alone would fall."""
    tf = TempField(beta=math.sqrt(2.5 * uniqueness_threshold(reference_spec)), h=0.0)
    glassy = max(solve_one(reference_spec, tf, rule).candidates, key=lambda q: q.sum())
    (run,) = rs._run(reference_spec, tf, rule, np.full(2, 1e-3))
    assert run.converged and np.abs(run.q - glassy).max() < 1e-9


@pytest.mark.parametrize("beta, h", [(1.2, 0.3), (1.6, 0.5), (3.0, 0.05)])
def test_kernel_derivatives_match_central_differences(reference_spec, rule, beta, h):
    """The kernel's derivatives in q and beta against central differences of
    its own T and gamma, at an interior q and at q = 0, where C = 0 and the
    q-derivatives take their limit form (one-sided second-order differences
    there)."""
    spec, step = reference_spec, 1e-5

    def both(q, b):
        k = _kernel_at(spec, b, h, q, rule)
        return np.concatenate([k.t, k.gamma])

    for q in (np.array([0.43, 0.61]), np.zeros(2)):
        k = _kernel_at(spec, beta, h, q, rule)
        if q.any():
            fd_q = np.column_stack([(both(q + step * e, beta) - both(q - step * e, beta)) / (2.0 * step)
                                    for e in np.eye(2)])
        else:
            one = 0.1 * step
            fd_q = np.column_stack([(4.0 * both(q + one * e, beta) - both(q + 2.0 * one * e, beta)
                                     - 3.0 * both(q, beta)) / (2.0 * one) for e in np.eye(2)])
        fd_beta = (both(q, beta + step) - both(q, beta - step)) / (2.0 * step)
        np.testing.assert_allclose(np.vstack([k.dt_dq, k.dgamma_dq]), fd_q, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(np.concatenate([k.dt_dbeta, k.dgamma_dbeta]), fd_beta, rtol=1e-7, atol=1e-9)


def test_kernel_gamma_matches_the_sech4_pass(reference_spec, rule):
    """gamma from sech^2 = 4e / (1 + e)^2, e = exp(-2|y|), equals a 40-digit
    sum lam_s sum_i w_i sech^4(y_si) at the rule's nodes to 1e-14 relative
    out to h = 150, where 1 - tanh^2 would have underflowed to 0.  The
    cavity fields y are formed in float64 as the kernel forms them: at
    h = 150 one rounding of y moves sech^4 by 1e-13 relative."""
    import mpmath as mp

    spec = reference_spec
    for h in (0.1, 1.0, 10.0, 20.0, 50.0, 100.0, 150.0):
        for beta in (0.5, 1.2, 3.0):
            for q in (np.array([0.3, 0.7]), np.array([0.99, 0.98])):
                k = _kernel_at(spec, beta, h, q, rule)
                ys = (beta * np.sqrt(2.0 * ((q * spec.lam) @ spec.delta2)))[:, None] * rule.nodes + h
                with mp.workdps(40):
                    want = [float(lam * mp.fsum(mp.mpf(w) * mp.sech(mp.mpf(y)) ** 4 for w, y in zip(rule.weights, row)))
                            for lam, row in zip(spec.lam, ys)]
                assert min(want) > 0
                np.testing.assert_allclose(k.gamma, want, rtol=1e-14, atol=0)


def test_solver_not_converged():
    spec = ModelSpec(delta2=[[1.5, 1.0], [1.0, 1.2]], lam=[0.6, 0.4])
    from mskglass import gauss_hermite

    with pytest.raises(NotConverged) as info:
        solve_one(spec, TempField(beta=0.9, h=0.5), gauss_hermite(21), max_iter=2)
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


def test_contraction_certificate(reference_spec, sk_spec, rule):
    """Empirical sup-norm contraction of the map below 0.9 x the threshold."""
    rng = np.random.default_rng(5)
    for spec in (reference_spec, sk_spec):
        beta = math.sqrt(0.85 * uniqueness_threshold(spec))
        worst = 0.0
        for _ in range(200):
            qa, qb = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            num = np.abs(_kernel_at(spec, beta, 0.0, qa, rule).t - _kernel_at(spec, beta, 0.0, qb, rule).t).max()
            worst = max(worst, num / np.abs(qa - qb).max())
        assert worst < 1.0


def test_interior_minimum_beats_boundary(reference_spec, rule):
    """For h > 0 the critical point beats every boundary point of [0,1]^2."""
    tf = TempField(beta=0.6, h=0.5)
    sol = solve_one(reference_spec, tf, rule)
    best = rs_functional(reference_spec, tf, sol.q_star, rule)
    ts = np.linspace(0.0, 1.0, 21)
    boundary = (
        [np.array([t, 0.0]) for t in ts]
        + [np.array([t, 1.0]) for t in ts]
        + [np.array([0.0, t]) for t in ts]
        + [np.array([1.0, t]) for t in ts]
    )
    for q in boundary:
        assert best < rs_functional(reference_spec, tf, q, rule)
