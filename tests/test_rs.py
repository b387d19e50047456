import math

import numpy as np
import pytest

from mskglass import (
    ModelSpec,
    NotConverged,
    TempField,
    Unsupported,
    fixed_point_map,
    rs_functional,
    solve_fixed_point,
    uniqueness_threshold,
)
from mskglass import rs
from .oracles import rs_gradient, single_species_rs_value, two_species_bisection


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


def test_functional_batch_matches_single_rows(reference_spec, rule):
    tf = TempField(beta=0.9, h=0.3)
    qs = np.array([[0.0, 0.0], [0.2, 0.5], [0.7, 0.3], [1.0, 1.0]])
    batched = rs_functional(reference_spec, tf, qs, rule)
    assert batched.shape == (4,)
    singles = [rs_functional(reference_spec, tf, q, rule) for q in qs]
    assert all(isinstance(v, float) for v in singles)
    np.testing.assert_allclose(batched, singles, rtol=1e-14, atol=0)


def test_gradient_zero_at_critical_point(reference_spec, rule):
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_fixed_point(reference_spec, tf, rule)
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
    sol = solve_fixed_point(reference_spec, TempField(beta=beta, h=0.0), rule)
    np.testing.assert_array_equal(sol.q_star, np.zeros(2))
    assert sol.guaranteed_unique
    assert sol.on_boundary.all()


def test_solver_beta_to_zero_decouples(reference_spec, rule):
    sol = solve_fixed_point(reference_spec, TempField(beta=1e-4, h=0.4), rule)
    want = math.tanh(0.4) ** 2
    assert np.abs(sol.q_star - want).max() < 1e-6


def test_solver_against_bisection_oracle(reference_spec, rule):
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_fixed_point(reference_spec, tf, rule, tol=1e-12)
    q_oracle = two_species_bisection(reference_spec, tf.beta, tf.h)
    assert np.abs(sol.q_star - q_oracle).max() < 1e-8
    # h > 0 forces a strictly interior point
    assert not sol.on_boundary.any()
    assert ((sol.q_star > 0) & (sol.q_star < 1)).all()


def test_solver_multistart_above_threshold(reference_spec, rule):
    beta = math.sqrt(2.5 * uniqueness_threshold(reference_spec))
    sol = solve_fixed_point(reference_spec, TempField(beta=beta, h=0.0), rule)
    assert not sol.guaranteed_unique
    assert len(sol.candidates) == 2  # paramagnetic and glassy branches
    values = [rs_functional(reference_spec, TempField(beta=beta, h=0.0), q, rule) for q in sol.candidates]
    assert abs(rs_functional(reference_spec, TempField(beta=beta, h=0.0), sol.q_star, rule) - min(values)) < 1e-14


def test_every_start_converges_quickly(reference_spec, rule, monkeypatch):
    """All three starts converge, so the distinct-limits check compares three runs.

    At (0.68, 0.01) beta^2 is above the h = 0 threshold, so the map expands
    near q = 0 and the 0 and tanh^2 h starts leave it with a rising residual;
    at (1.2, 0.3) every start takes the plain step to the fixed point quickly.
    """
    runs = []
    iterate = rs._iterate

    def recording(*args):
        batch = iterate(*args)
        runs.extend(batch)
        return batch

    monkeypatch.setattr(rs, "_iterate", recording)
    solve_fixed_point(reference_spec, TempField(beta=0.68, h=0.01), rule)
    assert len(runs) == 3
    assert all(run.converged for run in runs)

    runs.clear()
    solve_fixed_point(reference_spec, TempField(beta=1.2, h=0.3), rule)
    assert len(runs) == 3
    assert all(run.converged and run.iterations <= 60 for run in runs)


def test_starts_share_each_map_call(reference_spec, rule, monkeypatch):
    """The three starts step as one batch: a solve makes as many map calls
    as its slowest start takes iterations, not the sum over the starts."""
    calls, runs = [], []
    step, iterate = rs.fixed_point_map, rs._iterate

    def counting(*args):
        calls.append(args[2])
        return step(*args)

    def recording(*args):
        batch = iterate(*args)
        runs.extend(batch)
        return batch

    monkeypatch.setattr(rs, "fixed_point_map", counting)
    monkeypatch.setattr(rs, "_iterate", recording)
    solve_fixed_point(reference_spec, TempField(beta=1.2, h=0.3), rule)
    assert len(runs) == 3 and all(run.converged for run in runs)
    assert len(calls) <= max(run.iterations for run in runs) + 1
    assert len(calls) < sum(run.iterations for run in runs)


def test_batched_runs_match_lone_runs(reference_spec, rule):
    """Each start's iterate, residual and iteration count are bit-equal to
    those of the same start iterated alone."""
    for beta, h in ((1.2, 0.3), (0.68, 0.01), (1.6, 0.9)):
        tf = TempField(beta=beta, h=h)
        starts = np.array([[0.0, 0.0], [1.0, 1.0], [math.tanh(h) ** 2] * 2])
        batch = rs._iterate(reference_spec, tf, rule, starts, rs.DEFAULT_TOL, rs.DEFAULT_MAX_ITER)
        for start, run in zip(starts, batch):
            (lone,) = rs._iterate(reference_spec, tf, rule, start[None], rs.DEFAULT_TOL, rs.DEFAULT_MAX_ITER)
            np.testing.assert_array_equal(run.q, lone.q)
            assert (run.residual, run.iterations, run.converged) == (lone.residual, lone.iterations, lone.converged)


def test_solver_not_converged():
    spec = ModelSpec(delta2=[[1.5, 1.0], [1.0, 1.2]], lam=[0.6, 0.4])
    from mskglass import gauss_hermite

    with pytest.raises(NotConverged) as info:
        solve_fixed_point(spec, TempField(beta=0.9, h=0.5), gauss_hermite(21), max_iter=2)
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
        tf = TempField(beta=beta, h=0.0)
        worst = 0.0
        for _ in range(200):
            qa, qb = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
            num = np.abs(fixed_point_map(spec, tf, qa, rule) - fixed_point_map(spec, tf, qb, rule)).max()
            worst = max(worst, num / np.abs(qa - qb).max())
        assert worst < 1.0


def test_interior_minimum_beats_boundary(reference_spec, rule):
    """For h > 0 the critical point beats every boundary point of [0,1]^2."""
    tf = TempField(beta=0.6, h=0.5)
    sol = solve_fixed_point(reference_spec, tf, rule)
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
