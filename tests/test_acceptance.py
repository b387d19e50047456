"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its measured runtime (visible under
``pytest -s`` or with ``-rP``) and enforces the stated runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mskglass import (
    ModelSpec,
    TempField,
    Verdict,
    gauss_hermite,
    map_derivatives,
    rs_functional,
    stability_matrices,
    uniqueness_threshold,
    free_energy_exact,
)
from mskglass.parisi import ParisiParams, evaluate as parisi_value
from .oracles import (
    certify_one,
    fd_gradient_at_minimum,
    fd_hessian_at_minimum,
    one_step_value,
    rs_value,
    solve_one,
    stability_threshold,
    thresholds_one,
    verdict_one,
    zeta_derivative,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number:2d} PASS  {elapsed:8.3f}s / {budget_seconds:g}s  {description}")


def _random_standard_spec(rng):
    """Rejection-sample a two-species model satisfying the standard normalization."""
    while True:
        d1 = rng.uniform(0.5, 3.0)
        d2 = rng.uniform(1.0 / d1 * 1.02, 1.0 / d1 * 1.02 + 2.5)
        lam1 = rng.uniform(0.15, 0.85)
        if lam1 * d1 >= (1.0 - lam1) * d2:
            return ModelSpec(delta2=[[d1, 1.0], [1.0, d2]], lam=[lam1, 1.0 - lam1])


def _beta_at_ratio(spec, ratio, h):
    beta = 0.8
    for _ in range(60):
        tf = TempField(beta=beta, h=h)
        sol = solve_one(spec, tf)
        target = math.sqrt(ratio * thresholds_one(spec, sol.gamma).beta2_m)
        if abs(target - beta) < 1e-13:
            return target
        beta = target
    return beta


def test_criterion_01_sk_uniqueness_threshold(sk_spec):
    """Closed-form threshold equals the classical value 1/2 exactly, and the
    h = 0 linear-stability threshold (an eigenvalue) agrees."""
    uniqueness_threshold(sk_spec)  # warm up
    with criterion(1, "SK-reduction uniqueness threshold = 0.5", budget_seconds=1e-3):
        value = uniqueness_threshold(sk_spec)
    assert abs(value - 0.5) <= 1e-15
    assert abs(stability_threshold(sk_spec, sk_spec.lam) - 0.5) <= 1e-15


def test_criterion_02_threshold_coincidence_at_zero_field():
    """With gamma = lambda, beta2_m coincides to 1e-14 with the h = 0
    linear-stability threshold 1 / (2 lambda_max(L^1/2 D L^1/2))."""
    rng = np.random.default_rng(2026)
    with criterion(2, "beta2_m(gamma=lambda) = beta0^2 on 10^3 random specs", budget_seconds=1.0):
        for _ in range(1000):
            spec = _random_standard_spec(rng)
            th = thresholds_one(spec, spec.lam)
            beta0_sq = stability_threshold(spec, spec.lam)
            assert abs(th.beta2_m - beta0_sq) < 1e-14
            assert abs(uniqueness_threshold(spec) - beta0_sq) < 1e-14


def test_criterion_03_hessian_vs_finite_differences(reference_spec, rule):
    """Closed-form curvature vs finite differences of the slope, 1e-5 relative."""
    with criterion(3, "curvature closed form vs FD at the critical point", budget_seconds=30.0):
        tf = TempField(beta=0.6, h=0.4)
        sol = solve_one(reference_spec, tf, tol=1e-13)
        _, (h_mat,) = stability_matrices(reference_spec, tf, sol.gamma[None])

        def v_of(z):
            return zeta_derivative(reference_spec, tf, sol.q_star, sol.q_star + z, rule)

        h_fd = fd_hessian_at_minimum(v_of, 2, delta=1e-4)
        rel = np.abs(h_fd - h_mat) / np.abs(h_mat)
        assert rel.max() < 1e-5, f"entrywise relative error {rel}"


def test_criterion_04_slope_and_gradient_vanish(reference_spec, rule):
    """V(q*) = 0 within 1e-10 and its FD gradient within 1e-6."""
    with criterion(4, "slope and slope-gradient vanish at the critical point", budget_seconds=10.0):
        tf = TempField(beta=0.6, h=0.4)
        sol = solve_one(reference_spec, tf, tol=1e-13)
        value = zeta_derivative(reference_spec, tf, sol.q_star, sol.q_star, rule)
        assert abs(value) < 1e-10

        def v_of(z):
            return zeta_derivative(reference_spec, tf, sol.q_star, sol.q_star + z, rule)

        grad = fd_gradient_at_minimum(v_of, 2, delta=1e-4)
        assert np.abs(grad).max() < 1e-6


def test_criterion_05_zeta_one_collapse(reference_spec, rule):
    """One-step value at zeta -> 1 equals the single-atom value, 100 random points;
    the generic evaluator agrees with adaptive quadrature of the single-atom
    form at k = 0 and of the one-step form at k = 1."""
    with criterion(5, "zeta = 1 collapse and generic-evaluator agreement", budget_seconds=120.0):
        beta, h = 0.6, 0.4
        tf = TempField(beta=beta, h=h)
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = rng.uniform(0.0, 1.0, 2)
            p = q + (1.0 - q) * rng.uniform(0.0, 1.0, 2)
            params1 = ParisiParams(zeta=np.array([1.0 - 1e-12]), q=np.column_stack([q, p]))
            params0 = ParisiParams(zeta=np.zeros(0), q=q[:, None])
            gap = parisi_value(reference_spec, tf, params1, rule) - parisi_value(reference_spec, tf, params0, rule)
            assert abs(gap) < 1e-9
        for _ in range(10):
            q = rng.uniform(0.0, 0.7, 2)
            params0 = ParisiParams(zeta=np.zeros(0), q=q[:, None])
            assert abs(parisi_value(reference_spec, tf, params0, rule)[0, 0] - rs_value(reference_spec, beta, h, q)) < 1e-9
            p = q + rng.uniform(0.02, 0.3, 2)
            zeta = rng.uniform(0.15, 0.95)
            params1 = ParisiParams(zeta=np.array([zeta]), q=np.column_stack([q, p]))
            want = one_step_value(reference_spec, beta, h, q, p, zeta)
            assert abs(parisi_value(reference_spec, tf, params1, rule)[0, 0] - want) < 1e-9


def test_criterion_06_rsb_certificate(reference_spec, rule):
    """Above the line (beta^2 = 1.5 beta2_m, h = 0.3) the certificate is strict."""
    with criterion(6, "constructive symmetry-breaking certificate", budget_seconds=120.0):
        beta = _beta_at_ratio(reference_spec, 1.5, 0.3)
        tf = TempField(beta=beta, h=0.3)
        report = verdict_one(reference_spec, tf)
        assert report.verdict == Verdict.RSB_CERTIFIED
        cert = certify_one(reference_spec, tf, report, rule)
        assert cert.gap > 1e-10
        assert cert.value < cert.rs_value


def test_criterion_07_threshold_ordering_and_equivalence():
    """Ordering of the five thresholds and the sign-pattern equivalence, 10^4 samples."""
    rng = np.random.default_rng(7)
    with criterion(7, "threshold ordering + sign-pattern equivalence (10^4)", budget_seconds=10.0):
        for _ in range(10_000):
            spec = _random_standard_spec(rng)
            gamma = rng.uniform(0.01, 1.0, 2) * spec.lam
            th = thresholds_one(spec, gamma)
            lo, hi = min(th.beta2_u, th.beta2_t), max(th.beta2_u, th.beta2_t)
            assert 0.0 < th.beta2_v < th.beta2_m < lo <= hi < th.beta2_M
            # brute-force both sides of the equivalence at a random temperature
            b2 = rng.uniform(0.25 * th.beta2_m, min(4.0 * th.beta2_m, th.beta2_M * 1.5))
            d1, d2 = spec.delta2[0, 0], spec.delta2[1, 1]
            g1, g2 = gamma
            u = 2 * b2 * (g1 * d1 * d1 + g2) - d1
            t = 2 * b2 * (g1 + g2 * d2 * d2) - d2
            v = 2 * b2 * (g1 * d1 + g2 * d2) - 1.0
            sign_pattern = u > 0 or t > 0 or (u <= 0 and t <= 0 and math.sqrt(u * t) < v)
            assert sign_pattern == (b2 > th.beta2_m)


def test_criterion_08_latala_guerra_monotonicity(rule):
    """E tanh^2(eta sqrt(x) + h)/x strictly decreasing on a 200-point grid."""
    with criterion(8, "overlap-map monotonicity on (0, 20]", budget_seconds=5.0):
        xs = np.linspace(0.1, 20.0, 200)
        for h in (0.1, 0.5, 1.0, 2.0):
            phi = (np.tanh(np.sqrt(xs)[:, None] * rule.nodes + h) ** 2 @ rule.weights) / xs
            assert (np.diff(phi) < 0).all()


def test_criterion_09_finite_size_cross_check(reference_spec, sk_spec):
    """Exact enumeration at N = 20 vs the variational value, within 3 se + 0.5/N."""
    with criterion(9, "finite-N enumeration vs variational value", budget_seconds=600.0):
        cases = ((sk_spec, 0.2, 0.3), (reference_spec, 0.3, 0.4))
        for spec, beta, h in cases:
            tf = TempField(beta=beta, h=h)
            estimate = free_energy_exact(spec, tf, n=20, n_disorder=200, seed=7)
            sol = solve_one(spec, tf)
            (target,) = rs_functional(spec, tf, sol.q_star[None])
            allowance = 3.0 * estimate.stderr + 0.5 / 20.0
            assert abs(estimate.mean - target) < allowance, (
                f"|{estimate.mean} - {target}| >= {allowance}"
            )


def test_criterion_10_fixed_point_robustness(reference_spec):
    """100 random starts at 20 phase-plane points reach a common fixed point."""
    rng = np.random.default_rng(10)
    with criterion(10, "fixed-point robustness (100 starts x 20 points)", budget_seconds=60.0):
        for _ in range(20):
            beta = rng.uniform(0.15, 1.1)
            h = rng.uniform(0.05, 1.0)
            tf = TempField(beta=np.full(100, beta), h=np.full(100, h))
            starts = rng.uniform(0.0, 1.0, (100, 2))
            q = starts.copy()
            for _ in range(20000):
                target = map_derivatives(reference_spec, tf, q).t
                if np.abs(q - target).max() < 1e-10:
                    break
                q = np.clip(0.5 * q + 0.5 * target, 0.0, 1.0)
            else:
                raise AssertionError("batched iteration did not converge")
            spread = np.abs(q - q.mean(axis=0)).max()
            assert spread < 1e-9, f"spread {spread} at beta={beta}, h={h}"
            sol = solve_one(reference_spec, TempField(beta=beta, h=h))
            assert np.abs(sol.q_star - q.mean(axis=0)).max() < 1e-9
