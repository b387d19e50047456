import math
import tracemalloc

import numpy as np
import pytest

from mskglass import (
    BadPoint,
    BadZeta,
    CertificateNotFound,
    TempField,
    Verdict,
    at_verdicts,
    certify_points,
    gauss_hermite,
    rs_functional,
)
from mskglass.onersb import ZETA_GRID
from mskglass.parisi import ParisiParams, evaluate

from .oracles import (
    certify_one, fd_gradient_at_minimum, fd_hessian_at_minimum, one_step_value, solve_one, thresholds_one,
    verdict_one, zeta_derivative,
)
from .oracles import rs_value as rs_oracle


def _one_step(spec, tf, q, p, zeta, rule):
    """The k = 1 functional at inner overlap q, outer overlap p and weight zeta."""
    return evaluate(spec, tf, ParisiParams(zeta=[zeta], q=np.column_stack([q, p])), rule)[0, 0]


def _beta_at_ratio(spec, rule, ratio, h):
    """beta with beta^2 = ratio * beta2_m(beta) at field h."""
    beta = 0.8
    for _ in range(60):
        tf = TempField(beta=beta, h=h)
        sol = solve_one(spec, tf, rule)
        target = math.sqrt(ratio * thresholds_one(spec, sol.gamma).beta2_m)
        if abs(target - beta) < 1e-13:
            return target
        beta = target
    return beta


def test_zeta_one_collapse(reference_spec, rule):
    """As zeta approaches 1 the one-step value tends to the single-atom value at q."""
    tf = TempField(beta=0.6, h=0.4)
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = rng.uniform(0.0, 1.0, 2)
        p = q + (1.0 - q) * rng.uniform(0.0, 1.0, 2)
        gap = _one_step(reference_spec, tf, q, p, 1.0 - 1e-12, rule) - rs_functional(reference_spec, tf, q, rule)
        assert abs(gap) < 1e-9


def test_p_equals_q_collapse(reference_spec, rule):
    tf = TempField(beta=0.6, h=0.4)
    q = np.array([0.25, 0.3])
    want = rs_oracle(reference_spec, 0.6, 0.4, q)
    for zeta in (0.2, 0.5, 0.9):
        assert abs(_one_step(reference_spec, tf, q, q, zeta, rule) - want) < 1e-9


def test_generic_point_matches_k1_evaluator(reference_spec, rule):
    """The one-step value (the k = 1 recursion) against nested scipy quadrature."""
    tf = TempField(beta=0.7, h=0.35)
    rng = np.random.default_rng(9)
    for _ in range(5):
        q = rng.uniform(0.0, 0.6, 2)
        p = q + rng.uniform(0.05, 0.3, 2)
        zeta = rng.uniform(0.1, 0.95)
        want = one_step_value(reference_spec, 0.7, 0.35, q, p, zeta)
        assert abs(_one_step(reference_spec, tf, q, p, zeta, rule) - want) < 1e-9


def test_slope_vanishes_at_critical_point(reference_spec, rule):
    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, rule, tol=1e-13)
    assert abs(zeta_derivative(reference_spec, tf, sol.q_star, sol.q_star, rule)) < 1e-10


def test_slope_matches_one_sided_zeta_difference(reference_spec, rule):
    """The slope equals the zeta-derivative of the one-step value at zeta = 1,
    taken one-sidedly from below (zeta > 1 is outside the domain)."""
    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, rule, tol=1e-13)
    q = sol.q_star
    p = q + np.array([0.08, 0.072])
    step = 1e-4

    def value(zeta):
        return _one_step(reference_spec, tf, q, p, zeta, rule)

    at_one = rs_functional(reference_spec, tf, q, rule)
    fd = (3.0 * at_one - 4.0 * value(1.0 - step) + value(1.0 - 2.0 * step)) / (2.0 * step)
    assert abs(zeta_derivative(reference_spec, tf, q, p, rule) - fd) < 1e-5


def test_slope_gradient_vanishes_at_critical_point(reference_spec, rule):
    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, rule, tol=1e-13)
    q = sol.q_star

    def v_of(z):
        return zeta_derivative(reference_spec, tf, q, q + z, rule)

    grad = fd_gradient_at_minimum(v_of, 2, 1e-4)
    assert np.abs(grad).max() < 1e-6


def test_slope_quadratic_taylor_matches_curvature(reference_spec, rule):
    """V(q* + eps x) = eps^2 x'Hx / 2 + O(eps^3): fit the quadratic coefficient."""
    from mskglass import stability_matrices

    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, rule, tol=1e-13)
    _, (h_mat,) = stability_matrices(reference_spec, tf, sol.gamma[None])
    rng = np.random.default_rng(31)
    for _ in range(3):
        x = rng.uniform(0.2, 1.0, 2)
        eps = np.array([1e-3, 2e-3, 4e-3])
        vals = np.array([zeta_derivative(reference_spec, tf, sol.q_star, sol.q_star + e * x, rule) for e in eps])
        # V/eps^2 = a + b eps + c eps^2: interpolate and read off a
        coeff = np.polyfit(eps, vals / eps ** 2, 2)[-1]
        assert abs(2.0 * coeff - x @ h_mat @ x) < 0.01 * abs(x @ h_mat @ x)


def test_integration_by_parts_identity(rule):
    """d/dx E f(beta eta sqrt(x) + h) = (beta^2/2) E f'' with f = sinh tanh,
    f'' - f = 2 sech^3."""

    def f(y):
        return np.sinh(y) * np.tanh(y)

    def f_second(y):
        return f(y) + 2.0 / np.cosh(y) ** 3

    for beta, h, x in ((0.7, 0.3, 0.5), (1.0, 0.0, 0.9), (0.4, 1.2, 0.2)):
        step = 1e-5

        def expect(func, xx):
            return func(beta * math.sqrt(xx) * rule.nodes + h) @ rule.weights

        fd = (expect(f, x + step) - expect(f, x - step)) / (2.0 * step)
        rhs = 0.5 * beta * beta * expect(f_second, x)
        assert abs(fd - rhs) < 1e-6


def test_certificate_above_line(reference_spec, rule):
    beta = _beta_at_ratio(reference_spec, rule, 1.5, 0.3)
    tf = TempField(beta=beta, h=0.3)
    report = verdict_one(reference_spec, tf, rule)
    assert report.verdict == Verdict.RSB_CERTIFIED
    cert = certify_one(reference_spec, tf, report, rule)
    assert cert.gap > 1e-10
    assert cert.rs_value - cert.value == pytest.approx(cert.gap)
    assert 0.0 < cert.zeta < 1.0
    p = report.solution.q_star + cert.epsilon * cert.x
    assert (p >= 0).all() and (p <= 1).all()


@pytest.mark.parametrize("beta, h", [(1.1, 0.6), (0.85, 0.1)])
def test_certificate_where_the_first_axis_is_flat(reference_spec, rule, beta, h):
    """K_11 is positive but tiny here, so a scan along the axis [1, 0] finds
    no gap; along the witness, which mixes both species, the default grid
    certifies."""
    tf = TempField(beta=beta, h=h)
    report = verdict_one(reference_spec, tf, rule)
    assert 0 < report.stability[0, 0] < 0.1 * np.linalg.eigvalsh(report.stability)[-1]
    cert = certify_one(reference_spec, tf, report, rule)
    assert cert.gap > 1e-7
    assert (report.witness_x > 0).all()


@pytest.mark.parametrize(
    "order",
    [
        pytest.param(61, marks=pytest.mark.xfail(
            reason="Gauss-Hermite order 61 is off by 2.7e-7 (beta/beta_m = 1.5) and 6.3e-7 "
                   "(beta = 1.6) at these points; error-controlled quadrature is ROADMAP item 2")),
        201,
    ],
)
def test_certificate_value_matches_oracle(reference_spec, order):
    """The certificate's value against nested scipy quadrature at its own
    (q*, q* + eps x, zeta), in the beta range the CLI scans."""
    rule = gauss_hermite(order)
    for beta, h in ((_beta_at_ratio(reference_spec, rule, 1.5, 0.3), 0.3), (1.6, 0.3)):
        tf = TempField(beta=beta, h=h)
        report = verdict_one(reference_spec, tf, rule)
        cert = certify_one(reference_spec, tf, report, rule)
        q = report.solution.q_star
        want = one_step_value(reference_spec, beta, h, q, q + cert.epsilon * cert.x, cert.zeta)
        assert abs(cert.value - want) < 1e-9


def test_certificate_mid_band_direction(reference_spec, rule):
    """Between beta2_m and the diagonal thresholds the witness is interior and
    the displacement (witness conjugated by the proportions) still certifies."""
    beta = 0.8
    for _ in range(40):
        tf = TempField(beta=beta, h=0.4)
        sol = solve_one(reference_spec, tf, rule)
        th = thresholds_one(reference_spec, sol.gamma)
        target = math.sqrt(0.5 * (th.beta2_m + min(th.beta2_u, th.beta2_t)))
        if abs(target - beta) < 1e-13:
            break
        beta = target
    tf = TempField(beta=beta, h=0.4)
    report = verdict_one(reference_spec, tf, rule)
    assert (report.witness_x > 0).all()
    cert = certify_one(reference_spec, tf, report, rule)
    assert cert.gap > 1e-10
    assert (cert.x > 0).all()
    # the displacement direction carries positive curvature of the slope
    eps = 5e-3
    assert zeta_derivative(reference_spec, tf, report.solution.q_star,
                           report.solution.q_star + eps * cert.x, rule) > 0


def test_certificate_slope_sign(reference_spec, rule):
    """Positive slope at zeta = 1 means the value drops as zeta leaves 1."""
    beta = _beta_at_ratio(reference_spec, rule, 1.5, 0.3)
    tf = TempField(beta=beta, h=0.3)
    report = verdict_one(reference_spec, tf, rule)
    q = report.solution.q_star
    p = q + 0.1 * report.witness_x / report.witness_x.max()
    assert zeta_derivative(reference_spec, tf, q, p, rule) > 0
    rs_value = rs_functional(reference_spec, tf, q, rule)
    near_one = _one_step(reference_spec, tf, q, p, 0.999, rule)
    assert near_one < rs_value


def test_no_gap_below_line(reference_spec, rule):
    """Below the line the manual scan finds nothing: the single-atom value wins."""
    tf = TempField(beta=0.45, h=0.3)  # well below the boundary at this field
    report_check = verdict_one(reference_spec, tf, rule)
    assert report_check.verdict == Verdict.RS_CONSISTENT
    sol = report_check.solution
    rs_value = rs_functional(reference_spec, tf, sol.q_star, rule)
    best_gap = -math.inf
    for eps in np.geomspace(1e-3, 1e-1, 10):
        p = np.clip(sol.q_star + eps * np.ones(2), 0.0, 1.0)
        for zeta in 1.0 - np.geomspace(0.5, 0.01, 10):
            val = _one_step(reference_spec, tf, sol.q_star, p, zeta, rule)
            best_gap = max(best_gap, rs_value - val)
    assert best_gap <= 1e-10
    # and certify refuses to run from a consistent report
    with pytest.raises(BadPoint):
        certify_one(reference_spec, tf, report_check, rule)


def _row_by_row_scan(spec, tf, report, rule, eps_grid, zeta_grid):
    """The certificate scan one epsilon at a time: (eps, zeta, gap) of the first largest gap."""
    q = report.solution.q_star
    x = report.witness_x / spec.lam
    x = x / x.max()
    rs_value = rs_functional(spec, tf, q, rule)
    best = (None, None, -math.inf)
    for eps in eps_grid:
        p = q + eps * x
        if (p < 0).any() or (p > 1).any():
            continue
        ladder = np.column_stack([q, p])
        gaps = rs_value - evaluate(spec, tf, ParisiParams(zeta=zeta_grid[:, None], q=ladder), rule)
        if gaps.max() > best[2]:
            best = (eps, zeta_grid[int(np.argmax(gaps))], gaps.max())
    return best


@pytest.mark.parametrize("beta, h", [(1.2, 0.3), (1.5, 0.6)])
def test_one_call_scan_matches_row_by_row_scan(reference_spec, rule, beta, h):
    tf = TempField(beta=beta, h=h)
    report = verdict_one(reference_spec, tf, rule)
    eps_grid, zeta_grid = np.geomspace(1e-3, 1e-1, 10), ZETA_GRID
    cert = certify_one(reference_spec, tf, report, rule)
    eps, zeta, gap = _row_by_row_scan(reference_spec, tf, report, rule, eps_grid, zeta_grid)
    assert (cert.epsilon, cert.zeta) == (eps, zeta)
    assert abs(cert.gap - gap) < 1e-14


def test_scan_skips_epsilons_that_push_p_past_one(reference_spec, rule):
    """Large epsilons leave [0, 1] and are skipped; the rest still scan as one call."""
    tf = TempField(beta=1.5, h=0.6)
    report = verdict_one(reference_spec, tf, rule)
    q = report.solution.q_star
    x = report.witness_x / reference_spec.lam
    x = x / x.max()
    eps_grid = np.array([1e-3, 1e-2, 0.05, 1.0 - q.max() - 1e-9, 0.5, 2.0])
    assert ((q + eps_grid[-2:, None] * x) > 1).any(axis=1).all()
    cert = certify_one(reference_spec, tf, report, rule, eps_grid=eps_grid)
    eps, zeta, gap = _row_by_row_scan(reference_spec, tf, report, rule, eps_grid, ZETA_GRID)
    assert (cert.epsilon, cert.zeta) == (eps, zeta)
    assert abs(cert.gap - gap) < 1e-14
    assert cert.epsilon <= eps_grid[3]
    with pytest.raises(CertificateNotFound):
        certify_one(reference_spec, tf, report, rule, eps_grid=[2.0, 5.0])


def test_certificate_not_found_on_hopeless_grid(reference_spec, rule):
    beta = _beta_at_ratio(reference_spec, rule, 1.5, 0.3)
    tf = TempField(beta=beta, h=0.3)
    report = verdict_one(reference_spec, tf, rule)
    with pytest.raises(CertificateNotFound) as info:
        certify_one(reference_spec, tf, report, rule, eps_grid=[1e-3], zeta_grid=[0.5])
    assert not info.value.near_line
    assert info.value.best_gap is not None
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(BadZeta):
            certify_one(reference_spec, tf, report, rule, zeta_grid=[0.5, bad])


def test_certificate_scan_memory_stays_bounded(reference_spec, rule):
    """The whole (1.6, 0.3) scan allocates at most 1 MB at its peak (about
    0.4 MB today): the evaluator holds one chunk of rows, not the batch."""
    tf = TempField(beta=1.6, h=0.3)
    report = verdict_one(reference_spec, tf, rule)
    tracemalloc.start()
    try:
        certify_one(reference_spec, tf, report, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_row_certificate_scan_allocation_guard(reference_spec, rule):
    """The README h = 0.1 row (17 RSB points) scanned in one evaluator call
    peaks at no more than 1.5 MB of traced allocations (about 1.1 MB today),
    so tuning the evaluator's chunk cannot quietly grow the scan's memory."""
    betas = np.linspace(0.4, 1.6, 25)
    reports = at_verdicts(reference_spec, TempField(beta=betas, h=np.full(betas.size, 0.1)), rule)
    rsb = [i for i, r in enumerate(reports) if r.verdict == Verdict.RSB_CERTIFIED]
    assert len(rsb) == 17
    tracemalloc.start()
    try:
        certify_points(reference_spec, TempField(beta=betas[rsb], h=np.full(len(rsb), 0.1)),
                       [reports[i] for i in rsb], rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_row_batched_certificates_match_one_point_scans(reference_spec, rule):
    """On the README grid the certificates of each h row's RSB points, scanned
    in one evaluator call, match one-point scans: the same (epsilon, zeta),
    and gaps (best gaps where none is found) within 1e-15, at all 123
    points."""
    betas = np.linspace(0.4, 1.6, 25)
    points = 0
    for h in np.linspace(0.1, 1.0, 10):
        tf = TempField(beta=betas, h=np.full(betas.size, h))
        rsb = [(beta, r) for beta, r in zip(betas, at_verdicts(reference_spec, tf, rule))
               if r.verdict == Verdict.RSB_CERTIFIED]
        batch = certify_points(reference_spec, TempField(beta=np.array([b for b, _ in rsb]), h=np.full(len(rsb), h)),
                               [r for _, r in rsb], rule)
        for (beta, report), got in zip(rsb, batch):
            points += 1
            try:
                want = certify_one(reference_spec, TempField(beta=float(beta), h=float(h)), report, rule)
            except CertificateNotFound as exc:
                assert isinstance(got, CertificateNotFound) and abs(got.best_gap - exc.best_gap) <= 1e-15
                continue
            assert (got.epsilon, got.zeta) == (want.epsilon, want.zeta)
            assert abs(got.gap - want.gap) <= 1e-15
    assert points == 123
