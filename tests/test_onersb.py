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
    certify_slopes,
    gauss_hermite,
    rs_functional,
)
from mskglass import onersb, parisi
from mskglass.onersb import SLOPE_EPSILONS, ZETA_GRID
from mskglass.parisi import ParisiParams, evaluate

from .oracles import (
    certify_one, fd_gradient_at_minimum, fd_hessian_at_minimum, one_step_value, solve_one, thresholds_one,
    trapezoid_rule, verdict_one, zeta_derivative,
)
from .oracles import rs_value as rs_oracle


def _one_step(spec, tf, q, p, zeta, rule):
    """The k = 1 functional at inner overlap q, outer overlap p and weight zeta."""
    return evaluate(spec, tf, ParisiParams(zeta=[zeta], q=np.column_stack([q, p])), rule)[0, 0]


def _beta_at_ratio(spec, ratio, h):
    """beta with beta^2 = ratio * beta2_m(beta) at field h."""
    beta = 0.8
    for _ in range(60):
        tf = TempField(beta=beta, h=h)
        sol = solve_one(spec, tf)
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
        gap = _one_step(reference_spec, tf, q, p, 1.0 - 1e-12, rule) - rs_functional(reference_spec, tf, q)
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
    sol = solve_one(reference_spec, tf, tol=1e-13)
    assert abs(zeta_derivative(reference_spec, tf, sol.q_star, sol.q_star, rule)) < 1e-10


def test_slope_matches_one_sided_zeta_difference(reference_spec, rule):
    """The slope equals the zeta-derivative of the one-step value at zeta = 1,
    taken one-sidedly from below (zeta > 1 is outside the domain)."""
    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, tol=1e-13)
    q = sol.q_star
    p = q + np.array([0.08, 0.072])
    step = 1e-4

    def value(zeta):
        return _one_step(reference_spec, tf, q, p, zeta, rule)

    at_one = rs_functional(reference_spec, tf, q)
    fd = (3.0 * at_one - 4.0 * value(1.0 - step) + value(1.0 - 2.0 * step)) / (2.0 * step)
    assert abs(zeta_derivative(reference_spec, tf, q, p, rule) - fd) < 1e-5


def test_slope_gradient_vanishes_at_critical_point(reference_spec, rule):
    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, tol=1e-13)
    q = sol.q_star

    def v_of(z):
        return zeta_derivative(reference_spec, tf, q, q + z, rule)

    grad = fd_gradient_at_minimum(v_of, 2, 1e-4)
    assert np.abs(grad).max() < 1e-6


def test_slope_quadratic_taylor_matches_curvature(reference_spec, rule):
    """V(q* + eps x) = eps^2 x'Hx / 2 + O(eps^3): fit the quadratic coefficient."""
    from mskglass import stability_matrices

    tf = TempField(beta=0.6, h=0.4)
    sol = solve_one(reference_spec, tf, tol=1e-13)
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
    beta = _beta_at_ratio(reference_spec, 1.5, 0.3)
    tf = TempField(beta=beta, h=0.3)
    report = verdict_one(reference_spec, tf)
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
    report = verdict_one(reference_spec, tf)
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
    for beta, h in ((_beta_at_ratio(reference_spec, 1.5, 0.3), 0.3), (1.6, 0.3)):
        tf = TempField(beta=beta, h=h)
        report = verdict_one(reference_spec, tf)
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
        sol = solve_one(reference_spec, tf)
        th = thresholds_one(reference_spec, sol.gamma)
        target = math.sqrt(0.5 * (th.beta2_m + min(th.beta2_u, th.beta2_t)))
        if abs(target - beta) < 1e-13:
            break
        beta = target
    tf = TempField(beta=beta, h=0.4)
    report = verdict_one(reference_spec, tf)
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
    beta = _beta_at_ratio(reference_spec, 1.5, 0.3)
    tf = TempField(beta=beta, h=0.3)
    report = verdict_one(reference_spec, tf)
    q = report.solution.q_star
    p = q + 0.1 * report.witness_x / report.witness_x.max()
    assert zeta_derivative(reference_spec, tf, q, p, rule) > 0
    rs_value = rs_functional(reference_spec, tf, q)
    near_one = _one_step(reference_spec, tf, q, p, 0.999, rule)
    assert near_one < rs_value


def test_no_gap_below_line(reference_spec, rule):
    """Below the line the manual scan finds nothing: the single-atom value wins."""
    tf = TempField(beta=0.45, h=0.3)  # well below the boundary at this field
    report_check = verdict_one(reference_spec, tf)
    assert report_check.verdict == Verdict.RS_CONSISTENT
    sol = report_check.solution
    rs_value = rs_functional(reference_spec, tf, sol.q_star)
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
    """The certificate scan one epsilon at a time: (eps, zeta, gap) of the first largest gap, against the
    single-atom value under the same rule (the k = 0 functional)."""
    q = report.solution.q_star
    x = report.witness_x / spec.lam
    x = x / x.max()
    rs_value = evaluate(spec, tf, ParisiParams(zeta=np.zeros(0), q=q[:, None]), rule)[0, 0]
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
    report = verdict_one(reference_spec, tf)
    eps_grid, zeta_grid = np.geomspace(1e-3, 1e-1, 10), ZETA_GRID
    cert = certify_one(reference_spec, tf, report, rule)
    eps, zeta, gap = _row_by_row_scan(reference_spec, tf, report, rule, eps_grid, zeta_grid)
    assert (cert.epsilon, cert.zeta) == (eps, zeta)
    assert abs(cert.gap - gap) < 1e-14


def test_scan_is_one_evaluator_call_that_holds_its_own_reference(reference_spec, rule, monkeypatch):
    """The scan makes one `parisi.evaluate` call, with no k = 0 ladder: its single-atom value is the
    one-step value at epsilon = 0 (p = q*, a dead level), within 1e-15 of the k = 0 functional under
    the same rule, so the gap's two terms carry the same rule error.  Each evaluator call contracts its
    ladders, boundary columns included, once: that call counts them, whichever module calls."""
    ks, contract = [], parisi.overlap_contractions
    monkeypatch.setattr(parisi, "overlap_contractions",
                        lambda spec, q: ks.append(np.shape(q)[-2] - 3) or contract(spec, q))
    for beta, h in ((1.2, 0.3), (1.5, 0.6)):
        tf = TempField(beta=beta, h=h)
        report = verdict_one(reference_spec, tf)
        ks.clear()
        cert = certify_one(reference_spec, tf, report, rule)
        assert ks == [1]
        q = report.solution.q_star
        want = evaluate(reference_spec, tf, ParisiParams(zeta=np.zeros(0), q=q[:, None]), rule)[0, 0]
        assert abs(cert.rs_value - want) <= 1e-15, cert.rs_value - want


def test_scan_skips_epsilons_that_push_p_past_one(reference_spec, rule):
    """Large epsilons leave [0, 1] and are skipped; the rest still scan as one call."""
    tf = TempField(beta=1.5, h=0.6)
    report = verdict_one(reference_spec, tf)
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
    beta = _beta_at_ratio(reference_spec, 1.5, 0.3)
    tf = TempField(beta=beta, h=0.3)
    report = verdict_one(reference_spec, tf)
    with pytest.raises(CertificateNotFound) as info:
        certify_one(reference_spec, tf, report, rule, eps_grid=[1e-3], zeta_grid=[0.5])
    assert not info.value.near_line
    assert info.value.best_gap is not None
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(BadZeta):
            certify_one(reference_spec, tf, report, rule, zeta_grid=[0.5, bad])


def test_certificate_scan_memory_stays_bounded(reference_spec, rule):
    """The whole (1.6, 0.3) scan allocates at most 1 MiB at its peak (0.82 MB
    measured): the evaluator holds one chunk of rows, not the batch."""
    tf = TempField(beta=1.6, h=0.3)
    report = verdict_one(reference_spec, tf)
    tracemalloc.start()
    try:
        certify_one(reference_spec, tf, report, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_row_certificate_scan_allocation_guard(reference_spec, rule):
    """The README h = 0.1 row (17 RSB points) scanned in one evaluator call
    peaks at no more than 1.5 MiB of traced allocations (1.41 MB measured),
    so tuning the evaluator's chunk cannot quietly grow the scan's memory."""
    betas = np.linspace(0.4, 1.6, 25)
    reports = at_verdicts(reference_spec, TempField(beta=betas, h=np.full(betas.size, 0.1)))
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


def _readme_rsb_points(spec):
    """The README grid's RSB points in grid order (h outer, beta inner): a TempField and their reports."""
    betas, fields = np.linspace(0.4, 1.6, 25), np.linspace(0.1, 1.0, 10)
    tf = TempField(beta=np.tile(betas, fields.size), h=np.repeat(fields, betas.size))
    reports = at_verdicts(spec, tf)
    rsb = [i for i, r in enumerate(reports) if r.verdict == Verdict.RSB_CERTIFIED]
    return TempField(beta=tf.beta[rsb], h=tf.h[rsb]), [reports[i] for i in rsb]


def test_row_batched_certificates_match_one_point_scans(reference_spec, rule):
    """On the README grid the certificates of each h row's RSB points, scanned
    in one evaluator call, and of all 123 RSB points of the grid, scanned in one
    more, match one-point scans: the same (epsilon, zeta), and gaps (best gaps
    where none is found) within 1e-15."""
    tf, reports = _readme_rsb_points(reference_spec)
    assert len(reports) == 123
    rows = [certificate for h in np.unique(tf.h) for certificate in certify_points(
        reference_spec, TempField(beta=tf.beta[tf.h == h], h=tf.h[tf.h == h]),
        [r for r, field in zip(reports, tf.h) if field == h], rule)]
    grid = certify_points(reference_spec, tf, reports, rule)
    for beta, h, report, *batched in zip(tf.beta, tf.h, reports, rows, grid):
        try:
            want = certify_one(reference_spec, TempField(beta=float(beta), h=float(h)), report, rule)
        except CertificateNotFound as exc:
            for got in batched:
                assert isinstance(got, CertificateNotFound) and abs(got.best_gap - exc.best_gap) <= 1e-15
            continue
        for got in batched:
            assert (got.epsilon, got.zeta) == (want.epsilon, want.zeta)
            assert abs(got.gap - want.gap) <= 1e-15


def test_grid_certificate_scan_allocation_guard(reference_spec, rule):
    """The README grid's 123 RSB points scanned in one evaluator call peak at no
    more than 2.5 MiB of traced allocations (about 2.3 MB measured): the evaluator's
    E-sized arrays grow with the batch, its chunks do not."""
    tf, reports = _readme_rsb_points(reference_spec)
    tracemalloc.start()
    try:
        certify_points(reference_spec, tf, reports, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def _slope_at(spec, tf, report, epsilon):
    """`onersb._slopes` at one point on its witness ray, p = q* + epsilon x: (q*, p, slope, error)."""
    (x,), (q,) = onersb._displacements(spec, [report])
    p = q + epsilon * x
    (slope,), (error,) = onersb._slopes(spec, tf.beta, tf.h, q[None], p[None])
    return q, p, slope, error


_EDGE_CASES = [(order, limit, h) for order, limit in zip(onersb._ORDERS, onersb._SCALE_LIMITS)
               for h in (0.0, 0.3, 5.0)]


def _at_scale(spec, q_star, scale):
    """(q, p), one row per entry: q* in both species, and p at inner noise scale a = `scale` in both at beta = 1."""
    coupling = 2.0 * spec.delta2 * spec.lam  # C_s(q) = (coupling @ q)_s
    q = np.outer(q_star, np.ones(spec.m))
    return q, q + np.outer(np.square(scale), np.linalg.solve(coupling, np.ones(spec.m)))


@pytest.mark.parametrize("order, limit, h", _EDGE_CASES, ids=[f"{o}@h={h}" for o, _, h in _EDGE_CASES])
def test_each_level_order_holds_at_its_scale_limit(reference_spec, monkeypatch, order, limit, h):
    """At beta = 1, with both species' inner noise scale a at 0.99 of the limit of `order`, and
    q* = 0.1 or 0.5 in both species, every row's E2 takes `order` nodes, and each slope stays within
    1e-16 of the slope with every row on the top order, 61."""
    q, p = _at_scale(reference_spec, [0.1, 0.5], np.full(2, 0.99 * limit))
    beta, field = np.ones(2), np.full(2, h)
    used, build = [], onersb.gauss_hermite
    monkeypatch.setattr(onersb, "gauss_hermite", lambda n: used.append(n) or build(n))
    got, _ = onersb._slopes(reference_spec, beta, field, q, p)
    assert used == [order]  # one inner rule for all four species rows
    monkeypatch.setattr(onersb, "_SCALE_LIMITS", (0.0,) * len(onersb._SCALE_LIMITS))  # every row takes the top order
    want, _ = onersb._slopes(reference_spec, beta, field, q, p)
    assert used == [order, 61] and np.abs(got - want).max() <= 1e-16, got - want


@pytest.mark.parametrize("h", [0.0, 0.3, 5.0])
def test_top_order_holds_to_its_measured_limit(reference_spec, monkeypatch, h):
    """With every row forced onto the top order, 61, the slope at beta = 1 stays within 1e-15 of the
    trapezoid oracle up to a = 1.0 at q* = 0.1 and 0.2 in both species (3.9e-16 measured), and up to
    a = 0.7 at q* = 0 (2.2e-16), where no outer spread averages E2's error out: there it reaches
    4.2e-15 at a = 0.8 and 1.0e-12 at a = 1.0."""
    rows = [(q, a) for q in (0.1, 0.2) for a in (0.25, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)] + [(0.0, 0.5), (0.0, 0.7)]
    q, p = _at_scale(reference_spec, *np.transpose(rows))
    used, build = [], onersb.gauss_hermite
    monkeypatch.setattr(onersb, "gauss_hermite", lambda n: used.append(n) or build(n))
    monkeypatch.setattr(onersb, "_SCALE_LIMITS", (0.0,) * len(onersb._SCALE_LIMITS))
    got, _ = onersb._slopes(reference_spec, np.ones(len(rows)), np.full(len(rows), h), q, p)
    assert used == [61] and p.max() < 1.0
    trap = trapezoid_rule()
    for n in range(len(rows)):
        want = zeta_derivative(reference_spec, TempField(beta=1.0, h=h), q[n], p[n], trap)
        assert abs(got[n] - want) <= 1e-15, rows[n]


@pytest.mark.parametrize("beta, h", [(1.05, 0.6), (0.9, 0.3), (1.6, 0.3)])
def test_slope_matches_the_trapezoid_oracle(reference_spec, beta, h):
    """The slope at zeta = 1 against the tensor-grid oracle under the trapezoid rule (step 0.05 on
    [-10, 10]), to 1e-15 absolute, at two near-line points (slopes 5e-11 and 5e-9) and at beta = 1.6,
    over the epsilons of the scan and 0.1."""
    tf = TempField(beta=beta, h=h)
    report = verdict_one(reference_spec, tf)
    for epsilon in [*SLOPE_EPSILONS[::4], 0.1]:
        q, p, slope, error = _slope_at(reference_spec, tf, report, epsilon)
        assert abs(slope - zeta_derivative(reference_spec, tf, q, p, trapezoid_rule())) <= 1e-15
        assert error < 1e-13


def test_slope_matches_zeta_differences_of_the_value_oracle(reference_spec):
    """The slope is dP/dzeta at zeta = 1: Richardson-extrapolated central differences in zeta, step 0.02,
    of the one-step value by nested scipy quadrature agree to 1e-8 relative (2e-9 measured)."""
    tf = TempField(beta=1.6, h=0.3)
    q, p, slope, _ = _slope_at(reference_spec, tf, verdict_one(reference_spec, tf), 0.1)

    def central(step):
        value = [one_step_value(reference_spec, 1.6, 0.3, q, p, 1.0 + sign * step) for sign in (1, -1)]
        return (value[0] - value[1]) / (2.0 * step)

    assert abs((4.0 * central(0.02) - central(0.04)) / 3.0 - slope) <= 1e-8 * slope


def test_slope_certificates_cover_the_oracle_on_the_readme_grid(reference_spec):
    """All 123 README RSB points are certified, each at a slope above twice its error estimate, and each
    estimate covers the slope's difference from the trapezoid oracle at its point.  The grid certificate
    leaves 4 near-line points without a gap."""
    tf, reports = _readme_rsb_points(reference_spec)
    epsilon, slope, error = certify_slopes(reference_spec, tf, reports)
    assert (slope > 2.0 * error).all() and len(slope) == 123
    (x, q), trap = onersb._displacements(reference_spec, reports), trapezoid_rule()
    for n, (beta, h) in enumerate(zip(tf.beta, tf.h)):
        want = zeta_derivative(reference_spec, TempField(beta=beta, h=h), q[n], q[n] + epsilon[n] * x[n], trap)
        assert abs(slope[n] - want) <= error[n]


def test_slope_certificates_are_the_same_bits_alone_and_in_a_block(reference_spec):
    """Each README RSB point's (epsilon, slope, error) is bit-equal certified alone, in the 123-point
    block and in the block reversed: a row's nodes follow from its own scales."""
    tf, reports = _readme_rsb_points(reference_spec)
    block = np.array(certify_slopes(reference_spec, tf, reports))
    reverse = TempField(beta=tf.beta[::-1], h=tf.h[::-1])
    assert np.array_equal(np.array(certify_slopes(reference_spec, reverse, reports[::-1]))[:, ::-1], block)
    for n, (beta, h) in enumerate(zip(tf.beta, tf.h)):
        alone = certify_slopes(reference_spec, TempField(beta=beta, h=h), [reports[n]])
        assert np.array_equal(np.concatenate(alone), block[:, n])


def test_slope_certificate_scan_allocation_guard(reference_spec):
    """The README grid's slope certificates peak at no more than 2 MiB of traced allocations (about
    1.7 MB measured on a first call, 0.6 MB once the inner rules are cached; the grid certificate's
    scan takes about 2.2 MB): the inner-rule arrays are held 10,000 floats at a time."""
    tf, reports = _readme_rsb_points(reference_spec)
    tracemalloc.start()
    try:
        certify_slopes(reference_spec, tf, reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_slope_certificate_scans_in_two_rounds(reference_spec, monkeypatch):
    """The first epsilon of every point is one `_slopes` call, and the rest of the points it leaves (3 on
    the README grid) one more; a point with no epsilon inside [0, 1] is evaluated at none and left
    uncertified."""
    tf, reports = _readme_rsb_points(reference_spec)
    rows, slopes = [], onersb._slopes
    monkeypatch.setattr(onersb, "_slopes", lambda *args: rows.append(len(args[1])) or slopes(*args))
    epsilon, slope, _ = certify_slopes(reference_spec, tf, reports)
    assert set(epsilon.tolist()) <= set(SLOPE_EPSILONS.tolist())
    assert rows == [123, 12 * np.count_nonzero(epsilon < SLOPE_EPSILONS[0])] == [123, 36]  # every p stays inside
    monkeypatch.setattr(onersb, "SLOPE_EPSILONS", np.array([2.0, 5.0]))
    rows.clear()
    assert np.isnan(certify_slopes(reference_spec, tf, reports[:3])).all() and rows == []


@pytest.mark.parametrize(
    "hits, want, calls",
    [
        # point 0 clears at the first epsilon and later, 1 first at the fourth of several, 2 never
        ({0: [0, 4], 1: [3, 5, 9]}, [0, 3, None], [3, 24]),
        # no hit in the first round, several for point 1 in the second
        ({1: [2, 7, 12]}, [None, 2, None], [3, 36]),
        # no hit in either round
        ({}, [None, None, None], [3, 36]),
    ],
)
def test_slope_certificate_takes_each_points_first_certifying_epsilon(reference_spec, monkeypatch,
                                                                       hits, want, calls):
    """With `_slopes` replaced by a table of slopes that clear twice their error at the listed epsilon
    indices only, each point gets its first certifying epsilon in SLOPE_EPSILONS order with that entry's
    slope and error, a point that never clears stays NaN, and a round without a hit changes nothing."""
    tf = TempField(beta=[1.2, 1.5, 1.6], h=[0.3, 0.6, 0.1])
    reports = at_verdicts(reference_spec, tf)
    table = np.array([[1.0 + n + k / 100.0 if k in hits.get(n, ()) else -1.0 for k in range(SLOPE_EPSILONS.size)]
                      for n in range(3)])
    seen = []

    def slopes(spec, beta, h, q, p):
        seen.append(len(beta))
        point = np.searchsorted(tf.beta, beta)  # the betas are distinct and ascending
        k = np.abs(np.log(np.max(p - q, axis=-1))[:, None] - np.log(SLOPE_EPSILONS)).argmin(-1)
        return table[point, k], 0.25 + k / 1000.0

    monkeypatch.setattr(onersb, "_slopes", slopes)
    epsilon, slope, error = certify_slopes(reference_spec, tf, reports)
    assert seen == calls
    for n, k in enumerate(want):
        if k is None:
            assert math.isnan(epsilon[n]) and math.isnan(slope[n]) and math.isnan(error[n])
        else:
            assert (epsilon[n], slope[n], error[n]) == (SLOPE_EPSILONS[k], table[n, k], 0.25 + k / 1000.0)
