import math

import numpy as np
import pytest

from mskglass import (
    InternalInconsistency,
    ModelSpec,
    MskGlassError,
    NotConverged,
    TempField,
    Thresholds,
    Unsupported,
    Verdict,
    at_line_betas,
    at_verdicts,
    positivity_witness,
    stability_matrices,
    two_species_thresholds,
    uniqueness_threshold,
)
from mskglass import atline, rs
from .oracles import (
    at_line_bisection, one, single_species_at_beta, solve_one, stability_threshold, thresholds_one, verdict_one,
    with_constants,
)


def at_line_beta(spec, h, tol=None):
    """The phase line at one field: `at_line_betas` of a batch of one, to Newton correction `tol`
    (the library's when None)."""
    return with_constants(atline, lambda: one(at_line_betas(spec, [h])), _LINE_TOL=tol)


def _solved(spec, tf, tol=1e-12):
    sol = solve_one(spec, tf, tol=tol)
    return sol, sol.gamma


def _witness(k):
    """`positivity_witness` of one matrix."""
    (x,) = positivity_witness(np.asarray(k, dtype=float)[None])
    return x


def test_gamma_reduces_to_lam_at_zero_field(reference_spec):
    beta = math.sqrt(0.5 * uniqueness_threshold(reference_spec))
    tf = TempField(beta=beta, h=0.0)
    sol, gamma = _solved(reference_spec, tf)
    np.testing.assert_array_equal(sol.q_star, np.zeros(2))
    np.testing.assert_allclose(gamma, reference_spec.lam, atol=1e-15)


def test_gamma_beta_to_zero(reference_spec):
    tf = TempField(beta=1e-5, h=0.4)
    _, gamma = _solved(reference_spec, tf)
    want = reference_spec.lam / math.cosh(0.4) ** 4
    np.testing.assert_allclose(gamma, want, atol=1e-8)


def test_gamma_against_frozen_monte_carlo(reference_spec):
    # 10^7-sample oracle, seed 20260812 (tests/oracles.py: mc_gamma) evaluated
    # at the frozen couplings below
    frozen_coupling = np.array([0.606878206767, 0.499893573244])
    mc = [(0.378167468657, 5.693e-05), (0.258756006341, 3.654e-05)]
    tf = TempField(beta=0.6, h=0.4)
    sol, gamma = _solved(reference_spec, tf)
    np.testing.assert_allclose(sol.coupling, frozen_coupling, atol=1e-9)
    for s in range(2):
        assert abs(gamma[s] - mc[s][0]) < 3.0 * mc[s][1]


def test_stability_matrix_small_beta_limit(reference_spec):
    beta = 1e-8
    (k,), (h_mat,) = stability_matrices(reference_spec, TempField(beta=beta, h=0.2), reference_spec.lam[None])
    np.testing.assert_allclose(k, -reference_spec.delta2, atol=1e-14)
    np.testing.assert_allclose(h_mat, beta ** 2 * k * np.outer(reference_spec.lam, reference_spec.lam))


def test_stability_matrix_entries_symbolic(reference_spec):
    rng = np.random.default_rng(11)
    d11, d22 = reference_spec.delta2[0, 0], reference_spec.delta2[1, 1]
    for _ in range(20):
        g1, g2 = rng.uniform(0.05, 0.6, 2)
        beta = rng.uniform(0.2, 1.5)
        (k,), _ = stability_matrices(reference_spec, TempField(beta=beta, h=0.1), [[g1, g2]])
        b2 = 2.0 * beta * beta
        assert abs(k[0, 0] - (b2 * (g1 * d11 ** 2 + g2) - d11)) < 1e-14
        assert abs(k[1, 1] - (b2 * (g1 + g2 * d22 ** 2) - d22)) < 1e-14
        assert abs(k[0, 1] - (b2 * (g1 * d11 + g2 * d22) - 1.0)) < 1e-14
        assert abs(k[0, 1] - k[1, 0]) == 0.0


def test_hessian_expanded_form(reference_spec):
    """Matrix form of the curvature equals its fully expanded species sum."""
    beta = 0.6
    tf = TempField(beta=beta, h=0.4)
    sol, gamma = _solved(reference_spec, tf)
    _, (h_mat,) = stability_matrices(reference_spec, tf, gamma[None])
    sech4_moment = gamma / reference_spec.lam
    b2 = beta ** 2
    lam, d = reference_spec.lam, reference_spec.delta2
    expanded = np.zeros((2, 2))
    for t in range(2):
        for u in range(2):
            acc = 0.0
            for s in range(2):
                acc += d[s, t] * lam[s] * (2.0 * b2 * d[s, u] * lam[u] * sech4_moment[s] - (s == u))
            expanded[t, u] = b2 * lam[t] * acc
    np.testing.assert_allclose(expanded, h_mat, atol=1e-15)


def test_thresholds_match_uniqueness_at_lam(reference_spec):
    th = thresholds_one(reference_spec, reference_spec.lam)
    assert abs(th.beta2_m - uniqueness_threshold(reference_spec)) < 1e-15


def test_thresholds_sk_reduction_classical_form(sk_spec):
    g1, g2 = 0.31, 0.22
    th = thresholds_one(sk_spec, [g1, g2])
    # classical condition 2 beta^2 E sech^4 > 1 with E sech^4 = g1 + g2
    assert abs(th.beta2_m - 1.0 / (2.0 * (g1 + g2))) < 1e-15
    assert math.isinf(th.beta2_M)


def test_thresholds_reference_values_and_ordering(reference_spec):
    th = thresholds_one(reference_spec, [0.6, 0.4])
    assert abs(th.beta2_u - 1.5 / (2 * (0.6 * 2.25 + 0.4))) < 1e-15
    assert abs(th.beta2_t - 1.2 / (2 * (0.6 + 0.4 * 1.44))) < 1e-15
    assert abs(th.beta2_v - 1.0 / (2 * 1.38)) < 1e-15
    assert 0.0 < th.beta2_v < th.beta2_m < min(th.beta2_u, th.beta2_t)
    assert max(th.beta2_u, th.beta2_t) < th.beta2_M


def test_thresholds_unsupported():
    spec3 = ModelSpec(delta2=np.eye(3) + 1.0, lam=np.full(3, 1.0 / 3.0))
    with pytest.raises(Unsupported):
        two_species_thresholds(spec3, np.full((1, 3), 0.2))
    # a cross variance other than 1 is a scale, not a restriction
    skew = ModelSpec(delta2=[[1.5, 0.9], [0.9, 1.2]], lam=[0.6, 0.4])
    want = stability_threshold(skew, [0.5, 0.3])
    assert thresholds_one(skew, [0.5, 0.3]).beta2_m == pytest.approx(want, rel=1e-14)


def test_thresholds_scale_exactly_with_gamma(reference_spec):
    """Thresholds are homogeneous of degree -1 in gamma, bit for bit, far
    below the gamma at which 4 g1 g2 d12^2 would underflow."""
    base = thresholds_one(reference_spec, [0.31, 0.22])
    tiny = thresholds_one(reference_spec, np.array([0.31, 0.22]) * 2.0 ** -600)
    assert tuple(tiny) == tuple(t * 2.0 ** 600 for t in base)
    with pytest.raises(MskGlassError):
        thresholds_one(reference_spec, [0.0, 0.22])  # gamma underflowed to 0
    # gamma subnormal: every threshold lies beyond float64, and beta^2 below it
    assert thresholds_one(reference_spec, [1e-320, 1e-321]) == (math.inf,) * 5


def test_verdict_where_gamma_is_subnormal(reference_spec):
    """At h = 185 gamma is subnormal and beta2_m is inf or close to the top of
    the float64 range: the verdict is RS-consistent, not a numerical failure."""
    for beta in (0.5, 1.2):
        report = verdict_one(reference_spec, TempField(beta=beta, h=185.0))
        assert report.verdict == Verdict.RS_CONSISTENT
        assert report.gamma.min() < 2.3e-308 and report.beta2_m > 1e306


def test_verdict_at_large_field(reference_spec):
    """At h = 100 gamma is about 1e-174; the thresholds stay ordered and match
    the eigenvalue oracle."""
    report = verdict_one(reference_spec, TempField(beta=1.2, h=100.0))
    assert report.verdict == Verdict.RS_CONSISTENT
    assert report.beta2_m == pytest.approx(stability_threshold(reference_spec, report.gamma), rel=1e-12)


def test_witness_diagonal_cases():
    np.testing.assert_array_equal(_witness(np.diag([1.0, -1.0])), [1.0, 0.0])
    np.testing.assert_array_equal(_witness(np.diag([-1.0, 1.0])), [0.0, 1.0])
    assert _witness(-np.eye(2)) is None


def test_witness_rows_with_non_finite_entries_have_none():
    """A row with an inf or nan entry gets no witness, and the other rows of
    its stack the same witness as alone."""
    k = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 0.2]], [[1.0, np.nan], [np.nan, 1.0]]])
    xs = positivity_witness(k)
    assert xs[0] is None and xs[2] is None
    assert xs[1].tobytes() == _witness(k[1]).tobytes()


def test_witness_offdiagonal_case():
    k = np.array([[-1.0, 2.0], [2.0, -1.0]])
    x = _witness(k)
    assert x is not None
    np.testing.assert_allclose(x, [1.0, 1.0])
    assert x @ k @ x == pytest.approx(2.0)


def test_witness_maximises_the_form_over_the_quadrant():
    """For random symmetric K with K_12 >= 0, the witness's domain, the
    witness is the best direction of a fine grid over the quarter circle,
    and None exactly when the grid maximum is not positive."""
    angles = np.linspace(0.0, 0.5 * np.pi, 100001)
    grid = np.stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(5)
    ks = [[[u, abs(v)], [abs(v), t]] for u, v, t in rng.normal(size=(400, 3))]
    nones = 0
    for k, x in zip(np.array(ks), positivity_witness(ks)):
        values = np.einsum("ik,ij,jk->k", grid, k, grid)
        if values.max() <= 0:
            assert x is None
            nones += 1
            continue
        assert x is not None and (x >= 0).all() and x.max() == 1.0
        assert x @ k @ x / (x @ x) == pytest.approx(values.max(), abs=1e-9)
        np.testing.assert_allclose(x / np.linalg.norm(x), grid[:, values.argmax()], atol=1e-4)
    assert 0 < nones < 400


def test_top_eigenvalue_sign_is_the_verdict(reference_spec):
    """Sylvester's law of inertia: lambda_max(K) > 0 exactly when beta^2 > beta2_m."""
    margins = []
    for h in (0.1, 0.4, 1.0):
        for beta in np.linspace(0.4, 1.6, 13):
            tf = TempField(beta=beta, h=h)
            _, gamma = _solved(reference_spec, tf)
            (k,), _ = stability_matrices(reference_spec, tf, gamma[None])
            margin = beta ** 2 - thresholds_one(reference_spec, gamma).beta2_m
            assert np.sign(np.linalg.eigvalsh(k)[-1]) == np.sign(margin)
            margins.append(margin)
    assert min(margins) < 0 < max(margins)


def test_witness_mid_band_strictly_positive(reference_spec):
    """Between beta2_m and the smaller diagonal threshold both species enter."""
    beta = 0.8
    for _ in range(40):
        tf = TempField(beta=beta, h=0.4)
        _, gamma = _solved(reference_spec, tf)
        th = thresholds_one(reference_spec, gamma)
        target = math.sqrt(0.5 * (th.beta2_m + min(th.beta2_u, th.beta2_t)))
        if abs(target - beta) < 1e-13:
            break
        beta = target
    report = verdict_one(reference_spec, TempField(beta=beta, h=0.4))
    assert report.verdict == Verdict.RSB_CERTIFIED
    assert (report.witness_x > 0).all()
    # grid-search over the simplex as an independent oracle for positivity
    ts = np.linspace(0.0, 1.0, 20001)
    grid = np.stack([ts, 1.0 - ts])
    values = np.einsum("ik,ij,jk->k", grid, report.stability, grid)
    assert values.max() > 0
    best = grid[:, values.argmax()]
    assert (best > 0).all()


def _report_fields(result):
    """Every ATReport field as bytes, or an error's type and message."""
    if isinstance(result, MskGlassError):
        return type(result), str(result)
    sol = result.solution
    arrays = (result.gamma, result.stability, result.hessian, np.array(result.thresholds), sol.q_star, sol.gamma,
              np.array([result.beta, result.h, sol.error]))
    witness = None if result.witness_x is None else result.witness_x.tobytes()
    return result.verdict, witness, sol.iterations, tuple(a.tobytes() for a in arrays)


def test_batch_verdicts_equal_one_point_verdicts(reference_spec, monkeypatch):
    """One batch of RS, RSB and indeterminate points with a forced solve failure, an underflowed
    gamma (h = 400) and a forced witness cross-check failure: each entry, in input order, is the
    one-point verdict bit for bit, and each error has its type and message."""
    on_line = at_line_beta(reference_spec, 0.3, tol=1e-13)
    crossed = verdict_one(reference_spec, TempField(beta=1.4, h=0.2)).stability.tobytes()
    solve, witness = atline.solve_points, atline.positivity_witness
    monkeypatch.setattr(atline, "solve_points", lambda spec, tf: [
        NotConverged("forced") if b == 0.7 else sol for b, sol in zip(tf.beta, solve(spec, tf))])
    monkeypatch.setattr(atline, "positivity_witness", lambda k: [
        None if ki.tobytes() == crossed else x for ki, x in zip(k, witness(k))])
    points = [(0.6, 0.4), (1.2, 0.3), (0.7, 0.5), (1.5, 0.6), (1.0, 400.0), (1.6, 0.1), (1.4, 0.2), (0.8, 1.0),
              (on_line, 0.3)]
    beta, h = np.array(points).T
    batch = at_verdicts(reference_spec, TempField(beta=beta, h=h))

    singles = [at_verdicts(reference_spec, TempField(beta=b, h=field))[0] for b, field in points]
    assert [_report_fields(r) for r in batch] == [_report_fields(r) for r in singles]
    for r in batch:  # the batch's one threshold call gives each point's own, bit for bit
        if isinstance(r, atline.ATReport):
            alone = thresholds_one(reference_spec, r.gamma)
            assert np.array(r.thresholds).tobytes() == np.array(alone).tobytes()
    kinds = [r.verdict if isinstance(r, atline.ATReport) else type(r) for r in batch]
    assert kinds == [Verdict.RS_CONSISTENT, Verdict.RSB_CERTIFIED, NotConverged, Verdict.RSB_CERTIFIED,
                     MskGlassError, Verdict.RSB_CERTIFIED, InternalInconsistency, Verdict.RS_CONSISTENT,
                     Verdict.INDETERMINATE]


@pytest.mark.parametrize("corrupt", ["swap", "beta2_u", "beta2_t", "beta2_v", "beta2_m", "beta2_M"])
def test_threshold_ordering_failure_stays_on_its_own_point(reference_spec, monkeypatch, corrupt):
    """Thresholds out of order in one row of a 5-point block (beta2_m and beta2_M swapped, or one of them
    NaN, which fails every comparison) make that point, and only that point, an InternalInconsistency
    that names its thresholds; the other points are bit-equal to an unpatched run."""
    tf = TempField(beta=[0.6, 1.2, 1.5, 0.8, 1.4], h=[0.4, 0.3, 0.6, 1.0, 0.2])
    plain, thresholds, bad = at_verdicts(reference_spec, tf), atline.two_species_thresholds, []

    def corrupted(spec, gamma):
        th = [t.copy() for t in thresholds(spec, gamma)]
        if corrupt == "swap":
            th[3][2], th[4][2] = th[4][2], th[3][2]
        else:
            th[Thresholds._fields.index(corrupt)][2] = math.nan
        bad.append(Thresholds._make(t[2] for t in th))
        return Thresholds._make(th)

    monkeypatch.setattr(atline, "two_species_thresholds", corrupted)
    patched = at_verdicts(reference_spec, tf)
    assert not any(isinstance(r, MskGlassError) for r in plain)
    assert _report_fields(patched[2]) == (InternalInconsistency, f"threshold ordering violated: {bad[0]}")
    assert [_report_fields(r) for r in patched[:2] + patched[3:]] == [_report_fields(r) for r in plain[:2] + plain[3:]]


def test_witness_three_species_search():
    """No closed-form search exists beyond two species, as for the thresholds."""
    with pytest.raises(Unsupported):
        positivity_witness(np.diag([-1.0, -1.0, 1.0])[None])


def test_lambda_conjugation_preserves_witness(reference_spec):
    tf = TempField(beta=1.2, h=0.3)
    report = verdict_one(reference_spec, tf)
    assert report.verdict == Verdict.RSB_CERTIFIED
    x = report.witness_x
    y = x / reference_spec.lam
    assert (y >= 0).all()
    assert abs(y @ report.hessian @ y - tf.beta ** 2 * (x @ report.stability @ x)) < 1e-12
    assert y @ report.hessian @ y > 0


def test_verdict_above_and_below_line(reference_spec):
    beta = 0.8
    for _ in range(40):
        tf = TempField(beta=beta, h=0.4)
        _, gamma = _solved(reference_spec, tf)
        target = math.sqrt(1.5 * thresholds_one(reference_spec, gamma).beta2_m)
        if abs(target - beta) < 1e-13:
            break
        beta = target
    above = verdict_one(reference_spec, TempField(beta=beta, h=0.4))
    assert above.verdict == Verdict.RSB_CERTIFIED
    assert above.witness_x is not None
    below = verdict_one(reference_spec, TempField(beta=math.sqrt(0.5 * above.beta2_m), h=0.4))
    assert below.verdict == Verdict.RS_CONSISTENT
    assert below.witness_x is None


def test_verdict_indeterminate_on_the_line(reference_spec):
    beta = at_line_beta(reference_spec, 0.3, tol=1e-13)
    report = verdict_one(reference_spec, TempField(beta=beta, h=0.3))
    assert report.verdict == Verdict.INDETERMINATE


def test_verdict_and_line_refuse_models_outside_the_standard_class():
    """Variance product below the squared cross variance (delta2 indefinite):
    the thresholds lose their ordering, so both entry points refuse instead
    of answering."""
    spec = ModelSpec(delta2=[[0.9, 1.0], [1.0, 1.05]], lam=[0.6, 0.4])
    with pytest.raises(Unsupported):
        verdict_one(spec, TempField(beta=1.0, h=0.3))
    with pytest.raises(Unsupported):
        at_line_beta(spec, 0.3)


def test_verdict_requires_positive_field(reference_spec):
    with pytest.raises(Unsupported):
        verdict_one(reference_spec, TempField(beta=0.5, h=0.0))


def test_beta2m_continuity_in_small_field(reference_spec):
    """At small beta and h the reported threshold approaches the h = 0 closed form."""
    report = verdict_one(reference_spec, TempField(beta=0.3, h=0.01))
    b0 = uniqueness_threshold(reference_spec)
    assert abs(report.beta2_m - b0) < 0.02 * b0


def test_at_line_sk_matches_classical_oracle(sk_spec):
    ours = at_line_beta(sk_spec, 0.2)
    assert abs(ours - single_species_at_beta(0.2)) < 1e-10


def test_at_line_small_field_approaches_closed_form(reference_spec):
    """The boundary emanates from the h=0 threshold, at the slow h^(2/3) rate."""
    b0 = uniqueness_threshold(reference_spec)
    dev = []
    for h in (0.02, 0.005):
        beta = at_line_beta(reference_spec, h)
        dev.append((beta * beta - b0) / b0)
    assert dev[0] > dev[1] > 0
    assert dev[1] < 0.06


def test_at_line_sk_small_field_law(sk_spec):
    """On the classical reduction the line leaves beta_c = sqrt(uniqueness_threshold) as de Almeida and
    Thouless's h^2 = (4/3) tau^3 (J. Phys. A 11, 983, 1978): with beta~^2 = 2 beta^2 here,
    (beta_m(h) - beta_c) / h^(2/3) tends to (3/4)^(1/3) / sqrt(2).  The relative deviation shrinks
    with h (6.1e-5, 3.0e-6, 1.4e-7 at h = 1e-3, 1e-4, 1e-5)."""
    beta_c, law = math.sqrt(uniqueness_threshold(sk_spec)), (3 / 4) ** (1 / 3) / math.sqrt(2)
    dev = [abs((at_line_beta(sk_spec, h) - beta_c) / h ** (2 / 3) / law - 1) for h in (1e-3, 1e-4, 1e-5)]
    assert dev[0] > dev[1] > dev[2] and dev[2] < 1e-6


def test_at_line_kernel_calls(reference_spec, monkeypatch):
    """Bracket solves and Newton steps together evaluate at most 230 kernel
    rows on the twenty README fields (the line bracketed from beta = 1e-3
    made 308), in at most 30 kernel calls: the fields run as one batch."""
    rows = []
    for module in (rs, atline):
        kernel = module.map_derivatives
        monkeypatch.setattr(module, "map_derivatives", lambda spec, tf, q, kernel=kernel:
                            rows.append(np.size(q) // spec.m) or kernel(spec, tf, q))
    at_line_betas(reference_spec, np.linspace(0.05, 1.0, 20))
    assert sum(rows) <= 230 and len(rows) <= 30


def test_at_line_batch_matches_one_field_searches(reference_spec):
    """Fields from 0.001 to 400 searched as one batch give, field by field,
    the beta_m of that field's search alone bit for bit, and the same error:
    gamma underflowed to 0 at h = 400.  With the upper bracket end held at
    4 sqrt(beta2_m(lambda)), h = 100 fails to bracket the same way in the
    batch and alone."""
    fields = [0.001, 0.3, 2.0, 5.0, 100.0, 400.0]
    batch = at_line_betas(reference_spec, fields)
    alone = [at_line_betas(reference_spec, [h])[0] for h in fields]
    assert all(type(b) is float for b in batch[:5]) and batch[:5] == alone[:5]
    assert type(batch[5]) is type(alone[5]) is MskGlassError and str(batch[5]) == str(alone[5])
    short = with_constants(atline, lambda: (at_line_betas(reference_spec, fields), at_line_betas(reference_spec, [100.0])),
                           _LINE_DOUBLINGS=1)
    assert type(short[0][4]) is type(short[1][0]) is NotConverged and str(short[0][4]) == str(short[1][0])
    assert short[0][:3] == batch[:3]  # below the shortened bracket's end


@pytest.mark.parametrize("h", [0.001, 0.005, 0.05, 0.3, 2.0, 3.0, 5.0, 4.0, 8.0, 16.0])
def test_at_line_matches_the_tight_bisection(reference_spec, h):
    """beta_m at the default tol is within 1e-11 of the independent phase line
    (`oracles.at_line_bisection`: scipy quad and Brent's method), which must
    change sign within 0.1% of it: at h <= 0.05 and h = 2 the safeguard
    bisects before Newton takes over, and from h = 2 on the upper end
    doubles.  Out to h = 16, where the cavity scale beta sqrt(C) is about 9."""
    beta = at_line_beta(reference_spec, h)
    assert abs(beta - at_line_bisection(reference_spec, h, 0.999 * beta, 1.001 * beta)) <= 1e-11


@pytest.mark.parametrize("h", [0.001, 0.3, 2.0])
def test_at_line_scales_with_the_variances(reference_spec, h):
    """The model sees only beta^2 delta2, and the bracket starts from the h = 0
    threshold of the model at hand: beta_m(c delta2) = beta_m(delta2) / sqrt(c)
    over ten decades of c (a bracket from beta = 1e-3 lay above beta_m from
    c = 1e6 on)."""
    ref = at_line_beta(reference_spec, h)
    for c in (1e-2, 4.0, 1e2, 1e6, 1e8):
        scaled = ModelSpec(delta2=c * reference_spec.delta2, lam=reference_spec.lam)
        assert math.sqrt(c) * at_line_beta(scaled, h) == pytest.approx(ref, rel=1e-14, abs=0)


def test_at_line_bracket_failure(reference_spec):
    """The line has a bracket from h = 2 to 160, near the large-field Laplace
    asymptote (beta_m(100) about 25.7, beta_m(160) about 38.6, below the
    bracket's end 128 sqrt(beta2_m(lambda)) = 81.8).  With the upper end held
    at 4 sqrt(beta2_m(lambda)) = 2.6, g stays negative there at h = 100, and
    the search raises NotConverged, whatever the scale of the variances."""
    line = at_line_betas(reference_spec, [2.0, 16.0, 64.0, 100.0, 112.0, 160.0])
    assert all(type(b) is float for b in line) and line == sorted(line)
    assert line[3] == pytest.approx(25.7, abs=0.1) and line[5] == pytest.approx(38.6, abs=0.1)
    for c in (1.0, 1e6):
        spec = ModelSpec(delta2=c * reference_spec.delta2, lam=reference_spec.lam)
        with pytest.raises(NotConverged, match="no bracket"):
            with_constants(atline, lambda: at_line_beta(spec, 100.0), _LINE_DOUBLINGS=1)


def _random_pd_spec(rng, min_cross=0.0):
    """A two-species model with delta2 positive definite: d12 drawn in
    [min_cross, 0.98] x sqrt(d11 d22), the species in either order."""
    d11, d22 = rng.uniform(0.3, 2.5, 2)
    d12 = rng.uniform(min_cross, 0.98) * math.sqrt(d11 * d22)
    lam1 = rng.uniform(0.15, 0.85)
    return ModelSpec(delta2=[[d11, d12], [d12, d22]], lam=[lam1, 1.0 - lam1])


def _larger_first(spec):
    return spec.lam[0] * spec.delta2[0, 0] >= spec.lam[1] * spec.delta2[1, 1]


def test_threshold_ordering_random_sample():
    """Spot version of the big ordering property (the full 10^4 run is in
    acceptance), over positive-definite models in either species order."""
    rng = np.random.default_rng(23)
    orders = set()
    for _ in range(200):
        spec = _random_pd_spec(rng, min_cross=0.05)
        gamma = rng.uniform(0.02, 0.9, 2)
        th = thresholds_one(spec, gamma)
        assert 0.0 < th.beta2_v < th.beta2_m < min(th.beta2_u, th.beta2_t)
        assert max(th.beta2_u, th.beta2_t) < th.beta2_M
        orders.add(_larger_first(spec))
    assert orders == {True, False}


def test_random_positive_definite_models_against_the_eigenvalue_oracle():
    """On 300 random positive-definite models, at random (beta, h), the verdict
    is the sign of lambda_max(K) and beta2_m is the eigenvalue form."""
    rng = np.random.default_rng(31)
    orders, verdicts = set(), set()
    for _ in range(300):
        spec = _random_pd_spec(rng)
        report = verdict_one(spec, TempField(beta=rng.uniform(0.3, 1.6), h=rng.uniform(0.05, 1.0)))
        assert report.beta2_m == pytest.approx(stability_threshold(spec, report.gamma), rel=1e-12)
        if report.verdict != Verdict.INDETERMINATE:
            top = np.linalg.eigvalsh(report.stability)[-1]
            assert (top > 0) == (report.verdict == Verdict.RSB_CERTIFIED)
        orders.add(_larger_first(spec))
        verdicts.add(report.verdict)
    assert orders == {True, False}
    assert {Verdict.RS_CONSISTENT, Verdict.RSB_CERTIFIED} <= verdicts


# reference points on both sides of the line: (1.2, 0.3) and (0.9, 0.1) above, (0.5, 0.4) below
_SIDES = ((1.2, 0.3), (0.5, 0.4), (0.9, 0.1))


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_scaled_variances_give_the_reference_verdict(reference_spec, c):
    """The model sees only beta^2 delta2: c delta2 at (beta, h) is the
    reference at (sqrt(c) beta, h), and its beta2_m is the reference's / c."""
    scaled = ModelSpec(delta2=c * reference_spec.delta2, lam=reference_spec.lam)
    for beta, h in _SIDES:
        ref = verdict_one(reference_spec, TempField(beta=beta, h=h))
        ours = verdict_one(scaled, TempField(beta=beta / math.sqrt(c), h=h))
        assert ours.verdict == ref.verdict
        assert c * ours.beta2_m == pytest.approx(ref.beta2_m, rel=1e-13)


def test_swapped_species_give_the_reference_verdict(reference_spec):
    """Swapping the species only relabels them, witness included."""
    swapped = ModelSpec(delta2=reference_spec.delta2[::-1, ::-1], lam=reference_spec.lam[::-1])
    for beta, h in _SIDES:
        tf = TempField(beta=beta, h=h)
        ref, ours = verdict_one(reference_spec, tf), verdict_one(swapped, tf)
        assert ours.verdict == ref.verdict
        assert ours.beta2_m == pytest.approx(ref.beta2_m, rel=1e-13)
        if ref.witness_x is not None:
            np.testing.assert_allclose(ours.witness_x, ref.witness_x[::-1], rtol=1e-9)


@pytest.mark.parametrize("d12", [0.0, 1e-9])
def test_vanishing_cross_variance_gets_a_verdict(d12):
    """At d12 -> 0 the species decouple: beta2_m is the larger species' own
    threshold, beta2_u and beta2_t meet beta2_m and beta2_M, and the verdict
    raises no ordering or witness inconsistency."""
    spec = ModelSpec(delta2=[[1.5, d12], [d12, 1.2]], lam=[0.6, 0.4])
    verdicts = set()
    for beta in (0.5, 0.9, 1.2, 1.6):
        for h in (0.1, 0.4):
            report = verdict_one(spec, TempField(beta=beta, h=h))
            th = report.thresholds
            per_species = 1.0 / (2.0 * report.gamma * np.diag(spec.delta2))
            assert th.beta2_m == pytest.approx(per_species.min(), rel=1e-12)
            assert sorted((th.beta2_u, th.beta2_t)) == pytest.approx([th.beta2_m, th.beta2_M], rel=1e-12)
            verdicts.add(report.verdict)
    assert verdicts == {Verdict.RS_CONSISTENT, Verdict.RSB_CERTIFIED}
