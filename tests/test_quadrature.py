import math

import numpy as np
import pytest

from mskglass import (
    BadZeta,
    ModelSpec,
    QuadRule,
    TempField,
    gauss_hermite,
    log_cosh,
)
from mskglass.parisi import ParisiParams, evaluate


def tanh_sq(y):
    return np.tanh(y) ** 2


def sech4(y):
    return np.cosh(y) ** -4.0


def _nested_value(outer, inner, h, zeta, rule):
    """(1/zeta) E1 log E2 cosh^zeta(h + outer eta1 + inner eta2) from the one-step
    recursion.

    All variances c = (outer^2 + inner^2) / 2 and equal proportions give the
    couplings C(x) = 2 c x; the point q = outer^2 / (2 c), p = 1 has level
    scales (outer, inner) at beta = 1 and no top-level noise, so the value is
    log 2 + X_0 - zeta c (1 - q^2) / 2.
    """
    c = 0.5 * (outer * outer + inner * inner)
    spec = ModelSpec(delta2=np.full((2, 2), c), lam=[0.5, 0.5])
    x = outer * outer / (2.0 * c)
    ladder = np.column_stack([np.full(2, x), np.ones(2)])
    # at zeta = 1 the outer level integrates out: the k = 0 value at q
    params = ParisiParams(zeta=np.zeros(0), q=ladder[:, :1]) if zeta == 1.0 else ParisiParams(zeta=[zeta], q=ladder)
    value = evaluate(spec, TempField(beta=1.0, h=h), params, rule)
    return value - math.log(2.0) + 0.5 * zeta * c * (1.0 - x * x)


def test_rule_invariants(rule):
    assert abs(rule.weights.sum() - 1.0) < 1e-12
    # node set symmetric about 0
    assert np.abs(np.sort(rule.nodes) + np.sort(rule.nodes)[::-1]).max() < 1e-12
    # first three moments of the standard normal
    assert abs(np.ones_like(rule.nodes) @ rule.weights - 1.0) < 1e-12
    assert abs(rule.nodes @ rule.weights) < 1e-12
    assert abs(rule.nodes ** 2 @ rule.weights - 1.0) < 1e-12


def test_rule_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        QuadRule(order=3, nodes=np.zeros(2), weights=np.ones(2))
    with pytest.raises(ValueError):
        QuadRule(order=2, nodes=np.zeros(2), weights=np.array([1.0, -1.0]))
    for _ in range(2):  # a rejected order is not cached: it raises on every call
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(371)  # the weights leave the float64 range
    gauss_hermite(370)


def test_rules_are_computed_once_per_order():
    """Equal orders share one rule, whose arrays are read-only."""
    rule = gauss_hermite(61)
    assert gauss_hermite(61) is rule and gauss_hermite(60) is not rule
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0


def test_expect_degenerate_scale(rule):
    # a zero coupling kills the noise regardless of order
    for order in (5, 21, 61):
        r = gauss_hermite(order)
        got = tanh_sq(0.0 * r.nodes + 0.8) @ r.weights
        assert abs(got - math.tanh(0.8) ** 2) < 1e-15


def test_expect_beta_zero(rule):
    got = sech4(0.0 * 1.7 * rule.nodes + 0.8) @ rule.weights
    assert abs(got - 1.0 / math.cosh(0.8) ** 4) < 1e-15


def test_expect_batched_over_couplings(rule):
    couplings = np.array([[0.0, 0.3], [1.1, 2.4]])
    got = log_cosh(0.9 * np.sqrt(couplings)[..., None] * rule.nodes + 0.2) @ rule.weights
    assert got.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        one = log_cosh(0.9 * math.sqrt(couplings[idx]) * rule.nodes + 0.2) @ rule.weights
        assert abs(got[idx] - one) < 1e-15


def test_expect_against_frozen_monte_carlo(rule):
    # 10^7-sample oracle, seed 20260810 (tests/oracles.py: mc_log_cosh)
    mc_mean, mc_stderr = 0.129599612080, 4.474e-05
    got = log_cosh(0.5 * math.sqrt(0.5) * rule.nodes + 0.4) @ rule.weights
    assert abs(got - mc_mean) < 3.0 * mc_stderr


def test_expect_cosh_closed_values(rule):
    """E cosh(sigma eta + h) = exp(sigma^2 / 2) cosh(h): the identity behind the
    recursion's closed-form top level."""
    assert np.cosh(0.0 * rule.nodes) @ rule.weights == 1.0
    assert abs(np.cosh(rule.nodes) @ rule.weights - math.exp(0.5)) < 1e-14
    quad_value = np.cosh(0.7 * rule.nodes + 0.3) @ rule.weights
    assert abs(math.exp(0.5 * 0.7 ** 2) * math.cosh(0.3) - quad_value) < 1e-10


def test_expect_cosh_closed_overflow(rule):
    """The closed-form top level stays in the log domain: at q = 0 and beta = 40
    E cosh of the cavity field is exp(~1600), far beyond float64, yet the
    k = 0 value is the exact log 2 + sum_s lam_s (log cosh h + beta^2 C_s(1) / 2)
    - beta^2 E(1) / 2."""
    spec = ModelSpec(delta2=[[1.5, 1.0], [1.0, 1.2]], lam=[0.6, 0.4])
    beta, h = 40.0, 0.3
    (value,) = evaluate(spec, TempField(beta=beta, h=h), ParisiParams(zeta=np.zeros(0), q=np.zeros((2, 1))), rule)[0]
    w = spec.lam
    coupling, energy = 2.0 * spec.delta2 @ w, w @ spec.delta2 @ w
    want = math.log(2.0) + w @ (math.log(math.cosh(h)) + 0.5 * beta * beta * coupling) - 0.5 * beta * beta * energy
    assert math.isfinite(value)
    assert abs(value - want) < 1e-12 * abs(want)


def test_nested_zeta_one_collapse(rule):
    # the zeta = 1 level integrates out in closed form; compare with explicit
    # two-level quadrature of E1 log E2 cosh
    outer, inner, h = 0.72, 0.45, 0.4
    got = _nested_value(outer, inner, h, 1.0, rule)
    y = h + outer * rule.nodes[:, None] + inner * rule.nodes[None, :]
    want = rule.weights @ np.log(np.cosh(y) @ rule.weights)
    assert abs(got - want) < 1e-10


def test_nested_inner_scale_zero(rule):
    # a zero inner scale leaves E1 log cosh, whatever zeta
    got = _nested_value(0.72, 0.0, 0.4, 0.37, rule)
    want = log_cosh(0.72 * rule.nodes + 0.4) @ rule.weights
    assert abs(got - want) < 1e-12


def test_nested_against_frozen_monte_carlo(rule):
    # 10^4 x 10^3 two-level oracle, seed 20260811 (tests/oracles.py: mc_nested_cosh)
    mc_mean, mc_stderr = 0.254854193857, 2.463e-03
    got = _nested_value(0.6, 0.3, 0.4, 0.5, rule)
    assert abs(got - mc_mean) < 3.0 * mc_stderr


def test_nested_error_conditions():
    ladder = np.column_stack([np.array([0.3, 0.3]), np.array([0.6, 0.6])])
    for zeta in (0.0, 1.0, 1.5):
        with pytest.raises(BadZeta):
            ParisiParams(zeta=np.array([zeta]), q=ladder)


def test_log_cosh_stability():
    assert log_cosh(0.0) == 0.0
    assert abs(log_cosh(1000.0) - (1000.0 - math.log(2.0))) < 1e-12
    y = np.linspace(-30, 30, 1001)
    np.testing.assert_allclose(log_cosh(y), np.log(np.cosh(y)), atol=1e-14)


def test_log_cosh_is_the_stable_formula_bit_for_bit():
    """Bit-equal to |y| + log1p(exp(-2|y|)) - log 2 over +-800, on arrays, Python floats and 0-d
    arrays, which come back as 0-d arrays; the argument is left unchanged."""
    y = np.linspace(-800.0, 800.0, 160001)
    before = y.copy()
    a = np.abs(y)
    np.testing.assert_array_equal(log_cosh(y), a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0))
    np.testing.assert_array_equal(y, before)
    for v in (0.0, -3.5, 750.0, np.array(2.25), np.array(-0.5)):
        a = np.abs(v)
        got = log_cosh(v)
        assert np.ndim(got) == 0 and got == a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
    zero_d = np.array(-1.25)
    log_cosh(zero_d)
    assert zero_d == -1.25


@pytest.mark.xfail(
    reason="Gauss-Hermite convergence for tanh^2/sech^4/log-cosh integrands is "
    "limited by their poles at +-i pi/2: at |beta*scale| = 4 the order-40/80 "
    "disagreement is ~1e-2, eight orders above the stated 1e-10.  The claim "
    "holds only for |beta*scale| <= 0.55 (see the calibrated test below).",
)
def test_order_doubling_spec_window(rule40, rule80):
    """Order 40 vs 80 agreement at 1e-10 over |beta*scale| <= 4, |h| <= 4."""
    worst = 0.0
    for f in (tanh_sq, sech4, log_cosh):
        for bs in (0.5, 1.0, 2.0, 3.0, 4.0):
            for h in (-4.0, -1.0, 0.0, 1.0, 4.0):
                a, b = (f(bs * r.nodes + h) @ r.weights for r in (rule40, rule80))
                worst = max(worst, abs(a - b))
    assert worst < 1e-10


def test_order_doubling_calibrated_window(rule40, rule80):
    """Within the analyticity-limited window the doubling stability does hold."""
    for f in (tanh_sq, sech4, log_cosh):
        for bs in (0.1, 0.3, 0.5, 0.55):
            for h in (-4.0, 0.0, 0.7, 4.0):
                a, b = (f(bs * r.nodes + h) @ r.weights for r in (rule40, rule80))
                assert abs(a - b) < 1e-10


def test_nested_order_doubling(rule40, rule80):
    for zeta in (0.4, 1.0):
        v40 = _nested_value(0.5, 0.2, 0.7, zeta, rule40)
        v80 = _nested_value(0.5, 0.2, 0.7, zeta, rule80)
        assert abs(v40 - v80) < 1e-10


def test_latala_guerra_monotonicity(rule):
    """x -> E tanh^2(eta sqrt(x) + h) / x strictly decreasing for h > 0."""
    xs = np.linspace(0.1, 20.0, 120)
    for h in (0.1, 1.0):
        phi = (tanh_sq(np.sqrt(xs)[:, None] * rule.nodes + h) @ rule.weights) / xs
        assert (np.diff(phi) < 0).all()
        assert phi[-1] < phi[0]


def test_tanh_sq_second_derivative_bound():
    y = np.linspace(-10.0, 10.0, 400001)
    fpp = 2.0 * (1.0 - 2.0 * np.sinh(y) ** 2) / np.cosh(y) ** 4
    assert fpp.max() <= 2.0 + 1e-12
    assert fpp.min() >= -2.0 / 3.0 - 1e-12
