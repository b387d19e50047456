import math

import numpy as np
import pytest

from mskglass import BadZeta, ModelSpec, NonmonotoneOverlap, TempField, gauss_hermite, onersb
from mskglass.parisi import ParisiParams, evaluate

from .oracles import certify_one, parisi_sum, rs_value, verdict_one


def _assert_within_4_ulp(got, want):
    want = float(want)
    assert abs(got - want) <= 4 * np.spacing(abs(want)), (got, want, (got - want) / np.spacing(abs(want)))


def test_certificate_batch_matches_the_plain_sum(reference_spec, rule, monkeypatch):
    """The (1.6, 0.3) certificate scan, evaluated as the one batch certify_points
    sends, against the 30-digit sum over every order-61 node pair: its first,
    winning and last (ladder, weight) entries."""
    tf = TempField(beta=1.6, h=0.3)
    batches = []

    def recording(*args):
        batches.append(args[1:3])
        return evaluate(*args)

    monkeypatch.setattr(onersb, "evaluate", recording)
    cert = certify_one(reference_spec, tf, verdict_one(reference_spec, tf, rule), rule)
    ((ladder_points, params),) = batches
    values = evaluate(reference_spec, ladder_points, params, rule)
    best = np.unravel_index(np.argmin(values), values.shape)
    assert values[best] == cert.value
    for e, z in ((0, 0), best, (-1, -1)):
        _assert_within_4_ulp(values[e, z], parisi_sum(reference_spec, 1.6, 0.3, params.zeta[z], params.q[e], rule))


@pytest.mark.parametrize(
    "beta, h, zeta, ladder, order",
    [
        # the log-sum-exp level keeps all 61 nodes here (large beta sqrt(C))
        (3.0, 0.05, [0.5], [[0.05, 0.99], [0.05, 0.99]], 61),
        # a small weight, where 1/zeta amplifies any rounding of log E e^{zeta X}
        (1.2, 0.3, [0.01], [[0.3, 0.4], [0.25, 0.35]], 61),
        # two steps; the order is kept small for the oracle's order**3 terms
        (1.4, 0.2, [0.3, 0.7], [[0.2, 0.35, 0.5], [0.15, 0.3, 0.4]], 15),
    ],
)
def test_matches_the_plain_sum(reference_spec, beta, h, zeta, ladder, order):
    quad = gauss_hermite(order)
    got = evaluate(reference_spec, TempField(beta=beta, h=h), ParisiParams(zeta=np.array(zeta), q=np.array(ladder)), quad)
    _assert_within_4_ulp(got, parisi_sum(reference_spec, beta, h, zeta, ladder, quad))


def test_params_validation():
    with pytest.raises(BadZeta):
        ParisiParams(zeta=np.array([0.0]), q=np.zeros((2, 2)))
    with pytest.raises(BadZeta):
        ParisiParams(zeta=np.array([1.0]), q=np.zeros((2, 2)))
    with pytest.raises(BadZeta):
        ParisiParams(zeta=np.array([0.5, 0.3]), q=np.zeros((2, 3)))
    with pytest.raises(NonmonotoneOverlap):
        ParisiParams(zeta=np.array([0.5]), q=np.array([[0.4, 0.2], [0.1, 0.3]]))
    with pytest.raises(ValueError):
        ParisiParams(zeta=np.array([0.5]), q=np.array([[0.4], [0.1]]))  # wrong width
    with pytest.raises(ValueError):
        ParisiParams(zeta=np.array([0.5]), q=np.array([[0.4, 0.6], [0.1, 1.2]]))  # overlap above 1
    with pytest.raises(ValueError):
        ParisiParams(zeta=np.array([0.5]), q=np.array([[0.4, 0.6], [0.1, np.nan]]))
    with pytest.raises(BadZeta):
        ParisiParams(zeta=np.array([np.nan]), q=np.zeros((2, 2)))
    with pytest.raises(BadZeta):
        ParisiParams(zeta=np.array([[0.3, 0.6], [0.6, 0.3]]), q=np.zeros((2, 3)))  # one row decreases
    with pytest.raises(BadZeta):
        ParisiParams(zeta=np.full((2, 1, 1), 0.5), q=np.zeros((2, 2)))


def test_k0_matches_rs(reference_spec, rule):
    tf = TempField(beta=0.4, h=0.4)
    for q in (np.array([0.1, 0.2]), np.array([0.35, 0.3]), np.zeros(2)):
        params = ParisiParams(zeta=np.zeros(0), q=q[:, None])
        assert abs(evaluate(reference_spec, tf, params, rule)[0, 0] - rs_value(reference_spec, 0.4, 0.4, q)) < 1e-9


def test_beta_to_zero(reference_spec, rule):
    tf = TempField(beta=1e-4, h=0.7)
    params = ParisiParams(zeta=np.zeros(0), q=np.full((2, 1), 0.3))
    want = math.log(2.0) + math.log(math.cosh(0.7))
    assert abs(evaluate(reference_spec, tf, params, rule) - want) < 1e-6


def test_coalescence_is_exact(reference_spec, rule):
    """Merging adjacent equal ladder columns leaves the value unchanged."""
    tf = TempField(beta=0.7, h=0.35)
    q1, q2 = np.array([0.15, 0.1]), np.array([0.45, 0.4])
    merged_right = ParisiParams(zeta=np.array([0.3, 0.7]), q=np.column_stack([q1, q2, q2]))
    kept_right = ParisiParams(zeta=np.array([0.3]), q=np.column_stack([q1, q2]))
    assert abs(evaluate(reference_spec, tf, merged_right, rule) - evaluate(reference_spec, tf, kept_right, rule)) < 1e-9

    merged_left = ParisiParams(zeta=np.array([0.3, 0.7]), q=np.column_stack([q1, q1, q2]))
    kept_left = ParisiParams(zeta=np.array([0.7]), q=np.column_stack([q1, q2]))
    assert abs(evaluate(reference_spec, tf, merged_left, rule) - evaluate(reference_spec, tf, kept_left, rule)) < 1e-9


def test_three_levels_run_exactly():
    """k = 3 evaluates (slowly but exactly); order kept small for cost."""
    from mskglass import gauss_hermite

    spec = ModelSpec(delta2=[[1.5, 1.0], [1.0, 1.2]], lam=[0.6, 0.4])
    tf = TempField(beta=0.6, h=0.3)
    small = gauss_hermite(9)
    base = np.array([0.1, 0.08])
    ladder = np.column_stack([base, base + 0.1, base + 0.2, base + 0.4])
    params = ParisiParams(zeta=np.array([0.2, 0.5, 0.8]), q=ladder)
    (value,) = evaluate(spec, tf, params, small)[0]
    assert math.isfinite(value)
    # collapsing all ladder columns onto the first one recovers k=0
    flat = ParisiParams(zeta=np.array([0.2, 0.5, 0.8]), q=np.column_stack([base] * 4))
    k0 = ParisiParams(zeta=np.zeros(0), q=base[:, None])
    assert abs(evaluate(spec, tf, flat, small) - evaluate(spec, tf, k0, small)) < 1e-12


def test_species_count_mismatch(reference_spec, rule):
    params = ParisiParams(zeta=np.zeros(0), q=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        evaluate(reference_spec, TempField(beta=0.5, h=0.1), params, rule)
