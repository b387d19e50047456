import math

import numpy as np
import pytest

from mskglass import BadZeta, ModelSpec, NonmonotoneOverlap, TempField
from mskglass.parisi import ParisiParams, evaluate

from .oracles import rs_value


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


def test_batched_weights_match_single_rows(reference_spec, rule):
    """A batch of weight vectors gives the values of its rows evaluated one at a time."""
    from mskglass import gauss_hermite

    tf = TempField(beta=1.3, h=0.35)
    q = np.array([[0.2, 0.5, 0.7], [0.3, 0.6, 0.65]])
    zetas = np.array([[0.1, 0.4], [0.3, 0.6], [0.5, 0.95]])
    for ladder, weights, quad in ((q[:, 1:], zetas[:, 1:], rule), (q, zetas, gauss_hermite(15))):
        batched = evaluate(reference_spec, tf, ParisiParams(zeta=weights, q=ladder), quad)
        singles = [evaluate(reference_spec, tf, ParisiParams(zeta=row, q=ladder), quad) for row in weights]
        assert batched.shape == (weights.shape[0],)
        np.testing.assert_allclose(batched, singles, rtol=1e-14, atol=0)


def test_batched_ladders_match_single_ladders(reference_spec, rule):
    """An E-ladder x Z-weight batch gives the values of its ladders evaluated
    one at a time; the third ladder has a zero increment (a level that drops
    out exactly) and the fourth a zero increment in one species only."""
    tf = TempField(beta=1.3, h=0.35)
    ladders = np.array([
        [[0.2, 0.5], [0.3, 0.6]],
        [[0.05, 0.9], [0.1, 0.15]],
        [[0.4, 0.4], [0.35, 0.35]],
        [[0.4, 0.4], [0.2, 0.7]],
    ])
    zetas = np.array([[0.1], [0.45], [0.95]])
    batched = evaluate(reference_spec, tf, ParisiParams(zeta=zetas, q=ladders), rule)
    assert batched.shape == (4, 3)
    for ladder, row in zip(ladders, batched):
        single = evaluate(reference_spec, tf, ParisiParams(zeta=zetas, q=ladder), rule)
        np.testing.assert_allclose(row, single, rtol=1e-14, atol=0)
    unweighted = evaluate(reference_spec, tf, ParisiParams(zeta=zetas[1], q=ladders), rule)
    np.testing.assert_allclose(unweighted, batched[:, 1], rtol=1e-14, atol=0)
    with pytest.raises(NonmonotoneOverlap):
        ParisiParams(zeta=zetas, q=np.array([ladders[0], [[0.5, 0.2], [0.3, 0.6]]]))


def test_k0_matches_rs(reference_spec, rule):
    tf = TempField(beta=0.4, h=0.4)
    for q in (np.array([0.1, 0.2]), np.array([0.35, 0.3]), np.zeros(2)):
        params = ParisiParams(zeta=np.zeros(0), q=q[:, None])
        assert abs(evaluate(reference_spec, tf, params, rule) - rs_value(reference_spec, tf.beta, tf.h, q)) < 1e-9


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
    value = evaluate(spec, tf, params, small)
    assert math.isfinite(value)
    # collapsing all ladder columns onto the first one recovers k=0
    flat = ParisiParams(zeta=np.array([0.2, 0.5, 0.8]), q=np.column_stack([base] * 4))
    k0 = ParisiParams(zeta=np.zeros(0), q=base[:, None])
    assert abs(evaluate(spec, tf, flat, small) - evaluate(spec, tf, k0, small)) < 1e-12


def test_species_count_mismatch(reference_spec, rule):
    params = ParisiParams(zeta=np.zeros(0), q=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        evaluate(reference_spec, TempField(beta=0.5, h=0.1), params, rule)
