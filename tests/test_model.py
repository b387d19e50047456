import numpy as np
import pytest

from mskglass import BadDimension, ModelSpec, TempField, overlap_contractions, validate


def test_two_species_standard_passes(reference_spec):
    assert validate(reference_spec, "two-species-standard") == ()
    assert not reference_spec.sk_reduction


def test_bipartite_fails_convex_passes_unchecked():
    spec = ModelSpec(delta2=[[0.0, 1.0], [1.0, 0.0]], lam=[0.5, 0.5])
    assert validate(spec, "convex") == ("positive-semidefinite",)
    assert validate(spec, "unchecked") == ()


def test_sk_reduction_flag(sk_spec):
    assert validate(sk_spec, "convex") == ()
    assert sk_spec.sk_reduction
    # product exactly 1, not > 1, yet all entries equal: the classical reduction is standard
    assert validate(sk_spec, "two-species-standard") == ()


def test_standard_class_is_every_positive_definite_pair():
    """Scale and species order are normalisations, so neither is checked;
    a singular delta2 is admitted only when all its entries are equal."""
    for delta2, lam in (
        ([[3.0, 2.0], [2.0, 2.4]], [0.6, 0.4]),  # twice the reference
        ([[1.2, 1.0], [1.0, 1.5]], [0.4, 0.6]),  # the reference, species swapped
        ([[1.5, 0.0], [0.0, 1.2]], [0.6, 0.4]),  # decoupled species
    ):
        spec = ModelSpec(delta2=delta2, lam=lam)
        assert validate(spec, "two-species-standard") == ()
        assert spec.standard and not spec.sk_reduction
    singular = ModelSpec(delta2=[[1.0, 2.0], [2.0, 4.0]], lam=[0.5, 0.5])
    assert validate(singular, "two-species-standard") == ("variance-product",)
    assert not singular.standard
    scaled_sk = ModelSpec(delta2=np.full((2, 2), 2.5), lam=[0.3, 0.7])
    assert scaled_sk.sk_reduction and scaled_sk.standard
    assert validate(scaled_sk, "two-species-standard") == ()
    assert not ModelSpec(delta2=np.zeros((2, 2)), lam=[0.5, 0.5]).sk_reduction


def test_construction_rejects_malformed():
    with pytest.raises(ValueError):
        ModelSpec(delta2=[[1.0, 0.5], [0.6, 1.0]], lam=[0.5, 0.5])  # asymmetric
    with pytest.raises(ValueError):
        ModelSpec(delta2=np.ones((2, 2)), lam=[0.6, 0.3])  # sum != 1
    with pytest.raises(ValueError):
        ModelSpec(delta2=np.ones((2, 2)), lam=[1.0, 0.0])  # boundary proportions
    with pytest.raises(ValueError):
        ModelSpec(delta2=[[1.0, -0.2], [-0.2, 1.0]], lam=[0.5, 0.5])  # negative variance
    with pytest.raises(BadDimension):
        ModelSpec(delta2=np.ones((3, 3)), lam=[0.5, 0.5])


def test_temp_field_bounds():
    TempField(beta=1e-6, h=0.0)
    with pytest.raises(ValueError):
        TempField(beta=0.0)
    with pytest.raises(ValueError):
        TempField(beta=1.0, h=-0.1)


@pytest.mark.parametrize(
    "beta, h",
    [
        (np.linspace(0.4, 1.6, 25), 0.3),  # solve_points and at_verdicts returned one result, not 25
        (np.array([1.2, 1.4]), np.array([0.3, 0.4, 0.5])),  # at_verdicts returned two reports
        (np.array([1.2, 1.5]), np.array([0.3])),  # certify_points raised a raw IndexError
    ],
)
def test_temp_field_batch_needs_one_h_per_beta(beta, h):
    """A batch of points holds as many fields as temperatures; otherwise the
    entry points would drop points or index past the shorter vector."""
    with pytest.raises(ValueError, match="same number of points"):
        TempField(beta=beta, h=h)


def test_contractions_zero_and_ones(sk_spec):
    c0 = overlap_contractions(sk_spec, np.zeros(2))
    assert c0.scalar == 0.0
    assert np.all(c0.species == 0.0)
    c1 = overlap_contractions(sk_spec, np.ones(2))
    assert abs(c1.scalar - 1.0) < 1e-15
    np.testing.assert_allclose(c1.species, [2.0, 2.0], atol=1e-15)


def test_contractions_hand_values(reference_spec):
    # 2 * (1.5*0.6*0.3 + 1*0.4*0.7) = 1.10, 2 * (1*0.6*0.3 + 1.2*0.4*0.7) = 1.032
    c = overlap_contractions(reference_spec, np.array([0.3, 0.7]))
    np.testing.assert_allclose(c.species, [1.10, 1.032], atol=1e-15)
    # independent matrix-vector route
    a_mat = 2.0 * reference_spec.delta2 * reference_spec.lam[None, :]
    np.testing.assert_allclose(c.species, a_mat @ np.array([0.3, 0.7]), atol=1e-15)


def test_contraction_quadratic_identity(reference_spec):
    # scalar = (1/2) sum_s lam_s q_s species_s, for random q
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(0.0, 1.0, 2)
        c = overlap_contractions(reference_spec, q)
        assert abs(c.scalar - 0.5 * np.sum(reference_spec.lam * q * c.species)) < 1e-14


def test_contraction_monotonicity(reference_spec):
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = rng.uniform(0.0, 1.0, 2)
        q_up = np.clip(q + rng.uniform(0.0, 0.5, 2), 0.0, 1.0)
        lo = overlap_contractions(reference_spec, q).species
        hi = overlap_contractions(reference_spec, q_up).species
        assert np.all(hi >= lo - 1e-15)


def test_contraction_dimension_mismatch(reference_spec):
    with pytest.raises(BadDimension):
        overlap_contractions(reference_spec, np.zeros(3))
