import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from mskglass import (
    DisorderSample,
    ModelSpec,
    TempField,
    Unsupported,
    free_energy_exact,
    overlap_histogram,
    sample_disorder,
)
from mskglass.simulate import (
    disorder_normals,
    log_partition_exact,
    species_partition,
    species_sizes,
)
from .oracles import hamiltonian


def test_disorder_normals_reproducible():
    ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    a = disorder_normals(123, ii, jj)
    b = disorder_normals(123, ii, jj)
    np.testing.assert_array_equal(a, b)
    c = disorder_normals(124, ii, jj)
    assert np.abs(a - c).max() > 0.1
    # indexing is by (i, j), not by position in the call
    single = disorder_normals(123, np.array([3]), np.array([5]))
    assert single[0] == a[3, 5]


def test_disorder_block_variances(reference_spec):
    """Each variance block is within 5% of its target for blocks >= 10^4 entries."""
    d = sample_disorder(reference_spec, 256, seed=42)
    sizes = species_sizes(reference_spec, 256)
    assert sizes.tolist() == [154, 102]
    start = [0, sizes[0]]
    for s in range(2):
        for t in range(2):
            block = d.g[start[s] : start[s] + sizes[s], start[t] : start[t] + sizes[t]]
            assert block.size >= 10_000
            ratio = block.var() / reference_spec.delta2[s, t]
            assert abs(ratio - 1.0) < 0.05


def test_species_partition_rounding():
    spec = ModelSpec(delta2=np.ones((2, 2)), lam=[0.5, 0.5])
    assert species_sizes(spec, 21).sum() == 21
    spec3 = ModelSpec(delta2=np.ones((3, 3)), lam=[1 / 3, 1 / 3, 1 / 3])
    assert species_sizes(spec3, 20).sum() == 20
    part = species_partition(spec, 10)
    assert part.tolist() == [0] * 5 + [1] * 5


def test_hamiltonian_zero_couplings(reference_spec):
    n = 6
    d = DisorderSample(seed=0, g=np.zeros((n, n)), species=species_partition(reference_spec, n))
    sigma = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    tf = TempField(beta=0.7, h=0.3)
    assert hamiltonian(d, sigma, tf) == pytest.approx(0.3 * sigma.sum())


def test_hamiltonian_hand_value(sk_spec):
    g = np.zeros((2, 2))
    g[0, 1] = g[1, 0] = 1.0
    d = DisorderSample(seed=0, g=g, species=np.array([0, 1]))
    tf = TempField(beta=0.9, h=0.0)
    assert hamiltonian(d, np.array([1.0, 1.0]), tf) == pytest.approx(2.0 * 0.9 / math.sqrt(2.0))


def test_hamiltonian_local_field_flip(reference_spec):
    """Flipping one spin changes the energy by the local-field formula."""
    rng = np.random.default_rng(2)
    n = 12
    d = sample_disorder(reference_spec, n, seed=5)
    tf = TempField(beta=0.8, h=0.2)
    sigma = rng.choice((-1.0, 1.0), n)
    base = hamiltonian(d, sigma, tf)
    w = d.g + d.g.T
    np.fill_diagonal(w, 0.0)
    for i in (0, 5, 11):
        flipped = sigma.copy()
        flipped[i] = -flipped[i]
        delta = -2.0 * sigma[i] * (tf.beta / math.sqrt(n) * (w[i] @ sigma) + tf.h)
        full = hamiltonian(d, flipped, tf)
        assert abs((full - base) - delta) < 1e-12


def test_free_energy_beta_to_zero(reference_spec):
    tf = TempField(beta=0.01, h=0.3)
    est = free_energy_exact(reference_spec, tf, n=16, n_disorder=20, seed=9)
    want = math.log(2.0) + math.log(math.cosh(0.3))
    assert abs(est.mean - want) < 3.0 * est.stderr + 1e-3


def test_free_energy_deterministic(reference_spec):
    tf = TempField(beta=0.3, h=0.4)
    a = free_energy_exact(reference_spec, tf, n=10, n_disorder=3, seed=11)
    b = free_energy_exact(reference_spec, tf, n=10, n_disorder=3, seed=11)
    assert a == b


def test_free_energy_size_guard(reference_spec):
    with pytest.raises(Unsupported):
        free_energy_exact(reference_spec, TempField(beta=0.3), n=25)


def _oracle_energies(d, tf, configs):
    return np.array([hamiltonian(d, sigma, tf) for sigma in configs])


def test_log_partition_shift_invariance(reference_spec):
    """log Z matches the log-sum-exp of the oracle energy over all 2^10 configurations."""
    d = sample_disorder(reference_spec, 10, seed=3)
    tf = TempField(beta=0.5, h=0.2)
    energies = _oracle_energies(d, tf, itertools.product((-1.0, 1.0), repeat=10))
    assert abs(logsumexp(energies) - log_partition_exact(d, tf)) < 5e-13


def test_gauge_symmetry_zero_field(reference_spec):
    """At h = 0 flipping every spin is a symmetry: Z is twice the sum over sigma_1 = +1."""
    d = sample_disorder(reference_spec, 10, seed=4)
    tf = TempField(beta=0.6, h=0.0)
    half = [(1.0, *rest) for rest in itertools.product((-1.0, 1.0), repeat=9)]
    energies = _oracle_energies(d, tf, half)
    assert abs(math.log(2.0) + logsumexp(energies) - log_partition_exact(d, tf)) < 5e-13


def test_overlap_beta_to_zero_iid_value(sk_spec):
    """Nearly independent spins: overlap mean matches the iid +-1 oracle."""
    hist = overlap_histogram(
        sk_spec, TempField(beta=0.01, h=0.0), n=64, sweeps=300, n_disorder=4, seed=21
    )
    n_half = 32
    # E |sum of n iid +-1| / n by exact binomial enumeration
    want = sum(math.comb(n_half, k) * abs(2 * k - n_half) for k in range(n_half + 1)) / (
        2.0 ** n_half * n_half
    )
    for s in range(2):
        assert abs(hist.means[s] - want) < 0.1


def test_overlap_large_field(sk_spec):
    hist = overlap_histogram(
        sk_spec, TempField(beta=0.05, h=3.0), n=64, sweeps=200, n_disorder=2, seed=22
    )
    assert (hist.means > 0.9).all()


def test_overlap_concentrates_below_line(sk_spec):
    """Regression value: overlap spread below the phase line stays small."""
    hist = overlap_histogram(
        sk_spec, TempField(beta=0.3, h=0.4), n=128, sweeps=400, n_disorder=4, seed=23
    )
    assert (hist.stds < 0.15).all()
    assert hist.counts.sum(axis=1).min() == hist.n_measurements


def test_overlap_deterministic(sk_spec):
    kwargs = dict(n=24, sweeps=60, n_disorder=2, seed=31)
    a = overlap_histogram(sk_spec, TempField(beta=0.4, h=0.2), **kwargs)
    b = overlap_histogram(sk_spec, TempField(beta=0.4, h=0.2), **kwargs)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.means, b.means)


def test_overlap_size_guard(sk_spec):
    with pytest.raises(Unsupported):
        overlap_histogram(sk_spec, TempField(beta=0.3), n=300, sweeps=10)
