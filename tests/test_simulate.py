import math
import tracemalloc

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
from mskglass import simulate
from mskglass.simulate import (
    derive_seed,
    disorder_normals,
    log_partition_exact,
    species_partition,
    species_sizes,
)
from .oracles import all_configurations, hamiltonian, metropolis_counts, metropolis_draws


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
    beta, h = 0.8, 0.2
    tf = TempField(beta=beta, h=h)
    sigma = rng.choice((-1.0, 1.0), n)
    base = hamiltonian(d, sigma, tf)
    w = d.g + d.g.T
    np.fill_diagonal(w, 0.0)
    for i in (0, 5, 11):
        flipped = sigma.copy()
        flipped[i] = -flipped[i]
        delta = -2.0 * sigma[i] * (beta / math.sqrt(n) * (w[i] @ sigma) + h)
        full = hamiltonian(d, flipped, tf)
        assert abs((full - base) - delta) < 1e-12


def test_free_energy_beta_to_zero(reference_spec):
    tf = TempField(beta=0.01, h=0.3)
    est = free_energy_exact(reference_spec, tf, n=16, n_disorder=20, seed=9)
    want = math.log(2.0) + math.log(math.cosh(0.3))
    assert abs(est.mean - want) < 3.0 * est.stderr + 1e-3


def test_finite_n_routines_take_one_point(reference_spec, monkeypatch):
    """A batch of two points is a ValueError naming the count, raised before any disorder is drawn."""
    two = TempField(beta=[0.3, 0.4], h=[0.4, 0.4])
    d = sample_disorder(reference_spec, 8, seed=1)
    monkeypatch.setattr(simulate, "sample_disorder", lambda *args: pytest.fail("disorder was drawn"))
    with pytest.raises(ValueError, match="got 2"):
        free_energy_exact(reference_spec, two, n=8)
    with pytest.raises(ValueError, match="got 2"):
        overlap_histogram(reference_spec, two, n=8, sweeps=4)
    with pytest.raises(ValueError, match="got 2"):
        log_partition_exact(d, two)


def test_free_energy_deterministic(reference_spec):
    tf = TempField(beta=0.3, h=0.4)
    a = free_energy_exact(reference_spec, tf, n=10, n_disorder=3, seed=11)
    b = free_energy_exact(reference_spec, tf, n=10, n_disorder=3, seed=11)
    assert a == b


def test_free_energy_size_guard(reference_spec):
    with pytest.raises(Unsupported):
        free_energy_exact(reference_spec, TempField(beta=0.3), n=25)


def test_log_partition_shift_invariance(reference_spec):
    """log Z matches the log-sum-exp of the oracle energy over all 2^10 configurations."""
    d = sample_disorder(reference_spec, 10, seed=3)
    tf = TempField(beta=0.5, h=0.2)
    energies = hamiltonian(d, all_configurations(10), tf)
    assert abs(logsumexp(energies) - log_partition_exact(d, tf)) < 5e-13


@pytest.fixture(scope="module")
def configs18():
    return all_configurations(18)


def _assert_matches_oracle(d, tf, configs):
    """log Z is finite and within 1e-12 relative of the oracle log-sum-exp."""
    want = logsumexp(hamiltonian(d, configs, tf))
    got = log_partition_exact(d, tf)
    assert math.isfinite(got)
    assert abs(got - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 13])
@pytest.mark.parametrize("beta", [0.5, 4.0, 16.0])
def test_log_partition_uneven_split(reference_spec, n, beta):
    """Uneven splits of the second half into low and high spins (N = 5, 10 and
    13 have nl = nh - 1, N = 2 has nl = 0) and odd N, where the second half
    is the larger one, against the oracle log-sum-exp over all 2^N configurations."""
    d = sample_disorder(reference_spec, n, seed=8)
    _assert_matches_oracle(d, TempField(beta=beta, h=0.2), all_configurations(n))


@pytest.mark.parametrize(
    "beta, seed",
    [(0.5, 6), (4.0, 6), (16.0, 6), (80.0, 6), (200.0, 6), (200.0, 3)],
    ids=["0.5", "4.0", "16.0", "80.0", "200.0", "200.0-seed3"],
)
def test_log_partition_multi_block(reference_spec, configs18, monkeypatch, beta, seed):
    """N = 18 in two row chunks of 496 and 16 first-half rows (at the default
    2^18 multiply-adds per product, the sign-table product's 11 x 48 per row
    sets the chunk) and, with 2^12, in 74 chunks of up to 7 rows; log Z
    matches the oracle log-sum-exp over all 2^18 configurations both ways, up
    to beta = 200.  There the factored sums of some rows underflow, some to 0
    (140 of 512 rows fall below _TINY for seed 6), and are re-summed directly;
    left as they are, they would make log Z 13% low for seed 3."""
    d = sample_disorder(reference_spec, 18, seed=seed)
    tf = TempField(beta=beta, h=0.2)
    _assert_matches_oracle(d, tf, configs18)
    monkeypatch.setattr(simulate, "_CHUNK_MACS", 2**12)
    _assert_matches_oracle(d, tf, configs18)


@pytest.mark.parametrize("n", [13, 18, 24])
@pytest.mark.parametrize("beta", [0.5, 200.0])
def test_log_partition_bit_identical_across_chunk_sizes(reference_spec, monkeypatch, n, beta):
    """Each first-half row is summed on its own, so log Z keeps every bit
    whether the rows go one per chunk or all in one; beta = 200 takes rows
    through the direct re-sum."""
    d = sample_disorder(reference_spec, n, seed=6)
    tf = TempField(beta=beta, h=0.2)
    values = []
    for macs in (2**12, 2**14, 2**18):
        monkeypatch.setattr(simulate, "_CHUNK_MACS", macs)
        values.append(log_partition_exact(d, tf).hex())
    assert values[0] == values[1] == values[2]


def test_gauge_symmetry_zero_field(reference_spec):
    """At h = 0 flipping every spin is a symmetry: Z is twice the sum over sigma_1 = +1."""
    d = sample_disorder(reference_spec, 10, seed=4)
    tf = TempField(beta=0.6, h=0.0)
    configs = all_configurations(10)
    energies = hamiltonian(d, configs[configs[:, 0] == 1.0], tf)
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
    assert hist.acceptance > 0.97


def test_overlap_large_field(sk_spec):
    hist = overlap_histogram(
        sk_spec, TempField(beta=0.05, h=3.0), n=64, sweeps=200, n_disorder=2, seed=22
    )
    assert (hist.means > 0.9).all()
    assert hist.acceptance < 0.1


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


def test_overlap_histogram_keeps_the_frozen_values(reference_spec):
    """Counts, means, stds and acceptance keep every bit of the values frozen
    when each chain still went through NumPy arrays between sweeps."""
    hist = overlap_histogram(reference_spec, TempField(beta=0.4, h=0.2), n=24, sweeps=60, n_disorder=2, seed=31)
    nonzero = [{int(b): int(row[b]) for b in np.flatnonzero(row)} for row in hist.counts]
    assert nonzero == [{0: 9, 5: 24, 11: 13, 17: 6, 22: 4, 28: 4}, {0: 11, 8: 28, 16: 14, 24: 5, 32: 2}]
    assert [x.hex() for x in hist.means.tolist()] == ["0x1.fb1fb1fb1fb1fp-3", "0x1.0da740da740dap-2"]
    assert [x.hex() for x in hist.stds.tolist()] == ["0x1.9635904835440p-3", "0x1.9289f61245bd4p-3"]
    assert (hist.acceptance.hex(), hist.n_measurements) == ("0x1.0693e93e93e94p-1", 60)


@pytest.mark.parametrize("beta, h", [(0.4, 0.2), (1.5, 0.1)])
def test_overlap_matches_reference_sampler(reference_spec, beta, h):
    """Same counts as a sampler that takes every energy change from two full energies."""
    tf, n, sweeps, seed = TempField(beta=beta, h=h), 24, 40, 13
    hist = overlap_histogram(reference_spec, tf, n=n, sweeps=sweeps, n_disorder=2, seed=seed)
    disorders = [sample_disorder(reference_spec, n, derive_seed(seed, r, 1)) for r in range(2)]
    chain_keys = [derive_seed(seed, r, 2) for r in range(2)]
    want = metropolis_counts(disorders, chain_keys, tf, sweeps, bins=simulate.HISTOGRAM_BINS)
    np.testing.assert_array_equal(hist.counts, want)


@pytest.mark.parametrize("n", [2, simulate.MAX_MC_N])
def test_proposal_stream_matches_python_derivation(n):
    """The vectorised sites and uniforms of every row, the start row included,
    equal their Python-int derivation from the module docstring, through two
    full blocks of rows and the last row of a partial third one."""
    key, rows = derive_seed(41, 3, 2), 2 * (simulate._BLOCK_WORDS // (2 * n)) + 3
    got = list(simulate._proposals(key, n, rows - 1))
    assert got == [tuple(pair) for pair in metropolis_draws(key, n, rows)]


def test_stacked_disorder_equals_per_seed_draws(reference_spec):
    """An array of child seeds equals the one-index children, and the stack
    of their coupling matrices equals the per-seed draws bit for bit."""
    seeds = derive_seed(19, np.arange(9))
    assert seeds.tolist() == [derive_seed(19, r) for r in range(9)]
    stack = sample_disorder(reference_spec, 13, seeds)
    assert stack.g.shape == (9, 13, 13) and stack.n == 13
    for r, seed in enumerate(seeds.tolist()):
        single = sample_disorder(reference_spec, 13, seed)
        np.testing.assert_array_equal(stack.g[r], single.g)
        np.testing.assert_array_equal(stack.species, single.species)


@pytest.mark.parametrize(
    "n, mean, stderr",
    [
        (2, "0x1.c95a0c2a2a075p-1", "0x1.c748bc36d1b15p-5"),
        (13, "0x1.fa3ab562fdab0p-1", "0x1.4de9ce10a1bbbp-7"),
        (24, "0x1.ffa87e6f711aap-1", "0x1.5d221317154adp-8"),
    ],
)
def test_free_energy_grouped_draws_keep_the_values(reference_spec, n, mean, stderr):
    """Drawing the couplings in groups leaves the estimate byte-equal to the
    values frozen from one draw per sample; 67 samples leave a partial last
    group at every N (groups of 1024, 24 and 7 samples).  The N = 13 and
    N = 24 stderr were refrozen, 1 ulp each, when the enumeration chunk became
    one sign-table product and one row contraction; every mean kept its bits."""
    est = free_energy_exact(reference_spec, TempField(beta=0.7, h=0.3), n=n, n_disorder=67, seed=5)
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finite_n_allocation_guard(reference_spec):
    """Traced peaks of the README finite-N runs stay small, so the disorder
    groups, proposal blocks and enumeration tables cannot quietly grow: the
    N = 20 x 200 exact samples peak at 0.53 MiB with the size's tables built
    in the call (0.42 MiB once cached), and N = 128 Metropolis at 0.96 MiB
    (numpy 2.4.6, Python 3.11).  Two samples of 160 sweeps (ten proposal
    blocks) reach the peak of the README's 4 x 400 in a fifth of the traced time."""
    tf = TempField(beta=0.3, h=0.4)
    assert _traced_peak(lambda: free_energy_exact(reference_spec, tf, n=20, n_disorder=200, seed=7)) <= 2**20
    peak = _traced_peak(lambda: overlap_histogram(reference_spec, tf, n=128, sweeps=160, n_disorder=2, seed=7))
    assert peak <= 2.5 * 2**20


def test_overlap_histogram_frees_each_sample_before_the_next(reference_spec):
    """A disorder sample's coupling arrays are released before the next is
    drawn: at N = 128 two samples peak within 5% of one (about 0.91 MiB)."""
    tf = TempField(beta=0.3, h=0.4)

    def peak(count):
        return _traced_peak(lambda: overlap_histogram(reference_spec, tf, n=128, sweeps=20, n_disorder=count, seed=7))

    assert peak(2) <= 1.05 * peak(1)


def test_overlap_size_guard(sk_spec):
    with pytest.raises(Unsupported):
        overlap_histogram(sk_spec, TempField(beta=0.3), n=300, sweeps=10)
