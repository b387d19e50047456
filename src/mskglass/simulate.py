"""Finite-N ground truth: exact enumeration and Monte Carlo overlaps.

The energy of a spin configuration is

    H(sigma) = (beta / sqrt(N)) sum_{i,j} g_ij sigma_i sigma_j + h sum_i sigma_i,

a double sum over ordered pairs with independent g_ij and g_ji; the Boltzmann
weight is exp(H) (beta and h already live inside H, and is NOT applied a
second time), so the quenched free energy per spin is E log Z / N with
Z = sum_sigma exp(H(sigma)).

Disorder is drawn from a counter-based generator so a coupling matrix is a
pure function of (seed, i, j) and never needs to be stored to be reproduced.
The generator is fixed bit-exactly:

    mix(x): splitmix64 finalizer
            z = x + 0x9E3779B97F4A7C15
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB
            z = z ^ (z >> 31)            (all mod 2^64)
    s1 = mix(mix(mix(mix(seed) ^ i) ^ j))
    s2 = mix(s1)
    u1 = ((s1 >> 11) + 1) * 2^-53  in (0, 1]
    u2 = (s2 >> 11) * 2^-53        in [0, 1)
    z_ij = sqrt(-2 ln u1) * cos(2 pi u2)        (Box-Muller, cosine branch)
    g_ij = sqrt(delta2_st) * z_ij  for i in species s, j in species t.

Species blocks are contiguous index ranges with sizes round(lam_s N)
(largest-remainder rounding so the sizes always sum to N).

Metropolis draws come from the same mix.  Disorder sample r (couplings from
seed derive_seed(seed, r, 1)) has the chain key c = derive_seed(seed, r, 2)
= mix(mix(mix(seed) ^ r) ^ 2).  Slot k = a N + i (replica a in {0, 1}) of row
t holds the word w = mix(mix(c ^ t) ^ k), the site ((w >> 32) * N) >> 32 in
[0, N) and the uniform u = (mix(w) >> 11) * 2^-53 in [0, 1).  Row 0 sets the
start spins, sigma^a_i = -1 if u < 1/2 else +1; row 1 + t is sweep t, whose
step i proposes the site of slot k to replica a and accepts it against its u.

Z is summed exactly for N <= 24 (log_partition_exact): per chunk of first-half
configurations, one product with a cached sign table, one exp and one GEMM over
the second half, each of the chunk's products within _CHUNK_MACS multiply-adds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Unsupported
from .model import ModelSpec, TempField

MAX_EXACT_N = 24
MAX_MC_N = 256
HISTOGRAM_BINS = 40  # equal bins of [0, 1] per species overlap histogram

_CHUNK_MACS = 2**18  # multiply-adds per product of a log_partition_exact main-loop chunk: its working set
_BLOCK_WORDS = 2**12  # generator words per vectorised draw: couplings or sweeps' proposals
_TINY = 1e-280  # a factored row sum this small is re-summed directly

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2**53)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z


def _u64(value) -> np.ndarray:
    """Integers mod 2^64, a Python int or an integer array, as uint64."""
    return np.asarray(value % 2**64 if isinstance(value, int) else value).astype(np.uint64, copy=False)


def derive_seed(seed: int, *indices):
    """Deterministic child seed from a parent seed and a chain of indices; an
    index array gives the uint64 array of the children."""
    x = _mix(_u64(seed))
    for idx in indices:
        x = _mix(x ^ _u64(idx))
    return x if isinstance(x, np.ndarray) else int(x)


def disorder_normals(seed, ii, jj) -> np.ndarray:
    """Standard normals indexed by (seed, i, j), all three broadcast together;
    pure, vectorized, documented above."""
    s1 = _mix(_mix(_mix(_mix(_u64(seed)) ^ _u64(ii)) ^ _u64(jj)))
    s2 = _mix(s1)
    u1 = ((s1 >> np.uint64(11)).astype(float) + 1.0) / _U53
    u2 = (s2 >> np.uint64(11)).astype(float) / _U53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def species_sizes(spec: ModelSpec, n: int) -> np.ndarray:
    """Block sizes round(lam_s * n) with largest-remainder tie-breaking."""
    raw = spec.lam * n
    sizes = np.floor(raw).astype(int)
    remainder = n - sizes.sum()
    if remainder > 0:
        order = np.argsort(-(raw - sizes))
        sizes[order[:remainder]] += 1
    return sizes


def species_partition(spec: ModelSpec, n: int) -> np.ndarray:
    """Species index of each site: contiguous blocks in species order."""
    return np.repeat(np.arange(spec.m), species_sizes(spec, n))


@dataclass(frozen=True)
class DisorderSample:
    """A coupling matrix, or a stack of them, reproducible from its seeds alone."""

    seed: int | np.ndarray
    g: np.ndarray  # (N, N), or (S, N, N) for S seeds
    species: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1]


def sample_disorder(spec: ModelSpec, n: int, seed) -> DisorderSample:
    """Draw the N x N coupling matrix with block variances delta2_st; an array
    of seeds draws the stack of their matrices."""
    species = species_partition(spec, n)
    index = np.arange(n)
    z = disorder_normals(_u64(seed)[..., None, None], index[:, None], index)
    std = np.sqrt(spec.delta2)[np.ix_(species, species)]
    return DisorderSample(seed=seed, g=std * z, species=species)


@functools.cache  # m <= MAX_EXACT_N - MAX_EXACT_N // 2: 13 tables, 0.7 MB at most
def _all_spins(m: int) -> np.ndarray:
    """All 2^m sign vectors, read-only; row d holds the bits of d mapped to +-1."""
    spins = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1) * 2.0 - 1.0
    spins.flags.writeable = False
    return spins


def _one_point(tf: TempField) -> tuple:
    """(beta, h) as floats of a batch of one point, the one point the finite-N routines take."""
    if tf.beta.size != 1:
        raise ValueError(f"the finite-N routines take one (beta, h) point, got {tf.beta.size}")
    return float(tf.beta[0]), float(tf.h[0])


@functools.cache  # one entry per N <= MAX_EXACT_N; sign tables of 14 KB at most
def _enumeration_tables(n: int) -> tuple:
    """Read-only tables of log_partition_exact at size n: each half's spins and
    magnetisations, the nb x 2 indicator of the low and high spins, the sign table."""
    na = n // 2
    nb, nl = n - na, (n - na) // 2
    sa, sb, sl, sh = _all_spins(na), _all_spins(nb), _all_spins(nl), _all_spins(nb - nl)
    table = np.zeros((nb + 2, len(sl) + len(sh)))
    table[:nl, : len(sl)], table[nl:nb, len(sl) :] = sl.T, sh.T
    table[nb, : len(sl)] = table[nb + 1, len(sl) :] = -1.0
    tables = (sa, sb, sa.sum(axis=1), sb.sum(axis=1), np.repeat(np.eye(2), [nl, nb - nl], axis=0), table)
    for t in tables:
        t.flags.writeable = False
    return tables


def log_partition_exact(d: DisorderSample, tf: TempField) -> float:
    """log Z by exact enumeration at the one point of `tf`, meet-in-the-middle over two index halves.

    Split the second half into its low nl = nb // 2 and high nh spins, so
    b = bh 2^nl + bl, and let (ml, mh) be first-half configuration a's field on
    them.  Row a of Z is e^{ea} sum_bh e^{mh.s_bh} sum_bl W[bh, bl] e^{ml.s_bl}
    with W = e^{eb}.  Row a of `field` is [ml | mh | sum|ml| | sum|mh|], and the
    sign table is diag(s_bl^T, s_bh^T) over one -1 row per half, so a chunk of
    rows is four calls: one product to [ml.s_bl - sum|ml| | mh.s_bh - sum|mh|],
    one in-place exp to [Pl | Ph], the GEMM Pl @ (W / max W) and the row
    contraction with Ph; 2^na (2^nl + 2^nh) exps, not 2^N.  Each product of a
    main-loop chunk takes at most _CHUNK_MACS multiply-adds.  A row sum below _TINY
    (some underflow at beta = 200, N = 18) is redone directly under the row's own
    maximum, so log Z is exact to rounding at every beta.
    """
    n = d.n
    if n > MAX_EXACT_N:
        raise Unsupported(f"exact enumeration supports N <= {MAX_EXACT_N}, got {n}")
    (beta, h), na = _one_point(tf), n // 2
    c, nb = beta / math.sqrt(n), n - na
    sa, sb, ma, mb, halves, table = _enumeration_tables(n)
    ea = c * np.einsum("ij,ij->i", sa @ d.g[:na, :na], sa) + h * ma
    eb = c * np.einsum("ij,ij->i", sb @ d.g[na:, na:], sb) + h * mb
    field = np.empty((len(sa), nb + 2))
    field[:, :nb] = c * (sa @ (d.g[:na, na:] + d.g[na:, :na].T))
    field[:, nb:] = np.abs(field[:, :nb]) @ halves
    top, split = eb.max(), 2 ** (nb // 2)
    wt = np.exp(eb - top).reshape(-1, split).T
    shift, sums = field[:, nb] + field[:, nb + 1] + top, np.empty(len(sa))
    step = max(1, _CHUNK_MACS // max(len(sb), table.size))
    for start in range(0, len(sa), step):
        p = field[start : start + step] @ table
        np.exp(p, out=p)
        sums[start : start + step] = np.einsum("ij,ij->i", p[:, :split] @ wt, p[:, split:])
    redo = np.flatnonzero(sums < _TINY)
    for start in range(0, len(redo), step):
        rows = redo[start : start + step]
        block = field[rows, :nb] @ sb.T + eb
        shift[rows] = block.max(axis=1)
        sums[rows] = np.exp(block - shift[rows, None]).sum(axis=1)
    terms = ea + shift + np.log(sums)
    return float(terms.max()) + math.log(np.exp(terms - terms.max()).sum())


def _check_counts(spec: ModelSpec, n: int, n_disorder: int) -> None:
    if species_sizes(spec, n).min() < 1:
        raise ValueError(f"N = {n} leaves a species block empty")
    if n_disorder < 1:
        raise ValueError(f"n_disorder must be >= 1, got {n_disorder}")


class FreeEnergyEstimate(NamedTuple):
    mean: float
    stderr: float


def free_energy_exact(
    spec: ModelSpec,
    tf: TempField,
    n: int,
    n_disorder: int = 1,
    seed: int = 0,
) -> FreeEnergyEstimate:
    """Disorder average of log Z / N over exact 2^N enumerations at the one point of `tf`.

    Deterministic for fixed (spec, tf, n, n_disorder, seed); disorder sample r
    uses the child seed derive_seed(seed, r), drawn in groups of about
    _BLOCK_WORDS couplings.  stderr is 0 for a single sample.
    Raises ValueError when `tf` holds more than one point, a species block is empty or n_disorder < 1.
    """
    if n > MAX_EXACT_N:
        raise Unsupported(f"exact enumeration supports N <= {MAX_EXACT_N}, got {n}")
    _one_point(tf)
    _check_counts(spec, n, n_disorder)
    seeds, group = derive_seed(seed, np.arange(n_disorder)), max(1, _BLOCK_WORDS // (n * n))
    values = np.empty(n_disorder)
    for start in range(0, n_disorder, group):
        stack = sample_disorder(spec, n, seeds[start : start + group])
        for r, g in enumerate(stack.g, start):
            values[r] = log_partition_exact(DisorderSample(int(seeds[r]), g, stack.species), tf) / n
    stderr = 0.0 if n_disorder < 2 else float(values.std(ddof=1) / math.sqrt(n_disorder))
    return FreeEnergyEstimate(mean=float(values.mean()), stderr=stderr)


def _proposals(key: int, n: int, sweeps: int):
    """Rows 0..sweeps of chain `key`, each its (2, N) sites and uniforms as
    nested lists; one vectorised draw serves _BLOCK_WORDS // 2N rows."""
    block, slots = max(1, _BLOCK_WORDS // (2 * n)), np.arange(2 * n, dtype=np.uint64).reshape(2, n)
    for first in range(0, sweeps + 1, block):
        rows = np.arange(first, min(first + block, sweeps + 1), dtype=np.uint64)
        w = _mix(_mix(_u64(key) ^ rows)[:, None, None] ^ slots)
        sites = ((w >> np.uint64(32)) * np.uint64(n)) >> np.uint64(32)
        yield from zip(sites.tolist(), ((_mix(w) >> np.uint64(11)) / _U53).tolist())


@dataclass(frozen=True)
class OverlapHistogram:
    """Per-species histograms of the two-replica overlap |R_s|."""

    bin_edges: np.ndarray
    counts: np.ndarray  # (M, HISTOGRAM_BINS)
    means: np.ndarray
    stds: np.ndarray
    n_measurements: int
    acceptance: float  # accepted / attempted single-spin flips, burn-in included


def overlap_histogram(
    spec: ModelSpec,
    tf: TempField,
    n: int,
    sweeps: int,
    n_disorder: int = 1,
    seed: int = 0,
) -> OverlapHistogram:
    """Metropolis single-flip sampling of the species overlaps at the one point of `tf`.

    Two independent replicas share each disorder sample, with couplings, start
    spins and proposals drawn as the module docstring fixes them.  After a
    burn-in of sweeps // 2 sweeps the absolute species overlap
    |sum_{i in I_s} sigma^1_i sigma^2_i| / |I_s| is recorded once per sweep.
    Below the phase line the mass concentrates; above it spreading is
    expected but nothing about mixing is guaranteed or asserted here.
    Raises ValueError when `tf` holds more than one point, a species block is empty or a count is below 1.
    """
    if n > MAX_MC_N:
        raise Unsupported(f"Monte Carlo sampling supports N <= {MAX_MC_N}, got {n}")
    beta, h = _one_point(tf)
    _check_counts(spec, n, n_disorder)
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    burn_in = sweeps // 2
    bounds = np.cumsum([0, *species_sizes(spec, n)]).tolist()  # species s holds sites bounds[s]:bounds[s + 1]
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    counts = np.zeros((spec.m, HISTOGRAM_BINS), dtype=int)
    samples: list[list[float]] = [[] for _ in range(spec.m)]

    accepted, exp = 0, math.exp
    for r in range(n_disorder):
        d = sample_disorder(spec, n, derive_seed(seed, r, 1))
        w = d.g + d.g.T
        np.fill_diagonal(w, 0.0)  # flipping i never changes the g_ii term
        coupling = beta / math.sqrt(n) * w
        # coupling is symmetric: flipping spin i adds -2 sigma_i coupling[i] to the fields,
        # down[i] when sigma_i = +1 and up[i] when sigma_i = -1 (f - x is f + (-x) exactly)
        up, down = list(2.0 * coupling), list(-2.0 * coupling)
        draws = _proposals(derive_seed(seed, r, 2), n, sweeps)
        sigma = np.where(np.array(next(draws)[1]) < 0.5, -1.0, 1.0)
        field = np.ascontiguousarray((coupling @ sigma.T + h).T)  # (2, n) local fields
        replicas = sigma.tolist()  # each replica's spins stay a list for the whole chain

        for sweep, (sites, uniforms) in enumerate(draws):
            for spins, f, rep_sites, rep_uniforms in zip(replicas, field, sites, uniforms):
                local, add = memoryview(f), f.__iadd__  # local reads f as Python floats, updates included
                for i, u in zip(rep_sites, rep_uniforms):
                    spin = spins[i]
                    delta = -2.0 * spin * local[i]
                    if delta >= 0.0 or u < exp(delta):
                        add(down[i] if spin > 0.0 else up[i])
                        spins[i] = -spin
                        accepted += 1
            if sweep >= burn_in:
                prod = list(map(operator.mul, *replicas))  # a sum of +-1 products is exact
                for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                    overlap = abs(sum(prod[lo:hi])) / (hi - lo)
                    idx = min(int(overlap * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)
                    counts[s, idx] += 1
                    samples[s].append(overlap)
        del d, w, coupling, up, down, draws  # free this sample's N x N arrays before the next is drawn

    arrays = [np.asarray(vals) for vals in samples]
    means = np.array([a.mean() for a in arrays])
    stds = np.array([a.std(ddof=1) if a.size > 1 else math.nan for a in arrays])
    return OverlapHistogram(
        bin_edges=edges,
        counts=counts,
        means=means,
        stds=stds,
        n_measurements=int(arrays[0].size),
        acceptance=accepted / (2 * n * sweeps * n_disorder),
    )
