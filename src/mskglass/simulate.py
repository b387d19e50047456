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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Unsupported
from .model import ModelSpec, TempField

MAX_EXACT_N = 24
MAX_MC_N = 256

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2**53)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _as_u64(value: int) -> np.uint64:
    return np.uint64(int(value) & 0xFFFFFFFFFFFFFFFF)


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child seed from a parent seed and a chain of indices."""
    x = _mix(np.array([_as_u64(seed)]))
    for idx in indices:
        x = _mix(x ^ _as_u64(idx))
    return int(x[0])


def disorder_normals(seed: int, ii, jj) -> np.ndarray:
    """Standard normals indexed by (seed, i, j); pure, vectorized, documented above."""
    ii = np.asarray(ii, dtype=np.uint64)
    jj = np.asarray(jj, dtype=np.uint64)
    key = _mix(np.array([_as_u64(seed)]))[0]
    s1 = _mix(_mix(_mix(np.broadcast_to(key, ii.shape).copy() ^ ii) ^ jj))
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
    """A coupling matrix reproducible from its seed alone."""

    seed: int
    g: np.ndarray
    species: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[0]


def sample_disorder(spec: ModelSpec, n: int, seed: int) -> DisorderSample:
    """Draw the N x N coupling matrix with block variances delta2_st."""
    species = species_partition(spec, n)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    z = disorder_normals(seed, ii, jj)
    std = np.sqrt(spec.delta2)[np.ix_(species, species)]
    return DisorderSample(seed=seed, g=std * z, species=species)


def _all_spins(m: int) -> np.ndarray:
    """All 2^m sign vectors; row d holds the bits of d mapped to +-1."""
    return ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1) * 2.0 - 1.0


def _log_sum_exp(a) -> float:
    """log sum exp(a) over all entries, shifted by the largest one."""
    top = float(np.max(a))
    return top + math.log(float(np.exp(np.asarray(a) - top).sum()))


def log_partition_exact(d: DisorderSample, tf: TempField) -> float:
    """log Z by exact enumeration, meet-in-the-middle over two index halves.

    Energies are combined in log space (log-sum-exp), processed in row blocks
    so memory stays at O(2^(N/2)) per block.
    """
    n = d.n
    if n > MAX_EXACT_N:
        raise Unsupported(f"exact enumeration supports N <= {MAX_EXACT_N}, got {n}")
    c = tf.beta / math.sqrt(n)
    na = n // 2
    sa, sb = _all_spins(na), _all_spins(n - na)
    gaa, gbb = d.g[:na, :na], d.g[na:, na:]
    cross = d.g[:na, na:] + d.g[na:, :na].T
    ea = c * np.einsum("ij,ij->i", sa @ gaa, sa) + tf.h * sa.sum(axis=1)
    eb = c * np.einsum("ij,ij->i", sb @ gbb, sb) + tf.h * sb.sum(axis=1)
    mix = c * (sa @ cross)

    chunk = max(1, 2**22 // sb.shape[0])
    partial = []
    for start in range(0, sa.shape[0], chunk):
        stop = start + chunk
        block = ea[start:stop, None] + eb[None, :] + mix[start:stop] @ sb.T
        partial.append(_log_sum_exp(block))
    return _log_sum_exp(partial)


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
    """Disorder average of log Z / N over exact 2^N enumerations.

    Deterministic for fixed (spec, tf, n, n_disorder, seed); disorder sample r
    uses the child seed derive_seed(seed, r).  stderr is 0 for a single sample.
    Raises ValueError when a species block is empty or n_disorder < 1.
    """
    if n > MAX_EXACT_N:
        raise Unsupported(f"exact enumeration supports N <= {MAX_EXACT_N}, got {n}")
    _check_counts(spec, n, n_disorder)
    values = np.empty(n_disorder)
    for r in range(n_disorder):
        d = sample_disorder(spec, n, derive_seed(seed, r))
        values[r] = log_partition_exact(d, tf) / n
    stderr = 0.0 if n_disorder < 2 else float(values.std(ddof=1) / math.sqrt(n_disorder))
    return FreeEnergyEstimate(mean=float(values.mean()), stderr=stderr)


@dataclass(frozen=True)
class OverlapHistogram:
    """Per-species histograms of the two-replica overlap |R_s|."""

    bin_edges: np.ndarray
    counts: np.ndarray  # (M, bins)
    means: np.ndarray
    stds: np.ndarray
    n_measurements: int


def overlap_histogram(
    spec: ModelSpec,
    tf: TempField,
    n: int,
    sweeps: int,
    n_disorder: int = 1,
    seed: int = 0,
    bins: int = 40,
) -> OverlapHistogram:
    """Metropolis single-flip sampling of the species overlaps.

    Two independent replicas share each disorder sample; after a burn-in of
    sweeps // 2 sweeps the absolute species overlap
    |sum_{i in I_s} sigma^1_i sigma^2_i| / |I_s| is recorded once per sweep.
    Below the phase line the mass concentrates; above it spreading is
    expected but nothing about mixing is guaranteed or asserted here.
    Raises ValueError when a species block is empty or a count is below 1.
    """
    if n > MAX_MC_N:
        raise Unsupported(f"Monte Carlo sampling supports N <= {MAX_MC_N}, got {n}")
    _check_counts(spec, n, n_disorder)
    if sweeps < 1 or bins < 1:
        raise ValueError(f"sweeps and bins must be >= 1, got {sweeps} and {bins}")
    burn_in = sweeps // 2
    species = species_partition(spec, n)
    sizes = species_sizes(spec, n)
    masks = [species == s for s in range(spec.m)]
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros((spec.m, bins), dtype=int)
    samples: list[list[float]] = [[] for _ in range(spec.m)]

    for r in range(n_disorder):
        d = sample_disorder(spec, n, derive_seed(seed, r, 1))
        w = d.g + d.g.T
        np.fill_diagonal(w, 0.0)  # flipping i never changes the g_ii term
        coupling = tf.beta / math.sqrt(n) * w
        rng = np.random.default_rng(derive_seed(seed, r, 2))
        sigma = rng.choice((-1.0, 1.0), size=(2, n))
        field = coupling @ sigma.T + tf.h  # (n, 2): local field per replica

        for sweep in range(sweeps):
            sites = rng.integers(0, n, size=(2, n))
            uniforms = rng.random(size=(2, n))
            for rep in range(2):
                for i, u in zip(sites[rep], uniforms[rep]):
                    delta = -2.0 * sigma[rep, i] * field[i, rep]
                    if delta >= 0.0 or u < math.exp(delta):
                        field[:, rep] -= 2.0 * sigma[rep, i] * coupling[:, i]
                        sigma[rep, i] = -sigma[rep, i]
            if sweep >= burn_in:
                prod = sigma[0] * sigma[1]
                for s in range(spec.m):
                    overlap = abs(prod[masks[s]].sum()) / sizes[s]
                    idx = min(int(overlap * bins), bins - 1)
                    counts[s, idx] += 1
                    samples[s].append(overlap)

    arrays = [np.asarray(vals) for vals in samples]
    means = np.array([a.mean() for a in arrays])
    stds = np.array([a.std(ddof=1) if a.size > 1 else math.nan for a in arrays])
    return OverlapHistogram(
        bin_edges=edges,
        counts=counts,
        means=means,
        stds=stds,
        n_measurements=int(arrays[0].size),
    )
