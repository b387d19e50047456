"""Regenerate metropolis_band.json, the acceptance band for overlap-hist means.

The band comes from an implementation of the same Metropolis protocol that
shares no code with mskglass: couplings from numpy's default generator,
chains vectorised across disorder samples, two replicas per sample, random
single-site proposals, burn-in of half the sweeps, |species overlap| recorded
once per sweep.  Groups of `n_disorder` chains reproduce the statistic the
CLI prints (the pooled mean over its disorder samples); the band is the mean
of the group means +- 6 of their standard deviations.

    python3 bench/band.py            # about a minute on two cores
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from oracle import DELTA2, LAM, block_sizes

SETTINGS = {"beta": 0.3, "h": 0.4, "n": 128, "sweeps": 400, "n_disorder": 4}
CHAINS = 512
SEED = 20261017
WIDTH = 6.0
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "metropolis_band.json")


def chain_means(rng, chains: int, beta: float, h: float, n: int, sweeps: int) -> np.ndarray:
    """Per-chain, per-species mean |overlap| after burn-in, shape (chains, M)."""
    sizes = block_sizes(n)
    species = np.repeat(np.arange(len(sizes)), sizes)
    std = np.sqrt(DELTA2)[np.ix_(species, species)]
    g = rng.standard_normal((chains, n, n)) * std
    w = g + g.transpose(0, 2, 1)
    w[:, np.arange(n), np.arange(n)] = 0.0
    coupling = beta / math.sqrt(n) * w  # (chains, n, n), symmetric
    sigma = rng.choice((-1.0, 1.0), size=(chains, 2, n))
    field = np.einsum("cij,crj->cri", coupling, sigma) + h
    rows = np.arange(chains)[:, None]
    reps = np.arange(2)[None, :]
    totals = np.zeros((chains, len(sizes)))
    burn_in = sweeps // 2
    for sweep in range(sweeps):
        for _ in range(n):
            site = rng.integers(0, n, size=(chains, 2))
            spin = sigma[rows, reps, site]
            delta = -2.0 * spin * field[rows, reps, site]
            accept = (delta >= 0.0) | (rng.random((chains, 2)) < np.exp(np.minimum(delta, 0.0)))
            change = np.where(accept, -2.0 * spin, 0.0)  # (chains, 2)
            field += change[:, :, None] * coupling[rows, site]  # row site of each chain
            sigma[rows, reps, site] = np.where(accept, -spin, spin)
        if sweep >= burn_in:
            prod = sigma[:, 0] * sigma[:, 1]
            for s, size in enumerate(sizes):
                totals[:, s] += np.abs(prod[:, species == s].sum(axis=1)) / size
    return totals / (sweeps - burn_in)


def main() -> None:
    rng = np.random.default_rng(SEED)
    cfg = SETTINGS
    means = np.concatenate(
        [chain_means(rng, 64, cfg["beta"], cfg["h"], cfg["n"], cfg["sweeps"]) for _ in range(CHAINS // 64)]
    )
    groups = means.reshape(-1, cfg["n_disorder"], means.shape[1]).mean(axis=1)
    centre, spread = groups.mean(axis=0), groups.std(axis=0, ddof=1)
    band = {
        **cfg,
        "chains": CHAINS,
        "groups": int(groups.shape[0]),
        "seed": SEED,
        "width_sd": WIDTH,
        "species": [
            {"mean": float(c), "sd": float(s), "lo": float(c - WIDTH * s), "hi": float(c + WIDTH * s)}
            for c, s in zip(centre, spread)
        ],
    }
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(band, fh, indent=2)
        fh.write("\n")
    print(json.dumps(band, indent=2))


if __name__ == "__main__":
    main()
