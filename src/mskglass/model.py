"""Model parameterization and validation of the standing assumptions.

A model is an M x M symmetric matrix of coupling variances `delta2` together
with species proportions `lam` summing to 1.  Three validation modes exist:

* ``convex``: delta2 positive semidefinite (the regime where the variational
  free-energy formula is proved).
* ``two-species-standard``: M = 2, unit cross variance, variance product > 1
  and lambda_1 * delta2_11 >= lambda_2 * delta2_22 -- the normalization under
  which the closed-form temperature thresholds hold.
* ``unchecked``: every check is waived (exploration of non-convex couplings
  such as the bipartite model); the CLI records the mode in every output's
  config.

`validate` returns the names of the assumptions a model fails.

Proportions are stored exactly as given; a sum away from 1 is rejected rather
than silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadDimension, Unsupported

VALIDATION_MODES = ("convex", "two-species-standard", "unchecked")

_SYM_TOL = 1e-14
_LAM_TOL = 1e-12
_PSD_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Variance matrix and species proportions of a multi-species model."""

    delta2: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        delta2 = np.array(self.delta2, dtype=float)
        lam = np.array(self.lam, dtype=float)
        if delta2.ndim != 2 or delta2.shape[0] != delta2.shape[1]:
            raise BadDimension("delta2 must be a square matrix")
        m = delta2.shape[0]
        if m < 2:
            raise ValueError("at least two species are required")
        if lam.shape != (m,):
            raise BadDimension("lam must have one entry per species")
        if not (np.isfinite(delta2).all() and np.isfinite(lam).all()):
            raise ValueError("model parameters must be finite")
        if np.abs(delta2 - delta2.T).max() > _SYM_TOL:
            raise ValueError("delta2 must be symmetric")
        if (delta2 < -_SYM_TOL).any():
            raise ValueError("variances must be nonnegative")
        if ((lam <= 0) | (lam >= 1)).any():
            raise ValueError("each proportion must lie strictly in (0, 1)")
        if abs(lam.sum() - 1.0) > _LAM_TOL:
            raise ValueError(f"proportions must sum to 1, got {lam.sum()!r}")
        delta2.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "delta2", delta2)
        object.__setattr__(self, "lam", lam)

    @property
    def m(self) -> int:
        return self.delta2.shape[0]

    @property
    def sk_reduction(self) -> bool:
        """True when every variance equals 1 (the classical single-species model)."""
        return bool(np.abs(self.delta2 - 1.0).max() <= _SYM_TOL)


@dataclass(frozen=True)
class TempField:
    """A point (beta, h) in the phase plane: inverse temperature and field."""

    beta: float
    h: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.h)):
            raise ValueError("beta and h must be finite")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.h < 0:
            raise ValueError("h must be nonnegative")


def validate(spec: ModelSpec, mode: str = "convex") -> tuple:
    """Names of the standing assumptions `spec` fails under `mode`; () when all hold.

    Symmetry, nonnegative variances and proportions are enforced at
    construction.  ``two-species-standard`` implies the convex check;
    ``unchecked`` waives every check.  Failures are returned, never raised.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")
    if mode == "unchecked":
        return ()
    d, lam = spec.delta2, spec.lam
    holds = {"positive-semidefinite": np.linalg.eigvalsh(d)[0] >= -_PSD_TOL}
    if mode == "two-species-standard":
        holds["two-species"] = spec.m == 2
        if spec.m == 2:
            holds["unit-cross-variance"] = abs(d[0, 1] - 1.0) <= 1e-12
            holds["variance-product"] = d[0, 0] * d[1, 1] > 1.0
            holds["species-ordering"] = lam[0] * d[0, 0] >= lam[1] * d[1, 1] - 1e-12
    return tuple(name for name, ok in holds.items() if not ok)


def two_species_standard(spec: ModelSpec) -> bool:
    """Two species under the standard normalization or its classical reduction
    (every variance 1): the class the closed-form thresholds cover."""
    return spec.m == 2 and (not validate(spec, "two-species-standard") or spec.sk_reduction)


def stability_window(spec: ModelSpec, gamma) -> tuple[float, float]:
    """(beta2_m, beta2_M) = 1 / (a + b +- r) for two species with unit cross variance.

    a = g1 d11, b = g2 d22 and r = sqrt((a - b)^2 + 4 g1 g2) for a positive
    weight vector gamma; beta2_M is infinite when a + b <= r.  At gamma = lam,
    beta2_m is the zero-field uniqueness threshold, and at gamma the quartic
    susceptibility it is the phase boundary.
    """
    if spec.m != 2:
        raise Unsupported("closed-form thresholds exist for two species only")
    if abs(spec.delta2[0, 1] - 1.0) > 1e-12:
        raise Unsupported("closed-form thresholds require unit cross variance")
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (2,) or (gamma <= 0).any():
        raise ValueError("gamma must be a positive 2-vector")
    g1, g2 = float(gamma[0]), float(gamma[1])
    a, b = g1 * spec.delta2[0, 0], g2 * spec.delta2[1, 1]
    root = math.sqrt((a - b) ** 2 + 4.0 * g1 * g2)
    beta2_upper = math.inf if a + b - root <= 0.0 else 1.0 / (a + b - root)
    return 1.0 / (a + b + root), beta2_upper


class Contractions(NamedTuple):
    """Quadratic and per-species linear contractions of an overlap vector (or a batch)."""

    scalar: float
    species: np.ndarray


def overlap_contractions(spec: ModelSpec, q) -> Contractions:
    """Contract per-species overlaps against the weighted variance matrix.

    Returns (sum_{s,t} delta2_st lam_s lam_t q_s q_t,
             2 * sum_t delta2_st lam_t q_t) -- the scalar energy contraction
    and the per-species coupling vector driving the cavity-field scale.  A
    batch (..., M) of overlap vectors gives one contraction per vector, each
    bit-equal to its own single-vector call.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim < 1 or q.shape[-1] != spec.m:
        raise BadDimension(f"expected overlap vectors of length {spec.m}, got shape {q.shape}")
    w = (spec.lam * q)[..., None]
    scalar = (w.swapaxes(-1, -2) @ spec.delta2 @ w)[..., 0, 0]
    return Contractions(scalar=scalar if scalar.ndim else float(scalar), species=(2.0 * (spec.delta2 @ w))[..., 0])
