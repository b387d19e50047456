"""Model parameterization and validation of the standing assumptions.

A model is an M x M symmetric matrix of coupling variances `delta2` together
with species proportions `lam` summing to 1.  Three validation modes exist:

* ``convex``: delta2 positive semidefinite (the regime where the variational
  free-energy formula is proved).
* ``two-species-standard``: M = 2 with delta2 positive definite or all
  entries equal (the classical reduction) -- the class the closed-form
  temperature thresholds cover, in any scale and species order (the model
  sees only beta^2 delta2, and a swap only relabels).
* ``unchecked``: every check is waived (exploration of non-convex couplings
  such as the bipartite model); the CLI records the mode in every output's
  config.

`validate` returns the names of the assumptions a model fails.
`ModelSpec.standard`, the ``two-species-standard`` check made once per
model, is the one class predicate: verdicts and the phase line raise
Unsupported outside it, and the solver's uniqueness guarantee holds only
inside it.

Proportions are stored exactly as given; a sum away from 1 is rejected rather
than silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadDimension, MskGlassError, Unsupported

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

    @cached_property
    def standard(self) -> bool:
        """Whether the model passes the ``two-species-standard`` validation; the arrays are read-only,
        so one check serves every caller."""
        return not validate(self, "two-species-standard")

    @property
    def sk_reduction(self) -> bool:
        """True when all variances equal one positive value (the classical model at that scale)."""
        scale = self.delta2[0, 0]
        return bool(scale > 0 and np.abs(self.delta2 - scale).max() <= _SYM_TOL * scale)


@dataclass(frozen=True)
class TempField:
    """A point (beta, h): inverse temperature and field; equal-length NumPy vectors make a batch of points."""

    beta: float
    h: float = 0.0

    def __post_init__(self):
        beta, h = np.array(self.beta, dtype=float, ndmin=1).tolist(), np.array(self.h, dtype=float, ndmin=1).tolist()
        if len(beta) != len(h):
            raise ValueError(f"beta and h must hold the same number of points, got {len(beta)} and {len(h)}")
        if not all(map(math.isfinite, beta + h)):
            raise ValueError("beta and h must be finite")
        if min(beta, default=1.0) <= 0:
            raise ValueError("beta must be positive")
        if min(h, default=0.0) < 0:
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
    d = spec.delta2
    holds = {"positive-semidefinite": np.linalg.eigvalsh(d)[0] >= -_PSD_TOL}
    if mode == "two-species-standard":
        holds["two-species"] = spec.m == 2
        if spec.m == 2:
            holds["variance-product"] = d[0, 0] * d[1, 1] > d[0, 1] * d[0, 1] or spec.sk_reduction
    return tuple(name for name, ok in holds.items() if not ok)


class Thresholds(NamedTuple):
    """The five closed-form beta^2 thresholds of the two-species analysis.

    beta2_u / beta2_t flip the sign of the diagonal stability entries,
    beta2_v the off-diagonal one; beta2_m < beta2_M bracket the window in
    which the sign pattern alone decides.  Symmetry breaking is certified
    exactly above beta2_m.
    """

    beta2_u: float
    beta2_t: float
    beta2_v: float
    beta2_m: float
    beta2_M: float


def _underflow(gamma) -> MskGlassError:
    return MskGlassError(f"quartic susceptibility underflowed to 0 (gamma = {gamma})")


def _threshold_terms(spec: ModelSpec, gamma):
    """(e, g1, g2, a, b, root) of gamma, or of each row of a batch (R x 2): (g1, g2) = gamma / 2^e exactly with e
    the exponent of max(gamma), a = g1 d11, b = g2 d22, root = sqrt((a - b)^2 + 4 g1 g2 d12^2)."""
    if spec.m != 2:
        raise Unsupported("closed-form thresholds exist for two species only")
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape[-1:] != (2,) or gamma.ndim > 2 or (gamma < 0).any():
        raise ValueError("gamma must be a positive 2-vector or rows of them")
    if (gamma == 0).any():
        raise _underflow(gamma)
    e = np.frexp(gamma.max(-1))[1]
    g1, g2 = np.ldexp(gamma, -e[..., None]).T
    a, b = g1 * spec.delta2[0, 0], g2 * spec.delta2[1, 1]
    # float_power is libm's pow, as float ** 2 is; NumPy's array ** 2 is x * x, which differs in the last bit
    return e, g1, g2, a, b, np.sqrt(np.float_power(a - b, 2.0) + 4.0 * g1 * g2 * spec.delta2[0, 1] ** 2)


def two_species_thresholds(spec: ModelSpec, gamma) -> Thresholds:
    """The five thresholds for two species and a positive weight vector gamma, or their arrays for rows (R x 2).

    (beta2_m, beta2_M) = 1 / (a + b +- sqrt((a - b)^2 + 4 g1 g2 d12^2)) with
    a = g1 d11, b = g2 d22 (beta2_M infinite in the classical reduction), and
    beta2_u = d11 / (2 (g1 d11^2 + g2 d12^2)), beta2_t likewise.  At gamma =
    lam beta2_m is the zero-field uniqueness threshold; at gamma the quartic
    susceptibility it is the phase boundary.  Thresholds scale as 1/gamma:
    they are evaluated at gamma / 2^e (exact, and no underflow of
    4 g1 g2 d12^2 at large h), then divided by 2^e, bit for bit; one beyond
    the float64 range (gamma subnormal, h of about 180 or more) is inf.
    Raises Unsupported for M != 2, and MskGlassError when a gamma entry
    underflowed to 0.
    """
    e, g1, g2, a, b, root = _threshold_terms(spec, gamma)
    d11, d12, d22 = spec.delta2[0, 0], spec.delta2[0, 1], spec.delta2[1, 1]
    with np.errstate(divide="ignore", over="ignore"):  # ldexp is inf beyond the float64 range
        return Thresholds._make(np.ldexp(t, -e) for t in (
            d11 / (2.0 * (g1 * d11 * d11 + g2 * d12 * d12)),
            d22 / (2.0 * (g1 * d12 * d12 + g2 * d22 * d22)),
            1.0 / (2.0 * (a + b)),
            1.0 / (a + b + root),
            np.where(a + b - root <= 0.0, math.inf, 1.0 / (a + b - root)),
        ))


def inverse_beta2_m(spec: ModelSpec, gamma) -> tuple:
    """1 / beta2_m = a + b + root, finite at any gamma, and its gradient in gamma
    (one-sided where root = 0: d12 = 0 and a = b); one of each per row for rows (R x 2)."""
    e, g1, g2, a, b, root = _threshold_terms(spec, gamma)
    d11, d12, d22 = spec.delta2[0, 0], spec.delta2[0, 1], spec.delta2[1, 1]
    root_or_inf = np.where(root > 0, root, math.inf)
    skew, cross = (a - b) / root_or_inf, 2.0 * d12 * d12 / root_or_inf
    return np.ldexp(a + b + root, e), np.stack([d11 * (1.0 + skew) + cross * g2, d22 * (1.0 - skew) + cross * g1], -1)


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
