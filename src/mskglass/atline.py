"""de Almeida-Thouless machinery: stability matrices, thresholds, verdicts.

At a converged critical point the second derivative of the symmetry-breaking
slope (see `onersb.zeta_derivative`) has the closed form

    H = beta^2 L K L,    K = 2 beta^2 D G D - D,

with D the variance matrix, L = diag(lam) and G = diag(gamma) built from the
species-weighted quartic susceptibility gamma_s = lam_s E sech^4(cavity
field).  A direction x >= 0 with x' K x > 0 certifies that the single-atom
value is not optimal.  For two species with unit cross variance the existence
of such a direction collapses to the single inequality beta^2 > beta2_m, one
of five closed-form thresholds computed here; the AT line in the (beta, h)
plane is the zero set of beta^2 - beta2_m(beta), located by a bracketed
secant search (Illinois regula falsi).  The matrices are built for any M,
but thresholds, witnesses and verdicts exist only for two species: for three
or more no closed form is known and they raise Unsupported.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InternalInconsistency, NotConverged, Unsupported
from .model import ModelSpec, TempField, stability_window
from .quadrature import QuadRule, cavity_expect, sech4
from .rs import RSSolution, solve_fixed_point

_WITNESS_REL_TOL = 1e-14
_VERDICT_BAND = 1e-12
_BETA_LO = 1e-3  # lower end of every AT-line bracket


class Verdict(str, enum.Enum):
    RS_CONSISTENT = "RS-consistent"
    RSB_CERTIFIED = "RSB-certified"
    INDETERMINATE = "indeterminate"

    def __str__(self) -> str:  # plain value in CSV/JSON output
        return self.value


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


@dataclass(frozen=True)
class ATReport:
    """Everything the symmetry-breaking test at one (beta, h) produced."""

    beta: float
    h: float
    gamma: np.ndarray
    stability: np.ndarray  # K = 2 beta^2 D G D - D
    hessian: np.ndarray  # H = beta^2 L K L
    thresholds: Thresholds
    verdict: Verdict
    witness_x: Optional[np.ndarray]
    solution: RSSolution

    @property
    def beta2_m(self) -> float:
        return self.thresholds.beta2_m


def quartic_susceptibility(spec: ModelSpec, tf: TempField, sol: RSSolution, rule: QuadRule) -> np.ndarray:
    """gamma_s = lam_s E sech^4(beta eta sqrt(C_s) + h) at the critical point."""
    if not sol.converged:
        raise ValueError("quartic susceptibility requires a converged solution")
    return spec.lam * cavity_expect(sech4, rule, tf.beta, sol.coupling, tf.h)


def stability_matrices(spec: ModelSpec, tf: TempField, gamma) -> tuple[np.ndarray, np.ndarray]:
    """(K, H) with K = 2 beta^2 D G D - D and H = beta^2 L K L; any M."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (spec.m,):
        raise ValueError("gamma must have one entry per species")
    if (gamma <= 0).any():
        raise ValueError("gamma entries must be positive")
    d = spec.delta2
    k = 2.0 * tf.beta ** 2 * (d * gamma) @ d - d
    k = 0.5 * (k + k.T)  # symmetric in exact arithmetic; enforce it
    h = tf.beta ** 2 * k * np.outer(spec.lam, spec.lam)
    return k, h


def two_species_thresholds(spec: ModelSpec, gamma) -> Thresholds:
    """Closed-form thresholds for M = 2 with unit cross variance.

    With a unit variance product (the classical reduction) the upper
    threshold degenerates to infinity and beta2_v = beta2_m.
    """
    beta2_m, beta2_M = stability_window(spec, gamma)
    d11, d22 = spec.delta2[0, 0], spec.delta2[1, 1]
    g1, g2 = float(gamma[0]), float(gamma[1])
    return Thresholds(
        beta2_u=d11 / (2.0 * (g1 * d11 * d11 + g2)),
        beta2_t=d22 / (2.0 * (g1 + g2 * d22 * d22)),
        beta2_v=1.0 / (2.0 * (g1 * d11 + g2 * d22)),
        beta2_m=beta2_m,
        beta2_M=beta2_M,
    )


def _check_ordering(spec: ModelSpec, th: Thresholds) -> None:
    # Strict ordering is guaranteed when the variance product exceeds 1; at the
    # classical boundary (product exactly 1) beta2_v = beta2_m and beta2_M = inf.
    fuzz = 1.0 + 1e-12
    lo, hi = min(th.beta2_u, th.beta2_t), max(th.beta2_u, th.beta2_t)
    ok = (
        0.0 < th.beta2_v <= th.beta2_m * fuzz
        and th.beta2_m <= lo * fuzz
        and hi <= th.beta2_M * fuzz
    )
    if spec.delta2[0, 0] * spec.delta2[1, 1] > 1.0 + 1e-12:
        ok = ok and th.beta2_v < th.beta2_m < lo and hi < th.beta2_M
    if not ok:
        raise InternalInconsistency(f"threshold ordering violated: {th}")


def positivity_witness(k_matrix) -> Optional[np.ndarray]:
    """Nonnegative direction x with x' K x > 0 for a 2 x 2 K, or None if none exists.

    Follows the exact case split on the entries (u, v, t): a coordinate axis
    when a diagonal entry is positive, otherwise the strictly positive pair
    (sqrt(-t), sqrt(-u)) when sqrt(ut) < v.  Every candidate is verified
    numerically before being returned.  Raises Unsupported for M != 2.
    """
    k = np.asarray(k_matrix, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("expected a square matrix")
    if k.shape[0] != 2:
        raise Unsupported("the positivity witness is defined for two species only")
    norm = float(np.linalg.norm(k, 2))
    if norm == 0.0 or not np.isfinite(norm):
        return None
    if np.abs(k - k.T).max() > 1e-12 * max(1.0, norm):
        raise ValueError("stability matrix must be symmetric")

    u, v, t = k[0, 0], k[0, 1], k[1, 1]
    candidates = []
    if u > 0:
        candidates.append(np.array([1.0, 0.0]))
    if t > 0:
        candidates.append(np.array([0.0, 1.0]))
    if u <= 0 and t <= 0 and math.sqrt(u * t) < v:
        candidates.append(np.array([math.sqrt(-t), math.sqrt(-u)]))
        candidates.append(np.array([1.0, 1.0]))
    for x in candidates:
        x = np.clip(x, 0.0, None)
        if x.max() <= 0.0:
            continue
        x = x / x.max()
        if float(x @ k @ x) > _WITNESS_REL_TOL * norm:
            return x
    return None


def at_verdict(
    spec: ModelSpec,
    tf: TempField,
    rule: QuadRule,
) -> ATReport:
    """Solve the critical point at (beta, h) and classify the phase.

    RSB-certified iff beta^2 exceeds beta2_m (with the positivity witness
    attached), RS-consistent iff it falls below, indeterminate inside a
    +-1e-12 band where float comparison of the strict inequality is
    meaningless.  The sign test and the witness search are cross-checked
    against each other in both directions.
    """
    if tf.h <= 0:
        raise Unsupported("the phase verdict is defined for h > 0")
    sol = solve_fixed_point(spec, tf, rule)
    gamma = quartic_susceptibility(spec, tf, sol, rule)
    thresholds = two_species_thresholds(spec, gamma)
    _check_ordering(spec, thresholds)
    k, h_matrix = stability_matrices(spec, tf, gamma)

    beta2 = tf.beta ** 2
    witness = positivity_witness(k)
    if abs(beta2 - thresholds.beta2_m) <= _VERDICT_BAND:
        verdict, attached = Verdict.INDETERMINATE, None
    elif beta2 > thresholds.beta2_m:
        if witness is None:
            raise InternalInconsistency(
                "beta^2 exceeds beta2_m but no nonnegative positive direction was found"
            )
        verdict, attached = Verdict.RSB_CERTIFIED, witness
    else:
        if witness is not None:
            raise InternalInconsistency(
                "beta^2 is below beta2_m yet a nonnegative positive direction exists"
            )
        verdict, attached = Verdict.RS_CONSISTENT, None

    return ATReport(
        beta=tf.beta,
        h=tf.h,
        gamma=gamma,
        stability=k,
        hessian=h_matrix,
        thresholds=thresholds,
        verdict=verdict,
        witness_x=attached,
        solution=sol,
    )


def at_line_beta(
    spec: ModelSpec,
    h: float,
    rule: QuadRule,
    tol: float = 1e-10,
    beta_max: float = 64.0,
) -> float:
    """Locate the phase boundary as the zero of g(beta) = beta^2 - beta2_m(beta).

    beta2_m depends on beta through the critical point, so the line is found
    pointwise in h by scalar root-finding: g(1e-3) < 0 is checked, the
    upper end is doubled from 1 until g >= 0 (NotConverged past `beta_max`),
    and a bracketed secant search shrinks the bracket to a width of `tol` in
    beta.  Every evaluation of g is one critical-point solve.

    `tol` is the bracket width, not the error in beta_m: at small h the
    solves' own tolerance moves the root more (2.2e-8 at h = 0.005).
    """
    if h <= 0:
        raise Unsupported("the phase boundary is computed for h > 0")

    def gap(beta: float) -> float:
        tf = TempField(beta=beta, h=h)
        sol = solve_fixed_point(spec, tf, rule)
        gamma = quartic_susceptibility(spec, tf, sol, rule)
        return beta * beta - two_species_thresholds(spec, gamma).beta2_m

    lo, g_lo = _BETA_LO, gap(_BETA_LO)
    if g_lo >= 0:
        raise NotConverged(f"no bracket: g({lo}) >= 0")
    hi = min(1.0, beta_max)
    g_hi = gap(hi)
    while g_hi < 0:
        hi *= 2.0
        if hi > beta_max:
            raise NotConverged(f"no bracket: g(beta) < 0 up to beta = {beta_max}")
        g_hi = gap(hi)
    return _illinois(gap, lo, hi, g_lo, g_hi, tol)


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """Root of f on [lo, hi], where f(lo) < 0 <= f(hi), to a bracket width of tol.

    Regula falsi with the Illinois rule: when the same end survives twice in a
    row its stored value is halved, so both ends close in superlinearly.  Each
    trial point is kept tol/2 inside the bracket, so a secant estimate that has
    converged onto the root still moves the far end next to it.
    """
    kept = 0  # +1: hi survived the last step, -1: lo did
    while hi - lo > tol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        f_x = f(x)
        if f_x < 0:
            lo, f_lo = x, f_x
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f_x
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return 0.5 * (lo + hi)
