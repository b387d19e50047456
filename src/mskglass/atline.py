"""de Almeida-Thouless machinery: stability matrices, thresholds, verdicts.

At a converged critical point the second derivative of the symmetry-breaking
slope (the one-step functional's slope in zeta at zeta = 1, see `onersb`)
has the closed form

    H = beta^2 L K L,    K = 2 beta^2 D G D - D,

with D the variance matrix, L = diag(lam) and G = diag(gamma) built from the
species-weighted quartic susceptibility gamma_s = lam_s E sech^4(cavity
field).  A direction x >= 0 with x' K x > 0 certifies that the single-atom
value is not optimal.  For two species with D positive definite, or all
entries equal, the existence of such a direction collapses to the single
inequality beta^2 > beta2_m, one of the five closed-form thresholds of
`model.two_species_thresholds`; the AT line in the (beta, h) plane is the
zero set of beta^2 - beta2_m(beta), located by a bracketed secant search
(Illinois regula falsi).  The matrices are built for any M, but thresholds,
witnesses and verdicts exist only for two species: for three or more no
closed form is known and they raise Unsupported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInconsistency, NotConverged, Unsupported
from .model import ModelSpec, TempField, Thresholds, two_species_standard, two_species_thresholds
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


def _check_ordering(spec: ModelSpec, th: Thresholds) -> None:
    # Strict ordering holds for positive-definite D with a nonzero cross
    # variance.  Its gaps shrink like d12^2 and like the determinant: at
    # d12 = 0 beta2_u and beta2_t meet beta2_m and beta2_M, and in the
    # classical reduction beta2_v = beta2_m and beta2_M = inf.  Near either
    # edge only the ordering up to rounding is checked.
    fuzz = 1.0 + 1e-12
    lo, hi = min(th.beta2_u, th.beta2_t), max(th.beta2_u, th.beta2_t)
    ok = (
        0.0 < th.beta2_v <= th.beta2_m * fuzz
        and th.beta2_m <= lo * fuzz
        and hi <= th.beta2_M * fuzz
    )
    d11, d12, d22 = spec.delta2[0, 0], spec.delta2[0, 1], spec.delta2[1, 1]
    if min(d12 * d12, d11 * d22 - d12 * d12) > 1e-12 * d11 * d22:
        ok = ok and th.beta2_v < th.beta2_m < lo and hi < th.beta2_M
    if not ok:
        raise InternalInconsistency(f"threshold ordering violated: {th}")


def _require_standard(spec: ModelSpec) -> None:
    if not two_species_standard(spec):
        raise Unsupported(
            "verdicts and the phase line require two species with delta2 positive definite "
            "or all entries equal"
        )


def positivity_witness(k_matrix) -> Optional[np.ndarray]:
    """The nonnegative direction maximising x' K x / x' x for a 2 x 2 K,
    scaled to unit max entry, or None when that maximum is not positive.

    When K_12 >= 0, |x|' K |x| >= x' K x for every x, so the maximum over
    the quadrant is lambda_max(K), reached at the absolute value of the top
    eigenvector (Perron-Frobenius).  When K_12 < 0 the cross term only
    lowers the form, so the maximum is the larger diagonal entry, reached
    on its axis.  Raises Unsupported for M != 2.
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

    if k[0, 1] >= 0:
        x = np.abs(np.linalg.eigh(k)[1][:, -1])
    else:
        x = np.eye(2)[np.argmax(np.diag(k))]
    x = x / x.max()
    return x if float(x @ k @ x) > _WITNESS_REL_TOL * norm else None


def at_verdict(
    spec: ModelSpec,
    tf: TempField,
    rule: QuadRule,
) -> ATReport:
    """Solve the critical point at (beta, h) and classify the phase.

    RSB-certified iff beta^2 exceeds beta2_m (with the positivity witness
    attached), RS-consistent iff it falls below, indeterminate inside a
    +-1e-12 band where float comparison of the strict inequality is
    meaningless.  In the standard class D is positive definite, so
    K = S (2 beta^2 S G S - I) S with S = D^(1/2), and by Sylvester's law
    of inertia lambda_max(K) > 0 exactly when beta^2 > beta2_m (in the
    classical reduction K is a multiple of the all-ones matrix, with the
    same sign change).  There K_12 = d12 (2 beta^2 (g1 d11 + g2 d22) - 1)
    >= 0, since beta2_v < beta2_m, so the witness is the Perron vector of K
    (an axis when d12 = 0).  The sign test and the witness are
    cross-checked against each other in both directions.  Raises
    Unsupported outside the two-species standard class and for h = 0.
    """
    _require_standard(spec)
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
    Raises Unsupported outside the two-species standard class and for h = 0.
    """
    _require_standard(spec)
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
