"""de Almeida-Thouless machinery: stability matrices, thresholds, verdicts.

At a converged critical point the second derivative of the symmetry-breaking
slope (the one-step functional's slope in zeta at zeta = 1, see `onersb`)
has the closed form

    H = beta^2 L K L,    K = 2 beta^2 D G D - D,

with D the variance matrix, L = diag(lam) and G = diag(gamma) built from the
species-weighted quartic susceptibility gamma_s = lam_s E sech^4(cavity
field) that the solver returns.  A direction x >= 0 with x' K x > 0
certifies that the single-atom value is not optimal.  For two species with D
positive definite, or all entries equal, the existence of such a direction
collapses to the single inequality beta^2 > beta2_m, one of the five
closed-form thresholds of `model.two_species_thresholds`; the AT line in the
(beta, h) plane is the zero set of beta^2 - beta2_m(beta), found for all fields
at once (`at_line_betas`) by Newton on (q, beta) in a bisection-safeguarded
bracket from the h = 0 threshold up.  The matrices are built for any M, but
thresholds, witnesses and verdicts exist only for two species: for three or
more no closed form is known and they raise Unsupported.  `at_verdicts` classifies
a batch of points (a phase-diagram row) from one batched solve in one vectorised
pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInconsistency, MskGlassError, NotConverged, Unsupported
from .model import ModelSpec, TempField, Thresholds, _underflow, inverse_beta2_m, two_species_thresholds
from .rs import RSSolution, map_derivatives, solve_points, stacked_solve, uniqueness_threshold

_WITNESS_REL_TOL = 1e-14
_VERDICT_BAND = 1e-12
_LINE_DOUBLINGS = 6  # the upper bracket end stays at most 128 x sqrt(uniqueness_threshold)
_LINE_MAX_STEPS = 200
_LINE_TOL = 1e-10


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


def stability_matrices(spec: ModelSpec, tf: TempField, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (R x M x M) of K = 2 beta^2 D G D - D and H = beta^2 L K L, one per row of gamma (R x M) at its
    point of `tf`; any M."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (tf.beta.size, spec.m):
        raise ValueError("gamma must hold one row per point and one entry per species")
    if (gamma <= 0).any():
        raise ValueError("gamma entries must be positive")
    d, beta2 = spec.delta2, np.float_power(tf.beta, 2.0)[:, None, None]  # libm pow, as float ** 2 is
    k = 2.0 * beta2 * (d * gamma[:, None, :]) @ d - d
    k = 0.5 * (k + k.swapaxes(-1, -2))  # symmetric in exact arithmetic; enforce it
    return k, beta2 * k * np.outer(spec.lam, spec.lam)


def _ordered(spec: ModelSpec, th: Thresholds) -> np.ndarray:
    # Per row of threshold arrays, whether they are ordered.  Strict ordering
    # holds for positive-definite D with a nonzero cross variance.  Its gaps
    # shrink like d12^2 and like the determinant: at d12 = 0 beta2_u and
    # beta2_t meet beta2_m and beta2_M, and in the classical reduction
    # beta2_v = beta2_m and beta2_M = inf.  Near either edge only the ordering
    # up to rounding is checked.  Where gamma is subnormal the thresholds are
    # inf, and equal infinite ones are ordered.  A NaN fails every comparison.
    fuzz = 1.0 + 1e-12
    lo, hi = np.minimum(th.beta2_u, th.beta2_t), np.maximum(th.beta2_u, th.beta2_t)
    pairs = ((th.beta2_v, th.beta2_m), (th.beta2_m, lo), (hi, th.beta2_M))
    ok = (th.beta2_v > 0.0) & np.logical_and.reduce([a <= b * fuzz for a, b in pairs])
    d11, d12, d22 = spec.delta2[0, 0], spec.delta2[0, 1], spec.delta2[1, 1]
    if min(d12 * d12, d11 * d22 - d12 * d12) > 1e-12 * d11 * d22:
        ok &= np.logical_and.reduce([(a < b) | ((a == b) & (b == math.inf)) for a, b in pairs])
    return ok


def _require_standard(spec: ModelSpec) -> None:
    if not spec.standard:
        raise Unsupported(
            "verdicts and the phase line require two species with delta2 positive definite "
            "or all entries equal"
        )


def positivity_witness(k_matrix) -> list:
    """For each K of a stack (R x 2 x 2), K_12 >= 0, the nonnegative direction maximising x' K x / x' x,
    scaled to unit max entry, or None when that maximum is not positive.

    As K_12 >= 0, |x|' K |x| >= x' K x for every x, so the maximum over the quadrant is lambda_max(K),
    reached at the absolute value of the top eigenvector (Perron-Frobenius).  The verdict path meets
    K_12 < 0 only below beta2_v < beta2_m, where K is negative definite and no direction is positive.
    Raises Unsupported for M != 2.
    """
    k = np.asarray(k_matrix, dtype=float)
    if k.ndim != 3 or k.shape[-1] != k.shape[-2]:
        raise ValueError("expected a stack of square matrices")
    if k.shape[-1] != 2:
        raise Unsupported("the positivity witness is defined for two species only")
    valid = np.isfinite(k).all((-2, -1))
    k = np.where(valid[..., None, None], k, 0.0)  # eigh needs finite entries; these rows have no witness
    eigenvalues, vectors = np.linalg.eigh(k)
    norm = np.abs(eigenvalues).max(-1)  # the spectral norm, K being symmetric
    if (np.abs(k[..., 0, 1] - k[..., 1, 0]) > 1e-12 * np.maximum(1.0, norm)).any():
        raise ValueError("stability matrix must be symmetric")
    x = np.abs(vectors[..., -1])
    x /= x.max(-1, keepdims=True)
    valid &= (x[..., None, :] @ k @ x[..., None])[..., 0, 0] > _WITNESS_REL_TOL * norm
    return [xi if ok else None for xi, ok in zip(x, valid)]


def at_verdicts(spec: ModelSpec, tf: TempField) -> list:
    """Solve the critical point at each point of `tf` and classify the phase there.

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
    cross-checked against each other in both directions.  All points are
    solved as one batch (`rs.solve_points`) and classified in one pass: one
    underflow test, threshold call and stack of K, H and witnesses, and the
    ordering, band and sign tests as arrays, read back in one list.  Each gets
    an ATReport, or the MskGlassError its solve or classification raised.
    No quadrature rule is involved: the verdict and beta2_m do not depend on
    one.  Raises Unsupported outside the two-species standard class and where
    h = 0.
    """
    _require_standard(spec)
    if (tf.h <= 0).any():
        raise Unsupported("the phase verdict is defined for h > 0")
    reports = solve_points(spec, tf)
    rows = [i for i, sol in enumerate(reports) if isinstance(sol, RSSolution)]
    gamma = np.reshape([reports[i].gamma for i in rows], (-1, spec.m))
    if not gamma.all():  # one test for the batch; a row whose gamma underflowed to 0 gets that error
        for i, ok in zip(rows, (finite := gamma.all(-1)).tolist()):
            reports[i] = reports[i] if ok else _underflow(reports[i].gamma)
        rows, gamma = [i for i in rows if isinstance(reports[i], RSSolution)], gamma[finite]
    batch, solved = two_species_thresholds(spec, gamma), TempField(beta=tf.beta[rows], h=tf.h[rows])
    k, hessian = stability_matrices(spec, solved, gamma)
    witnesses, b2 = positivity_witness(k), np.float_power(solved.beta, 2.0)
    columns = np.array([solved.beta, solved.h, _ordered(spec, batch), np.abs(b2 - batch.beta2_m) <= _VERDICT_BAND,
                        b2 > batch.beta2_m, *batch]).T.tolist()  # one row per point; the three tests as 1.0 or 0.0
    for j, (i, (beta, h, ordered, band, above, *th)) in enumerate(zip(rows, columns)):
        th, sol, witness = Thresholds._make(th), reports[i], witnesses[j]
        try:
            if not ordered:
                raise InternalInconsistency(f"threshold ordering violated: {Thresholds._make(t[j] for t in batch)}")
            if band:
                verdict, witness = Verdict.INDETERMINATE, None
            elif above:
                if witness is None:
                    raise InternalInconsistency(
                        "beta^2 exceeds beta2_m but no nonnegative positive direction was found")
                verdict = Verdict.RSB_CERTIFIED
            else:
                if witness is not None:
                    raise InternalInconsistency("beta^2 is below beta2_m yet a nonnegative positive direction exists")
                verdict = Verdict.RS_CONSISTENT
            reports[i] = ATReport(beta=beta, h=h, gamma=sol.gamma, stability=k[j],
                                  hessian=hessian[j], thresholds=th, verdict=verdict, witness_x=witness, solution=sol)
        except MskGlassError as exc:
            reports[i] = exc
    return reports


def at_line_betas(spec: ModelSpec, h) -> list:
    """Locate the phase boundary at each field of `h` as the zero of g(beta) = beta^2 - beta2_m(beta).

    gamma_s = lam_s E sech^4 <= lam_s and 1 / beta2_m grows with gamma (`inverse_beta2_m`), so
    g < 0 below b0 = sqrt(uniqueness_threshold): the bracket's lower end needs no solve.  Its
    upper end doubles from 2 b0, one critical-point solve each, until g >= 0 (NotConverged past
    128 b0), and the lower end follows to the last point where g < 0.  Inside, Newton runs on
    (q, beta) for q = T(q; beta), beta^2 / beta2_m(gamma(q; beta)) = 1, with the kernel's
    derivatives, from the upper end.  A step that would leave the bracket or the box, or is not
    below half the step before last, is replaced by a bisection: a solve at the midpoint halves
    the bracket (rtsafe).  Newton stops once its correction is at most _LINE_TOL = 1e-10 in beta
    and in q, and returns the corrected beta, whose error is of the order of that correction
    squared.  T, gamma and their derivatives come from `map_derivatives`, so no quadrature rule is
    built: beta_m is within 1e-11 of an independent root search on adaptive quadrature from
    h = 0.001 to 16, and the line has a bracket up to h = 160 and beyond.

    All fields run as one batch, each with its own bracket, steps and stop, bit-identical to its
    search alone: a round of doublings or bisections is one `solve_points` call, a Newton step
    one kernel call and one stacked solve.  Returns per field beta_m or the MskGlassError its
    search raised; raises Unsupported outside the two-species standard class and where h = 0.
    """
    _require_standard(spec)
    h = np.array(h, dtype=float, ndmin=1)
    if (h <= 0).any():
        raise Unsupported("the phase boundary is computed for h > 0")
    out: list = [None] * h.size  # per field: None while searching, then beta_m or the error
    lo, beta, g, q = np.zeros(h.size), np.zeros(h.size), np.zeros(h.size), np.zeros((h.size, spec.m))
    hi = np.full(h.size, math.sqrt(uniqueness_threshold(spec)))

    def solved(rows):
        """Solve at (beta, h) in `rows` for q* and g; fails the rows whose solve or thresholds raised."""
        if not rows.size:
            return rows
        sols = solve_points(spec, TempField(beta=beta[rows], h=h[rows]))
        for i, sol in zip(rows, sols):
            out[i] = sol if isinstance(sol, MskGlassError) else None if sol.gamma.all() else _underflow(sol.gamma)
        kept = [j for j, i in enumerate(rows) if out[i] is None]
        rows, gamma = rows[kept], np.reshape([sols[j].gamma for j in kept], (-1, spec.m))
        q[rows] = np.reshape([sols[j].q_star for j in kept], (-1, spec.m))
        g[rows] = beta[rows] * beta[rows] - two_species_thresholds(spec, gamma).beta2_m
        return rows

    rows = np.arange(h.size)
    for _ in range(_LINE_DOUBLINGS + 1):
        lo[rows], hi[rows], beta[rows] = hi[rows], 2.0 * hi[rows], 2.0 * hi[rows]
        rows = solved(rows)
        rows = rows[g[rows] < 0]
    for i in rows:
        out[i] = NotConverged(f"no bracket: g(beta) < 0 up to beta = {hi[i]}")
    rows = np.array([i for i, result in enumerate(out) if result is None], dtype=int)
    step_old, step = 2.0 * (hi - lo), 2.0 * (hi - lo)  # from an end, a first step may cross the bracket
    for _ in range(_LINE_MAX_STEPS):
        if not rows.size:
            return out
        k = map_derivatives(spec, TempField(beta=beta[rows], h=h[rows]), q[rows])
        finite = k.gamma.all(-1)
        for i, gamma in zip(rows[~finite], k.gamma[~finite]):
            out[i] = _underflow(gamma)
        rows, k = rows[finite], k._make(f[finite] for f in k)
        b, (inv, grad) = beta[rows], inverse_beta2_m(spec, k.gamma)
        jac = np.zeros((rows.size, 3, 3))
        jac[:, :2, :2], jac[:, :2, 2] = np.eye(2) - k.dt_dq, -k.dt_dbeta
        jac[:, 2, :2] = (b * b)[:, None] * (grad[:, None] @ k.dgamma_dq)[:, 0]
        jac[:, 2, 2] = 2.0 * b * inv + b * b * (grad[:, None] @ k.dgamma_dbeta[..., None])[:, 0, 0]
        d = stacked_solve(jac, np.concatenate([q[rows] - k.t, (b * b * inv - 1.0)[:, None]], axis=1))
        done = np.abs(d).max(-1) <= _LINE_TOL
        for i, value in zip(rows[done], (b - d[:, 2])[done].tolist()):
            out[i] = value
        q_next, b_next = q[rows] - d[:, :2], b - d[:, 2]
        newton = ((lo[rows] < b_next) & (b_next < hi[rows]) & ((q_next >= 0) & (q_next <= 1)).all(-1)
                  & (2.0 * np.abs(d[:, 2]) <= step_old[rows]) & ~done)
        step_old[rows], took, halved = step[rows], rows[newton], rows[~newton & ~done]
        q[took], beta[took], step[took] = q_next[newton], b_next[newton], np.abs(d[newton, 2])
        beta[halved], step[halved] = 0.5 * (lo[halved] + hi[halved]), 0.5 * (hi[halved] - lo[halved])
        halved = solved(halved)
        for i in halved[step[halved] <= _LINE_TOL]:
            out[i] = float(beta[i])
        halved = halved[step[halved] > _LINE_TOL]
        below = g[halved] < 0
        lo[halved[below]], hi[halved[~below]] = beta[halved[below]], beta[halved[~below]]
        rows = np.array([i for i in rows if out[i] is None], dtype=int)
    for i in rows:
        out[i] = NotConverged(f"the phase line at h = {h[i]} took more than {_LINE_MAX_STEPS} steps")
    return out
