"""Replica-symmetric functional and self-consistency solver.

The single-atom ansatz assigns each species one overlap q_s in [0, 1].  Its
free-energy value is

    log 2 + sum_s lam_s [E log cosh(beta eta sqrt(C_s) + h)
                         + (beta^2/2) (C1_s - C_s)] - (beta^2/2) (E1 - E0)

with C = coupling(q), C1 = coupling(1) and E the scalar contractions: the
k = 0 case of the hierarchical functional, which `rs_functional` evaluates
through `parisi.evaluate`.  A critical point solves the self-consistency
system

    q_s = T_s(q) = E tanh^2(beta eta sqrt(C_s) + h).

`map_derivatives`, the package's one evaluation of T and of the quartic
susceptibility gamma, gives both and their derivatives in q and beta from
one pass over the nodes, exact for the discrete sums.  The solver takes the
plain step q <- T(q) until the Jacobian J of T has spectral radius below 1,
then the Newton step q - (I - J)^-1 (q - T(q)), clipped to the box, until
that correction, its error estimate, is at most DEFAULT_TOL.  For two
species with delta2 positive definite, or all entries equal, the critical
point is unique whenever h > 0 or beta^2 is below `uniqueness_threshold`,
and one start suffices; elsewhere up to three run, and the functional
value is the minimum over their distinct limits (a heuristic, flagged via
`guaranteed_unique`).

The kernel and the solver act row by row, each row at its own point of a
`TempField`: `solve_points` iterates every start of every point as one batch.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadDimension, NotConverged
from .model import ModelSpec, TempField, overlap_contractions, two_species_thresholds
from .parisi import ParisiParams, evaluate
from .quadrature import QuadRule

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 5000
_DISTINCT_TOL = 1e-7
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RSSolution:
    """Converged critical point and solver diagnostics.

    `coupling` is 2 sum_t delta2_st lam_t q_t and `gamma` the quartic
    susceptibility at q_star; `error` is the last Newton correction, which
    q_star includes, so its own error is of the order of error^2;
    `candidates` lists every distinct limit the starts reached.
    """

    q_star: np.ndarray
    coupling: np.ndarray
    gamma: np.ndarray
    residual: float
    error: float
    iterations: int
    converged: bool
    on_boundary: np.ndarray
    candidates: tuple
    guaranteed_unique: bool


class MapDerivatives(NamedTuple):
    """T(q) and gamma(q), shape (R, M), their q-derivatives (R, M, M) and beta-derivatives (R, M)."""

    t: np.ndarray
    dt_dq: np.ndarray  # the Jacobian J
    dt_dbeta: np.ndarray
    gamma: np.ndarray
    dgamma_dq: np.ndarray
    dgamma_dbeta: np.ndarray


def map_derivatives(spec: ModelSpec, tf: TempField, q, rule: QuadRule) -> MapDerivatives:
    """T_s = sum_i w_i tanh^2(y_si) and gamma_s = lam_s sum_i w_i sech^4(y_si),
    y_si = beta sqrt(C_s(q)) z_i + h, with their derivatives in q and beta,
    for each row of q (R x M) at its point of `tf`.

    Each derivative is the chain rule on the discrete sum: for f = tanh^2 or
    sech^4, d/dbeta = sqrt(C) sum w f'(y) z and d/dC = beta sum w f'(y) z /
    (2 sqrt C), whose limit at C = 0 is (beta^2/2) f''(h); dC_s/dq_t =
    2 delta2_st lam_t.  sech^2 = 4e / (1 + e)^2 with e = exp(-2|y|) keeps its
    relative precision at any field.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (tf.beta.size, spec.m):
        raise BadDimension(f"expected q of shape {(tf.beta.size, spec.m)}, one row per point, got {q.shape}")
    beta, h = tf.beta[:, None], tf.h[:, None]
    root = np.sqrt(np.maximum(2.0 * ((q * spec.lam) @ spec.delta2), 0.0))
    y = (beta * root)[..., None] * rule.nodes + h[..., None]
    t = np.tanh(y)
    e = np.exp(-2.0 * np.abs(y))
    u = e * (2.0 / (1.0 + e)) ** 2  # sech^2
    tu, wz = t * u, rule.weights * rule.nodes
    f1z, g1z = 2.0 * (tu @ wz), -4.0 * ((tu * u) @ wz)  # sum w f'(y) z for tanh^2, sech^4
    slope = 0.5 * beta / np.where(root > 0, root, math.inf)
    dt_dc, dg_dc = slope * f1z, slope * g1z
    if not root.all():  # the C = 0 limit
        th, eh = np.tanh(h), np.exp(-2.0 * h)
        uh = eh * (2.0 / (1.0 + eh)) ** 2
        dt_dc = np.where(root == 0, beta * beta * uh * (uh - 2.0 * th * th), dt_dc)
        dg_dc = np.where(root == 0, beta * beta * uh * uh * (8.0 * th * th - 2.0 * uh), dg_dc)
    dc_dq = 2.0 * spec.delta2 * spec.lam
    return MapDerivatives(
        t=(t * t) @ rule.weights,
        dt_dq=dt_dc[..., None] * dc_dq,
        dt_dbeta=root * f1z,
        gamma=spec.lam * ((u * u) @ rule.weights),
        dgamma_dq=(spec.lam * dg_dc)[..., None] * dc_dq,
        dgamma_dbeta=spec.lam * root * g1z,
    )


def rs_functional(spec: ModelSpec, tf: TempField, q, rule: QuadRule):
    """Free-energy value of the single-atom ansatz, one per row of q (E x M) at its point of `tf`:
    the k = 0 functional."""
    return evaluate(spec, tf, ParisiParams(zeta=np.zeros(0), q=np.asarray(q, dtype=float)[..., None]), rule)[:, 0]


def uniqueness_threshold(spec: ModelSpec) -> float:
    """Closed-form beta^2 below which the h = 0 critical point is unique:
    beta2_m at gamma = lam.  Two species only."""
    return two_species_thresholds(spec, spec.lam[None]).beta2_m[0]


def stacked_solve(a, r) -> np.ndarray:
    """a^-1 r for each matrix of a stack a (R x n x n) and its row of r (R x n); inf where a is singular."""
    try:
        return np.linalg.solve(a, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step, regular = np.full_like(r, math.inf), np.linalg.det(a) != 0
        step[regular] = np.linalg.solve(a[regular], r[regular, :, None])[..., 0]
        return step


_Run = namedtuple("_Run", "q gamma residual error iterations converged")


def _run(spec, tf, rule, q) -> list:
    """Iterate each row of q (R x M) at its point of `tf` until its Newton correction is at most DEFAULT_TOL;
    apply it to q and, to first order, gamma.  Returns one _Run per row."""
    q = np.array(q, dtype=float, ndmin=2)
    runs, live, points, eye = [None] * len(q), np.arange(len(q)), tf, np.eye(q.shape[1])
    newton, all_newton = np.zeros(len(q), dtype=bool), False  # plain steps until rho(J) first drops below 1
    for it in range(1, DEFAULT_MAX_ITER + 1):
        k = map_derivatives(spec, points, q, rule)
        r, a = q - k.t, eye - k.dt_dq
        step = stacked_solve(a, r)  # infinite where I - J is singular (J has eigenvalue 1)
        error, residual = np.abs(step).max(-1), np.abs(r).max(-1)
        done = error <= DEFAULT_TOL
        stopped = done.nonzero()[0]
        for j in stopped:
            runs[live[j]] = _Run(np.clip(q[j] - step[j], 0.0, 1.0), k.gamma[j] - k.dgamma_dq[j] @ step[j],
                                 float(residual[j]), float(error[j]), it, True)
        if len(stopped) == len(live):
            return runs
        if len(stopped):  # drop the rows that stopped
            keep = ~done
            live, newton, q, step, error, residual = (x[keep] for x in (live, newton, q, step, error, residual))
            k = MapDerivatives(*(f[keep] for f in k))
            points = TempField(beta=tf.beta[live], h=tf.h[live])
        if all_newton:
            q = np.clip(q - step, 0.0, 1.0)
        else:
            newton[~newton] = np.abs(np.linalg.eigvals(k.dt_dq[~newton])).max(-1) < 1.0
            q, all_newton = np.clip(np.where(newton[:, None], q - step, k.t), 0.0, 1.0), newton.all()
    for j, row in enumerate(live):
        runs[row] = _Run(q[j], k.gamma[j], float(residual[j]), float(error[j]), DEFAULT_MAX_ITER, False)
    return runs


def solve_points(spec: ModelSpec, tf: TempField, rule: QuadRule) -> list:
    """Solve the self-consistency system at each point of `tf`: plain steps
    where the map expands, Newton where it contracts.

    Where the critical point is unique one start suffices: the all-ones
    vector for h > 0, where the map contracts for all but the smallest
    fields, and the exact q* = 0 at h = 0.  Elsewhere the zero vector, the
    all-ones vector and the decoupled value tanh^2(h) are each iterated,
    equal ones once; all starts of all points run as one batch (`_run`).  A
    run converges once the Newton correction |(I - J)^-1 (q - T(q))| is at
    most DEFAULT_TOL, and returns the corrected point.  Every distinct limit
    is reported in `candidates`, and `q_star` minimizes the functional over
    them.  Returns per point an RSSolution, or a NotConverged when no start
    converged within DEFAULT_MAX_ITER iterations.
    """
    beta, h = tf.beta, tf.h
    standard = spec.standard
    threshold = uniqueness_threshold(spec) if standard and not h.all() else 0.0
    guaranteed = [standard and (field > 0 or b ** 2 < threshold) for b, field in zip(beta.tolist(), h.tolist())]
    points = [dict.fromkeys(([1.0] if field > 0 else [0.0]) if unique else [0.0, 1.0, math.tanh(field) ** 2])
              for field, unique in zip(h.tolist(), guaranteed)]  # each point's starts
    owner = [i for i, starts in enumerate(points) for _ in starts]
    runs = _run(spec, TempField(beta=beta[owner], h=h[owner]), rule,
                [[start] * spec.m for starts in points for start in starts])

    solutions: list = []
    for i, starts in enumerate(points):
        point_runs, runs = runs[: len(starts)], runs[len(starts) :]
        converged = [r for r in point_runs if r.converged]
        if not converged:
            best = min(point_runs, key=lambda r: r.error)
            solutions.append(NotConverged(
                f"no start converged within {DEFAULT_MAX_ITER} iterations (best error estimate {best.error:.3e})",
                last_iterate=best.q, residual=best.residual, iterations=best.iterations))
            continue
        distinct: list[_Run] = []
        for run in converged:
            if all(np.abs(run.q - other.q).max() > _DISTINCT_TOL for other in distinct):
                distinct.append(run)
        win = distinct[0]
        if len(distinct) > 1:
            at = [i] * len(distinct)
            values = rs_functional(spec, TempField(beta=beta[at], h=h[at]), np.array([r.q for r in distinct]), rule)
            win = distinct[int(np.argmin(values))]
        solutions.append(RSSolution(
            q_star=win.q, coupling=overlap_contractions(spec, win.q).species, gamma=win.gamma, residual=win.residual,
            error=win.error, iterations=win.iterations, converged=True,
            on_boundary=(win.q <= _BOUNDARY_TOL) | (win.q >= 1.0 - _BOUNDARY_TOL),
            candidates=tuple(r.q for r in distinct), guaranteed_unique=guaranteed[i],
        ))
    return solutions
