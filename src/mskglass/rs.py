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
that correction, its error estimate, is at most tol.  For two species with
delta2 positive definite, or all entries equal, the critical point is
unique whenever h > 0 or beta^2 is below `uniqueness_threshold`, and one
start suffices; elsewhere three starts run, and the functional value is the
minimum over their distinct limits (a heuristic, flagged via
`guaranteed_unique`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadDimension, NotConverged
from .model import ModelSpec, TempField, overlap_contractions, two_species_standard, two_species_thresholds
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
    """T(q) and gamma(q), shape (..., M), their q-derivatives (..., M, M) and beta-derivatives."""

    t: np.ndarray
    dt_dq: np.ndarray  # the Jacobian J
    dt_dbeta: np.ndarray
    gamma: np.ndarray
    dgamma_dq: np.ndarray
    dgamma_dbeta: np.ndarray


def map_derivatives(spec: ModelSpec, tf: TempField, q, rule: QuadRule) -> MapDerivatives:
    """T_s = sum_i w_i tanh^2(y_si) and gamma_s = lam_s sum_i w_i sech^4(y_si),
    y_si = beta sqrt(C_s(q)) z_i + h, with their derivatives in q and beta.

    Each derivative is the chain rule on the discrete sum: for f = tanh^2 or
    sech^4, d/dbeta = sqrt(C) sum w f'(y) z and d/dC = beta sum w f'(y) z /
    (2 sqrt C), whose limit at C = 0 is (beta^2/2) f''(h); dC_s/dq_t =
    2 delta2_st lam_t.  sech^2 = 4e / (1 + e)^2 with e = exp(-2|y|) keeps its
    relative precision at any field.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.m:
        raise BadDimension(f"expected trailing dimension {spec.m}, got {q.shape}")
    beta, h = tf.beta, tf.h
    root = np.sqrt(np.maximum(2.0 * ((q * spec.lam) @ spec.delta2), 0.0))
    y = (beta * root)[..., None] * rule.nodes + h
    t = np.tanh(y)
    e = np.exp(-2.0 * np.abs(y))
    u = e * (2.0 / (1.0 + e)) ** 2  # sech^2
    tu, wz = t * u, rule.weights * rule.nodes
    f1z, g1z = 2.0 * (tu @ wz), -4.0 * ((tu * u) @ wz)  # sum w f'(y) z for tanh^2, sech^4
    slope = 0.5 * beta / np.where(root > 0, root, math.inf)
    dt_dc, dg_dc = slope * f1z, slope * g1z
    if not root.all():  # the C = 0 limit
        th, eh = math.tanh(h), math.exp(-2.0 * h)
        uh = eh * (2.0 / (1.0 + eh)) ** 2
        dt_dc[root == 0] = beta * beta * uh * (uh - 2.0 * th * th)
        dg_dc[root == 0] = beta * beta * uh * uh * (8.0 * th * th - 2.0 * uh)
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
    """Free-energy value of the single-atom ansatz at overlap vector q: a
    float, or one value per row of a batch (E x M); the k = 0 functional."""
    return evaluate(spec, tf, ParisiParams(zeta=np.zeros(0), q=np.asarray(q, dtype=float)[..., None]), rule)


def uniqueness_threshold(spec: ModelSpec) -> float:
    """Closed-form beta^2 below which the h = 0 critical point is unique:
    beta2_m at gamma = lam.  Two species only."""
    return two_species_thresholds(spec, spec.lam).beta2_m


def _uniqueness_guaranteed(spec: ModelSpec, tf: TempField) -> bool:
    return two_species_standard(spec) and (tf.h > 0 or tf.beta ** 2 < uniqueness_threshold(spec))


_Run = namedtuple("_Run", "q gamma residual error iterations converged")


def _run(spec, tf, rule, q, tol, max_iter) -> _Run:
    """Iterate from q until the Newton correction is at most tol; apply it to q and, to first order, gamma."""
    newton = False  # plain steps until the spectral radius of J first drops below 1
    for it in range(1, max_iter + 1):
        k = map_derivatives(spec, tf, q, rule)
        r = q - k.t
        try:
            step = np.linalg.solve(np.eye(len(q)) - k.dt_dq, r)
        except np.linalg.LinAlgError:  # I - J singular: J has eigenvalue 1
            step = np.full_like(q, math.inf)
        error = float(np.abs(step).max())
        residual = float(np.abs(r).max())
        if error <= tol:
            return _Run(np.clip(q - step, 0.0, 1.0), k.gamma - k.dgamma_dq @ step, residual, error, it, True)
        newton = newton or np.abs(np.linalg.eigvals(k.dt_dq)).max() < 1.0
        q = np.clip(q - step if newton else k.t, 0.0, 1.0)
    return _Run(q, k.gamma, residual, error, max_iter, False)


def solve_fixed_point(
    spec: ModelSpec, tf: TempField, rule: QuadRule, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> RSSolution:
    """Solve the self-consistency system: plain steps where the map expands,
    Newton where it contracts.

    Where the critical point is unique one start suffices: the all-ones
    vector for h > 0, where the map contracts for all but the smallest
    fields, and the exact q* = 0 at h = 0.  Elsewhere the zero vector, the
    all-ones vector and the decoupled value tanh^2(h) are each iterated.  A
    run converges once the Newton correction |(I - J)^-1 (q - T(q))| is at
    most `tol`, and returns the corrected point.  Every distinct limit is
    reported in `candidates`, and `q_star` minimizes the functional over them.
    Raises NotConverged when no start converges within `max_iter` iterations.
    """
    guaranteed = _uniqueness_guaranteed(spec, tf)
    starts = [0.0, 1.0, math.tanh(tf.h) ** 2]
    if guaranteed:
        starts = starts[1:2] if tf.h > 0 else starts[:1]
    runs = [_run(spec, tf, rule, np.full(spec.m, start), tol, max_iter) for start in starts]
    converged = [r for r in runs if r.converged]
    if not converged:
        best = min(runs, key=lambda r: r.error)
        raise NotConverged(f"no start converged within {max_iter} iterations (best error estimate {best.error:.3e})",
                           last_iterate=best.q, residual=best.residual, iterations=best.iterations)

    distinct: list[_Run] = []
    for run in converged:
        if all(np.abs(run.q - other.q).max() > _DISTINCT_TOL for other in distinct):
            distinct.append(run)

    win = distinct[0]
    if len(distinct) > 1:
        win = distinct[int(np.argmin(rs_functional(spec, tf, np.array([r.q for r in distinct]), rule)))]
    return RSSolution(
        q_star=win.q, coupling=overlap_contractions(spec, win.q).species, gamma=win.gamma, residual=win.residual,
        error=win.error, iterations=win.iterations, converged=True,
        on_boundary=(win.q <= _BOUNDARY_TOL) | (win.q >= 1.0 - _BOUNDARY_TOL),
        candidates=tuple(r.q for r in distinct), guaranteed_unique=guaranteed,
    )
