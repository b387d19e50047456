"""Replica-symmetric functional, gradient, and self-consistency solver.

The single-atom ansatz assigns each species one overlap q_s in [0, 1].  Its
free-energy value is

    log 2 + sum_s lam_s [E log cosh(beta eta sqrt(C_s) + h)
                         + (beta^2/2) (C1_s - C_s)] - (beta^2/2) (E1 - E0)

with C = coupling(q), C1 = coupling(1) and E the scalar contractions.  A
critical point solves the self-consistency system

    q_s = E tanh^2(beta eta sqrt(C_s) + h),

which the solver iterates from three starts by the plain step q <- T(q),
clipped to the box; near q* the map contracts (Jacobian spectral radius
below 0.77 on the README phase-diagram grid).  For two species under the
standard normalization the critical point is unique whenever h > 0 or
beta^2 is below the closed-form threshold `uniqueness_threshold`; outside
that regime all distinct limits found are reported and the functional value
is the minimum over them (a heuristic, flagged via `guaranteed_unique`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadDimension, InternalInconsistency, NotConverged
from .model import ModelSpec, TempField, overlap_contractions, stability_window, two_species_standard
from .quadrature import QuadRule, cavity_expect, log_cosh

_LOG2 = math.log(2.0)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 5000
_DISTINCT_TOL = 1e-7
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RSSolution:
    """Converged critical point and solver diagnostics.

    `coupling` is the induced per-species contraction 2 sum_t delta2_st lam_t
    q_t at the fixed point; `candidates` lists every distinct limit the
    multistart found (a single entry whenever uniqueness is guaranteed).
    """

    q_star: np.ndarray
    coupling: np.ndarray
    residual: float
    iterations: int
    converged: bool
    on_boundary: np.ndarray
    candidates: tuple
    guaranteed_unique: bool


def fixed_point_map(spec: ModelSpec, tf: TempField, q, rule: QuadRule) -> np.ndarray:
    """Self-consistency map T_s(q) = E tanh^2(beta eta sqrt(C_s(q)) + h).

    Accepts batched input of shape (..., M).
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != spec.m:
        raise BadDimension(f"expected trailing dimension {spec.m}, got {q.shape}")
    coupling = 2.0 * ((q * spec.lam) @ spec.delta2)
    return cavity_expect(lambda y: np.tanh(y) ** 2, rule, tf.beta, coupling, tf.h)


def rs_functional(spec: ModelSpec, tf: TempField, q, rule: QuadRule) -> float:
    """Free-energy value of the single-atom ansatz at overlap vector q."""
    c_q = overlap_contractions(spec, q)
    c_one = overlap_contractions(spec, np.ones(spec.m))
    expected_log_cosh = cavity_expect(log_cosh, rule, tf.beta, c_q.species, tf.h)
    half_b2 = 0.5 * tf.beta * tf.beta
    per_species = expected_log_cosh + half_b2 * (c_one.species - c_q.species)
    return float(_LOG2 + spec.lam @ per_species - half_b2 * (c_one.scalar - c_q.scalar))


def rs_gradient(spec: ModelSpec, tf: TempField, q, rule: QuadRule) -> np.ndarray:
    """Analytic gradient: beta^2 lam_t sum_s delta2_st lam_s (q_s - T_s(q))."""
    q = np.asarray(q, dtype=float)
    defect = q - fixed_point_map(spec, tf, q, rule)
    return tf.beta ** 2 * spec.lam * (spec.delta2 @ (spec.lam * defect))


def uniqueness_threshold(spec: ModelSpec) -> float:
    """Closed-form beta^2 below which the h = 0 critical point is unique.

    Two species with unit cross variance only.  Returns
    1 / (l1 d11 + l2 d22 + sqrt((l1 d11 - l2 d22)^2 + 4 l1 l2)), the lower
    stability root at gamma = lam.
    """
    return stability_window(spec, spec.lam)[0]


def _uniqueness_guaranteed(spec: ModelSpec, tf: TempField) -> bool:
    return two_species_standard(spec) and (tf.h > 0 or tf.beta ** 2 < uniqueness_threshold(spec))


class _Run(NamedTuple):
    q: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _iterate(spec, tf, rule, q0, tol, max_iter) -> _Run:
    q = np.clip(np.asarray(q0, dtype=float), 0.0, 1.0)
    residual = math.inf
    for it in range(1, max_iter + 1):
        target = fixed_point_map(spec, tf, q, rule)
        residual = float(np.abs(target - q).max())
        if residual < tol:
            return _Run(q, residual, it, True)
        q = np.clip(target, 0.0, 1.0)
    return _Run(q, residual, max_iter, False)


def solve_fixed_point(
    spec: ModelSpec,
    tf: TempField,
    rule: QuadRule,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RSSolution:
    """Multistart fixed-point iteration of the self-consistency system.

    Starts from the zero vector, the all-ones vector and the decoupled value
    tanh^2(h).  Each run steps q <- T(q), clipped to the box, and converges
    when the sup-norm residual |T(q) - q| falls below `tol`.  When the
    uniqueness hypotheses hold, distinct limits raise InternalInconsistency
    (a bug signal); otherwise every distinct limit is reported in
    `candidates` and `q_star` minimizes the functional over them.
    Raises NotConverged when no start converges within `max_iter`.
    """
    m = spec.m
    starts = [np.zeros(m), np.ones(m), np.full(m, math.tanh(tf.h) ** 2)]

    runs = [_iterate(spec, tf, rule, q0, tol, max_iter) for q0 in starts]
    converged = [r for r in runs if r.converged]
    if not converged:
        best = min(runs, key=lambda r: r.residual)
        raise NotConverged(
            f"no start converged within {max_iter} iterations (best residual {best.residual:.3e})",
            last_iterate=best.q,
            residual=best.residual,
            iterations=best.iterations,
        )

    distinct: list[_Run] = []
    for run in converged:
        if all(np.abs(run.q - other.q).max() > _DISTINCT_TOL for other in distinct):
            distinct.append(run)

    guaranteed = _uniqueness_guaranteed(spec, tf)
    if guaranteed and len(distinct) > 1:
        raise InternalInconsistency(
            f"{len(distinct)} distinct limits found although uniqueness is guaranteed"
        )

    winner = min(distinct, key=lambda r: rs_functional(spec, tf, r.q, rule))
    coupling = overlap_contractions(spec, winner.q).species
    on_boundary = (winner.q <= _BOUNDARY_TOL) | (winner.q >= 1.0 - _BOUNDARY_TOL)
    return RSSolution(
        q_star=winner.q,
        coupling=coupling,
        residual=winner.residual,
        iterations=winner.iterations,
        converged=True,
        on_boundary=on_boundary,
        candidates=tuple(r.q for r in distinct),
        guaranteed_unique=guaranteed,
    )
