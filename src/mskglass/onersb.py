"""The constructive one-step symmetry-breaking certificate.

The one-step ansatz splits each species overlap into an inner atom q_s, an
outer atom p_s >= q_s and a cluster weight zeta in (0, 1].  Its value, the
k = 1 case of the hierarchical functional in `parisi`, is

    log 2 + sum_s lam_s (1/zeta) E1 log E2 cosh^zeta(Y2_s)
          + (beta^2/2) sum_s lam_s (C1_s(1) - C1_s(p))
          - (beta^2/2) [E(1) - E(p) + zeta (E(p) - E(q))]

with Y1_s = beta eta1 sqrt(C_s(q)) + h and Y2_s = beta eta2
sqrt(C_s(p) - C_s(q)) + Y1_s.  At zeta = 1, and likewise at p = q, the value
collapses to the single-atom functional.  Both are evaluated by
`parisi.evaluate`; this module only scans for a point below the collapse.

The slope of this functional in zeta at zeta = 1 vanishes with its gradient
at the critical point, and its Hessian there is the closed form carried by
`atline.stability_matrices`.  A direction in which the slope turns positive
yields, for some zeta < 1, a one-step value strictly below the single-atom
one: `certify_points` scans a batch of points for such a point, in one
evaluator call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atline import Verdict
from .errors import BadPoint, CertificateNotFound
from .model import ModelSpec, TempField
from .parisi import ParisiParams, evaluate
from .quadrature import QuadRule
from .rs import rs_functional

DEFAULT_GAP_FLOOR = 1e-10
_NEAR_LINE_MARGIN = 1.05


@dataclass(frozen=True)
class OneRSBCertificate:
    """A witness (epsilon, x, zeta) whose one-step value beats the single-atom one."""

    epsilon: float
    x: np.ndarray
    zeta: float
    value: float
    rs_value: float
    gap: float

    def __post_init__(self):
        if not self.gap > 0:
            raise BadPoint("a certificate requires a strictly positive gap")


EPSILON_GRID = np.geomspace(1e-3, 1e-1, 10)
# geometric in the distance to 1, endpoints 0.5 and 0.99: the certificate
# lives near zeta = 1, where the slope argument operates
ZETA_GRID = 1.0 - np.geomspace(0.5, 0.01, 10)
EPSILON_GRID.flags.writeable = ZETA_GRID.flags.writeable = False


def certify_points(spec: ModelSpec, tf: TempField, reports, rule: QuadRule) -> list:
    """Scan (epsilon, zeta) at each point of `tf` for a one-step value strictly below the single-atom one.

    The report's witness certifies positivity against the stability matrix;
    the slope's curvature is its conjugation by the proportions, so the
    displacement direction is the witness divided componentwise by lam
    (nonnegativity is preserved), normalized to unit max entry.  The
    epsilons of EPSILON_GRID whose p stays in [0, 1] give each point a batch
    of ladders (q*, p); the ladders of all points, each at its own (beta, h),
    are evaluated against ZETA_GRID in one call of `parisi.evaluate`, and
    the single-atom values in one more.  The first point in (epsilon,
    zeta) order with the largest gap above DEFAULT_GAP_FLOOR wins; the floor
    sits above the quadrature noise at the default order.  Returns per point
    a OneRSBCertificate, or a CertificateNotFound when the scan found
    nothing; its `near_line` distinguishes the benign case beta^2 < 1.05
    beta2_m, where the attainable gap is quadratically small, from a genuine
    failure.
    """
    if any(r.verdict != Verdict.RSB_CERTIFIED or r.witness_x is None for r in reports):
        raise BadPoint("certification requires an RSB-certified report with a witness")
    x = np.array([r.witness_x for r in reports], dtype=float).reshape(-1, spec.m) / spec.lam
    x = x / x.max(axis=-1, keepdims=True)
    q_star = np.array([r.solution.q_star for r in reports]).reshape(x.shape)
    rs_values = rs_functional(spec, tf, q_star, rule)

    p = q_star[:, None] + EPSILON_GRID[:, None] * x[:, None]  # (points, epsilons, M)
    point, eps = np.nonzero(((p >= 0.0) & (p <= 1.0)).all(axis=-1))
    values = np.empty((point.size, ZETA_GRID.size))
    if values.size:
        params = ParisiParams(zeta=ZETA_GRID[:, None], q=np.stack([q_star[point], p[point, eps]], axis=-1))
        values = evaluate(spec, TempField(beta=tf.beta[point], h=tf.h[point]), params, rule)

    certificates: list = []
    bounds = np.searchsorted(point, np.arange(len(reports) + 1)).tolist()  # point is sorted: one block per point
    for n, report in enumerate(reports):
        lo, hi = bounds[n], bounds[n + 1]
        best, best_gap = None, -math.inf
        if hi > lo:
            gaps = rs_values[n] - values[lo:hi]
            i, j = np.unravel_index(np.argmax(gaps), gaps.shape)  # first maximum, row-major
            best_gap = float(gaps[i, j])
            best = dict(epsilon=float(EPSILON_GRID[eps[lo + i]]), zeta=float(ZETA_GRID[j]),
                        value=float(values[lo + i, j]))
        if best is None or best_gap <= DEFAULT_GAP_FLOOR:
            near = bool(tf.beta[n] ** 2 < _NEAR_LINE_MARGIN * report.beta2_m)
            certificates.append(CertificateNotFound(
                f"no one-step point beats the single-atom value by more than {DEFAULT_GAP_FLOOR:g} "
                f"(best gap {best_gap:.3e}; {'near the phase line, expected' if near else 'unexpected'})",
                best_gap=best_gap, near_line=near))
        else:
            certificates.append(OneRSBCertificate(x=x[n], rs_value=float(rs_values[n]), gap=best_gap, **best))
    return certificates
