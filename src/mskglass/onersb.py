"""One-step symmetry-breaking certificates.

The one-step ansatz splits each species overlap into an inner atom q_s, an
outer atom p_s >= q_s and a cluster weight zeta in (0, 1].  Its value P, the
k = 1 case of the hierarchical functional in `parisi`, is

    log 2 + sum_s lam_s (1/zeta) E1 log E2 cosh^zeta(Y2_s)
          + (beta^2/2) sum_s lam_s (C1_s(1) - C1_s(p))
          - (beta^2/2) [E(1) - E(p) + zeta (E(p) - E(q))]

with Y1_s = beta eta1 sqrt(C_s(q)) + h and Y2_s = beta eta2
sqrt(C_s(p) - C_s(q)) + Y1_s.  At zeta = 1, and likewise at p = q, it
collapses to the single-atom value.  Its slope in zeta at zeta = 1 vanishes
with its gradient at the critical point, and its Hessian there is the closed
form carried by `atline.stability_matrices`.  Where the slope along the
witness turns positive, P falls below the single-atom value as zeta leaves 1:
`certify_slopes` certifies RSB so, one Gaussian expectation per point and
epsilon at the inner order its noise scale needs, and `certify_points` scans
(epsilon, zeta) with `parisi.evaluate` for a one-step point below the collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atline import Verdict
from .errors import BadPoint, CertificateNotFound
from .model import ModelSpec, TempField, overlap_contractions
from .parisi import ParisiParams, evaluate
from .quadrature import QuadRule, gauss_hermite
from .rs import _segments

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
SLOPE_EPSILONS = 10.0 ** (-2.0 - np.arange(13) / 4.0)
EPSILON_GRID.flags.writeable = ZETA_GRID.flags.writeable = SLOPE_EPSILONS.flags.writeable = False
_SLOPE_CHUNK = 10_000  # outer x inner node pairs per chunk, give or take one row
# E2 takes _ORDERS[i] for the first limit i its noise scale is within, else 61, whose reach `_slopes` states
_ORDERS = (8, 16, 32, 48, 61)
_SCALE_LIMITS = (0.09, 0.235, 0.41, 0.54)


def _displacements(spec: ModelSpec, reports) -> tuple:
    """(x, q*), points x M each: each report's displacement direction and critical point.  The witness
    certifies positivity against the stability matrix; the slope's curvature is its conjugation by the
    proportions, so x is the witness divided by lam (nonnegativity is preserved) at unit max entry."""
    if any(r.verdict != Verdict.RSB_CERTIFIED or r.witness_x is None for r in reports):
        raise BadPoint("certification requires an RSB-certified report with a witness")
    x = np.array([r.witness_x for r in reports], dtype=float).reshape(-1, spec.m) / spec.lam
    x = x / x.max(axis=-1, keepdims=True)
    return x, np.array([r.solution.q_star for r in reports]).reshape(x.shape)


def _slopes(spec: ModelSpec, beta, h, q, p) -> tuple:
    """(S, error), arrays (R,): the one-step slope dP/dzeta at zeta = 1 at each ladder (q, p), R x M each, and
    point (beta, h).  With s1 = beta sqrt(C_s(q)), a^2 = beta^2 (C_s(p) - C_s(q)), y = s1 Z1 + h, t = a Z2 and
    u = 2 sinh^2(t/2) + sinh t tanh y, so that 1 + u = cosh(y + t) / cosh y,

        S = sum_s lam_s (E1[E2[(1 + u) log1p u] / E2[1 + u]] - a^2/2) - (beta^2/2) (E(p) - E(q)).

    E2 takes the least Gauss-Hermite order of _ORDERS whose limit covers a, else 61; its integrand is analytic
    for |Im Z2| < pi / (2a), so up to its limit each order is within 1e-16 of order 61, and order 61 within
    1e-15 of the trapezoid oracle up to a = 1.0 at q* >= 0.1 (3.9e-16 measured) and up to 0.7 at q* = 0.
    E2[1 + u] = E2 cosh t + tanh y E2 sinh t, and u (rounded to about 2^-53 cosh t) is kept above -1 + 2^-53.
    E1 is the trapezoid rule on |Z1| <= 9, step min(0.3, 0.15 / s1), even steps a side; its integrand is
    analytic for |Im Z1| < pi / (2 s1), so its error is about e^(-pi^2 / (s1 step)) <= e^-65, e^-32 on every
    other node (Trefethen & Weideman, SIAM Review 56, 2014).  The error estimate is their difference plus
    2^-52 (n sum|terms| of n outer terms, and C and E, whose rounding a^2 and E(p) - E(q) carry).  Nodes
    follow from the row alone: same bits in any batch.
    """
    cq, cp = overlap_contractions(spec, q), overlap_contractions(spec, p)
    b2 = (beta * beta)[:, None]
    s1 = np.sqrt(b2 * np.maximum(cq.species, 0.0)).ravel()
    a2 = (b2 * np.maximum(cp.species - cq.species, 0.0)).ravel()
    half = 2 * np.ceil(30.0 * np.maximum(s1, 0.5)).astype(int)  # steps a side, 9 / step made even
    counts, hs = 2 * half + 1, np.repeat(h, spec.m)
    orders = np.array(_ORDERS)[np.searchsorted(_SCALE_LIMITS, np.sqrt(a2))]
    sums = np.empty((3, s1.size))  # per species row: E1 g by the fine and the coarse rule, and E1 |g|
    for order in sorted(set(orders.tolist())):  # np.unique imports numpy.ma: a quarter of a cold phase diagram
        inner, rows = gauss_hermite(order), np.flatnonzero(orders == order)
        for rc in np.split(rows, np.flatnonzero(np.diff(np.cumsum(counts[rows] * order) // _SLOPE_CHUNK)) + 1):
            (starts, j), n = _segments(counts[rc]), np.repeat(np.arange(rc.size), counts[rc])
            step = 9.0 / half[rc]
            z = (j - half[rc][n]) * step[n]
            tanh_y = np.tanh(s1[rc][n] * z + hs[rc][n])
            t = np.sqrt(a2[rc])[:, None] * inner.nodes
            cosh_m1, sinh_t = 2.0 * np.sinh(0.5 * t) ** 2, np.sinh(t)
            mean_one = ((1.0 + cosh_m1) * inner.weights).sum(-1)[n] + (sinh_t * inner.weights).sum(-1)[n] * tanh_y
            u = np.maximum(cosh_m1[n] + sinh_t[n] * tanh_y[:, None], -1.0 + 2.0**-53)
            wg = np.einsum("ij,ij,j->i", 1.0 + u, np.log1p(u), inner.weights) / mean_one \
                * np.exp(-0.5 * z * z) * (step / math.sqrt(2.0 * math.pi))[n]
            sums[:, rc] = np.add.reduceat([wg, np.where(j % 2 == 0, 2.0 * wg, 0.0), np.abs(wg)], starts, axis=1)
    lam, scalar = np.tile(spec.lam, len(beta)), 0.5 * b2[:, 0] * (cp.scalar - cq.scalar)
    fine, coarse = (lam * (sums[:2] - 0.5 * a2)).reshape(2, -1, spec.m).sum(-1) - scalar
    charge = ((lam * (counts * sums[2] + a2)).reshape(-1, spec.m).sum(-1)
              + b2[:, 0] * (cp.scalar + cq.scalar + (spec.lam * (cp.species + cq.species)).sum(-1)))
    return fine, np.abs(fine - coarse) + 2.0**-52 * charge


def certify_slopes(spec: ModelSpec, tf: TempField, reports) -> tuple:
    """(epsilon, slope, error) per point of `tf`, arrays, NaN where none is found: the first epsilon of
    SLOPE_EPSILONS (1e-2 down to 1e-5; near the line the best epsilon is about the margin) whose
    p = q* + epsilon x (`_displacements`) lies in [0, 1] and whose slope (`_slopes`) exceeds twice its
    error.  A positive slope means the one-step value falls below the single-atom one as zeta leaves 1,
    which certifies RSB.  The first epsilon of every point is one `_slopes` call, the rest of the points
    it leaves one more.
    """
    x, q_star = _displacements(spec, reports)
    p = q_star[:, None] + SLOPE_EPSILONS[:, None] * x[:, None]  # (points, epsilons, M)
    inside = ((p >= 0.0) & (p <= 1.0)).all(axis=-1)
    out = np.full((3, len(reports)), math.nan)
    for scan in (slice(0, 1), slice(1, None)):
        point, k = np.nonzero(inside[:, scan] & np.isnan(out[1])[:, None])
        k += scan.start
        if point.size:
            slope, error = _slopes(spec, tf.beta[point], tf.h[point], q_star[point], p[point, k])
            hit = np.flatnonzero(slope > 2.0 * error)
            # point comes from np.nonzero, so it is sorted and runs in (point, epsilon) order: keep first hits
            at = hit[np.flatnonzero(np.diff(point[hit], prepend=-1))]
            out[:, point[at]] = SLOPE_EPSILONS[k[at]], slope[at], error[at]
    return tuple(out)


def certify_points(spec: ModelSpec, tf: TempField, reports, rule: QuadRule) -> list:
    """Scan (epsilon, zeta) at each point of `tf` for a one-step value strictly below the single-atom one.

    The epsilons of 0 and EPSILON_GRID whose p = q* + epsilon x (`_displacements`) stays in [0, 1] give each
    point a batch of ladders (q*, p); the ladders of all points, each at its own (beta, h), are evaluated against
    ZETA_GRID in one call of `parisi.evaluate`.  At epsilon = 0 the value is the single-atom one under the same
    rule, whose error the gaps then cancel.  The first point in (epsilon, zeta) order with the largest gap above
    DEFAULT_GAP_FLOOR wins; the floor sits above the quadrature noise at the default order.  Returns per point a
    OneRSBCertificate, or a CertificateNotFound when the scan found nothing; its `near_line` tells the benign
    case beta^2 < 1.05 beta2_m, where the attainable gap is quadratically small, from a genuine failure.
    """
    x, q_star = _displacements(spec, reports)
    epsilons = np.concatenate([[0.0], EPSILON_GRID])
    p = q_star[:, None] + epsilons[:, None] * x[:, None]  # (points, epsilons, M)
    point, eps = np.nonzero(((p >= 0.0) & (p <= 1.0)).all(axis=-1))
    params = ParisiParams(zeta=ZETA_GRID[:, None], q=np.stack([q_star[point], p[point, eps]], axis=-1))
    values = evaluate(spec, TempField(beta=tf.beta[point], h=tf.h[point]), params, rule)

    certificates: list = []
    bounds = np.searchsorted(point, np.arange(len(reports) + 1)).tolist()  # point is sorted: one block per point
    for n, report in enumerate(reports):
        lo, hi = bounds[n], bounds[n + 1]  # row lo is epsilon = 0: the single-atom value in every column
        rs_value, best, best_gap = values[lo, 0], None, -math.inf
        if hi > lo + 1:
            gaps = rs_value - values[lo + 1 : hi]
            i, j = np.unravel_index(np.argmax(gaps), gaps.shape)  # first maximum, row-major
            best_gap = float(gaps[i, j])
            best = dict(epsilon=float(epsilons[eps[lo + 1 + i]]), zeta=float(ZETA_GRID[j]),
                        value=float(values[lo + 1 + i, j]))
        if best is None or best_gap <= DEFAULT_GAP_FLOOR:
            near = bool(tf.beta[n] ** 2 < _NEAR_LINE_MARGIN * report.beta2_m)
            certificates.append(CertificateNotFound(
                f"no one-step point beats the single-atom value by more than {DEFAULT_GAP_FLOOR:g} "
                f"(best gap {best_gap:.3e}; {'near the phase line, expected' if near else 'unexpected'})",
                best_gap=best_gap, near_line=near))
        else:
            certificates.append(OneRSBCertificate(x=x[n], rs_value=float(rs_value), gap=best_gap, **best))
    return certificates
