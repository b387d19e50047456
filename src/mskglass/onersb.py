"""One-step symmetry-breaking functional and the constructive certificate.

The one-step ansatz splits each species overlap into an inner atom q_s, an
outer atom p_s >= q_s and a cluster weight zeta in (0, 1].  Its value, the
k = 1 case of the hierarchical functional in `parisi`, is

    log 2 + sum_s lam_s (1/zeta) E1 log E2 cosh^zeta(Y2_s)
          + (beta^2/2) sum_s lam_s (C1_s(1) - C1_s(p))
          - (beta^2/2) [E(1) - E(p) + zeta (E(p) - E(q))]

with Y1_s = beta eta1 sqrt(C_s(q)) + h and Y2_s = beta eta2
sqrt(C_s(p) - C_s(q)) + Y1_s.  At zeta = 1, and likewise at p = q, the value
collapses to the single-atom functional.

The slope of this functional in zeta at zeta = 1 vanishes with its gradient
at the critical point, and its Hessian there is the closed form carried by
`atline.stability_matrices`.  A direction in which the slope turns positive
yields, for some zeta < 1, a one-step value strictly below the single-atom
one: `certify_rsb` scans for such a point and returns it as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadPoint, BadZeta, CertificateNotFound
from .model import ModelSpec, TempField
from .parisi import ParisiParams, evaluate
from .quadrature import QuadRule
from .rs import rs_functional

_INCREMENT_TOL = 1e-12

DEFAULT_GAP_FLOOR = 1e-10
_NEAR_LINE_MARGIN = 1.05


@dataclass(frozen=True)
class OneRSBPoint:
    """Inner overlap q, outer overlap p >= q and cluster weight zeta.

    p may also be a batch (E x M) of outer overlaps sharing q, and zeta a
    vector of weights; every weight meets every outer overlap.
    """

    q: np.ndarray
    p: np.ndarray
    zeta: float | np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.ndim != 1 or p.ndim not in (1, 2) or p.shape[-1:] != q.shape:
            raise BadPoint("q and p (or each row of p) must be vectors of equal length")
        if ((q < -_INCREMENT_TOL) | (p > 1.0 + _INCREMENT_TOL)).any():
            raise BadPoint("overlaps must lie in [0, 1]")
        if (p - q < -_INCREMENT_TOL).any():
            raise BadPoint("p must dominate q componentwise")
        zeta = np.asarray(self.zeta, dtype=float)
        if zeta.ndim > 1 or not ((zeta > 0.0) & (zeta <= 1.0)).all():
            raise BadZeta(f"zeta must lie in (0, 1], got {self.zeta}")
        q = np.clip(q, 0.0, 1.0)
        p = np.clip(p, 0.0, 1.0)
        for arr in (q, p, zeta):
            arr.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "zeta", zeta if zeta.ndim else float(zeta))


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


def one_rsb_functional(spec: ModelSpec, tf: TempField, pt: OneRSBPoint, rule: QuadRule):
    """Value of the one-step ansatz at (q, p, zeta): the k = 1 functional,
    or its k = 0 collapse at q when zeta = 1.  A batch of p rows and a
    vector zeta give an array indexed (p row, weight), every weight below 1
    evaluated in one call of the recursion."""
    zeta = np.atleast_1d(pt.zeta)
    values = np.empty(pt.p.shape[:-1] + zeta.shape)
    inner = zeta < 1.0
    if not inner.all():
        values[..., ~inner] = evaluate(spec, tf, ParisiParams(zeta=np.zeros(0), q=pt.q[:, None]), rule)
    if inner.any():
        ladder = np.stack([np.broadcast_to(pt.q, pt.p.shape), pt.p], axis=-1)
        values[..., inner] = evaluate(spec, tf, ParisiParams(zeta=zeta[inner, None], q=ladder), rule)
    if not np.ndim(pt.zeta):
        values = values[..., 0]
    return values if values.ndim else float(values)


def default_epsilon_grid() -> np.ndarray:
    return np.geomspace(1e-3, 1e-1, 10)


def default_zeta_grid() -> np.ndarray:
    # geometric in the distance to 1, endpoints 0.5 and 0.99: the certificate
    # lives near zeta = 1, where the slope argument operates
    return 1.0 - np.geomspace(0.5, 0.01, 10)


def certify_rsb(
    spec: ModelSpec,
    tf: TempField,
    report,
    rule: QuadRule,
    eps_grid=None,
    zeta_grid=None,
) -> OneRSBCertificate:
    """Scan (epsilon, zeta) for a one-step value strictly below the single-atom one.

    The report's witness certifies positivity against the stability matrix;
    the slope's curvature is its conjugation by the proportions, so the
    displacement direction is the witness divided componentwise by lam
    (nonnegativity is preserved), normalized to unit max entry.  The
    epsilons whose p stays in [0, 1] are validated together and evaluated
    against the whole zeta grid in one call of the recursion (a zeta
    outside (0, 1] raises BadZeta).  The first point in (epsilon, zeta)
    order with the largest gap above DEFAULT_GAP_FLOOR wins; the floor sits
    above the quadrature noise at the default order.  Raises
    CertificateNotFound when the scan finds nothing; `near_line`
    distinguishes the benign case beta^2 < 1.05 beta2_m, where the
    attainable gap is quadratically small, from a genuine failure.
    """
    from .atline import Verdict  # local import to avoid a module cycle

    if report.verdict != Verdict.RSB_CERTIFIED or report.witness_x is None:
        raise BadPoint("certification requires an RSB-certified report with a witness")
    x = np.asarray(report.witness_x, dtype=float) / spec.lam
    x = x / x.max()
    q_star = report.solution.q_star
    rs_value = rs_functional(spec, tf, q_star, rule)

    eps_grid = default_epsilon_grid() if eps_grid is None else np.array(eps_grid, dtype=float, ndmin=1)
    zeta_grid = default_zeta_grid() if zeta_grid is None else np.array(zeta_grid, dtype=float, ndmin=1)

    best = None
    best_gap = -math.inf
    p = q_star + eps_grid[:, None] * x
    inside = ((p >= 0.0) & (p <= 1.0)).all(axis=1)
    if inside.any() and zeta_grid.size:
        values = one_rsb_functional(spec, tf, OneRSBPoint(q=q_star, p=p[inside], zeta=zeta_grid), rule)
        gaps = rs_value - values
        i, j = np.unravel_index(np.argmax(gaps), gaps.shape)  # first maximum, row-major
        best_gap = float(gaps[i, j])
        best = (float(eps_grid[inside][i]), float(zeta_grid[j]), float(values[i, j]))

    if best is None or best_gap <= DEFAULT_GAP_FLOOR:
        near = tf.beta ** 2 < _NEAR_LINE_MARGIN * report.beta2_m
        raise CertificateNotFound(
            f"no one-step point beats the single-atom value by more than {DEFAULT_GAP_FLOOR:g} "
            f"(best gap {best_gap:.3e}; {'near the phase line, expected' if near else 'unexpected'})",
            best_gap=best_gap,
            near_line=near,
        )
    eps, zeta, value = best
    return OneRSBCertificate(
        epsilon=eps, x=x, zeta=zeta, value=value, rs_value=rs_value, gap=best_gap
    )
