"""Replica-symmetric functional and self-consistency solver.

The single-atom ansatz assigns each species one overlap q_s in [0, 1].  Its
free-energy value is

    log 2 + sum_s lam_s [E log cosh(beta eta sqrt(C_s) + h)
                         + (beta^2/2) (C1_s - C_s)] - (beta^2/2) (E1 - E0)

with C = coupling(q), C1 = coupling(1) and E the scalar contractions: the
k = 0 case of the hierarchical functional, which `rs_functional` evaluates
in closed form (`_mean_log_cosh`), with no Gauss-Hermite rule.  A critical
point solves the self-consistency system

    q_s = T_s(q) = E tanh^2(beta eta sqrt(C_s) + h).

`map_derivatives`, the package's one evaluation of T and of the quartic
susceptibility gamma, gives both and their derivatives in q and beta from
E tanh^2 and the three moments E sech^p, p = 2, 4, 6, of each cavity field,
with no quadrature order to choose: a trapezoid rule in the Gaussian
variable at small cavity scale beta sqrt(C), one on the Fourier side above,
whose error does not grow with the scale, and in the far tail, where gamma
must keep its relative precision, one in the field y = s Z + h, step 0.15,
over a window that (s, h) alone fixes.  The solver takes the plain step
q <- T(q) until the Jacobian J of T has spectral radius below 1, then the
Newton step q - (I - J)^-1 (q - T(q)), clipped to the box, until that
correction, its error estimate, is at most DEFAULT_TOL.  For two species
with delta2 positive definite, or all entries equal, the critical point is
unique whenever h > 0 or beta^2 is below `uniqueness_threshold`, and one
start suffices; elsewhere up to three run, and the functional value is the
minimum over their distinct limits (a heuristic, flagged via
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


_Z_UP_TO = 0.5  # cavity scales summed in z; above, on the Fourier side
_Z = np.linspace(-12.0, 12.0, 81)  # step 0.3
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_Z_WEIGHTS = np.exp(-0.5 * _Z * _Z) * (0.3 / _SQRT_2PI)
_ALIAS = 20.0  # the Fourier rule's aliases lie 8 standard deviations plus this far in y from the field
_TAIL_BELOW = 1e-2  # E sech^4 below which the tail form replaces the Fourier sum
_TAIL_STEP = 0.15
_TOTAL = np.array([2.0, 4.0 / 3.0, 16.0 / 15.0])  # integrals of sech^2, sech^4, sech^6 over the line


def _segments(counts):
    """(first entry of each segment, position of each entry within its segment) for consecutive
    segments of the given lengths: every entry's nodes in one flat array."""
    starts = np.cumsum(counts) - counts
    return starts, np.arange(counts.sum()) - np.repeat(starts, counts)


def _z_moments(s, h):
    """(E tanh^2, E sech^2, E sech^4, E sech^6)(s Z + h) for 0 <= s <= _Z_UP_TO (rows of a 4 x n
    array): the trapezoid rule in z, step 0.3 on [-12, 12].  The poles of tanh and sech lie at
    |Im z| >= pi / (2 s) >= pi, so the rule's error is below 1e-16 relative, and the range covers
    9 standard deviations about the tilted centre z = -p s of E sech^p at large fields.  Every term
    is positive, so the sums keep their relative precision: T is exactly 0 at s = h = 0, where the
    q = 0 fixed point lies.  sech^2 = 4e / (1 + e)^2 with e = exp(-2|y|) keeps its relative
    precision at any field."""
    y = s[:, None] * _Z + h[:, None]
    e = np.exp(-2.0 * np.abs(y))
    f = np.empty((4,) + y.shape)
    np.tanh(y, out=f[0])
    f[0] *= f[0]
    np.multiply(e, (2.0 / (1.0 + e)) ** 2, out=f[1])
    np.multiply(f[1], f[1], out=f[2])
    np.multiply(f[2], f[1], out=f[3])
    f *= _Z_WEIGHTS
    return f.sum(-1)


def _fourier_moments(s, h):
    """E sech^p(s Z + h), p = 2, 4, 6 (rows of a 3 x n array), for s > _Z_UP_TO, by the trapezoid
    rule on

        E sech^p(s Z + h) = (1/pi) int_0^inf f_p(w) cos(w h) exp(-s^2 w^2 / 2) dw,
        f_2 = pi w / sinh(pi w / 2),  f_4 = f_2 (w^2 + 4) / 6,  f_6 = f_4 (w^2 + 16) / 20.

    The integrand decays like exp(-pi w / 2) whatever s, so the rule converges geometrically
    (Trefethen & Weideman, SIAM Review 56, 2014).  Each entry has its own step
    2 pi / (h + 8 s + _ALIAS), which puts the aliases of Poisson summation 8 standard deviations
    plus 20 decay lengths from the field, and its own cutoff 8 / s: absolute error about 4e-16.
    Its nodes depend on its own (s, h) only and its sums run over its own segment, so an entry's
    moments are the same bits in any batch.
    """
    period = h + 8.0 * s + _ALIAS
    step = 2.0 * math.pi / period
    counts = (8.0 / s / step).astype(int)  # at least 10
    starts, k = _segments(counts)
    w = (k + 1.0) * np.repeat(step, counts)
    w2 = w * w
    f2 = np.cos(w * np.repeat(h, counts)) * np.exp(-0.5 * w2 * np.repeat(s * s, counts)) \
        * (math.pi * w / np.sinh(0.5 * math.pi * w))
    f4 = f2 * ((w2 + 4.0) / 6.0)
    terms = np.stack([f2, f4, f4 * ((w2 + 16.0) / 20.0)])
    return (2.0 / period) * (0.5 * _TOTAL[:, None] + np.add.reduceat(terms, starts, axis=1))


def _tail_moments(s, h):
    """E sech^p(s Z + h), p = 2, 4, 6 (rows of a 3 x n array), for s > _Z_UP_TO, to relative precision
    down to the float64 underflow: the trapezoid rule, step 0.15, on sech^p(y) phi((y - h) / s) / s over
    y in [max(-20, max(0, h - 6 s^2) - 9 s), h + min(9 s, 20)].  That integrand is log-concave with
    log-curvature below -1 / s^2 and peaks where y = h - p s^2 tanh y, in [max(0, h - p s^2), h]; it is
    below e^-40 of its peak 9 s beyond it, and below 2^p e^(-20 p) of its value at 0 (at h) below -20
    (above h + 20).  The poles of sech at +-i pi / 2, where the Gaussian grows by at most
    e^(pi^2 / (8 s^2)) < e^5, keep the step's error below 1e-16 relative.  Each term, a power of
    sech^2 = 4 e / (1 + e)^2 (e = exp(-2 |y|)) times the Gaussian, keeps its relative precision until
    it underflows.  The nodes follow from the entry's own (s, h)."""
    lo = np.maximum(-20.0, np.maximum(0.0, h - 6.0 * s * s) - 9.0 * s)
    counts = ((h + np.minimum(9.0 * s, 20.0) - lo) / _TAIL_STEP).astype(int) + 1
    starts, k = _segments(counts)
    y = np.repeat(lo, counts) + _TAIL_STEP * k
    e = np.exp(-2.0 * np.abs(y))
    sech2 = e * (2.0 / (1.0 + e)) ** 2
    t2 = sech2 * np.exp(-0.5 * ((y - np.repeat(h, counts)) / np.repeat(s, counts)) ** 2)
    t4 = t2 * sech2
    return np.add.reduceat(np.stack([t2, t4, t4 * sech2]), starts, axis=1) * (_TAIL_STEP / _SQRT_2PI / s)


def _moments(s, h):
    """(T, m_2, m_4, m_6) = (E tanh^2, E sech^2, E sech^4, E sech^6)(s Z + h), Z standard normal, for
    entries s >= 0 and h >= 0 of equal length: a 4 x n array.  Up to s = _Z_UP_TO the z-side rule
    (`_z_moments`); above it the Fourier-side rule (`_fourier_moments`), exact to about 4e-16
    absolute, with T = 1 - m_2 >= 0.18, and where that leaves E sech^4 below _TAIL_BELOW the trapezoid rule
    in y = s Z + h (`_tail_moments`), step 0.15 on [max(-20, max(0, h - 6 s^2) - 9 s), h + min(9 s, 20)], exact
    to about 1e-14 relative.  Each entry's form and nodes follow from its own (s, h): the same bits in any batch."""
    out = np.empty((4, s.size))
    small = s <= _Z_UP_TO
    if small.any():
        out[:, small] = _z_moments(s[small], h[small])
    bulk = np.flatnonzero(~small)
    if bulk.size:
        out[1:, bulk] = _fourier_moments(s[bulk], h[bulk])
        tail = bulk[out[2, bulk] < _TAIL_BELOW]
        if tail.size:
            out[1:, tail] = _tail_moments(s[tail], h[tail])
        out[0, bulk] = 1.0 - out[1, bulk]
    return out


def map_derivatives(spec: ModelSpec, tf: TempField, q) -> MapDerivatives:
    """T_s = E tanh^2(y_s) and gamma_s = lam_s E sech^4(y_s), y_s = s_s Z + h with s_s^2 = beta^2 C_s(q),
    with their derivatives in q and beta, for each row of q (R x M) at its point of `tf`.

    By Stein's identity, d/d(s^2) E f(s Z + h) = E f''(s Z + h) / 2, so every output is a fixed
    combination of T and m_p = E sech^p(y), p = 2, 4, 6 (`_moments`): gamma = lam m_4,
    dT/d(s^2) = 3 m_4 - 2 m_2 and d m_4 / d(s^2) = 8 m_4 - 10 m_6; then d(s^2)/dC_s = beta^2,
    d(s^2)/dbeta = 2 beta C_s and dC_s/dq_t = 2 delta2_st lam_t.  No Gauss-Hermite rule is
    involved; each row's values follow from its own point and q, the same bits in any batch, and at
    q = 0 and h = 0, T is exactly 0, so that fixed point stays exact.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (tf.beta.size, spec.m):
        raise BadDimension(f"expected q of shape {(tf.beta.size, spec.m)}, one row per point, got {q.shape}")
    beta = tf.beta[:, None]
    c = np.maximum(2.0 * ((q * spec.lam) @ spec.delta2), 0.0)
    t, m2, m4, m6 = _moments((beta * np.sqrt(c)).ravel(), np.repeat(tf.h, spec.m)).reshape(4, *c.shape)
    dt_ds2, dg_ds2 = 3.0 * m4 - 2.0 * m2, spec.lam * (8.0 * m4 - 10.0 * m6)
    b2, db = beta * beta, 2.0 * beta * c
    dc_dq = 2.0 * spec.delta2 * spec.lam
    return MapDerivatives(
        t=t,
        dt_dq=(b2 * dt_ds2)[..., None] * dc_dq,
        dt_dbeta=db * dt_ds2,
        gamma=spec.lam * m4,
        dgamma_dq=(b2 * dg_ds2)[..., None] * dc_dq,
        dgamma_dbeta=db * dg_ds2,
    )


def _mean_log_cosh(s, h):
    """E log cosh(s Z + h) for entries s >= 0 and h >= 0 of equal length: Stein's identity, d/d(s^2) of it
    is E sech^2(s Z + h) / 2, integrated in s^2 under the Fourier form of E sech^2 (f_2 of `_fourier_moments`),

        log cosh h + (1/pi) int_0^inf f_2(w) cos(w h) (1 - exp(-s^2 w^2 / 2)) / w^2 dw,

    by the trapezoid rule at `_fourier_moments`' step out to w = 25, where the integrand (s^2 at 0) is below
    1e-17, with log cosh h = log1p(2 sinh^2(h / 2)) (h - log 2 past 700): within 2 ulp for s, h <= 20.  Each
    entry's nodes follow from its own (s, h) and its sum runs over its own segment: same bits in any batch."""
    period = h + 8.0 * s + _ALIAS
    counts = (25.0 * period / (2.0 * math.pi)).astype(int)
    starts, k = _segments(counts)
    w = (k + 1.0) * np.repeat(2.0 * math.pi / period, counts)
    terms = np.cos(w * np.repeat(h, counts)) * -np.expm1(-0.5 * w * w * np.repeat(s * s, counts)) \
        * (math.pi / (w * np.sinh(0.5 * math.pi * w)))
    log_cosh_h = np.log1p(2.0 * np.sinh(0.5 * np.minimum(h, 700.0)) ** 2) + np.maximum(h - 700.0, 0.0)
    return log_cosh_h + (2.0 / period) * (0.5 * s * s + np.add.reduceat(terms, starts))


def rs_functional(spec: ModelSpec, tf: TempField, q):
    """Free-energy value of the single-atom ansatz, one per row of q (E x M, or one vector for one point)
    at its point of `tf`: the k = 0 functional, in closed form but for `_mean_log_cosh`."""
    q = np.array(q, dtype=float, ndmin=2)
    if q.shape != (tf.beta.size, spec.m):
        raise BadDimension(f"expected q of shape {(tf.beta.size, spec.m)}, one row per point, got {q.shape}")
    if not ((q >= 0.0) & (q <= 1.0)).all():  # NaN fails too
        raise ValueError("overlaps must lie in [0, 1]")
    c, c1, b2 = overlap_contractions(spec, q), overlap_contractions(spec, np.ones(spec.m)), 0.5 * tf.beta**2
    g = _mean_log_cosh((tf.beta[:, None] * np.sqrt(np.maximum(c.species, 0.0))).ravel(), np.repeat(tf.h, spec.m))
    return math.log(2.0) + (g.reshape(q.shape) + b2[:, None] * (c1.species - c.species)) @ spec.lam \
        - b2 * (c1.scalar - c.scalar)


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


def _run(spec, tf, q) -> list:
    """Iterate each row of q (R x M) at its point of `tf` until its Newton correction is at most DEFAULT_TOL;
    apply it to q and, to first order, gamma.  Returns one _Run per row."""
    q = np.array(q, dtype=float, ndmin=2)
    runs, live, points, eye = [None] * len(q), np.arange(len(q)), tf, np.eye(q.shape[1])
    newton, all_newton = np.zeros(len(q), dtype=bool), False  # plain steps until rho(J) first drops below 1
    for it in range(1, DEFAULT_MAX_ITER + 1):
        k = map_derivatives(spec, points, q)
        r, a = q - k.t, eye - k.dt_dq
        step = stacked_solve(a, r)  # infinite where I - J is singular (J has eigenvalue 1)
        error, residual = np.abs(step).max(-1), np.abs(r).max(-1)
        done = error <= DEFAULT_TOL
        stopped = done.nonzero()[0]
        if len(stopped):
            s = step[stopped]
            gamma = k.gamma[stopped] - (k.dgamma_dq[stopped] @ s[..., None])[..., 0]
            for row, *final in zip(live[stopped].tolist(), np.clip(q[stopped] - s, 0.0, 1.0), gamma,
                                   residual[stopped].tolist(), error[stopped].tolist()):
                runs[row] = _Run(*final, it, True)
            if len(stopped) == len(live):
                return runs
            keep = ~done  # drop the rows that stopped
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


def solve_points(spec: ModelSpec, tf: TempField) -> list:
    """Solve the self-consistency system at each point of `tf`: plain steps
    where the map expands, Newton where it contracts.

    Where the critical point is unique one start suffices: the all-ones
    vector for h > 0, where the map contracts for all but the smallest
    fields, and the exact q* = 0 at h = 0.  Elsewhere the zero vector, the
    all-ones vector and the decoupled value tanh^2(h) are each iterated,
    equal ones once; all starts of all points run as one batch (`_run`).  A
    run converges once the Newton correction |(I - J)^-1 (q - T(q))| is at
    most DEFAULT_TOL, and returns the corrected point.  Every distinct limit
    is reported in `candidates`, and `q_star` minimizes `rs_functional` over
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
    runs = _run(spec, TempField(beta=beta[owner], h=h[owner]),
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
            values = rs_functional(spec, TempField(beta=beta[at], h=h[at]), np.array([r.q for r in distinct]))
            win = distinct[int(np.argmin(values))]
        solutions.append((win, distinct))  # an RSSolution below, once every winner's coupling is known
    won = [i for i, solution in enumerate(solutions) if isinstance(solution, tuple)]
    couplings = overlap_contractions(spec, np.reshape([solutions[i][0].q for i in won], (-1, spec.m))).species
    for i, coupling in zip(won, couplings):
        win, distinct = solutions[i]
        solutions[i] = RSSolution(
            q_star=win.q, coupling=coupling, gamma=win.gamma, residual=win.residual,
            error=win.error, iterations=win.iterations, converged=True,
            on_boundary=(win.q <= _BOUNDARY_TOL) | (win.q >= 1.0 - _BOUNDARY_TOL),
            candidates=tuple(r.q for r in distinct), guaranteed_unique=guaranteed[i],
        )
    return solutions
