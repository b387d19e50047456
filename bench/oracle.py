"""Independent references for the benchmark's correctness checks.

Nothing here imports mskglass or shares its Gauss-Hermite path:

* Gaussian expectations use the trapezoid rule on a uniform grid, which
  converges geometrically for integrands analytic in a strip (the cavity
  integrands tanh^2, sech^4 and log cosh are).  Step 0.05 on [-10, 10] for
  one-level expectations, step 0.1 on [-9, 9] per level for nested ones;
  both put the discretisation error far below 1e-12 for beta * scale <= 3.
* The replica-symmetric overlaps come from scalar bisection on the
  eliminated two-species system (the construction of tests/oracles.py,
  vectorised over points), to 64 halvings.
* beta2_m is re-derived as 1 / (2 lambda_max(G^1/2 D G^1/2)), an eigenvalue
  route rather than the package's closed-form root; beta_m(h) is the brentq
  root of beta^2 - beta2_m(beta).
* The k-level functional (k <= 2, which covers the single-atom and one-step
  values) integrates the innermost zeta = 1 level in closed form,
  log E cosh(y + s eta) = log cosh y + s^2 / 2, and the others by nested
  trapezoid sums in the log domain.
* Exact enumeration regenerates the disorder with splitmix64 in Python ints,
  as specified in the docstring of mskglass/simulate.py, and sums all 2^N
  configurations with a split point different from the package's.

REF_TOL is the accuracy claimed for every number produced here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

REF_TOL = 1e-9

DELTA2 = np.array([[1.5, 1.0], [1.0, 1.2]])
LAM = np.array([0.6, 0.4])


def normal_rule(step: float, half_width: float):
    """Trapezoid nodes and weights for E f(eta), eta ~ N(0, 1)."""
    z = np.arange(-half_width, half_width + 0.5 * step, step)
    return z, step * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


Z1, W1 = normal_rule(0.05, 10.0)
Z2, W2 = normal_rule(0.1, 9.0)
LOG_W2 = np.log(W2)


def log_cosh(y):
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def couplings(q):
    """Per-species C_s(q) = 2 sum_t delta2_st lam_t q_t (q of shape (..., M))."""
    return 2.0 * (np.asarray(q, dtype=float) * LAM) @ DELTA2


def energy(q):
    """Scalar contraction Q(q) = sum_st delta2_st lam_s lam_t q_s q_t."""
    w = np.asarray(q, dtype=float) * LAM
    return float(w @ DELTA2 @ w)


def _gauss(f, beta, c, h):
    """E f(beta sqrt(c) eta + h) for arrays beta, c, h of one shape."""
    y = (np.asarray(beta) * np.sqrt(np.clip(c, 0.0, None)))[..., None] * Z1 + np.asarray(h)[..., None]
    return f(y) @ W1


def _tanh2(y):
    return np.tanh(y) ** 2


def _sech4(y):
    return np.cosh(np.clip(y, -300.0, 300.0)) ** -4.0


def rs_overlaps(beta, h):
    """Two-species fixed point q_s = E tanh^2(beta eta sqrt(C_s(q)) + h), h > 0.

    The coupling map C = A q with A = 2 D diag(lam) has an inverse of sign
    pattern (+,-;-,+); eliminating C_1 leaves a strictly increasing scalar
    defect in x = C_2, bisected on a bracket from 0 upward.
    Returns (q, C), each of shape beta.shape + (2,).
    """
    beta, h = np.broadcast_arrays(np.asarray(beta, dtype=float), np.asarray(h, dtype=float))
    inv = np.linalg.inv(2.0 * DELTA2 * LAM[None, :])
    a, b, c, d = inv[0, 0], -inv[0, 1], -inv[1, 0], inv[1, 1]
    if min(a, b, c, d) <= 0:
        raise ValueError("coupling map lacks the sign pattern the elimination needs")

    def c1_of(x):
        return (d * x - _gauss(_tanh2, beta, x, h)) / c

    def defect(x):
        big = c1_of(x)
        safe = np.where(big > 0, big, 1.0)
        val = (a - b * x / safe) - _gauss(_tanh2, beta, safe, h) / safe
        return np.where(big > 0, val, -np.inf)

    lo = np.zeros_like(beta)
    hi = np.ones_like(beta)
    for _ in range(60):
        low = defect(hi) < 0
        if not low.any():
            break
        hi = np.where(low, 2.0 * hi, hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = defect(mid) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    cc = np.stack([c1_of(x), x], axis=-1)
    q = cc @ inv.T
    return q, cc


def beta2_m(beta, h, cc):
    """Smallest beta^2 at which K = 2 beta^2 D G D - D turns positive on the cone.

    x'Kx = 2 beta^2 y'Gy - y'D^-1 y with y = D x, so the threshold is
    1 / (2 lambda_max(G^1/2 D G^1/2)), gamma_s = lam_s E sech^4.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = LAM * np.stack(
        [_gauss(_sech4, beta, cc[..., s], h) for s in range(2)], axis=-1
    )
    root = np.sqrt(gamma)
    mat = root[..., :, None] * DELTA2 * root[..., None, :]
    return 1.0 / (2.0 * np.linalg.eigvalsh(mat)[..., -1])


def phase_points(beta, h):
    """beta2_m and the sign of beta^2 - beta2_m at each (beta, h)."""
    beta = np.asarray(beta, dtype=float)
    _, cc = rs_overlaps(beta, h)
    b2m = beta2_m(beta, h, cc)
    return b2m, beta * beta - b2m


def at_line_beta(h: float) -> float:
    """Root in beta of beta^2 - beta2_m(beta, h) by brentq."""

    def gap(beta):
        b2m, margin = phase_points(np.array([beta]), np.array([h]))
        return float(margin[0])

    lo, hi = 0.05, 1.0
    while gap(hi) < 0:
        lo, hi = hi, 2.0 * hi
        if hi > 64.0:
            raise ValueError(f"no bracket up to beta = 64 at h = {h}")
    return brentq(gap, lo, hi, xtol=1e-13, maxiter=200)


def _reduce(values, zeta):
    if zeta == 0.0:
        return values @ W2
    return logsumexp(zeta * values + LOG_W2, axis=-1) / zeta


def _x_level(level, y, scales, zetas):
    """X_level(y) of the backward recursion; the last level is closed form."""
    last = len(scales) - 1
    if level == last:
        return log_cosh(y) + 0.5 * scales[last] ** 2
    if scales[level] == 0.0:
        return _x_level(level + 1, y, scales, zetas)
    if np.ndim(y) == 0 and last - level >= 3:
        inner = np.array([_x_level(level + 1, y + scales[level] * z, scales, zetas) for z in Z2])
    else:
        inner = _x_level(level + 1, np.asarray(y)[..., None] + scales[level] * Z2, scales, zetas)
    return _reduce(inner, zetas[level])


def parisi_value(beta: float, h: float, zeta, ladder) -> float:
    """k-level functional for k <= 2: ladder is M x (k+1), zeta has length k.

    log 2 + sum_s lam_s X_0^s - (beta^2/2) sum_{l>=1} zeta_l (Q_{l+1} - Q_l),
    levels running over 0 = q_0 <= q_1 <= ... <= q_{k+1} <= q_{k+2} = 1.
    """
    ladder = np.atleast_2d(np.asarray(ladder, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    m = ladder.shape[0]
    cols = [np.zeros(m)] + [ladder[:, j] for j in range(ladder.shape[1])] + [np.ones(m)]
    c_cols = np.array([couplings(col) for col in cols])  # (k+3, M)
    q_cols = np.array([energy(col) for col in cols])
    zetas = np.concatenate([[0.0], zeta, [1.0]])
    x0 = []
    for s in range(m):
        inc = np.clip(np.diff(c_cols[:, s]), 0.0, None)
        x0.append(float(_x_level(0, float(h), beta * np.sqrt(inc), zetas)))
    correction = float(np.sum(zetas[1:] * np.diff(q_cols)[1:]))
    return float(math.log(2.0) + LAM @ np.array(x0) - 0.5 * beta * beta * correction)


def rs_value(beta: float, h: float, q) -> float:
    return parisi_value(beta, h, [], np.asarray(q, dtype=float)[:, None])


def one_step_value(beta: float, h: float, q, p, zeta: float) -> float:
    return parisi_value(beta, h, [zeta], np.column_stack([q, p]))


# ----------------------------------------------------------------------
# finite N: disorder regenerated from its documented definition
# ----------------------------------------------------------------------

_M64 = (1 << 64) - 1


def splitmix(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def child_seed(seed: int, *indices: int) -> int:
    x = splitmix(seed & _M64)
    for idx in indices:
        x = splitmix(x ^ idx)
    return x


def block_sizes(n: int) -> list:
    raw = [lam * n for lam in LAM]
    sizes = [math.floor(r) for r in raw]
    rest = n - sum(sizes)
    for s in sorted(range(len(raw)), key=lambda s: -(raw[s] - sizes[s]))[:rest]:
        sizes[s] += 1
    return sizes


def couplings_matrix(n: int, seed: int) -> np.ndarray:
    """g_ij = sqrt(delta2_st) z_ij with z from (seed, i, j) via splitmix64 + Box-Muller."""
    species = [s for s, size in enumerate(block_sizes(n)) for _ in range(size)]
    key = splitmix(seed)
    g = np.empty((n, n))
    for i in range(n):
        ki = splitmix(key ^ i)
        for j in range(n):
            s1 = splitmix(splitmix(ki ^ j))
            s2 = splitmix(s1)
            u1 = ((s1 >> 11) + 1) * 2.0**-53
            u2 = (s2 >> 11) * 2.0**-53
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            g[i, j] = math.sqrt(DELTA2[species[i], species[j]]) * z
    return g


def _spins(m: int) -> np.ndarray:
    return ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1) * 2.0 - 1.0


def log_partition(g: np.ndarray, beta: float, h: float, tail: int = 11) -> float:
    """log sum over all 2^N sigma of exp((beta/sqrt N) sigma'g sigma + h sum sigma)."""
    n = g.shape[0]
    tail = min(tail, n - 1)
    head = n - tail
    c = beta / math.sqrt(n)
    sa, sb = _spins(head), _spins(tail)
    ga, gb = g[:head, :head], g[head:, head:]
    ea = c * np.sum((sa @ ga) * sa, axis=1) + h * sa.sum(axis=1)
    eb = c * np.sum((sb @ gb) * sb, axis=1) + h * sb.sum(axis=1)
    cross = c * (sa @ (g[:head, head:] + g[head:, :head].T))
    peaks, sums = [], []
    for start in range(0, sa.shape[0], 256):
        block = ea[start : start + 256, None] + eb[None, :] + cross[start : start + 256] @ sb.T
        peak = float(block.max())
        peaks.append(peak)
        sums.append(float(np.exp(block - peak).sum()))
    top = max(peaks)
    return top + math.log(sum(s * math.exp(p - top) for s, p in zip(sums, peaks)))


def free_energy(beta: float, h: float, n: int, n_disorder: int, seed: int):
    """(mean, stderr) of log Z / N over disorder samples child_seed(seed, r)."""
    values = np.array(
        [log_partition(couplings_matrix(n, child_seed(seed, r)), beta, h) / n for r in range(n_disorder)]
    )
    stderr = 0.0 if n_disorder < 2 else float(values.std(ddof=1) / math.sqrt(n_disorder))
    return float(values.mean()), stderr
