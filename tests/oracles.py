"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's Gauss-Hermite path:
expectations go through scipy's adaptive quadrature, fixed points through
scalar bisection, derivatives through finite differences, thresholds through
an eigenvalue.  The two exceptions are the closed-form derivatives
`rs_gradient` and `zeta_derivative`, which take the library's rule: the tests
hold them against finite differences of the library's functionals, so they
live here rather than in the package.  The Monte Carlo
constants frozen in the tests were produced by the regeneration functions at
the bottom with the seeds recorded there.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad


def gauss_expect(f, sigma, shift):
    """E f(sigma * z + shift), z ~ N(0,1), by adaptive quadrature."""
    val, _ = quad(
        lambda z: f(sigma * z + shift) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi),
        -12.0,
        12.0,
        limit=300,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def psi(beta, x, h):
    """E tanh^2(beta z sqrt(x) + h) for x >= 0."""
    if x <= 0:
        return np.tanh(h) ** 2
    return gauss_expect(lambda y: np.tanh(y) ** 2, beta * np.sqrt(x), h)


def two_species_bisection(spec, beta, h, tol=1e-13):
    """Solve the two-species self-consistency system by scalar bisection.

    Eliminates one unknown through the inverse of the coupling map (whose
    2x2 sign pattern is (+,-;-,+)), leaving a single strictly monotone
    equation in the second species' coupling.  Requires h > 0.
    """
    a_mat = 2.0 * spec.delta2 * spec.lam[None, :]
    inv = np.linalg.inv(a_mat)
    a, b = inv[0, 0], -inv[0, 1]
    c, d = -inv[1, 0], inv[1, 1]
    assert min(a, b, c, d) > 0

    def q1_of(x):
        return (d * x - psi(beta, x, h)) / c

    def monotone_defect(x):
        big_q1 = q1_of(x)
        if big_q1 <= 0:
            return -np.inf
        return (a - b * x / big_q1) - psi(beta, big_q1, h) / big_q1

    lo, hi = 1e-6, 1.0
    while monotone_defect(lo) > 0:
        lo /= 4.0
    while monotone_defect(hi) < 0:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if monotone_defect(mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    big_q = np.array([q1_of(x), x])
    return inv @ big_q


def _contractions(spec, x):
    """(E(x), C(x)) = ((lam x)' delta2 (lam x), 2 delta2 (lam x))."""
    w = np.asarray(spec.lam) * np.asarray(x, dtype=float)
    return w @ np.asarray(spec.delta2) @ w, 2.0 * np.asarray(spec.delta2) @ w


def one_step_value(spec, beta, h, q, p, zeta):
    """One-step functional at (q, p, zeta) by nested adaptive quadrature:

        log 2 + sum_s lam_s [(1/zeta) E1 log E2 cosh^zeta(Y2_s)
                             + (beta^2/2) (C_s(1) - C_s(p))]
              - (beta^2/2) [E(1) - E(p) + zeta (E(p) - E(q))]

    with Y2_s = h + beta sqrt(C_s(q)) eta1 + beta sqrt(C_s(p) - C_s(q)) eta2
    and C, E from `_contractions`.  Plain cosh, so |Y2| must stay below
    about 700 over the integration range.
    """
    lam = np.asarray(spec.lam)
    e_q, c_q = _contractions(spec, q)
    e_p, c_p = _contractions(spec, p)
    e_1, c_1 = _contractions(spec, np.ones(lam.size))
    value = np.log(2.0) - 0.5 * beta**2 * (e_1 - e_p + zeta * (e_p - e_q))
    for s in range(lam.size):
        outer = beta * np.sqrt(max(c_q[s], 0.0))
        inner = beta * np.sqrt(max(c_p[s] - c_q[s], 0.0))

        def log_inner(y1):
            # log E2 cosh^zeta(y1 + inner eta2), taken relative to cosh^zeta(y1)
            base = math.cosh(y1)
            ratio = gauss_expect(lambda y: (math.cosh(y) / base) ** zeta, inner, y1)
            return zeta * math.log(base) + math.log(ratio)

        nested = gauss_expect(log_inner, outer, h) / zeta
        value += lam[s] * (nested + 0.5 * beta**2 * (c_1[s] - c_p[s]))
    return value


def rs_value(spec, beta, h, q):
    """Single-atom functional at overlap vector q by adaptive quadrature:

        log 2 + sum_s lam_s [E log cosh(h + beta sqrt(C_s(q)) eta)
                             + (beta^2/2) (C_s(1) - C_s(q))]
              - (beta^2/2) (E(1) - E(q))

    with C and E from `_contractions`.
    """
    lam = np.asarray(spec.lam)

    def log_cosh(y):
        return abs(y) + math.log1p(math.exp(-2.0 * abs(y))) - math.log(2.0)

    e_q, c_q = _contractions(spec, q)
    e_1, c_1 = _contractions(spec, np.ones(lam.size))
    value = np.log(2.0) - 0.5 * beta**2 * (e_1 - e_q)
    for s in range(lam.size):
        e_log_cosh = gauss_expect(log_cosh, beta * np.sqrt(max(c_q[s], 0.0)), h)
        value += lam[s] * (e_log_cosh + 0.5 * beta**2 * (c_1[s] - c_q[s]))
    return value


def stability_threshold(spec, gamma):
    """1 / (2 lambda_max(G^1/2 delta2 G^1/2)) with G = diag(gamma), gamma > 0.

    beta^2 above it is where K = 2 beta^2 D G D - D first gains a positive
    direction (K and 2 beta^2 D^1/2 G D^1/2 - I have the same inertia when
    D is positive definite, and D^1/2 G D^1/2 shares its spectrum with
    G^1/2 D G^1/2).  At gamma = lam it is the h = 0 threshold at which q = 0
    stops being a linearly stable fixed point: near q = 0 the map is
    q -> 2 beta^2 delta2 lam q.
    """
    root = np.sqrt(np.asarray(gamma, dtype=float))
    return 1.0 / (2.0 * np.linalg.eigvalsh(root[:, None] * np.asarray(spec.delta2) * root[None, :])[-1])


def hamiltonian(d, sigma, tf):
    """H(sigma) = (beta / sqrt(N)) sigma' g sigma + h sum(sigma) for a +-1 array.

    A (K, N) array gives the K energies as an array, a length-N one a float.
    """
    sigma = np.asarray(sigma, dtype=float)
    energy = tf.beta / np.sqrt(d.n) * ((sigma @ d.g) * sigma).sum(axis=-1) + tf.h * sigma.sum(axis=-1)
    return float(energy) if sigma.ndim == 1 else energy


def all_configurations(n):
    """Every +-1 vector of length n, one per row (2^n rows)."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def metropolis_counts(disorders, rng_seeds, tf, sweeps, bins):
    """Overlap histogram counts of two-replica Metropolis, without a local-field cache.

    The same protocol as the library sampler: per disorder sample a generator
    seeded with its rng seed draws both replicas' starting spins, then per
    sweep the (2, N) sites and the (2, N) uniforms.  Flipping spin i of a
    replica is accepted when dH >= 0 or u < exp(dH), with
    dH = hamiltonian(sigma') - hamiltonian(sigma) from two full energies.
    From sweep sweeps // 2 on, each species overlap |sum sigma^1 sigma^2| / |I_s|
    is binned into `bins` equal bins of [0, 1].
    """
    m = int(disorders[0].species.max()) + 1
    counts = np.zeros((m, bins), dtype=int)
    for d, rng_seed in zip(disorders, rng_seeds):
        rng = np.random.default_rng(rng_seed)
        sigma = rng.choice((-1.0, 1.0), size=(2, d.n))
        for sweep in range(sweeps):
            sites = rng.integers(0, d.n, size=(2, d.n))
            uniforms = rng.random(size=(2, d.n))
            for rep in range(2):
                for i, u in zip(sites[rep], uniforms[rep]):
                    trial = sigma[rep].copy()
                    trial[i] = -trial[i]
                    delta = hamiltonian(d, trial, tf) - hamiltonian(d, sigma[rep], tf)
                    if delta >= 0.0 or u < math.exp(delta):
                        sigma[rep] = trial
            if sweep >= sweeps // 2:
                prod = sigma[0] * sigma[1]
                for s in range(m):
                    overlap = abs(prod[d.species == s].sum()) / np.count_nonzero(d.species == s)
                    counts[s, min(int(overlap * bins), bins - 1)] += 1
    return counts


def single_species_rs_value(beta, h, q):
    """Classical one-species single-atom free energy at overlap q.

    Uses the convention in which the coupling variance is doubled relative to
    the unit-variance textbook normalization: the effective temperature is
    sqrt(2) * beta.
    """
    bt = np.sqrt(2.0) * beta
    e_log_cosh = gauss_expect(lambda y: np.log(np.cosh(y)), bt * np.sqrt(q), h)
    return np.log(2.0) + e_log_cosh + 0.25 * bt * bt * (1.0 - q) ** 2


def single_species_qstar(beta, h, tol=1e-13):
    """Fixed point q = E tanh^2(sqrt(2) beta z sqrt(q) + h) by damped iteration."""
    q = np.tanh(h) ** 2
    for _ in range(100000):
        target = psi(beta, 2.0 * q, h)
        if abs(target - q) < tol:
            return target
        q = 0.5 * q + 0.5 * target
    raise AssertionError("single-species oracle did not converge")


def single_species_at_beta(h, lo=0.2, hi=4.0):
    """Classical phase-boundary beta(h): zero of 2 beta^2 E sech^4 - 1."""

    def gap(beta):
        q = single_species_qstar(beta, h)
        sech4 = gauss_expect(lambda y: np.cosh(y) ** -4.0, beta * np.sqrt(2.0 * q), h)
        return 2.0 * beta * beta * sech4 - 1.0

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def directional_second_derivative(func, delta, direction):
    """d' Hess d of a function with func(0) = 0 and vanishing gradient.

    One-sided stencil [8 f(delta d) - f(2 delta d)] / (2 delta^2): the
    function's domain is the nonnegative cone around the base point, so the
    centered stencil is out of reach; one Richardson step restores O(delta^2)
    accuracy.
    """
    return (8.0 * func(delta * np.asarray(direction)) - func(2.0 * delta * np.asarray(direction))) / (
        2.0 * delta * delta
    )


def fd_hessian_at_minimum(func, dim, delta):
    """Finite-difference Hessian of func at 0 (func(0) = 0, grad = 0)."""
    hess = np.zeros((dim, dim))
    for t in range(dim):
        e_t = np.eye(dim)[t]
        hess[t, t] = directional_second_derivative(func, delta, e_t)
    for t in range(dim):
        for u in range(t + 1, dim):
            d = np.eye(dim)[t] + np.eye(dim)[u]
            cross = directional_second_derivative(func, delta, d)
            hess[t, u] = hess[u, t] = 0.5 * (cross - hess[t, t] - hess[u, u])
    return hess


def fd_gradient_at_minimum(func, dim, delta):
    """One-sided O(delta^2) gradient [4 f(delta e) - f(2 delta e)] / (2 delta)."""
    grad = np.zeros(dim)
    for t in range(dim):
        e_t = np.eye(dim)[t]
        grad[t] = (4.0 * func(delta * e_t) - func(2.0 * delta * e_t)) / (2.0 * delta)
    return grad


def rs_gradient(spec, tf, q, rule):
    """Gradient of the single-atom functional in q:
    beta^2 lam_t sum_s delta2_st lam_s (q_s - T_s(q))."""
    from mskglass import fixed_point_map

    q = np.asarray(q, dtype=float)
    defect = q - fixed_point_map(spec, tf, q, rule)
    return tf.beta ** 2 * spec.lam * (spec.delta2 @ (spec.lam * defect))


def zeta_derivative(spec, tf, q_star, p, rule):
    """Slope of the one-step functional in zeta at zeta = 1, as a function of p.

    Evaluates, per species,

        E1 [ E2 (log cosh Y2 - log cosh Y1) cosh Y2 / E2 cosh Y2 ]
        - (beta^2 / 2) (C_s(p) - C_s(q))

    minus the scalar term (beta^2/2)(E(p) - E(q)).  The inner normalizer
    log(E2 cosh Y2 / cosh Y1) is replaced by its exact Gaussian closed form
    (beta^2/2)(C_s(p) - C_s(q)), and the log-cosh difference is formed before
    exponentiation, so the value degrades gracefully to exactly 0 at p = q.
    """
    from mskglass import overlap_contractions

    c_q = overlap_contractions(spec, np.asarray(q_star, dtype=float))
    c_p = overlap_contractions(spec, np.asarray(p, dtype=float))
    d = np.clip(c_p.species - c_q.species, 0.0, None)
    beta, h = tf.beta, tf.h
    half_b2 = 0.5 * beta * beta
    nodes, w = rule.nodes, rule.weights

    per_species = np.zeros(spec.m)
    for s in range(spec.m):
        if d[s] == 0.0:
            continue
        y1 = beta * math.sqrt(max(c_q.species[s], 0.0)) * nodes + h
        t = np.clip(beta * math.sqrt(d[s]) * nodes, -700.0, 700.0)
        # log cosh(y1 + t) - log cosh(y1) = log1p(2 sinh^2(t/2) + sinh(t) tanh(y1)),
        # accurate to relative precision even when the increment is tiny
        r = np.log1p(2.0 * np.sinh(0.5 * t[None, :]) ** 2 + np.sinh(t)[None, :] * np.tanh(y1)[:, None])
        shift = r.max(axis=1, keepdims=True)
        e = np.exp(r - shift)
        ratio = ((r * e) @ w) / (e @ w)
        per_species[s] = float(w @ ratio) - half_b2 * d[s]

    return float(spec.lam @ per_species - half_b2 * (c_p.scalar - c_q.scalar))


# ----------------------------------------------------------------------
# Monte Carlo regeneration (the frozen constants in the tests came from
# these exact calls; they are not executed during normal test runs).
# ----------------------------------------------------------------------


def mc_log_cosh(seed=20260810, n=10_000_000):
    """E log cosh(0.5 sqrt(0.5) z + 0.4) -> (0.129599612080, 4.474e-05)."""
    rng = np.random.default_rng(seed)
    vals = np.log(np.cosh(0.5 * np.sqrt(0.5) * rng.standard_normal(n) + 0.4))
    return vals.mean(), vals.std(ddof=1) / np.sqrt(n)

def mc_nested_cosh(seed=20260811, n_outer=10_000, n_inner=1_000):
    """Two-level oracle for zeta=0.5, beta=1, h=0.4, scales (0.3, 0.6)
    -> (0.254854193857, 2.463e-03)."""
    rng = np.random.default_rng(seed)
    outer = rng.standard_normal(n_outer)
    inner = rng.standard_normal((n_outer, n_inner))
    y = 0.3 * inner + (0.6 * outer + 0.4)[:, None]
    per_outer = np.log((np.cosh(y) ** 0.5).mean(axis=1)) / 0.5
    return per_outer.mean(), per_outer.std(ddof=1) / np.sqrt(n_outer)

def mc_gamma(coupling, lam, seed=20260812, n=10_000_000):
    """lam_s E sech^4(0.6 sqrt(coupling_s) z + 0.4) -> see test_atline."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    out = []
    for c, l in zip(coupling, lam):
        vals = l * np.cosh(0.6 * np.sqrt(c) * z + 0.4) ** -4.0
        out.append((vals.mean(), vals.std(ddof=1) / np.sqrt(n)))
    return out
