"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's Gauss-Hermite path:
expectations go through scipy's adaptive quadrature, fixed points through
scalar bisection, derivatives through finite differences, thresholds through
an eigenvalue.  The exceptions take the library's rule: the closed-form
derivatives `rs_gradient` and `zeta_derivative`, which the tests hold against
finite differences of the library's functionals, and `at_line_bisection`,
the root of the discrete phase-line function by plain bisection on solves
run to 1e-15.  The Metropolis draws are re-derived in Python ints from the
documentation in mskglass/simulate.py.  The Monte Carlo
constants frozen in the tests were produced by the regeneration functions at
the bottom with the seeds recorded there.  `solve_one`, `verdict_one`,
`certify_one` and `thresholds_one` are not oracles: they call the library's
batch entry points at one point, or the thresholds at one gamma row, and
unwrap the result (`one`); `solve_one` and `certify_one` take the solver
tolerance, iteration budget and certificate grids as keywords and set the
library's constants to them for the call (`with_constants`).  `point` reads
the (beta, h) of a one-point TempField as floats.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad


def one(results):
    """The one entry of a batch entry point's result list, raised if it is an error."""
    from mskglass import MskGlassError

    (result,) = results
    if isinstance(result, MskGlassError):
        raise result
    return result


def point(tf):
    """(beta, h) of a one-point TempField as floats."""
    (beta,), (h,) = tf.beta.tolist(), tf.h.tolist()
    return beta, h


def with_constants(module, call, **constants):
    """call() with each named constant of `module` set to the given value for the length of the
    call; a None value leaves its constant as it is."""
    given = {name: value for name, value in constants.items() if value is not None}
    saved = {name: getattr(module, name) for name in given}
    try:
        for name, value in given.items():
            setattr(module, name, value)
        return call()
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def solve_one(spec, tf, rule, tol=None, max_iter=None):
    """`solve_points` at one point, to Newton correction `tol` within `max_iter` iterations (the
    library's constants when None); raises its NotConverged."""
    from mskglass import rs

    return with_constants(rs, lambda: one(rs.solve_points(spec, tf, rule)), DEFAULT_TOL=tol, DEFAULT_MAX_ITER=max_iter)


def thresholds_one(spec, gamma):
    """`two_species_thresholds` at one gamma vector, as Thresholds of floats."""
    from mskglass import Thresholds, two_species_thresholds

    return Thresholds._make(t[0] for t in two_species_thresholds(spec, np.asarray(gamma, dtype=float)[None]))


def verdict_one(spec, tf, rule):
    """`at_verdicts` at one point; raises its error."""
    from mskglass import at_verdicts

    return one(at_verdicts(spec, tf, rule))


def certify_one(spec, tf, report, rule, eps_grid=None, zeta_grid=None):
    """`certify_points` at one point, scanning `eps_grid` x `zeta_grid` (the library's grids when
    None); raises its CertificateNotFound."""
    from mskglass import onersb

    def grid(values):
        return None if values is None else np.array(values, dtype=float, ndmin=1)

    return with_constants(onersb, lambda: one(onersb.certify_points(spec, tf, [report], rule)),
                          EPSILON_GRID=grid(eps_grid), ZETA_GRID=grid(zeta_grid))


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


def parisi_sum(spec, beta, h, zeta, q, rule, dps=30):
    """The k-level functional of `mskglass.parisi` as the plain nested sum over
    every node of `rule`, in `dps`-digit mpmath arithmetic:

        log 2 + sum_s lam_s X_0^s(h) - (beta^2/2) sum_{l=1}^{k+1} zeta_l (E_{l+1} - E_l)

    with ladder columns q_0 = 0, q_1 .. q_{k+1} = the columns of q, q_{k+2} = 1,
    E_l = E(q_l), zeta_{k+1} = 1, the top level in closed form
    X_{k+1}^s(y) = log cosh y + (beta^2/2) (C_s(1) - C_s(q_{k+1})), and for
    l = k .. 0, with a_l = beta sqrt(C_s(q_{l+1}) - C_s(q_l)),

        X_l^s(y) = (1/zeta_l) log sum_j w_j exp(zeta_l X_{l+1}^s(y + a_l z_j)),
        X_0^s(y) = sum_j w_j X_1^s(y + a_0 z_j).

    No maximum is shifted out and no node is skipped; the float64 nodes and
    weights, q and the model enter exactly as stored.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam = [mp.mpf(float(v)) for v in spec.lam]
        delta2 = [[mp.mpf(float(v)) for v in row] for row in spec.delta2]
        m = len(lam)
        columns = [[mp.mpf(0)] * m] + [[mp.mpf(float(v)) for v in col] for col in np.asarray(q).T] + [[mp.mpf(1)] * m]
        energy = [sum(delta2[s][t] * lam[s] * lam[t] * c[s] * c[t] for s in range(m) for t in range(m)) for c in columns]
        coupling = [[2 * sum(delta2[s][t] * lam[t] * c[t] for t in range(m)) for s in range(m)] for c in columns]
        zetas = [mp.mpf(0)] + [mp.mpf(float(v)) for v in zeta] + [mp.mpf(1)]
        k = len(zetas) - 2
        nodes = [mp.mpf(float(v)) for v in rule.nodes]
        weights = [mp.mpf(float(v)) for v in rule.weights]
        b = mp.mpf(float(beta))

        def x(level, s, y):
            if level == k + 1:
                return mp.log(mp.cosh(y)) + b * b * (coupling[k + 2][s] - coupling[k + 1][s]) / 2
            a = b * mp.sqrt(coupling[level + 1][s] - coupling[level][s])
            values = [x(level + 1, s, y + a * z) for z in nodes]
            if level == 0:
                return mp.fsum(w * v for w, v in zip(weights, values))
            return mp.log(mp.fsum(w * mp.exp(zetas[level] * v) for w, v in zip(weights, values))) / zetas[level]

        value = mp.log(2) + mp.fsum(lam[s] * x(0, s, mp.mpf(float(h))) for s in range(m))
        return value - b * b / 2 * mp.fsum(zetas[l] * (energy[l + 1] - energy[l]) for l in range(1, k + 2))


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
    sigma, (beta, h) = np.asarray(sigma, dtype=float), point(tf)
    energy = beta / np.sqrt(d.n) * ((sigma @ d.g) * sigma).sum(axis=-1) + h * sigma.sum(axis=-1)
    return float(energy) if sigma.ndim == 1 else energy


def all_configurations(n):
    """Every +-1 vector of length n, one per row (2^n rows)."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


_M64 = (1 << 64) - 1


def splitmix(x):
    """splitmix64 finalizer on Python ints, from the simulate module docstring."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def metropolis_draws(key, n, rows):
    """Rows 0..rows-1 of Metropolis chain `key`, from the simulate module
    docstring in Python ints: slot k = a n + i of row t has the word
    w = mix(mix(key ^ t) ^ k), the site ((w >> 32) n) >> 32 and the uniform
    (mix(w) >> 11) 2^-53.  Returns per row (sites, uniforms), 2 x n nested lists."""
    draws = []
    for t in range(rows):
        words = [splitmix(splitmix(key ^ t) ^ k) for k in range(2 * n)]
        reps = (words[:n], words[n:])
        sites = [[((w >> 32) * n) >> 32 for w in rep] for rep in reps]
        uniforms = [[(splitmix(w) >> 11) * 2.0**-53 for w in rep] for rep in reps]
        draws.append((sites, uniforms))
    return draws


def metropolis_counts(disorders, chain_keys, tf, sweeps, bins):
    """Overlap histogram counts of two-replica Metropolis, without a local-field cache.

    The same protocol as the library sampler: per disorder sample, row 0 of
    its chain (metropolis_draws) sets both replicas' start spins, -1 where the
    uniform is below 1/2, and row 1 + t gives sweep t's (2, N) sites and
    uniforms.  Flipping spin i of a replica is accepted when dH >= 0 or
    u < exp(dH), with
    dH = hamiltonian(sigma') - hamiltonian(sigma) from two full energies.
    From sweep sweeps // 2 on, each species overlap |sum sigma^1 sigma^2| / |I_s|
    is binned into `bins` equal bins of [0, 1].
    """
    m = int(disorders[0].species.max()) + 1
    counts = np.zeros((m, bins), dtype=int)
    for d, key in zip(disorders, chain_keys):
        (_, start), *draws = metropolis_draws(key, d.n, sweeps + 1)
        sigma = np.array([[-1.0 if u < 0.5 else 1.0 for u in rep] for rep in start])
        for sweep, (sites, uniforms) in enumerate(draws):
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
    from mskglass import map_derivatives

    q = np.asarray(q, dtype=float)
    defect = q - map_derivatives(spec, tf, q[None], rule).t[0]
    return point(tf)[0] ** 2 * spec.lam * (spec.delta2 @ (spec.lam * defect))


def at_line_bisection(spec, h, rule):
    """beta_m at field h: bisection, down to adjacent floats, on
    g(beta) = beta^2 - beta2_m(beta), each g from a solve at tol 1e-15 and
    gamma from a kernel pass at the solved point, bracketed by doubling
    from beta = 1."""
    from mskglass import TempField, map_derivatives, two_species_thresholds

    def g(beta):
        tf = TempField(beta=beta, h=h)
        sol = solve_one(spec, tf, rule, tol=1e-15)
        gamma = map_derivatives(spec, tf, sol.q_star[None], rule).gamma
        return beta * beta - two_species_thresholds(spec, gamma).beta2_m[0]

    lo, hi = 1e-3, 1.0
    while g(hi) < 0:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


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
    beta, h = point(tf)
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
