"""Generic k-level hierarchical free-energy functional.

For cluster weights 0 < zeta_1 < ... < zeta_k < 1 and per-species overlap
ladders 0 = q_0 <= q_1 <= ... <= q_{k+1} <= q_{k+2} = 1, the functional is

    log 2 + sum_s lam_s X_0^s - (beta^2 / 2) sum_{l=1}^{k+1} zeta_l (Q_{l+1} - Q_l)

where the X recursion runs backward from

    X_{k+2}^s = log cosh(h + beta sum_l eta_{l+1} sqrt(Q_{l+1}^s - Q_l^s))

through X_l^s = (1/zeta_l) log E_{l+1} exp(zeta_l X_{l+1}^s), the l = 0 step
being a plain expectation.  The top level has zeta_{k+1} = 1 and integrates
out in closed form, log E cosh(y + s eta) = log cosh y + s^2 / 2, so k = 0 is
the single-atom (closed-form in `rs`) and k = 1 the one-step functional.
Each X_l^s depends on the noise only through the accumulated field, so the
remaining k + 1 levels are evaluated bottom-up on the tensor grid of
quadrature nodes.  The two innermost levels are formed for a chunk of
(ladder, species) rows at once, with one exponential per (weight vector,
node pair); outer levels recurse node by node.  Peak memory is one chunk,
about 160,000 floats (or one row's Z x n x n if larger), whatever k, and
cost grows as the product of the levels' node counts n, so levels k <= 3
are practical at moderate order.  Each log E e^{zeta X} is centred on the
weighted mean of X and, for zeta < 1/2, summed through expm1, so 1/zeta
does not amplify its rounding (`_log_mean_exp`).

Nodes too light to matter are skipped (`_kept`).  Each X_l is 1-Lipschitz
in the field, so a log-sum-exp level drops a node whose term stays below
2^-64 zeta of the heaviest node's even after the largest factor the field
can give it, and the plain-mean level drops a node whose weight times a
bound on |X_1| is below 2^-64.  A level then moves by at most
order * 2^-64 of its value (absolutely, at the mean).  Once beta sqrt(C)
is large (about 4 at order 61) the log-sum-exp level keeps every node.

Levels whose overlap increment vanishes are integrated out exactly (the
reduction is the identity there), which keeps coalesced ladders
bit-stable.  A batch of Z weight vectors shares every log-cosh grid and
runs through the recursion as one; a batch of E ladders shares one pass of
contractions, increments and the weight correction, so a whole (E x Z)
scan costs one call with one validation.  Each ladder carries its own
point of the `TempField`, so one call scans a whole phase-diagram row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadZeta, NonmonotoneOverlap
from .model import ModelSpec, TempField, overlap_contractions
from .quadrature import QuadRule, log_cosh

_LOG2 = math.log(2.0)
_INCREMENT_TOL = 1e-12
_EXP_LIMIT = 700.0  # e^700 times any order's node count stays inside float64
_NEGLIGIBLE = 2.0**-64  # share of a level's value a skipped node may carry
_CHUNK_FLOATS = 160_000  # exponentials held at once: 4 rows of a 10-weight scan at 61 x 61 nodes


@dataclass(frozen=True)
class ParisiParams:
    """A batch of Z cluster weight vectors zeta (Z x k) and one of E overlap ladders q (E x M x (k+1)).

    A vector zeta is a batch of one, as is one ladder (M x (k+1)); every
    weight vector meets every ladder.  The boundary columns q_0 = 0 and
    q_{k+2} = 1 are implicit.  Weights must be strictly increasing inside
    the open interval (0, 1); the endpoint values 0 and 1 are handled
    analytically by the evaluator, never fed to the 1/zeta * log E
    exp(zeta *) form.
    """

    zeta: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        zeta = np.array(self.zeta, dtype=float, ndmin=2)
        q = np.array(self.q, dtype=float, ndmin=3)
        if zeta.ndim > 2:
            raise BadZeta("zeta must be a vector or a batch (Z x k) of vectors")
        if not ((zeta > 0.0) & (zeta < 1.0)).all():  # NaN fails too
            raise BadZeta("cluster weights must lie strictly inside (0, 1)")
        if (np.diff(zeta, axis=-1) <= 0).any():
            raise BadZeta("cluster weights must be strictly increasing")
        k = zeta.shape[1]
        if q.ndim > 3 or q.shape[-1] != k + 1:
            raise ValueError(f"q must be M x (k+1), or a batch of them, with k = {k}")
        if not ((q >= -_INCREMENT_TOL) & (q <= 1 + _INCREMENT_TOL)).all():
            raise ValueError("overlaps must lie in [0, 1]")
        if (np.diff(q, axis=-1) < -_INCREMENT_TOL).any():
            raise NonmonotoneOverlap("each species row of q must be nondecreasing")
        q = np.clip(q, 0.0, 1.0)
        zeta.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "q", q)

    @property
    def k(self) -> int:
        return self.zeta.shape[1]

    @property
    def m(self) -> int:
        return self.q.shape[1]


def _log_mean_exp(x: np.ndarray, peak: np.ndarray, zeta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(1/z) log sum_j w_j e^{z x_j} over the last axis of `x`, one row per
    exponent z in `zeta` (shape (Z,)); `x` leads with an axis of length Z or 1,
    is overwritten, and `peak` (x's shape without its last axis) bounds it
    from above.

    x is first centred on its weighted mean m, so the sum S of e^{z (x - m)}
    is at least about 1 (Jensen); where x reaches more than _EXP_LIMIT above
    m the centre moves up, so no exponential overflows.  1/z amplifies the
    absolute rounding error of log S, so below z = 1/2 S - 1 is formed
    without cancellation as sum_j w_j expm1(z (x_j - m)) + (sum_j w_j - 1)
    and passed to log1p; from 1/2 on the faster exp is as accurate.
    """
    centre = np.maximum(x @ w, peak - _EXP_LIMIT)
    z = zeta.reshape((-1,) + (1,) * (centre.ndim - 1))
    e = np.subtract(x, centre[..., None], out=x)
    e = np.multiply(z[..., None], e, out=e if len(e) == len(zeta) else None)  # the one Z-sized array exp overwrites
    if zeta.min() < 0.5:
        log_s = np.log1p(np.expm1(e, out=e) @ w + math.fsum(w.tolist() + [-1.0]))
    else:
        log_s = np.log(np.exp(e, out=e) @ w)
    del e  # frees the Z-sized array before the result's temporaries are made
    return log_s / z + centre


def _reduce(values: np.ndarray, zeta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integrate the last axis, one row per exponent in `zeta` (shape (Z,)): a plain
    mean where all are 0 (the outermost level), else (1/z) log E e^{z x}.

    `values` leads with the batch axis, of length Z or 1 (shared by every row).
    """
    if not zeta.any():
        return values @ w
    return _log_mean_exp(values, values.max(axis=-1), zeta, w)


def _kept(rule: QuadRule, zeta: np.ndarray, widest: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Masks (C x order) of the nodes of one level worth summing, for C chunks
    of rows whose largest noise amplitudes at this level are `widest` (C,).

    Every X_l is 1-Lipschitz in the accumulated field, so at a log-sum-exp
    level node j's term is at most w_j e^{s (|z_j| + |z_c|)} / w_c times that
    of the heaviest node c, and j is dropped when that is below
    2^-64 zeta_min.  At the plain-mean level |X_1| <= `reach` + s |z_i|, with
    `reach` the chunk's largest |h| plus its deeper scales times max |z|; i is
    dropped when w_i (1 + reach + s |z_i|) < 2^-64.  A log-sum-exp level
    then moves by at most order * 2^-64 of its value, the mean by at most
    order * 2^-64.
    """
    z, w = np.abs(rule.nodes), rule.weights
    if zeta.any():
        c = np.argmax(w)
        return np.log(w) + widest[:, None] * (z + z[c]) >= math.log(_NEGLIGIBLE * zeta.min() * w[c])
    return w * (1.0 + reach[:, None] + widest[:, None] * z) >= _NEGLIGIBLE


def _x_zero(h: np.ndarray, scales: np.ndarray, zetas: np.ndarray, levels: list) -> np.ndarray:
    """Backward recursion for a chunk of R species rows, without the closed-form top level.

    `h` (R x 1) holds each row's field, `scales` (R x L) its noise
    amplitudes of its live (nonzero) levels, outermost first, `zetas`
    (Z x L) the exponents applied when each is integrated out and `levels`
    the (nodes, weights) kept at each.  The two innermost levels are
    evaluated for the whole chunk at once: the log-cosh grid is formed once
    and exponentiated per weight vector into one Z x R x n x n array.  Outer
    levels recurse node by node, so that array is the peak memory whatever
    k.  Returns shape (Z, R), or (1, R) when no live level depends on the
    weights.
    """
    depth = scales.shape[1]

    def rec(i: int, shift):
        z, w = levels[i]
        if i == depth - 1:
            x = log_cosh(shift + scales[:, i, None] * z)
            return _reduce(x[None], zetas[:, i], w)
        if i < depth - 2:
            x = np.stack([rec(i + 1, shift + scales[:, i, None] * node) for node in z], axis=-1)
            return _reduce(x, zetas[:, i], w)
        inner, w_inner = levels[i + 1]
        x = log_cosh((shift + scales[:, i, None] * z)[..., None] + scales[:, i + 1, None, None] * inner)[None]
        # log cosh grows with |field| and the nodes ascend, so each row peaks at an end node
        peak = np.maximum(x[..., 0], x[..., -1])
        return _reduce(_log_mean_exp(x, peak, zetas[:, i + 1], w_inner), zetas[:, i], w)

    return rec(0, h)


def _chunks(h: np.ndarray, scales: np.ndarray, zetas: np.ndarray, rule: QuadRule) -> np.ndarray:
    """X_0 (R x Z) of R rows that share their live levels, chunk by chunk.

    A chunk's two innermost levels span Z x rows x order x order <=
    _CHUNK_FLOATS; its nodes are kept per chunk (`_kept`).
    """
    rows = max(1, _CHUNK_FLOATS // (len(zetas) * rule.order**2))
    starts = np.arange(0, len(h), rows)
    widest = np.maximum.reduceat(scales, starts, axis=0)  # (chunks, L)
    zmax = np.abs(rule.nodes).max()
    reach = np.maximum.reduceat(h, starts)[:, None] + zmax * (np.cumsum(widest[:, ::-1], axis=1)[:, ::-1] - widest)
    masks = [_kept(rule, zetas[:, i], widest[:, i], reach[:, i]) for i in range(scales.shape[1])]
    x = [_x_zero(h[at : at + rows, None], scales[at : at + rows], zetas,
                 [(rule.nodes[m[c]], rule.weights[m[c]]) for m in masks])
         for c, at in enumerate(starts)]
    return np.concatenate(x, axis=-1).T


def evaluate(spec: ModelSpec, tf: TempField, params: ParisiParams, rule: QuadRule):
    """Values (E x Z) of the k-level functional at each ladder of `params.q` (E), at its point of `tf`,
    and each weight vector of `params.zeta` (Z)."""
    q = params.q  # (E, M, k+1)
    if params.m != spec.m or tf.beta.size != len(q):
        raise ValueError("params, tf and spec must agree on the species count and hold one point per ladder")
    # ladder columns 0 .. k+2, boundary columns included
    ladder = np.concatenate([np.zeros_like(q[..., :1]), q, np.ones_like(q[..., :1])], axis=-1)
    cons = overlap_contractions(spec, ladder.swapaxes(-1, -2))  # one per (ladder, column)
    increments = np.diff(cons.species, axis=-2)  # (E, k+2, M)
    if (increments < -_INCREMENT_TOL).any():
        raise NonmonotoneOverlap(
            f"species coupling ladder decreases by {float(-increments.min()):.3e}"
        )
    increments = np.clip(increments, 0.0, None)

    # reduction exponent per level, one row per weight vector
    zetas = np.pad(params.zeta, ((0, 0), (1, 1)), constant_values=(0.0, 1.0))
    beta, h = tf.beta, tf.h
    scales = beta[:, None, None] * np.sqrt(increments[:, :-1])  # (E, k+1, M)
    top = (0.5 * beta * beta)[:, None] * increments[:, -1]  # (E, M)
    x0 = np.empty((len(q), spec.m, len(zetas)))
    # species-major, so a chunk holds neighbouring ladders of one species; a run of rows shares its live levels
    lives = (scales > 0.0).transpose(2, 0, 1).reshape(-1, scales.shape[1])
    ends = [*np.flatnonzero((lives[1:] != lives[:-1]).any(-1)) + 1, len(lives)]
    for lo, hi in zip([0, *ends], ends):
        (s, e), live = np.divmod(np.arange(lo, hi), len(q)), lives[lo:hi].any(0)  # all False for no ladders
        if not live.any():
            x0[e, s] = (log_cosh(h[e]) + top[e, s])[:, None]
            continue
        x0[e, s] = _chunks(h[e], scales[e, :, s][:, live], zetas[:, :-1][:, live], rule) + top[e, s, None]

    correction = np.sum(zetas[:, 1:] * np.diff(cons.scalar, axis=-1)[:, None, 1:], axis=-1)
    return _LOG2 + spec.lam @ x0 - (0.5 * beta * beta)[:, None] * correction
