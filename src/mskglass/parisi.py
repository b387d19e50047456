"""Generic k-level hierarchical free-energy functional.

For cluster weights 0 < zeta_1 < ... < zeta_k < 1 and per-species overlap
ladders 0 = q_0 <= q_1 <= ... <= q_{k+1} <= q_{k+2} = 1, the functional is

    log 2 + sum_s lam_s X_0^s - (beta^2 / 2) sum_{l=1}^{k+1} zeta_l (Q_{l+1} - Q_l)

where the X recursion runs backward from

    X_{k+2}^s = log cosh(h + beta sum_l eta_{l+1} sqrt(Q_{l+1}^s - Q_l^s))

through X_l^s = (1/zeta_l) log E_{l+1} exp(zeta_l X_{l+1}^s), the l = 0 step
being a plain expectation.  The top level has zeta_{k+1} = 1 and integrates
out in closed form, log E cosh(y + s eta) = log cosh y + s^2 / 2, so k = 0 is
the single-atom functional and k = 1 the one-step functional of `onersb`.
Each X_l^s depends on the noise only through the accumulated field, so the
remaining k + 1 levels are evaluated bottom-up on the tensor grid of
quadrature nodes while holding at most an order x order slice in memory.
Cost grows as order**(k+1); levels k <= 3 are practical at moderate order
and nothing is ever truncated.  Levels whose overlap increment vanishes are
integrated out exactly (the reduction is the identity there), which keeps
coalesced ladders bit-stable.  A batch of Z weight vectors shares every
log-cosh grid and runs through the recursion as one; a batch of E ladders
shares one pass of contractions, increments and the weight correction, so a
whole (E x Z) scan costs one call with one validation.
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


@dataclass(frozen=True)
class ParisiParams:
    """Cluster weights zeta (length k) and overlap ladder q (M x (k+1)).

    zeta may also be a batch (Z x k) of weight vectors and q a batch
    (E x M x (k+1)) of ladders; every weight vector meets every ladder.  The
    boundary columns q_0 = 0 and q_{k+2} = 1 are implicit.  Weights must be
    strictly increasing inside the open interval (0, 1); the endpoint values
    0 and 1 are handled analytically by the evaluator, never fed to the
    1/zeta * log E exp(zeta *) form.
    """

    zeta: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        if zeta.ndim > 2:
            raise BadZeta("zeta must be a vector or a batch (Z x k) of vectors")
        if ((zeta <= 0.0) | (zeta >= 1.0)).any():
            raise BadZeta("cluster weights must lie strictly inside (0, 1)")
        if (np.diff(zeta, axis=-1) <= 0).any():
            raise BadZeta("cluster weights must be strictly increasing")
        k = zeta.shape[-1]
        if q.ndim > 3 or q.shape[-1] != k + 1:
            raise ValueError(f"q must be M x (k+1), or a batch of them, with k = {k}")
        if ((q < -_INCREMENT_TOL) | (q > 1 + _INCREMENT_TOL)).any():
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
        return self.zeta.shape[-1]

    @property
    def m(self) -> int:
        return self.q.shape[-2]


def _reduce(values: np.ndarray, zeta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integrate the last axis, one row per exponent in `zeta` (shape (Z,)):
    a plain mean where all are 0 (the outermost level), else (1/z) log E e^{z x}.

    `values` leads with the batch axis, of length Z or 1 (shared by every row).
    """
    if not zeta.any():
        return values @ w
    z = zeta.reshape((-1,) + (1,) * (values.ndim - 1))
    # z > 0 preserves order under rounding, so this is the max of z * values
    top = z * values.max(axis=-1, keepdims=True)
    a = z * values
    a -= top
    np.exp(a, out=a)
    return (np.log(a @ w) + top[..., 0]) / z[..., 0]


def _x_zero(h: float, beta: float, increments: np.ndarray, zetas: np.ndarray, rule: QuadRule) -> np.ndarray:
    """Backward recursion for one species, as a function of accumulated field.

    Level l (outermost first) has noise amplitude beta * sqrt(increments[l]),
    with increments[l] = Q_{l+1}^s - Q_l^s, and column l of `zetas` (Z x
    levels) holds the exponents applied when it is integrated out.  The last
    level (zeta = 1) contributes its closed form beta^2 increments[-1] / 2; of
    the others, zero-scale levels drop out exactly.  The two innermost active
    levels are vectorized; outer levels recurse node by node, so peak memory
    is Z * order**2 regardless of k.  Returns shape (Z,), or (1,) when no
    active level depends on the weights.
    """
    top = 0.5 * beta * beta * increments[-1]
    scales = beta * np.sqrt(increments[:-1])
    live = [(s, z) for s, z in zip(scales, zetas[:, :-1].T) if s > 0.0]
    if not live:
        return np.array([log_cosh(h) + top])
    nodes, w = rule.nodes, rule.weights

    def rec(i: int, shift: float):
        scale, zeta = live[i]
        if i == len(live) - 1:
            x = log_cosh(shift + scale * nodes)
            return _reduce(x[None], zeta, w)
        if i == len(live) - 2:
            inner_scale, inner_zeta = live[i + 1]
            x = log_cosh(shift + scale * nodes[:, None] + inner_scale * nodes[None, :])
            return _reduce(_reduce(x[None], inner_zeta, w), zeta, w)
        x = np.stack([rec(i + 1, shift + scale * node) for node in nodes], axis=-1)
        return _reduce(x, zeta, w)

    return rec(0, h) + top


def evaluate(spec: ModelSpec, tf: TempField, params: ParisiParams, rule: QuadRule):
    """Value of the k-level functional at the given weights and ladder: a
    float, or an array indexed (ladder, weight vector) over the batched axes
    of `params.q` (E) and `params.zeta` (Z), in that order."""
    if params.m != spec.m:
        raise ValueError("params and spec disagree on the species count")
    q = params.q.reshape((-1,) + params.q.shape[-2:])  # (E, M, k+1)
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
    zetas = np.pad(np.atleast_2d(params.zeta), ((0, 0), (1, 1)), constant_values=(0.0, 1.0))
    beta = tf.beta
    x0 = np.empty((len(q), spec.m, len(zetas)))
    for e, s in np.ndindex(x0.shape[:2]):
        x0[e, s] = _x_zero(tf.h, beta, increments[e, :, s], zetas, rule)

    correction = np.sum(zetas[:, 1:] * np.diff(cons.scalar, axis=-1)[:, None, 1:], axis=-1)
    value = _LOG2 + spec.lam @ x0 - 0.5 * beta * beta * correction
    value = value.reshape(params.q.shape[:-2] + params.zeta.shape[:-1])
    return value if value.ndim else float(value)
