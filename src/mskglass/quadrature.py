"""Deterministic Gaussian expectations via Gauss-Hermite quadrature.

Every single-atom quantity in this package is a cavity-field expectation

    E f(beta * sqrt(C_s) * eta + h),    eta ~ N(0, 1),

one per species coupling C_s.  Gauss-Hermite nodes are rescaled so that the
weights integrate against the standard normal measure directly:

    E f(eta) ~= sum_i w_i f(z_i),    sum_i w_i = 1.

Two consumers apply the rule: `rs.map_derivatives`, the one evaluation of
T = E tanh^2 and gamma = lam E sech^4 with their derivatives, and the
hierarchical functional (`parisi.py`), which nests it level by level in the
log domain with the overflow-free `log_cosh`.  The integrands (tanh^2,
sech^4, log cosh) have poles at y = +-i pi/2, so the rule loses accuracy as
beta sqrt(C) grows; order 61 is the package default.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

DEFAULT_ORDER = 61
MAX_ORDER = 370  # above it the weights leave the float64 range

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights for a standard-normal expectation."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.order < 1:
            raise ValueError("quadrature order must be positive")
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes and weights must both have length `order`")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("nodes and weights must be finite")
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@functools.cache
def gauss_hermite(order: int = DEFAULT_ORDER) -> QuadRule:
    """Gauss-Hermite rule transformed to standard-normal weighting.

    hermgauss targets integral exp(-x^2) g(x) dx; substituting z = sqrt(2) x
    and dividing the weights by sqrt(pi) yields nodes/weights for E f(z) with
    z ~ N(0, 1).  Weights sum to 1 up to rounding.  Above MAX_ORDER the
    weights leave the float64 range, so such orders are rejected
    (ValueError); any other order's rule is computed once and shared (read-only).
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must lie in [1, {MAX_ORDER}], got {order}")
    x, w = hermgauss(order)
    return QuadRule(order=order, nodes=np.sqrt(2.0) * x, weights=w / math.sqrt(math.pi))


def log_cosh(y):
    """log cosh(y) = |y| + log1p(exp(-2|y|)) - log 2 for each entry of y, free of overflow; `y` is left unchanged."""
    a = np.abs(y)
    out = np.multiply(a, -2.0, out=np.empty(np.shape(a)))  # the one buffer the passes below overwrite
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += a
    out -= _LN2
    return out

