"""Deterministic Gaussian expectations via Gauss-Hermite quadrature.

Every single-atom quantity in this package is a cavity-field expectation

    E f(beta * sqrt(C_s) * eta + h),    eta ~ N(0, 1),

one per species coupling C_s; `cavity_expect` evaluates it for a whole batch
of couplings at once.  The hierarchical functional (`parisi.py`) nests the
same rule level by level in the log domain.  Gauss-Hermite nodes are
rescaled so that the weights integrate against the standard normal measure
directly:

    E f(eta) ~= sum_i w_i f(z_i),    sum_i w_i = 1.

The integrands are entire functions of moderate growth (tanh^2, sech^4,
log cosh), for which the rule converges spectrally; order 61 is the package
default.  log cosh is computed as |y| + log1p(exp(-2|y|)) - log 2 and sech^4
from it, so no integrand overflows for any admissible model parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


def gauss_hermite(order: int = DEFAULT_ORDER) -> QuadRule:
    """Gauss-Hermite rule transformed to standard-normal weighting.

    hermgauss targets integral exp(-x^2) g(x) dx; substituting z = sqrt(2) x
    and dividing the weights by sqrt(pi) yields nodes/weights for E f(z) with
    z ~ N(0, 1).  Weights sum to 1 up to rounding.  Above MAX_ORDER the
    weights leave the float64 range, so such orders are rejected
    (ValueError) before any rule is computed.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must lie in [1, {MAX_ORDER}], got {order}")
    x, w = hermgauss(order)
    return QuadRule(order=order, nodes=np.sqrt(2.0) * x, weights=w / math.sqrt(math.pi))


def cavity_expect(
    f: Callable[[np.ndarray], np.ndarray], rule: QuadRule, beta: float, coupling, h: float
) -> np.ndarray:
    """E f(beta * sqrt(C) * eta + h) for every entry C of `coupling` (shape (...,)).

    Negative couplings (rounding below zero) are read as 0; `f` must be
    vectorized.  Returns an array of the coupling's shape.
    """
    scale = beta * np.sqrt(np.maximum(coupling, 0.0))
    return f(scale[..., None] * rule.nodes + h) @ rule.weights


def log_cosh(y):
    """log cosh(y) = |y| + log1p(exp(-2|y|)) - log 2, free of overflow."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - _LN2


def sech4(y):
    """sech^4(y), computed in log space so large |y| underflows to 0."""
    return np.exp(-4.0 * log_cosh(y))
