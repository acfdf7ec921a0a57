"""Spherical geometry primitives.

The per-coordinate sum (`_dot`) that keeps a row's norm or inner product
the same bits in any stack, and the sin/cos moment integrals that drive
cap volumes and radial sampling laws.  All angles are radians.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# Nodes per cell of the composite Gauss-Legendre rule (`gauss_legendre`).
_GL_NODES = 16
# Cells of `integral_I`'s rule, accurate to a few ulps for every order and
# limit.
_I_CELLS = 8


def clipped_arccos(c):
    """arccos with the argument clamped to [-1, 1] to absorb roundoff."""
    return np.arccos(np.clip(c, -1.0, 1.0))


def _libm(ufunc, x: np.ndarray) -> np.ndarray:
    """The C library's value of a numpy math ufunc (np.log, np.cos,
    np.arccos, np.sin) at each value of a 1-d array, as Cephes and the
    `math` module take it.  numpy's vectorized kernels differ from it in
    the last bit on a few inputs in a thousand, but numpy runs them on
    forward strides only: on a reversed view it calls the C library
    element by element.  The tests against scipy.special.ndtri, the
    per-value condition-number columns and `sic_rho` check this."""
    return ufunc(x[::-1])[::-1]


def _dot(x, y):
    """<x, y> of coordinate-major arrays, summed coordinate by coordinate.

    Every sum is the same sequence of elementwise operations whatever the
    shape of the stack it sits in, so a row's value never depends on the
    batch that holds it (a reduction or a matrix product may reorder its
    sum by shape)."""
    acc = x[0] * y[0]
    for k in range(1, len(x)):
        acc += x[k] * y[k]
    return acc


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, by `_dot`.  numpy sums rows of
    fewer than 8 coordinates in order, so there they also match
    np.linalg.norm bit for bit."""
    coords = np.moveaxis(x, -1, 0)
    return np.sqrt(_dot(coords, coords))


def _validate_alpha(alpha: float):
    if not alpha > 0.0:
        raise ValueError(f"upper limit alpha={alpha} must be positive")
    if alpha > math.pi / 2 + 1e-12:
        raise ValueError(f"upper limit alpha={alpha} exceeds pi/2")


@functools.lru_cache(maxsize=None)
def _gl_rule():
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], computed
    once: leggauss costs about 250 us a call, more than a rule it feeds."""
    nodes, weights = leggauss(_GL_NODES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(integrand, edges) -> np.ndarray:
    """Integral of a vectorized integrand over each cell between consecutive
    edges, by the 16-point Gauss-Legendre rule on the cell."""
    nodes, weights = _gl_rule()
    edges = np.asarray(edges, dtype=float)
    los, his = edges[:-1], edges[1:]
    half = 0.5 * (his - los)
    mids = 0.5 * (his + los)
    pts = mids[:, None] + half[:, None] * nodes[None, :]
    return (integrand(pts) @ weights) * half


def integral_I(k: int, alpha: float) -> float:
    """I_k(alpha) = integral of (sin t)^(k-1) over [0, alpha], by composite
    Gauss-Legendre on _I_CELLS cells: relative error a few 1e-15 (checked
    to k = 40, alpha down to 1e-9)."""
    if k < 1:
        raise ValueError("order k must be at least 1")
    _validate_alpha(alpha)
    cells = gauss_legendre(lambda t: np.sin(t) ** (k - 1), np.linspace(0.0, alpha, _I_CELLS + 1))
    return float(cells.sum())
