"""Spherical geometry primitives.

Points on S^m, deterministic rotations, and the sin/cos moment
integrals that drive cap volumes and radial sampling laws.
All angles are radians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DimensionMismatchError

# Inputs whose norm deviates from 1 by more than this are rejected as
# corrupt; smaller deviations are renormalized.
NORM_REJECT_TOL = 1e-6

# Nodes per cell of the composite Gauss-Legendre rule (`gauss_legendre`).
_GL_NODES = 16
# Cells of `integral_I`'s rule, accurate to a few ulps for every order and
# limit.
_I_CELLS = 8


def unit_vector(v) -> np.ndarray:
    """Validate and renormalize a vector expected to be unit length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d coordinate vector")
    if arr.size < 2:
        raise ValueError("sphere dimension must be at least 1 (need >= 2 coordinates)")
    nrm = float(np.linalg.norm(arr))
    if not math.isfinite(nrm) or abs(nrm - 1.0) > NORM_REJECT_TOL:
        raise ValueError(f"vector norm {nrm!r} deviates from 1 by more than {NORM_REJECT_TOL}")
    return arr / nrm


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


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, as an explicit per-coordinate sum.

    Every norm is the same sequence of elementwise operations whatever the
    shape of the stack it sits in, so a row's norm never depends on the
    batch that holds it (a reduction may reorder its sum by shape).  numpy
    sums rows of fewer than 8 coordinates in order, so there it also
    matches np.linalg.norm bit for bit.
    """
    sq = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        sq = sq + x[..., k] * x[..., k]
    return np.sqrt(sq)


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A unit vector in R^{m+1}, i.e. a point of the sphere S^m."""

    coords: np.ndarray

    def __post_init__(self):
        arr = unit_vector(self.coords)
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)


def rotation_to(source: SpherePoint, target: SpherePoint) -> np.ndarray:
    """Deterministic orthogonal matrix R with R @ source = target.

    Built from a single Householder reflection (identity when the points
    coincide), so R is orthogonal to machine precision and needs no
    special casing at source = -target.
    """
    s, t = source.coords, target.coords
    if s.size != t.size:
        raise DimensionMismatchError(f"points live on S^{s.size - 1} and S^{t.size - 1}")
    u = s - t
    nu = np.linalg.norm(u)
    d = s.size
    if nu < 1e-14:
        return np.eye(d)
    u = u / nu
    return np.eye(d) - 2.0 * np.outer(u, u)


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
