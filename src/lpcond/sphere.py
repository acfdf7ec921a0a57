"""Spherical geometry primitives.

Points on S^m, spherical caps, deterministic rotations, and the
sin/cos moment integrals that drive cap volumes and radial sampling laws.
All angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DimensionMismatchError

# Inputs whose norm deviates from 1 by more than this are rejected as
# corrupt; smaller deviations are renormalized.
NORM_REJECT_TOL = 1e-6

_QUAD_ABS_TOL = 1e-12


def unit_vector(v, reject_tol: float = NORM_REJECT_TOL) -> np.ndarray:
    """Validate and renormalize a vector expected to be unit length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d coordinate vector")
    if arr.size < 2:
        raise ValueError("sphere dimension must be at least 1 (need >= 2 coordinates)")
    nrm = float(np.linalg.norm(arr))
    if not math.isfinite(nrm) or abs(nrm - 1.0) > reject_tol:
        raise ValueError(f"vector norm {nrm!r} deviates from 1 by more than {reject_tol}")
    return arr / nrm


def clipped_arccos(c):
    """arccos with the argument clamped to [-1, 1] to absorb roundoff."""
    return np.arccos(np.clip(c, -1.0, 1.0))


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

    @property
    def dim(self) -> int:
        """The m of the ambient S^m."""
        return self.coords.size - 1

    def __repr__(self):
        return f"SpherePoint({np.array2string(self.coords, precision=6)})"


def _check_same_dim(x: SpherePoint, y: SpherePoint):
    if x.coords.size != y.coords.size:
        raise DimensionMismatchError(
            f"points live on S^{x.dim} and S^{y.dim}"
        )


def angular_distance(x: SpherePoint, y: SpherePoint) -> float:
    """Angle in [0, pi] between two points of the same sphere."""
    _check_same_dim(x, y)
    return float(clipped_arccos(float(x.coords @ y.coords)))


def projective_distance(x: SpherePoint, y: SpherePoint) -> float:
    """sin of the angular distance; vanishes iff x = +/- y."""
    return math.sin(angular_distance(x, y))


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap: all points within `radius` of `center`."""

    center: SpherePoint
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius <= math.pi:
            raise ValueError(f"cap radius {self.radius} outside [0, pi]")

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, x: SpherePoint, tol: float = 1e-9) -> bool:
        _check_same_dim(self.center, x)
        return float(self.center.coords @ x.coords) >= math.cos(self.radius) - tol


def rotation_to(source: SpherePoint, target: SpherePoint) -> np.ndarray:
    """Deterministic orthogonal matrix R with R @ source = target.

    Built from a single Householder reflection (identity when the points
    coincide), so R is orthogonal to machine precision and needs no
    special casing at source = -target.
    """
    _check_same_dim(source, target)
    s, t = source.coords, target.coords
    u = s - t
    nu = np.linalg.norm(u)
    d = s.size
    if nu < 1e-14:
        return np.eye(d)
    u = u / nu
    return np.eye(d) - 2.0 * np.outer(u, u)


def sphere_volume(m: int) -> float:
    """m-dimensional volume of S^m: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if m < 0:
        raise ValueError("dimension must be nonnegative")
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


def _validate_alpha(alpha: float):
    if not alpha > 0.0:
        raise ValueError(f"upper limit alpha={alpha} must be positive")
    if alpha > math.pi / 2 + 1e-12:
        raise ValueError(f"upper limit alpha={alpha} exceeds pi/2")


def integral_I(k: int, alpha: float) -> float:
    """I_k(alpha) = integral of (sin t)^(k-1) over [0, alpha].

    Adaptive quadrature, absolute error below 1e-10.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    _validate_alpha(alpha)
    if k == 1:
        return float(alpha)
    val, _ = quad(lambda t: math.sin(t) ** (k - 1), 0.0, alpha,
                  epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_ABS_TOL, limit=200)
    return val


def integral_J(m: int, k: int, alpha: float) -> float:
    """J_{m,k}(alpha) = integral of (sin)^(k-1) (cos)^(m-k) over [0, alpha]."""
    if not 1 <= k <= m:
        raise ValueError(f"order k={k} outside 1..m={m}")
    _validate_alpha(alpha)
    val, _ = quad(lambda t: math.sin(t) ** (k - 1) * math.cos(t) ** (m - k),
                  0.0, alpha, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_ABS_TOL, limit=200)
    return val


@dataclass(frozen=True)
class IntegralTable:
    """A tabulated evaluation of J_{m,k} at a fixed resolution."""

    m: int
    k: int
    alpha: float
    value: float
    node_count: int


def integral_table(m: int, k: int, alpha: float, node_count: int = 4096) -> IntegralTable:
    """Composite-midpoint evaluation of J_{m,k}(alpha) on `node_count` cells.

    The integrand is nonnegative on [0, pi/2], so the value is nonnegative
    and monotone nondecreasing in alpha.
    """
    if not 1 <= k <= m:
        raise ValueError(f"order k={k} outside 1..m={m}")
    _validate_alpha(alpha)
    if node_count < 1:
        raise ValueError("node_count must be positive")
    edges = np.linspace(0.0, alpha, node_count + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.sin(mids) ** (k - 1) * np.cos(mids) ** (m - k)
    value = float(np.sum(vals) * (alpha / node_count))
    return IntegralTable(m=m, k=k, alpha=alpha, value=value, node_count=node_count)
