"""Spherical convex hulls as polyhedral cones.

Membership, nearest-point projection (nonnegative least squares), distances
to hulls, duals and boundaries, plus the closed-form cap distances used by
the volume experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .errors import ConvergenceError, DegenerateHullError, DualEmptyError
from .sic import strictly_feasible
from .sphere import Cap, SpherePoint, angular_distance, clipped_arccos

# A point is treated as a member of a hull when its hull distance is below
# this; chosen so NNLS roundoff never flips membership of true members.
MEMBER_TOL = 1e-9


@dataclass(eq=False)
class SpherePolytope:
    """sconv of finitely many sphere points, viewed as cone(generators)."""

    generators: np.ndarray
    _facets: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        gens = np.atleast_2d(np.asarray(self.generators, dtype=float))
        if gens.size == 0:
            raise ValueError("polytope needs at least one generator")
        norms = np.linalg.norm(gens, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("generators must be unit vectors")
        self.generators = gens / norms[:, None]

    @property
    def k(self) -> int:
        return self.generators.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.generators, tol=1e-10))

    def properly_convex(self) -> bool:
        """True iff the origin is outside conv(generators) (pointed cone)."""
        return strictly_feasible(self.generators)

    def facet_normals(self) -> np.ndarray:
        """Inward unit normals of the facets of the full-dimensional cone.

        A size-(d-1) generator subset spans a facet candidate; the candidate
        is kept iff every generator lies on one closed side (tol 1e-10).
        Cached after the first computation.
        """
        if self._facets is not None:
            return self._facets
        gens = self.generators
        d = self.ambient_dim
        m = d - 1
        normals = []
        for subset in itertools.combinations(range(self.k), m):
            sub = gens[list(subset)]
            _, svals, vt = np.linalg.svd(sub)
            if svals.size < m or svals[-1] < 1e-10:
                continue  # subset does not span an (m)-dim subspace
            normal = vt[-1]
            dots = gens @ normal
            if np.min(dots) >= -1e-10:
                pass
            elif np.max(dots) <= 1e-10:
                normal = -normal
                dots = -dots
            else:
                continue  # generators straddle the hyperplane
            if any(abs(float(n @ normal)) > 1.0 - 1e-9 for n in normals):
                continue  # same facet reached through another subset
            normals.append(normal)
        self._facets = np.array(normals) if normals else np.empty((0, d))
        return self._facets


def project_onto_cone(x: SpherePoint, P: SpherePolytope):
    """Nearest point of cone(generators) to x, with its certificate.

    Returns (z, lam) with z = sum lam_i b_i, lam >= 0, and KKT residual
    below 1e-10.  z may be the zero vector.
    """
    xv = np.asarray(x.coords if isinstance(x, SpherePoint) else x, dtype=float)
    if xv.size != P.ambient_dim:
        raise ValueError("point and polytope dimensions differ")
    try:
        lam, _ = nnls(P.generators.T, xv)
    except RuntimeError as exc:
        raise ConvergenceError(f"cone projection NNLS failed: {exc}") from exc
    z = P.generators.T @ lam
    resid = xv - z
    grad = P.generators @ resid
    if np.max(grad, initial=0.0) > 1e-10 or abs(float(lam @ grad)) > 1e-10:
        raise ConvergenceError("cone projection failed its KKT certificate")
    return z, lam


def distance_to_sconv(x: SpherePoint, P: SpherePolytope) -> float:
    """Angular distance from x to sconv(generators); 0 iff x is a member."""
    xv = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)
    z, _ = project_onto_cone(x, P)
    nz = float(np.linalg.norm(z))
    if nz > 1e-12:
        return float(clipped_arccos(float(xv @ z) / nz))
    # x sits in the polar cone: the nearest hull point is a generator.
    return float(clipped_arccos(float(np.max(P.generators @ xv))))


def _interior_boundary_distance(xv: np.ndarray, P: SpherePolytope) -> float:
    facets = P.facet_normals()
    if facets.shape[0] == 0:
        raise DualEmptyError("cone has no facets; sconv covers the sphere")
    return float(np.min(np.arcsin(np.clip(np.abs(facets @ xv), 0.0, 1.0))))


def distance_to_dual(x: SpherePoint, P: SpherePolytope) -> float:
    """Angular distance from x to the dual set of sconv(generators)."""
    xv = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)
    z, _ = project_onto_cone(x, P)
    w = xv - z
    nw = float(np.linalg.norm(w))
    nz = float(np.linalg.norm(z))
    if nz <= 1e-12:
        return 0.0  # all generator inner products <= 0: x is in the dual
    if nw > 1e-12:
        return float(clipped_arccos(float(xv @ w) / nw))
    # x lies in the hull itself: everything in the dual is at least pi/2
    # away, plus however deep x sits inside the hull.
    if P.rank() < P.ambient_dim:
        return math.pi / 2
    return math.pi / 2 + _interior_boundary_distance(xv, P)


def distance_to_boundary(x: SpherePoint, P: SpherePolytope) -> float:
    """Angular distance from x to the boundary of sconv(generators).

    Exterior points: equals the hull distance.  Interior points: minimum
    over facet great subspheres of arcsin |<normal, x>|.
    """
    xv = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)
    d_hull = distance_to_sconv(x, P)
    if d_hull > MEMBER_TOL:
        return d_hull
    if P.rank() < P.ambient_dim:
        raise DegenerateHullError("hull spans a proper subspace; boundary distance undefined")
    return _interior_boundary_distance(xv, P)


def cap_distance_suite(x: SpherePoint, C: Cap):
    """(d(x,K), d(x,K_dual), d(x,bd K)) for a cap K, in closed form.

    Requires radius <= pi/2 so that the dual is the antipodal cap of
    radius pi/2 - radius.
    """
    if C.radius > math.pi / 2 + 1e-12:
        raise ValueError("cap radius beyond pi/2: dual is not a cap")
    dc = angular_distance(x, C.center)
    r = C.radius
    d_hull = max(0.0, dc - r)
    d_dual = max(0.0, (math.pi - dc) - (math.pi / 2 - r))
    d_bd = abs(dc - r)
    return d_hull, d_dual, d_bd


def cone_member_batch(X: np.ndarray, gens: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Vectorized membership of many points in cone(gens), by Caratheodory.

    Every member of a finitely generated cone in R^d lies in a simplicial
    subcone of at most d generators, so membership is a batched linear
    solve over the d-subsets.  Independent of the NNLS projection path.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gens = np.atleast_2d(np.asarray(gens, dtype=float))
    k, d = gens.shape
    member = np.zeros(X.shape[0], dtype=bool)
    for size in range(min(k, d), 0, -1):
        for subset in itertools.combinations(range(k), size):
            sub = gens[list(subset)]  # (size, d)
            if size == d:
                try:
                    coef = np.linalg.solve(sub.T, X.T).T
                except np.linalg.LinAlgError:
                    continue
            else:
                coef, *_ = np.linalg.lstsq(sub.T, X.T, rcond=None)
                coef = coef.T
                off = np.linalg.norm(coef @ sub - X, axis=1)
                coef = np.where(off[:, None] <= tol, coef, -1.0)
            member |= np.all(coef >= -tol, axis=1)
        if member.all():
            break
    return member


def cap_distances_batch(X: np.ndarray, center: np.ndarray, radius: float):
    """Vectorized cap_distance_suite over rows of X; returns three arrays."""
    if radius > math.pi / 2 + 1e-12:
        raise ValueError("cap radius beyond pi/2: dual is not a cap")
    dc = clipped_arccos(X @ center)
    d_hull = np.maximum(0.0, dc - radius)
    d_dual = np.maximum(0.0, (math.pi - dc) - (math.pi / 2 - radius))
    d_bd = np.abs(dc - radius)
    return d_hull, d_dual, d_bd
