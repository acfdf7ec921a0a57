"""Spherical convex hulls as polyhedral cones.

Distances to hulls, duals and boundaries, the facets of a stack of
cones (`cone_facets`), and the closed-form cap distances of the volume
experiment (`cap_distances_batch`, with `cap_distance_suite` its
one-point view).  `cone_member_batch`, membership by Caratheodory
subsets, runs in no experiment: tests keep it as an oracle independent
of the projection.

Projection onto a cone is nonnegative least squares, solved for a whole
stack of instances at once by `sic.nnls_stack`, the stacked
Lawson-Hanson kernel that also gives `sic` its least distances.
`sconv_distances` is the stacked hull distance built on it, and
`distance_to_sconv` its one-instance view; `distance_to_dual` projects
its point with a stack of one.  A stack of one pays the kernel's
per-step numpy overhead alone, so many instances belong in one stack.
The module needs numpy only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sic
from .errors import ConvergenceError, DegenerateHullError, DualEmptyError
from .sphere import Cap, SpherePoint, clipped_arccos, row_norms

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
    def ambient_dim(self) -> int:
        return self.generators.shape[1]

    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.generators, tol=1e-10))

    def facet_normals(self) -> np.ndarray:
        """Inward unit normals of the facets of the full-dimensional cone:
        the nonzero rows of `cone_facets`, once per facet.  Cached."""
        if self._facets is None:
            normals = []
            for normal in cone_facets(self.generators[None])[0]:
                if normal.any() and all(abs(float(n @ normal)) <= 1.0 - 1e-9 for n in normals):
                    normals.append(normal)
            self._facets = np.array(normals).reshape(-1, self.ambient_dim)
        return self._facets


def _project(gens: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Weights lam (B, k) of the nearest point lam @ gens[b] of cone(gens[b])
    to each X[b]: one `sic.nnls_stack` call; ConvergenceError unless every
    instance is certified."""
    lam, certified = sic.nnls_stack(gens.transpose(0, 2, 1), X)
    if not certified.all():
        raise ConvergenceError(
            f"cone projection NNLS found no certified optimum on "
            f"{int((~certified).sum())} of {len(X)} instances")
    return lam


def sconv_distances(X: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Angular distance from each X[b] to sconv(gens[b]), for unit rows
    X (B, d) and gens (B, k, d); 0 iff X[b] is a member.

    One `sic.nnls_stack` call projects every X[b] onto its cone.  Angles come
    from chords: arccos of a cosine near 1 puts members up to 2e-8 away.
    Where the projection is 0, X[b] sits in the polar cone and the nearest
    hull point is a generator.
    """
    lam = _project(gens, X)
    z = (lam[:, None, :] @ gens)[:, 0]
    nz = row_norms(z)
    polar = clipped_arccos((gens @ X[..., None])[..., 0].max(axis=1))
    return np.where(nz > 1e-12, sic._angles(X, z / np.maximum(nz, 1e-300)[:, None]), polar)


def distance_to_sconv(x: SpherePoint, P: SpherePolytope) -> float:
    """Angular distance from x to sconv(generators); 0 iff x is a member.
    The one-instance view of `sconv_distances`."""
    xv = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)
    if xv.size != P.ambient_dim:
        raise ValueError("point and polytope dimensions differ")
    return float(sconv_distances(xv[None], P.generators[None])[0])


def _interior_boundary_distance(xv: np.ndarray, P: SpherePolytope) -> float:
    facets = P.facet_normals()
    if facets.shape[0] == 0:
        raise DualEmptyError("cone has no facets; sconv covers the sphere")
    return float(np.min(np.arcsin(np.clip(np.abs(facets @ xv), 0.0, 1.0))))


def distance_to_dual(x: SpherePoint, P: SpherePolytope) -> float:
    """Angular distance from x to the dual set of sconv(generators)."""
    xv = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)
    if xv.size != P.ambient_dim:
        raise ValueError("point and polytope dimensions differ")
    z = P.generators.T @ _project(P.generators[None], xv[None])[0]
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
    """(d(x,K), d(x,K_dual), d(x,bd K)) for a cap K: the one-point view of
    `cap_distances_batch`."""
    d_hull, d_dual, d_bd = cap_distances_batch(x.coords[None], C.center.coords, C.radius)
    return float(d_hull[0]), float(d_dual[0]), float(d_bd[0])


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


def cone_facets(gens: np.ndarray) -> np.ndarray:
    """Inward unit facet normals of every cone(gens) of a stack (B, k, d):
    (B, C(k, d-1), d), one row per (d-1)-subset, its signed minors
    (`sic._normals`) normalized.  A row is kept, pointed inward, iff every
    generator lies on one closed side of its hyperplane (tol 1e-10) and
    not all on it; else, and where the subset does not span, it is zero.
    So a flat cone has no facet, and a pointed full-dimensional cone is
    the set of x with <n, x> >= 0 for every row n."""
    cols = sic._subset_index(gens.shape[1], (gens.shape[2] - 1,))[1][0]
    normals = sic._normals(gens.take(cols, axis=1).transpose(1, 3, 0, 2)).transpose(1, 2, 0)
    length = np.sqrt((normals * normals).sum(axis=2, keepdims=True))
    normals = normals / np.maximum(length, 1e-300)
    dots = gens @ normals.transpose(0, 2, 1)
    lo, hi = dots.min(axis=1)[..., None] >= -1e-10, dots.max(axis=1)[..., None] <= 1e-10
    return np.where((length > 1e-10) & (lo != hi), np.where(lo, normals, -normals), 0.0)


def cap_distances_batch(X: np.ndarray, center: np.ndarray, radius: float):
    """(d(x,K), d(x,K_dual), d(x,bd K)) for each row x of X and the cap K
    of the given center and radius, in closed form, as three arrays.

    Requires radius <= pi/2 so that the dual is the antipodal cap of
    radius pi/2 - radius.
    """
    if radius > math.pi / 2 + 1e-12:
        raise ValueError("cap radius beyond pi/2: dual is not a cap")
    dc = clipped_arccos(X @ center)
    d_hull = np.maximum(0.0, dc - radius)
    d_dual = np.maximum(0.0, (math.pi - dc) - (math.pi / 2 - radius))
    d_bd = np.abs(dc - radius)
    return d_hull, d_dual, d_bd
