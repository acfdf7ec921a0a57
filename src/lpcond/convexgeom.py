"""Spherical convex hulls as polyhedral cones.

Membership, nearest-point projection, distances to hulls, duals and
boundaries, plus the closed-form cap distances used by the volume
experiments.

Projection onto a cone is nonnegative least squares, solved for a whole
stack of instances at once by `nnls_stack`: the active-set method of
Lawson and Hanson (Solving Least Squares Problems, ch. 23) with one
passive-set mask per instance and one least-squares solve of the whole
stack per step.  `sconv_distances` is the stacked hull distance built on
it, and `distance_to_sconv` its one-instance view; `distance_to_dual`
projects its point with a stack of one.  A stack of one pays the
kernel's per-step numpy overhead alone: 0.07-0.7 ms a call at k <= 9
generators, 5-40x a per-instance scipy NNLS, so many instances belong
in one stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import sic
from .errors import ConvergenceError, DegenerateHullError, DualEmptyError
from .sphere import Cap, SpherePoint, angular_distance, clipped_arccos, row_norms

# A point is treated as a member of a hull when its hull distance is below
# this; chosen so NNLS roundoff never flips membership of true members.
MEMBER_TOL = 1e-9
# `nnls_stack` on unit-scale data: a column enters the passive set only
# if its gradient exceeds _ENTER_TOL, and counts as independent of the
# passive columns only if its part orthogonal to them exceeds _RANK_TOL;
# an answer must meet the KKT conditions to _KKT_TOL within
# _STEPS_PER_COLUMN * n steps.
_ENTER_TOL = 1e-12
_RANK_TOL = 1e-12
_KKT_TOL = 1e-10
_STEPS_PER_COLUMN = 3


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


def _gradient(E: np.ndarray, f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """E^T (f - E u) of each instance: the negative gradient of the NNLS
    objective, from the residual (not E^T f - E^T E u, which cancels)."""
    resid = f - (E @ u[..., None])[..., 0]
    return (resid[:, None, :] @ E)[:, 0]


def _passive_solve(E: np.ndarray, f: np.ndarray, passive: np.ndarray):
    """Least squares on the passive columns of each instance of a stack:
    s, zero off the passive set.

    Gram-Schmidt, run twice on each column ("twice is enough"),
    orthogonalizes the masked columns of the whole stack one column index
    at a time; back substitution gives s.  A passive column whose part
    orthogonal to the columns before it is at most _RANK_TOL is
    numerically dependent on them, and gets weight 0.
    """
    B, r, n = E.shape
    Q = np.zeros((B, r, n))
    R = np.zeros((B, n, n))
    for j in range(n):
        v = E[:, :, j] * passive[:, j, None]
        for _ in range(2 if j else 0):
            c = (v[:, None, :] @ Q[:, :, :j])[:, 0]
            v = v - (Q[:, :, :j] @ c[..., None])[..., 0]
            R[:, :j, j] += c
        R[:, j, j] = row_norms(v)
        Q[:, :, j] = v / np.where(R[:, j, j] > _RANK_TOL, R[:, j, j], np.inf)[:, None]
    pivot = np.where(passive, np.diagonal(R, axis1=1, axis2=2), 1.0)
    pivot = np.where(pivot > _RANK_TOL, pivot, np.inf)
    c = (f[:, None, :] @ Q)[:, 0]
    s = np.zeros((B, n))
    for j in range(n - 1, -1, -1):
        s[:, j] = (c[:, j] - (R[:, j, j + 1:] * s[:, j + 1:]).sum(axis=1)) / pivot[:, j]
    return s


def nnls_stack(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """u[b] = argmin ||E[b] u - f[b]|| over u >= 0, for a stack E (B, r, n), f (B, r).

    Lawson-Hanson with a passive-set mask per instance; every step is one
    least-squares solve of the whole stack (`_passive_solve`).  The
    column of largest gradient above _ENTER_TOL enters; where its new
    weight is not positive (it depends on the passive columns, or
    roundoff), it is refused until the passive set next changes, as in
    Lawson-Hanson.  A weight driven to zero leaves.  After at most 3n
    steps (_STEPS_PER_COLUMN) every instance must meet the KKT
    conditions to 1e-10: max E^T(f - Eu) <= 1e-10 and |u . E^T(f - Eu)|
    <= 1e-10.  Else ConvergenceError; both on inputs of unit scale.
    """
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    B, _, n = E.shape
    cap = _STEPS_PER_COLUMN * n
    rows, cols = np.arange(B), np.arange(n)
    u = np.zeros((B, n))
    passive = np.zeros((B, n), dtype=bool)
    refused = np.zeros((B, n), dtype=bool)
    live = np.ones(B, dtype=bool)  # not yet at the optimum
    entering = np.ones(B, dtype=bool)  # at a passive-set optimum: a column may enter
    for step in itertools.count(1):
        w = np.where(passive | refused | ~(live & entering)[:, None], -np.inf, _gradient(E, f, u))
        t = w.argmax(axis=1)
        grow = live & entering & (w[rows, t] > _ENTER_TOL)
        live &= grow | ~entering
        if not live.any():
            break
        if step > cap:
            raise ConvergenceError(
                f"NNLS reached its cap of {cap} steps on {int(live.sum())} of {B} instances")
        passive[rows[grow], t[grow]] = True
        s = _passive_solve(E, f, passive)
        refuse = grow & (s[rows, t] <= 0.0)
        passive[rows[refuse], t[refuse]] = False
        accept = live & ~refuse & np.all(~passive | (s > 0.0), axis=1)
        cut = live & ~refuse & ~accept
        refused = refuse[:, None] & (refused | (cols == t[:, None]))
        # Move toward s until the first passive weight reaches zero; drop it.
        neg = cut[:, None] & passive & (s <= 0.0)
        ratio = np.where(neg, u / np.where(neg, np.maximum(u - s, 1e-300), 1.0), np.inf)
        alpha = np.where(cut, ratio.min(axis=1), 0.0)[:, None]
        moved = u + alpha * (s - u)
        passive &= ~(cut[:, None] & ((moved <= 0.0) | (ratio == alpha)))
        u = np.where(accept[:, None], s, np.where(cut[:, None], np.where(passive, moved, 0.0), u))
        entering = ~cut
    grad = _gradient(E, f, u)
    certified = (grad.max(axis=1) <= _KKT_TOL) & (np.abs((u * grad).sum(axis=1)) <= _KKT_TOL)
    if not certified.all():
        raise ConvergenceError(
            f"NNLS failed its KKT certificate on {int((~certified).sum())} of {B} instances")
    return u


def sconv_distances(X: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Angular distance from each X[b] to sconv(gens[b]), for unit rows
    X (B, d) and gens (B, k, d); 0 iff X[b] is a member.

    One `nnls_stack` call projects every X[b] onto its cone.  Angles come
    from chords: arccos of a cosine near 1 puts members up to 2e-8 away.
    Where the projection is 0, X[b] sits in the polar cone and the nearest
    hull point is a generator.
    """
    lam = nnls_stack(gens.transpose(0, 2, 1), X)
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
    z = P.generators.T @ nnls_stack(P.generators.T[None], xv[None])[0]
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
    """Vectorized cap_distance_suite over rows of X; returns three arrays."""
    if radius > math.pi / 2 + 1e-12:
        raise ValueError("cap radius beyond pi/2: dual is not a cap")
    dc = clipped_arccos(X @ center)
    d_hull = np.maximum(0.0, dc - radius)
    d_dual = np.maximum(0.0, (math.pi - dc) - (math.pi / 2 - radius))
    d_bd = np.abs(dc - radius)
    return d_hull, d_dual, d_bd
