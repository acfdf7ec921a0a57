"""Smallest-including-cap solver and the derived condition number.

The cap of minimal angular radius rho containing all rows of an instance
determines the feasibility class (rho vs pi/2) and the condition number
1/|cos rho|.  `sic_rho` is the one production solver, and `sic_solve` its
typed view: it reads rho off the convex hull of the rows (Cheung and
Cucker's characterization; one NNLS least-distance solve when the origin
is outside the hull, the nearest Qhull facet when it is inside) and
re-solves the support rows where that answer is imprecise.  The same NNLS
is the package's feasibility test, `strictly_feasible`.  `sic_bruteforce`,
the exhaustive support-subset enumeration, is the reference oracle the
solver is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    ConvergenceError,
    DegenerateHullError,
    DegenerateSubsetError,
    InstanceTooLargeError,
)
from .lp import FeasibilityClass
from .sphere import Cap, SpherePoint

# |rho - pi/2| at or below this band counts as ill-posed.
ILL_POSED_BAND = 1e-8
# Condition numbers beyond this are reported as infinite (overflow bucket).
COND_OVERFLOW = 1e15

_CONTAIN_TOL = 1e-9
_SUBSET_GUARD = 10**7
# dist(0, conv A) at or below this puts the origin in the hull; far inside
# the ill-posed band, so either branch of sic_rho classifies alike.
_ORIGIN_TOL = 1e-12
# Rows whose smallest singular value is below this span a great subsphere.
_FLAT_TOL = 1e-10
# Below this dist(0, conv A) the NNLS center, read off a cancelling sum,
# is re-solved from the support rows; above it the NNLS's own
# least-squares solve on the support already gives the equidistant cap.
_POLISH_DIST = 1e-3
# The NNLS center is off by up to ~1e-14/rho rad: for caps above
# _TINY_CAP the exact support lies within _NEAR_TOL of the first cap's rim,
# below it every row is a candidate.  Up to _NEAR_SUBSETS support subsets
# of those rows are enumerated.
_TINY_CAP = 1e-5
_NEAR_TOL = 1e-7
_NEAR_SUBSETS = 1000


@dataclass(frozen=True, eq=False)
class Instance:
    """n unit rows in R^{m+1} with n > m+1, i.e. a point of (S^m)^n."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        n, d = mat.shape
        if d < 2:
            raise ValueError("ambient dimension must be at least 2")
        if n <= d:
            raise ValueError(f"need n > m+1 rows, got n={n} with m+1={d}")
        norms = np.linalg.norm(mat, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
        if bad.size:
            raise ValueError(
                f"row {bad[0] + 1} has norm {norms[bad[0]]:.9g}, not unit to 1e-6"
            )
        mat = mat / norms[:, None]
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_points(cls, points) -> "Instance":
        return cls(np.array([p.coords for p in points]))

    @classmethod
    def from_file(cls, path) -> "Instance":
        """Read the instance file format: header "n m", then n rows."""
        with open(path) as fh:
            tokens = fh.read().split()
        if len(tokens) < 2:
            raise ValueError(f"{path}: missing 'n m' header")
        n, m = int(tokens[0]), int(tokens[1])
        vals = [float(t) for t in tokens[2:]]
        if len(vals) != n * (m + 1):
            raise ValueError(
                f"{path}: expected {n * (m + 1)} coordinates, found {len(vals)}"
            )
        return cls(np.array(vals).reshape(n, m + 1))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1] - 1

    def row(self, i: int) -> SpherePoint:
        return SpherePoint(self.matrix[i])

    def prefix(self, k: int) -> "Instance":
        if k < self.m + 2:
            raise ValueError(f"prefix length {k} below m+2={self.m + 2}")
        return Instance(self.matrix[:k])

    def with_row(self, point: SpherePoint) -> "Instance":
        return Instance(np.vstack([self.matrix, point.coords]))


@dataclass(frozen=True)
class SicResult:
    center: SpherePoint
    rho: float
    support: tuple
    cls: FeasibilityClass
    cond: float
    dist_to_sigma: float


def classify_rho(rho: float) -> FeasibilityClass:
    if abs(rho - math.pi / 2) <= ILL_POSED_BAND:
        return FeasibilityClass.ILL_POSED
    if rho < math.pi / 2:
        return FeasibilityClass.STRICTLY_FEASIBLE
    return FeasibilityClass.INFEASIBLE


def cond_from_rho(rho: float) -> float:
    if abs(rho - math.pi / 2) <= ILL_POSED_BAND:
        return math.inf
    return 1.0 / abs(math.cos(rho))


def _angles(mat: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Angles from center to each row, from chord lengths.

    2 atan2(|a - c|, |a + c|) keeps full precision for tiny angles, where
    arccos(1 - eps) loses half the digits.
    """
    diff, summ = mat - center, mat + center
    return 2.0 * np.arctan2(np.sqrt(np.einsum("...i,...i->...", diff, diff)),
                            np.sqrt(np.einsum("...i,...i->...", summ, summ)))


def _covers(mat: np.ndarray, center: np.ndarray, radius: float) -> bool:
    """Every row within radius + _CONTAIN_TOL of center, compared on chords."""
    diff = mat - center
    reach = 2.0 * math.sin(min(radius + _CONTAIN_TOL, math.pi) / 2.0)
    return float(np.einsum("ij,ij->i", diff, diff).max()) <= reach * reach


def _make_result(center: np.ndarray, rho: float, support) -> SicResult:
    """The typed view of a cap both solvers have checked to contain every row."""
    return SicResult(
        center=SpherePoint(center),
        rho=float(rho),
        support=tuple(int(i) for i in support),
        cls=classify_rho(rho),
        cond=cond_from_rho(rho),
        dist_to_sigma=abs(math.pi / 2 - rho),
    )


def circumcap(points, sign: int = 1) -> Cap:
    """Equidistant cap through 1..m+1 points, center on the `sign` side."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if hasattr(points, "coords"):
        points = [points]
    B = np.atleast_2d(
        np.array([p.coords if hasattr(p, "coords") else p for p in points], dtype=float)
    )
    k, d = B.shape
    if not 1 <= k <= d:
        raise ValueError(f"need between 1 and m+1={d} points, got {k}")
    cap = _equidistant(B)
    if cap is None:
        raise DegenerateSubsetError("the points have no equidistant center")
    center, radius = cap
    return Cap(SpherePoint(sign * center), radius if sign > 0 else math.pi - radius)


def _equidistant(sub: np.ndarray):
    """(center, radius) of the cap through the rows of sub, center in their span.

    The center direction v solves <a_0, v> = 1 and <u_i, v> = 0 for the
    unit chords u_i from a_0 to the other rows.  Unit chords keep each
    equation's backward error at eps, so the angles stay equal to full
    precision for tiny caps and near pi/2 alike.  None when the rows admit
    no common positive inner product (their affine hull holds the origin).
    """
    chords = sub[1:] - sub[0]
    lengths = np.sqrt(np.einsum("ij,ij->i", chords, chords))
    rows = np.concatenate([sub[:1], chords / np.maximum(lengths, 1e-300)[:, None]])
    rhs = np.zeros(rows.shape[0])
    rhs[0] = 1.0
    v, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < rows.shape[0] and float(np.max(np.abs(rows @ v - rhs))) > 1e-9:
        return None
    center = v / math.sqrt(float(v @ v))
    return center, float(np.max(_angles(sub, center)))


def _subset_candidates(sub: np.ndarray):
    """(center, radius) equidistant candidates for one subset.

    The two signed caps of `_equidistant`.  Subsets whose common inner
    product can only be zero (e.g. an antipodal pair) yield hemisphere
    candidates from the nullspace; this keeps the enumeration complete on
    exactly ill-posed instances.
    """
    cap = _equidistant(sub)
    if cap is not None:
        center, radius = cap
        return [(center, radius), (-center, math.pi - radius)]
    _, svals, vt = np.linalg.svd(sub)
    rank = int(np.sum(svals > svals[0] * max(sub.shape) * np.finfo(float).eps))
    caps = []
    for u in vt[rank:]:
        caps.append((u, math.pi / 2))
        caps.append((-u, math.pi / 2))
    return caps


def _subsets(rows, d: int):
    """Every subset of 1..d of the given row indices, and how many there are."""
    count = sum(math.comb(len(rows), k) for k in range(1, d + 1))
    return itertools.chain.from_iterable(
        itertools.combinations(rows, k) for k in range(1, d + 1)), count


def _best_candidate(mat: np.ndarray, subsets):
    """Scan (subset, center, radius) candidates; smallest containing cap wins."""
    best = None
    for subset in subsets:
        for center, radius in _subset_candidates(mat[list(subset)]):
            if (best is None or radius < best[0]) and _covers(mat, center, radius):
                best = (radius, center, subset)
    return best


def sic_bruteforce(A: Instance) -> SicResult:
    """Exhaustive smallest-including-cap: the reference oracle.

    Enumerates every support subset of size 1..m+1 with both center signs
    and keeps the smallest candidate cap that contains all points.
    """
    mat = A.matrix
    n, d = mat.shape
    subsets, count = _subsets(range(n), d)
    if count > _SUBSET_GUARD:
        raise InstanceTooLargeError(f"{count} support subsets exceed the {_SUBSET_GUARD} guard")
    best = _best_candidate(mat, subsets)
    if best is None:
        raise ConvergenceError("no containing candidate cap found")
    radius, center, subset = best
    return _make_result(center, radius, subset)


def _least_distance(mat: np.ndarray):
    """Nearest point of conv(rows) to the origin, with its NNLS weights.

    The least-distance program min ||x|| s.t. mat x >= 1 in the NNLS form
    of Lawson and Hanson (Solving Least Squares Problems, ch. 23):
    minimize ||E u - f|| over u >= 0 with E = [mat^T; 1^T], f = e_{m+2}.
    The nearest point is mat^T u / sum(u), read off the weights rather than
    the residual, whose last entry cancels near ill-posed inputs.  Rows
    with u > 0 are the support of the nearest face.
    """
    n, d = mat.shape
    E = np.ones((d + 1, n))
    E[:d] = mat.T
    f = np.zeros(d + 1)
    f[-1] = 1.0
    try:
        u, _ = nnls(E, f)
    except RuntimeError as exc:
        raise ConvergenceError(f"least-distance NNLS failed: {exc}") from exc
    return mat.T @ u / float(u.sum()), u


def strictly_feasible(mat: np.ndarray) -> bool:
    """True iff the origin is outside conv(rows), i.e. rho < pi/2."""
    z, _ = _least_distance(np.asarray(mat, dtype=float))
    return float(z @ z) > _ORIGIN_TOL * _ORIGIN_TOL


def _nearest_facet(mat: np.ndarray):
    """(center, support, cos rho) from the hull facet nearest the enclosed origin.

    |cos rho| = dist(0, bd conv A) when the origin is in the hull; the
    center is the facet's inward normal and the support its vertices.  A
    flat hull around the origin is exactly ill-posed: its center is the
    rows' null vector, all rows on the boundary.
    """
    try:
        hull = ConvexHull(mat)
    except QhullError as exc:
        _, svals, vt = np.linalg.svd(mat)
        if svals.size == mat.shape[1] and svals[-1] > _FLAT_TOL:
            raise DegenerateHullError(f"Qhull failed on a full-rank instance: {exc}") from exc
        return vt[-1], np.arange(mat.shape[0]), 0.0
    f = int(np.argmax(hull.equations[:, -1]))
    return -hull.equations[f, :-1], np.sort(hull.simplices[f]), float(hull.equations[f, -1])


def sic_rho(mat):
    """(rho, center, support) of the smallest cap containing the rows of mat.

    Cheung and Cucker (Math. Program. 91, 2001): cos rho = dist(0, conv A)
    when the origin is outside the hull, else |cos rho| = dist(0, bd conv A).
    The first comes from one NNLS solve, the second from the nearest Qhull
    facet; either is the equidistant cap of its support rows.  Where that
    first answer is imprecise -- the NNLS center near pi/2 and the NNLS
    support of tiny caps -- the support rows are re-solved with the
    oracle's equidistant-cap solve, and failing that the rows near the rim
    are enumerated like the oracle does.
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[1]
    z, u = _least_distance(mat)
    dist = math.sqrt(float(z @ z))
    if dist > _ORIGIN_TOL:
        center, support, sign = z / dist, np.flatnonzero(u > 0.0), 1.0
        rho, precise = math.acos(min(dist, 1.0)), dist >= _POLISH_DIST
    else:
        center, support, cos_rho = _nearest_facet(mat)
        sign, rho, precise = -1.0, math.acos(cos_rho), True
    if precise and rho >= _TINY_CAP and _covers(mat, center, rho):
        return rho, center, tuple(int(i) for i in support)
    angles = _angles(mat, center)
    rho = float(np.max(angles))
    cap = _equidistant(mat[support])
    if cap is not None:
        polished = sign * cap[0]
        radius = cap[1] if sign > 0 else math.pi - cap[1]
        if _TINY_CAP <= radius <= rho + _CONTAIN_TOL and _covers(mat, polished, radius):
            return radius, polished, tuple(int(i) for i in support)
    # The support itself is wrong where the NNLS cannot resolve it (tiny
    # caps); the true one is among the rows near the rim of the first cap.
    slack = _NEAR_TOL if rho >= _TINY_CAP else math.inf
    subsets, count = _subsets(np.flatnonzero(angles >= rho - slack), d)
    if count <= _NEAR_SUBSETS:
        best = _best_candidate(mat, subsets)
        if best is not None and best[0] <= rho + _CONTAIN_TOL:
            return best[0], best[1], tuple(int(i) for i in best[2])
    return rho, center, (int(np.argmax(angles)),)


def sic_solve(A: Instance) -> SicResult:
    """Smallest including cap of an instance, by `sic_rho`, as a SicResult."""
    rho, center, support = sic_rho(A.matrix)
    return _make_result(center, rho, support)


def cond_and_class(A: Instance):
    """(condition number, feasibility class, distance to the ill-posed set)."""
    res = sic_solve(A)
    return res.cond, res.cls, res.dist_to_sigma


def prefix_cond_profile(A: Instance):
    """[(k, cond(A_k), class(A_k))] for k = m+2..n."""
    out = []
    for k in range(A.m + 2, A.n + 1):
        res = sic_solve(A.prefix(k))
        out.append((k, res.cond, res.cls))
    return out
