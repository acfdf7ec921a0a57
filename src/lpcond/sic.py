"""Smallest-including-cap solver and the derived condition number.

The cap of minimal angular radius rho containing all rows of an instance
determines the feasibility class (rho vs pi/2) and the condition number
1/|cos rho|.  `sic_rho` is the one production solver, and `sic_solve` its
typed view: it reads rho off the convex hull of the rows (Cheung and
Cucker's characterization; one NNLS least-distance solve when the origin
is outside the hull, the nearest hull facet when it is inside) and
re-solves the support rows where that answer is imprecise.  The nearest
facet of small instances comes from `facet_scan`, which scans every
subset's hyperplane for a whole stack at once; larger hulls come from
Qhull.  `nearest_facets` runs that stage for every instance of a stack,
whatever its class.  The same NNLS is the package's feasibility test,
`strictly_feasible`.  `sic_bruteforce`, the exhaustive support-subset
enumeration, is the reference oracle the solver is checked against.
"""

from __future__ import annotations

import functools
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
from .sphere import Cap, SpherePoint, row_norms

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
# Up to this many d-subsets of rows, and this many coordinates (a normal
# takes d 2^(d-1) products), the facet stage scans every subset's
# hyperplane (`facet_scan`), at most about half the cost of a Qhull call;
# beyond them Qhull builds the hull.  At 4 coordinates a scan of 512
# subsets costs about one Qhull call.
_SCAN_SUBSETS = 256
_SCAN_MAX_DIM = 4
# A scan holds at most this many (instance, subset) pairs per array.
_SCAN_PAIRS = 1 << 13


def unit_rows(mats: np.ndarray) -> np.ndarray:
    """Rows (the last axis) of one instance or a stack of them, scaled to unit norm.

    The normalization `Instance` applies, by elementwise operations only,
    so a row of a stack comes out bit for bit as in its own Instance.
    Rows whose norm is off 1 by more than 1e-6 are rejected as corrupt.
    """
    norms = row_norms(mats)
    bad = np.argwhere(np.abs(norms - 1.0) > 1e-6)
    if bad.size:
        first = tuple(bad[0])
        raise ValueError(
            f"row {first[-1] + 1} has norm {norms[first]:.9g}, not unit to 1e-6"
        )
    return mats / norms[..., None]


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
        mat = unit_rows(mat)
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
    """Scan (subset, center, radius) candidates; smallest containing cap wins.

    A candidate's nominal radius need contain the rows only to
    _CONTAIN_TOL, so the containing candidates are ranked, and the winner
    reported, by their covering radius: the largest angle from the center
    to any row.
    """
    best = None
    for subset in subsets:
        for center, radius in _subset_candidates(mat[list(subset)]):
            if (best is None or radius <= best[0]) and _covers(mat, center, radius):
                cover = float(np.max(_angles(mat, center)))
                if best is None or cover < best[0]:
                    best = (cover, center, subset)
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


def _scans(n: int, d: int) -> bool:
    """Whether the facet stage of an n x d instance is a `facet_scan`."""
    return d <= _SCAN_MAX_DIM and math.comb(n, d) <= _SCAN_SUBSETS


@functools.lru_cache(maxsize=None)
def _subset_index(n: int, d: int):
    """The d-subsets of n rows, as tuples and as an (S, d) index array."""
    combos = tuple(itertools.combinations(range(n), d))
    idx = np.array(combos, dtype=np.intp)
    idx.flags.writeable = False
    return combos, idx


def _normals(diffs, d: int):
    """Normal of the hyperplane through d points, from their d-1 differences.

    `diffs` yields the differences one at a time, each as d coordinate
    arrays of one shape.  Normal coordinate j is the signed minor of the
    difference matrix without column j (a Laplace expansion, like Qhull's
    determinant hyperplanes in up to 4 dimensions), so it is orthogonal to
    every difference and zero where the points are affinely dependent.
    """
    diffs = iter(diffs)
    minors = {(c,): x for c, x in enumerate(next(diffs))}
    for size, row in enumerate(diffs, start=2):
        grown = {}
        for cols in itertools.combinations(range(d), size):
            acc = row[cols[0]] * minors[cols[1:]]
            for t in range(1, size):
                term = row[cols[t]] * minors[cols[:t] + cols[t + 1:]]
                acc = acc - term if t % 2 else acc + term
            grown[cols] = acc
        minors = grown
    every = tuple(range(d))
    normal = [minors[every[:j] + every[j + 1:]] for j in range(d)]
    return [-y if j % 2 else y for j, y in enumerate(normal)]


def facet_scan(mats: np.ndarray) -> list:
    """The facet stage of `sic_rho` for a stack (B, n, d) of instances.

    For each d-subset of rows, with normal y of its hyperplane taken both
    ways, h(y) = max_i <a_i, y> is a cap certificate: every row lies within
    pi - acos(h) of -y.  Where the origin is inside the hull, the least
    h(y) over all subsets is dist(0, bd conv A) (the nearest facet is one of
    them), so it gives (center, support, cos rho) = (-y, subset, -h) as
    Qhull's nearest facet does.  Every instance is scanned, whatever its
    class, so a stack costs the same however many hulls hold the origin.
    Elementwise operations and one matrix product per instance: an
    instance's result does not depend on the stack it sits in.  An entry
    is None where no subset spans a hyperplane.  Meant for the sizes
    `_scans` accepts: the work grows with the number of subsets.
    """
    B, n, d = mats.shape
    combos, idx = _subset_index(n, d)
    step = max(1, _SCAN_PAIRS // len(idx))
    found = []
    for lo in range(0, B, step):
        part = mats[lo:lo + step]
        coords = np.ascontiguousarray(np.moveaxis(part, -1, 0))
        base = coords[:, :, idx[:, 0]]
        # Coordinate j of each subset's row k minus its row 0, for k = 1..d-1.
        diffs = (coords[:, :, idx[:, k]] - base for k in range(1, d))
        normal = np.stack(_normals(diffs, d), axis=1)
        length = row_norms(np.moveaxis(normal, 1, -1))
        # <a_i, y> for every row and subset: one matrix product per
        # instance, the same BLAS call whatever the stack.
        dots = part @ normal
        top, bottom = dots.max(axis=1), -dots.min(axis=1)
        h = np.divide(np.minimum(top, bottom), length, out=np.full_like(length, np.inf),
                      where=length > 0.0)
        at = (np.arange(len(part)), np.argmin(h, axis=1))
        flip = np.where(top[at] <= bottom[at], -1.0, 1.0)
        scale = np.divide(flip, length[at], out=flip, where=length[at] > 0.0)
        centers = normal[at[0], :, at[1]] * scale[:, None]
        for center, s, dist in zip(centers, at[1].tolist(), h[at].tolist()):
            found.append((center, combos[s], -dist) if math.isfinite(dist) else None)
    return found


def nearest_facets(mats: np.ndarray) -> list:
    """The facet stage of `sic_rho` for every instance of a stack (B, n, d).

    One `facet_scan` for small instances, one Qhull call per instance
    otherwise.  Every instance gets its facet whatever its class, so a
    stack costs the same however many hulls hold the origin.  An entry is
    None where the stage finds no facet or Qhull fails; `sic_rho` redoes
    the stage for such an instance if it needs it, raising the typed error.
    """
    if _scans(*mats.shape[1:]):
        return facet_scan(mats)
    found = []
    for mat in mats:
        try:
            found.append(_hull_facet(mat))
        except DegenerateHullError:
            found.append(None)
    return found


def _nearest_facet(mat: np.ndarray):
    """(center, support, cos rho) from the hull facet nearest the enclosed origin.

    |cos rho| = dist(0, bd conv A) when the origin is in the hull; the
    center is the facet's inward normal and the support its vertices.
    Small instances are scanned (`facet_scan`), larger ones go to Qhull.
    """
    if _scans(*mat.shape):
        found = facet_scan(mat[None])[0]
        if found is not None:
            return found
    return _hull_facet(mat)


def _hull_facet(mat: np.ndarray):
    """`_nearest_facet` by Qhull.

    A flat hull around the origin is exactly ill-posed: its center is the
    rows' null vector, all rows on the boundary.
    """
    try:
        hull = ConvexHull(mat)
    except QhullError as exc:
        _, svals, vt = np.linalg.svd(mat)
        if svals.size == mat.shape[1] and svals[-1] > _FLAT_TOL:
            raise DegenerateHullError(f"Qhull failed on a full-rank instance: {exc}") from exc
        return vt[-1], tuple(range(mat.shape[0])), 0.0
    f = int(np.argmax(hull.equations[:, -1]))
    support = tuple(sorted(int(i) for i in hull.simplices[f]))
    return -hull.equations[f, :-1], support, float(hull.equations[f, -1])


def sic_rho(mat, facet=None):
    """(rho, center, support) of the smallest cap containing the rows of mat.

    Cheung and Cucker (Math. Program. 91, 2001): cos rho = dist(0, conv A)
    when the origin is outside the hull, else |cos rho| = dist(0, bd conv A).
    The first comes from one NNLS solve, the second from the nearest hull
    facet (`_nearest_facet`, or `facet` when the caller has it from
    `nearest_facets` of a stack holding mat); either is the equidistant cap of
    its support rows.  Where that first answer is imprecise -- the NNLS
    center near pi/2 and the NNLS support of tiny caps -- the support rows
    are re-solved with the oracle's equidistant-cap solve, and failing that
    the rows near the rim are enumerated like the oracle does.
    """
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[1]
    z, u = _least_distance(mat)
    dist = math.sqrt(float(z @ z))
    # The NNLS cap is read off whether or not the hull holds the origin, so
    # that an instance's class does not change its cost.
    center = z / max(dist, _ORIGIN_TOL)
    support = tuple(i for i, w in enumerate(u.tolist()) if w > 0.0)
    if dist > _ORIGIN_TOL:
        sign, rho, precise = 1.0, math.acos(min(dist, 1.0)), dist >= _POLISH_DIST
    else:
        center, support, cos_rho = facet if facet is not None else _nearest_facet(mat)
        sign, rho, precise = -1.0, math.acos(cos_rho), True
    if precise and rho >= _TINY_CAP and _covers(mat, center, rho):
        return rho, center, support
    angles = _angles(mat, center)
    rho = float(np.max(angles))
    cap = _equidistant(mat[list(support)])
    if cap is not None:
        polished = sign * cap[0]
        radius = cap[1] if sign > 0 else math.pi - cap[1]
        if _TINY_CAP <= radius <= rho + _CONTAIN_TOL and _covers(mat, polished, radius):
            return radius, polished, support
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
