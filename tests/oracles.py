"""Reference computations the tests check the package against.

Independent of the package: a dense two-phase simplex with Bland's rule,
the Gordan-theorem feasibility classification built on it (no cap
geometry), and the Pascal-triangle evaluation of Wendel's formula.
`circumcap` is a typed view of the solver's equidistant-cap solve, which
the tests pin down on known configurations.  `if_check_per_instance` is
the property suite's infeasible-transition check one instance at a time,
on the Caratheodory membership test and the NNLS boundary distance.
`af_check_per_instance` is its feasible-witness check one row at a time,
on `sconv_distance_scipy`, the hull distance by scipy's NNLS.
`SpherePolytope`, `distance_to_dual` and `distance_to_boundary` are
the one-hull distances the package's experiments reduce to closed forms
or stacked solves; `Cap` is a closed cap, `cap_distances_batch` the
closed-form distances of points to a cap, its dual and its boundary, and
`perturb_rows` rotates every row of an instance by a fixed angle.
`tube_counts_by_cap_distances` counts the volume experiment's
neighborhoods on those three distances, and `rejection_cap_growing` is
the rejection draw in unbounded rounds, the reference for
`samplers.rejection_cap_block`.  `unit_point` checks a point
of the sphere and scales it to unit norm, and `householder_rotation` is
the rotation between two points, built one pair at a time: the per-row
reference for `samplers._rotations`.
`least_distance_scipy` is the per-instance least-distance solve the
package ran before its stacked NNLS kernel, and `strictly_feasible_scipy`
the Wendel decision on it.  `solve_routed_nnls_first` is the routed
solve as it ran before the facet scan decided the hull side: the NNLS on
every instance first, then `instance_rho`, a scalar solve per instance
with its own first-cap test.  None of them is on a production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import nnls

from lpcond import convexgeom, harness, samplers, sic
from lpcond.errors import ConvergenceError, DegenerateHullError
from lpcond.lp import FeasibilityClass
from lpcond.sic import _equidistant
from lpcond.sphere import _dot, clipped_arccos

_EPS = 1e-9
_PIVOT_EPS = 1e-11
_MAX_PIVOTS = 20000


class DegenerateSubsetError(RuntimeError):
    """A support subset has a numerically singular Gram matrix."""


def unit_point(v) -> np.ndarray:
    """A point of the sphere: a vector of at least 2 coordinates whose norm
    is 1 to 1e-6, scaled to norm 1."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("a sphere point needs a 1-d vector of at least 2 coordinates")
    nrm = float(np.linalg.norm(arr))
    if not abs(nrm - 1.0) <= 1e-6:
        raise ValueError(f"vector norm {nrm!r} deviates from 1 by more than 1e-6")
    return arr / nrm


def householder_rotation(source, target) -> np.ndarray:
    """The orthogonal R with R @ source = target, one pair of unit points
    at a time: the reflection across source - target, or the identity
    where |source - target| < 1e-14.  The per-row reference for
    `samplers._rotations`."""
    s, t = unit_point(source), unit_point(target)
    u = s - t
    nu = np.linalg.norm(u)
    if nu < 1e-14:
        return np.eye(s.size)
    u = u / nu
    return np.eye(s.size) - 2.0 * np.outer(u, u)


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap: all points within `radius` of `center`, a
    `unit_point`."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_point(self.center))
        if not 0.0 <= self.radius <= math.pi:
            raise ValueError(f"cap radius {self.radius} outside [0, pi]")


def cap_distances_batch(X: np.ndarray, center: np.ndarray, radius: float):
    """(d(x,K), d(x,K_dual), d(x,bd K)) for each row x of X and the cap K
    of the given center and radius, in closed form, as three arrays.

    Requires radius <= pi/2 so that the dual is the antipodal cap of
    radius pi/2 - radius.  The volume experiment counted its
    neighborhoods on these distances before it took one signed angle.
    """
    if radius > math.pi / 2 + 1e-12:
        raise ValueError("cap radius beyond pi/2: dual is not a cap")
    dc = clipped_arccos(X @ center)
    d_hull = np.maximum(0.0, dc - radius)
    d_dual = np.maximum(0.0, (math.pi - dc) - (math.pi / 2 - radius))
    d_bd = np.abs(dc - radius)
    return d_hull, d_dual, d_bd


def tube_counts_by_cap_distances(cfg: harness.ExperimentConfig):
    """(outer, inner) neighborhood counts of `harness.run_tube_experiment`'s
    points, read off the hull and boundary distances of
    `cap_distances_batch` with each point negated by its random sign: the
    experiment as it counted before it took one signed angle per point.
    Draws through `samplers.cap_block`, as the experiment does."""
    params = samplers.make_adversarial_params(cfg.m, cfg.alpha, 0.0)
    k_center = np.eye(cfg.m + 1)[0]
    a_center = np.zeros(cfg.m + 1)
    a_center[:2] = math.cos(cfg.placement_offset), math.sin(cfg.placement_offset)
    outer = inner = 0
    for lo in range(0, cfg.N, harness.CHUNK):
        count = min(cfg.N - lo, harness.CHUNK)
        gen = samplers.stream(cfg.master_seed, samplers.PURPOSE_TUBE,
                              lo // harness.CHUNK).generator()
        signs = gen.random(count) < 0.5
        pts = samplers.cap_block(a_center, params, gen, count)
        pts = np.where(signs[:, None], pts, -pts)
        d_hull, _, d_bd = cap_distances_batch(pts, k_center, cfg.cap_radius)
        outer += int(np.sum((d_hull > 0.0) & (d_hull < cfg.phi)))
        inner += int(np.sum((d_hull <= 0.0) & (d_bd < cfg.phi)))
    return outer, inner


def rejection_cap_growing(center_vec: np.ndarray, alpha: float, m: int, gen,
                          count: int) -> np.ndarray:
    """The first `count` uniform sphere draws of the stream gen in the cap,
    drawn in rounds of 4 * (count - have) candidates (at least 128) with no
    cap on a round, every round's hits stacked: `samplers.rejection_cap_block`
    as it drew before its rounds were bounded."""
    cos_a = math.cos(alpha)
    out = []
    have = 0
    while have < count:
        batch = samplers.uniform_sphere_block(m, gen, max(4 * (count - have), 128))
        hits = batch[batch @ center_vec >= cos_a]
        out.append(hits)
        have += hits.shape[0]
    return np.vstack(out)[:count]


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
        the nonzero rows of `convexgeom.cone_facets`, once per facet.  Cached."""
        if self._facets is None:
            normals = []
            for normal in convexgeom.cone_facets(self.generators[None])[0]:
                if normal.any() and all(abs(float(n @ normal)) <= 1.0 - 1e-9 for n in normals):
                    normals.append(normal)
            self._facets = np.array(normals).reshape(-1, self.ambient_dim)
        return self._facets


def _interior_boundary_distance(xv: np.ndarray, P: SpherePolytope) -> float:
    facets = P.facet_normals()
    if facets.shape[0] == 0:
        raise ValueError("cone has no facets; sconv covers the sphere")
    return float(np.min(np.arcsin(np.clip(np.abs(facets @ xv), 0.0, 1.0))))


def distance_to_dual(x, P: SpherePolytope) -> float:
    """Angular distance from x to the dual set of sconv(generators), by the
    projection onto the cone (`sic.nnls_stack` on a stack of one)."""
    xv = unit_point(x)
    if xv.size != P.ambient_dim:
        raise ValueError("point and polytope dimensions differ")
    lam, certified = sic.nnls_stack(P.generators.T[None], xv[None])
    if not certified[0]:
        raise ConvergenceError("cone projection NNLS found no certified optimum")
    z = P.generators.T @ lam[0]
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


def distance_to_boundary(x, P: SpherePolytope) -> float:
    """Angular distance from x to the boundary of sconv(generators).

    Exterior points: equals the hull distance.  Interior points: minimum
    over facet great subspheres of arcsin |<normal, x>|.
    """
    xv = unit_point(x)
    d_hull = convexgeom.distance_to_sconv(xv, P.generators)
    if d_hull > convexgeom.MEMBER_TOL:
        return d_hull
    if P.rank() < P.ambient_dim:
        raise DegenerateHullError("hull spans a proper subspace; boundary distance undefined")
    return _interior_boundary_distance(xv, P)


def perturb_rows(mat: np.ndarray, delta: float, gen) -> np.ndarray:
    """Rotate every row by exactly `delta` in a random tangent direction
    (directions from inverse-normal transforms of the generator gen's
    uniforms)."""
    mat = np.asarray(mat, dtype=float)
    g = samplers.ndtri(np.clip(gen.random(mat.shape), 1e-300, None))
    tang = g - (np.sum(g * mat, axis=1, keepdims=True)) * mat
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    out = math.cos(delta) * mat + math.sin(delta) * tang
    return out / np.linalg.norm(out, axis=1, keepdims=True)


@dataclass(frozen=True)
class SimplexProblem:
    """min c.x  s.t.  A x = b,  x >= 0."""

    objective: np.ndarray
    equality_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.equality_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if A.shape != (b.size, c.size):
            raise ValueError("inconsistent problem shapes")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("problem data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "equality_matrix", A)
        object.__setattr__(self, "rhs", b)

    @property
    def nvars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > _PIVOT_EPS:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Run simplex pivots on tableau T (objective in last row) to optimality."""
    for _ in range(_MAX_PIVOTS):
        red = T[-1, :ncols]
        entering = -1
        for j in range(ncols):  # Bland: smallest eligible index
            if red[j] < -_EPS:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = T[:-1, entering]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(col > _PIVOT_EPS, T[:-1, -1] / col, np.inf)
        if not np.isfinite(ratios).any():
            return "unbounded"
        best = np.min(ratios)
        # Bland again on the leaving variable: smallest basis index among ties.
        tie_rows = np.flatnonzero(ratios <= best + 1e-12)
        leave = int(tie_rows[np.argmin(basis[tie_rows])])
        _pivot(T, basis, leave, entering)
    raise ConvergenceError("simplex exceeded its pivot cap")


def simplex_solve(problem: SimplexProblem) -> SimplexResult:
    """Two-phase dense simplex with Bland's rule.

    On "optimal" the solution satisfies the equalities to 1e-9 and has
    reduced costs >= -1e-9 for the stated objective.
    """
    A = problem.equality_matrix.copy()
    b = problem.rhs.copy()
    c = problem.objective
    mrows, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial variable per row.
    T = np.zeros((mrows + 1, n + mrows + 1))
    T[:mrows, :n] = A
    T[:mrows, n:n + mrows] = np.eye(mrows)
    T[:mrows, -1] = b
    T[-1, n:n + mrows] = 1.0
    T[-1] -= T[:mrows].sum(axis=0)  # price out the artificial basis
    basis = np.arange(n, n + mrows)
    if _bland_iterate(T, basis, n + mrows) != "optimal":
        raise ConvergenceError("phase-1 simplex did not terminate at an optimum")
    if T[-1, -1] < -_EPS:
        return SimplexResult("infeasible", None, None)

    # Drive remaining artificials out of the basis where possible.
    keep_rows = np.ones(mrows, dtype=bool)
    for i in range(mrows):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[i, j]) > 1e-7:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(T, basis, i, pivot_col)
            else:
                keep_rows[i] = False  # redundant constraint row

    rows = np.flatnonzero(keep_rows)
    T2 = np.zeros((rows.size + 1, n + 1))
    T2[:-1, :n] = T[rows][:, :n]
    T2[:-1, -1] = T[rows][:, -1]
    basis2 = basis[rows]
    T2[-1, :n] = c
    for r, bv in enumerate(basis2):
        T2[-1] -= T2[-1, bv] * T2[r]
    status = _bland_iterate(T2, basis2, n)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)
    x = np.zeros(n)
    x[basis2] = T2[:-1, -1]
    return SimplexResult("optimal", x, float(c @ x))


def _instance_matrix(A) -> np.ndarray:
    mat = getattr(A, "matrix", None)
    if mat is None:
        mat = np.atleast_2d(np.asarray(A, dtype=float))
    return mat


def origin_in_conv(points) -> bool:
    """True iff 0 is a convex combination of the given points (tol 1e-9)."""
    pts = _instance_matrix(points)
    n, d = pts.shape
    if n < 1:
        raise ValueError("need at least one point")
    A = np.vstack([pts.T, np.ones((1, n))])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    res = simplex_solve(SimplexProblem(np.zeros(n), A, b))
    return res.status == "optimal"


def _weakly_feasible(pts: np.ndarray) -> bool:
    """Is there x != 0 with <a_i, x> <= 0 for all rows a_i?

    Probes the 2(m+1) faces of the cube |x_j| = 1: the solution cone is
    nonzero iff it meets one of them.  Each probe is a phase-1 LP in the
    shifted variables y = x + 1 in [0, 2].
    """
    n, d = pts.shape
    ones = np.ones(d)
    for j in range(d):
        for sign in (1.0, -1.0):
            # Variables: y_i (i != j) in [0, 2], slack s_i >= 0 per
            # inequality row, slack u_i per upper bound y_i <= 2.
            free = [i for i in range(d) if i != j]
            yj = 1.0 + sign
            nf = len(free)
            nvar = nf + n + nf
            A = np.zeros((n + nf, nvar))
            b = np.zeros(n + nf)
            # pts @ (y - 1) <= 0  =>  pts[:, free] @ y_free + s = pts @ 1 - pts[:, j] * yj
            A[:n, :nf] = pts[:, free]
            A[:n, nf:nf + n] = np.eye(n)
            b[:n] = pts @ ones - pts[:, j] * yj
            # y_i + u_i = 2
            A[n:, :nf] = np.eye(nf)
            A[n:, nf + n:] = np.eye(nf)
            b[n:] = 2.0
            res = simplex_solve(SimplexProblem(np.zeros(nvar), A, b))
            if res.status == "optimal":
                return True
    return False


def gordan_classify(A) -> FeasibilityClass:
    """Classify an instance by LP alone (no smallest-cap geometry).

    Strictly feasible iff the origin is outside the convex hull of the
    rows; otherwise ill-posed iff the weak system A x <= 0 retains a
    nonzero solution, else infeasible.
    """
    pts = _instance_matrix(A)
    n, d = pts.shape
    if n <= d:  # d = m + 1
        raise ValueError(f"need n > m+1 rows, got n={n}, m+1={d}")
    if not origin_in_conv(pts):
        return FeasibilityClass.STRICTLY_FEASIBLE
    if _weakly_feasible(pts):
        return FeasibilityClass.ILL_POSED
    return FeasibilityClass.INFEASIBLE


def wendel_p_pascal(k: int, m: int) -> Fraction:
    """Wendel's p(k, m) from a Pascal-triangle row built by additions."""
    if k <= m:
        raise ValueError(f"need k > m, got k={k}, m={m}")
    row = [1]
    for _ in range(k - 1):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return Fraction(sum(row[: m + 1]), 2 ** (k - 1))


def feasible_fraction_per_k(m: int, k: int, N: int, master_seed: int) -> float:
    """The empirical feasible fraction of k uniform rows on S^m, drawn for
    this k alone: each block of samples draws its k points per stream and
    takes one `sic.stack_feasible` call."""

    def do_chunk(lo, hi):
        hits = 0
        for start, stop in samplers.sample_ranges(lo, hi, k):
            indices = samplers.stream_indices(samplers.PURPOSE_WENDEL, start, stop)
            mats = samplers.uniform_sphere_batch(m, master_seed, indices, k)
            hits += int(sic.stack_feasible(mats).sum())
        return hits

    return sum(harness._run_chunks(N, 1, do_chunk)) / N


def cond_per_value(rho: np.ndarray) -> np.ndarray:
    """C(A) of each value of a rho column, one at a time by `math.cos`:
    inf within `sic.ILL_POSED_BAND` of pi/2, else 1/|cos rho|."""
    return np.array([math.inf if abs(r - math.pi / 2) <= sic.ILL_POSED_BAND
                     else 1.0 / abs(math.cos(r)) for r in rho.tolist()])


def ln_cond_per_value(cond: np.ndarray) -> np.ndarray:
    """`math.log` of each condition number up to `sic.COND_OVERFLOW`, one at
    a time; NaN past it and for NaN."""
    return np.array([math.log(c) if c <= sic.COND_OVERFLOW else math.nan
                     for c in cond.tolist()])


def circumcap(points, sign: int = 1) -> Cap:
    """Equidistant cap through 1..m+1 points, center on the `sign` side."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    B = np.atleast_2d(np.asarray(points, dtype=float))
    k, d = B.shape
    if not 1 <= k <= d:
        raise ValueError(f"need between 1 and m+1={d} points, got {k}")
    cap = _equidistant(B)
    if cap is None:
        raise DegenerateSubsetError("the points have no equidistant center")
    center, radius = cap
    return Cap(sign * center, radius if sign > 0 else math.pi - radius)


def first_reflected_point(master: int, index: int, mat: np.ndarray):
    """(b, position) of the first proposal of pool instance index's stream,
    512 a round from its own generator for at most 200 rounds, that
    `cone_member_batch` puts in cone(-mat); (None, None) where none is."""
    gen = harness._prop_stream(master, 3, index).generator()
    for r in range(200):
        props = samplers.uniform_sphere_block(mat.shape[1] - 1, gen, 512)
        hit = np.flatnonzero(convexgeom.cone_member_batch(props, -mat))
        if hit.size:
            return props[hit[0]], 512 * r + int(hit[0])
    return None, None


def if_check_per_instance(cfg: harness.ExperimentConfig) -> dict:
    """The infeasible-transition check dict, one strictly feasible pool
    instance at a time: b is `first_reflected_point`, d_bd is
    `distance_to_boundary` and rho(A, b) a one-instance `sic_rho`."""
    m, n = cfg.m, cfg.n
    mats = harness._uniform_instances(cfg.master_seed, 2, m, n, harness._IF_POOL)
    _, labels, conds = harness._pool_columns(sic.unit_rows(mats))
    qualifying = violations = skipped = 0
    for i in np.flatnonzero(labels == "SF").tolist():
        if qualifying >= harness._IF_TARGET:
            break
        b, _ = first_reflected_point(cfg.master_seed, i, mats[i])
        if b is None:
            skipped += 1
            continue
        d_bd = distance_to_boundary(b, SpherePolytope(-mats[i]))
        rho_ab = sic.sic_rho(sic.unit_rows(np.vstack([mats[i], b])))[0]
        cond_ab = sic.cond_from_rho(rho_ab)
        if not math.isfinite(cond_ab):
            skipped += 1
            continue
        qualifying += 1
        if sic.classify_rho(rho_ab) is FeasibilityClass.STRICTLY_FEASIBLE:
            violations += 1
        elif cond_ab * math.sin(d_bd) > 10.0 * conds[i] * (1.0 + 1e-6):
            violations += 1
    return {"check": "infeasible-transition", "qualifying": qualifying,
            "violations": violations, "skipped": skipped,
            "status": harness._status(qualifying, violations)}


def least_distance_scipy(mat: np.ndarray):
    """(z, u): the nearest point z of conv(rows of mat) to the origin and
    its weights u, by one scipy NNLS call on the least-distance program in
    Lawson and Hanson's form: min ||E u - f|| over u >= 0, E = [mat^T;
    1^T], f = e_{m+2}, z = mat^T u / sum(u)."""
    n, d = mat.shape
    E = np.ones((d + 1, n))
    E[:d] = mat.T
    f = np.zeros(d + 1)
    f[-1] = 1.0
    u, _ = nnls(E, f)
    return mat.T @ u / float(u.sum()), u


def strictly_feasible_scipy(mat: np.ndarray) -> bool:
    """Whether the origin is outside conv(rows): |z| above `sic._ORIGIN_TOL`."""
    z, _ = least_distance_scipy(mat)
    return float(z @ z) > sic._ORIGIN_TOL * sic._ORIGIN_TOL


def solve_routed_nnls_first(mats: np.ndarray):
    """`sic._solve_routed` as it ran before the facet scan came first:
    the least distances of every instance of the stack from one
    `_least_distances` call; of the certified instances whose hull holds
    the origin (|z| at most `_ORIGIN_TOL`), the nearest facets from one
    `_scan_facets` call up to the scan's bound (past it, Qhull's); then
    `instance_rho` on each instance.  Each entry is (rho, center,
    support) or the typed error of its solve."""
    n, d = mats.shape[1:]
    zs, us, certified = sic._least_distances(mats)
    inside = np.flatnonzero(
        certified & (_dot(zs.T, zs.T) <= sic._ORIGIN_TOL * sic._ORIGIN_TOL))
    facets = [None] * len(mats)
    scans = d <= sic._SCAN_MAX_DIM and math.comb(n, d) <= sic._FACET_SUBSETS
    scan = sic._scan_facets(mats[inside]) if inside.size and scans else None
    if scan is not None:
        cos_rho, centers, supports = scan
        for i, center, support, cos in zip(inside.tolist(), centers, supports, cos_rho.tolist()):
            facets[i] = (center, support, cos) if center.any() else None
    solved = []
    for mat, z, u, ok, facet in zip(mats, zs, us, certified.tolist(), facets):
        if not ok:
            solved.append(ConvergenceError("least-distance NNLS found no certified optimum"))
            continue
        try:
            solved.append(instance_rho(mat, z, u, facet))
        except (ConvergenceError, DegenerateHullError) as exc:
            solved.append(exc)
    return solved


def instance_rho(mat: np.ndarray, z, u, facet):
    """(rho, center, support) of one instance, given its nearest point z of
    conv A and NNLS weights u (`_least_distances`), both None where the
    facet scan put the origin inside: cos rho = |z| when the origin is
    outside the hull, else dist(0, bd conv A) from the nearest facet:
    `facet`, (center, support, cos rho) from `_scan_facets`, or where that
    is None, `_hull_facet`.  Where that is imprecise (near pi/2, tiny
    caps) the support rows are re-solved with the oracle's equidistant
    cap, else the rows near the rim enumerated."""
    d = mat.shape[1]
    dist = 0.0 if z is None else math.sqrt(float(z @ z))
    if dist > sic._ORIGIN_TOL:
        center, support = z / dist, tuple(i for i, w in enumerate(u.tolist()) if w > 0.0)
        sign, rho, precise = 1.0, math.acos(min(dist, 1.0)), dist >= sic._POLISH_DIST
    else:
        center, support, cos_rho = facet or sic._hull_facet(mat)
        sign, rho, precise = -1.0, math.acos(cos_rho), True
    if precise and rho >= sic._TINY_CAP and sic._covers(mat, center, np.array([rho]))[0]:
        return rho, center, support
    angles = sic._angles(mat, center)
    rho = float(np.max(angles))
    cap = _equidistant(mat[list(support)])
    if cap is not None:
        polished = sign * cap[0]
        radius = cap[1] if sign > 0 else math.pi - cap[1]
        if (sic._TINY_CAP <= radius <= rho + sic._CONTAIN_TOL
                and sic._covers(mat, polished, np.array([radius]))[0]):
            return radius, polished, support
    # The support itself is wrong where the NNLS cannot resolve it (tiny
    # caps); the true one is among the rows near the rim of the first cap.
    slack = sic._NEAR_TOL if rho >= sic._TINY_CAP else math.inf
    subsets, count = sic._subsets(np.flatnonzero(angles >= rho - slack), d)
    if count <= sic._NEAR_SUBSETS:
        best = sic._best_candidate(mat, subsets)
        if best is not None and best[0] <= rho + sic._CONTAIN_TOL:
            return best[0], best[1], tuple(int(i) for i in best[2])
    return rho, center, (int(np.argmax(angles)),)


def sconv_distance_scipy(x, gens) -> float:
    """Angular distance from the unit x to sconv of the unit rows gens, by
    one scipy NNLS projection onto cone(gens), checked by its KKT
    conditions to 1e-10; angles from chords, and from the nearest
    generator where the projection is 0 (x in the polar cone)."""
    lam, _ = nnls(gens.T, x)
    z = gens.T @ lam
    grad = gens @ (x - z)
    if np.max(grad, initial=0.0) > 1e-10 or abs(float(lam @ grad)) > 1e-10:
        raise ConvergenceError("cone projection failed its KKT certificate")
    nz = float(np.linalg.norm(z))
    if nz > 1e-12:
        return float(sic._angles(x, z / nz))
    return float(clipped_arccos(float(np.max(gens @ x))))


def af_check_per_instance(cfg: harness.ExperimentConfig) -> dict:
    """The feasible-witness check dict, one qualifying instance and one
    row at a time: a row is a witness where `sconv_distance_scipy` to the
    other rows reflected lies in (MEMBER_TOL, phi + 1e-6]."""
    m, n = cfg.m, cfg.n
    eps = (m + 1) / 12.0
    phi = math.asin(eps)
    mats = harness._uniform_instances(cfg.master_seed, 1, m, n, harness._AF_POOL)
    _, labels, cond = harness._pool_columns(sic.unit_rows(mats))
    qualify_idx = np.flatnonzero((labels == "SF") & (cond >= (m + 1) / eps))[:harness._AF_TARGET]
    violations = 0
    for i in qualify_idx.tolist():
        found = False
        for j in range(n):
            x = unit_point(mats[i, j])
            gens = SpherePolytope(-np.delete(mats[i], j, axis=0)).generators
            d = sconv_distance_scipy(x, gens)
            if convexgeom.MEMBER_TOL < d <= phi + 1e-6:
                found = True
                break
        if not found:
            violations += 1
    q = len(qualify_idx)
    return {"check": "feasible-witness", "qualifying": q, "violations": violations,
            "phi": phi, "status": harness._status(q, violations)}
