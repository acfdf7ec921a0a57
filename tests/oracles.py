"""Reference computations the tests check the package against.

Independent of the package: a dense two-phase simplex with Bland's rule,
the Gordan-theorem feasibility classification built on it (no cap
geometry), and the Pascal-triangle evaluation of Wendel's formula.
`circumcap` is a typed view of the solver's equidistant-cap solve, which
the tests pin down on known configurations.  None of them is on a
production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lpcond.errors import ConvergenceError, DegenerateSubsetError
from lpcond.lp import FeasibilityClass
from lpcond.sic import _equidistant
from lpcond.sphere import Cap, SpherePoint

_EPS = 1e-9
_PIVOT_EPS = 1e-11
_MAX_PIVOTS = 20000


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
    return Cap(SpherePoint(sign * center), radius if sign > 0 else math.pi - radius)
