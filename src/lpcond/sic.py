"""Smallest-including-cap solver and the derived condition number.

The cap of minimal angular radius rho containing all rows of an instance
determines the feasibility class (rho vs pi/2) and the condition number
1/|cos rho|.  Both are decided here only, for a column of rho
(`class_labels`, `cond_columns`, and `ln_cond` for ln C), with
`classify_rho` and `cond_from_rho` their one-value views.  By Cheung and
Cucker, cos rho = max over unit y of min_i <a_i, y>.  `stack_rho` solves
a stack of instances and is the one production path for rho: at small
sizes one max-min scan over the row subsets of every instance answers
either class, and only the instances where it may be imprecise are
routed to `_solve_routed`; larger instances are all routed.  It reads
rho off the convex hull.  Up to _FACET_SUBSETS d-row subsets, one
stacked scan of their normals (`_scan_facets`) tells which hulls hold
the origin and gives their nearest facets, |cos rho| = dist(0, bd conv
A).  The other instances take the least distance dist(0, conv A) = cos
rho from one call of `nnls_stack`, a Lawson-Hanson NNLS run on the whole
stack with a compact passive set and a KKT certificate per instance;
past the scan's bound, Qhull finds the facet where the NNLS puts the
origin inside.  The first caps, the scanned facets', the Qhull facets'
and the nearest points', are checked as one stack, and only the caps
that fail (near pi/2, tiny caps, caps that do not cover) are refined
from their support rows one instance at a time (`_refine`).  `sic_rho`
is the one-instance view of `stack_rho` and `cond_and_class` a view of
that.
`stack_feasible` decides feasibility for a stack: the facet scan's sign
at the sizes `stack_rho` scans, else the same NNLS.
`sic_bruteforce`, the exhaustive support-subset enumeration, is the
reference oracle the solver is checked against.
Loading the module imports numpy alone.  scipy's Qhull (`_qhull`) is
imported only on the facet scan's fallbacks: past its bound, at more
than _SCAN_MAX_DIM coordinates, where a zero normal wins, and for flat
hulls.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateHullError, InstanceTooLargeError
from .lp import FeasibilityClass
from .sphere import _dot, _libm, row_norms

# |rho - pi/2| at or below this band counts as ill-posed.
ILL_POSED_BAND = 1e-8
# Condition numbers beyond this are reported as infinite (overflow bucket).
COND_OVERFLOW = 1e15

_CONTAIN_TOL = 1e-9
_SUBSET_GUARD = 10**7
# dist(0, conv A) at or below this puts the origin in the hull; far inside
# the ill-posed band, so a facet cap and a nearest point's classify alike.
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
# takes d 2^(d-1) products), `stack_rho` scans every row subset of 1..d
# rows (`_stack_caps`) and `stack_feasible` takes the sign of the d-row
# normals' scan; beyond them every instance takes the NNLS.  The bound
# was measured for `stack_feasible` alone: on 128 instances the sign's
# scan beat the NNLS up to C(k, 3) = 220 and C(k, 4) = 330 subsets, and
# lost at 286 and 495.  `stack_rho`'s all-subsets scan was not measured
# for it; on tail-law blocks it loses to the routed solve past about
# 56-70 d-subsets.  Of the instances `stack_rho` routes, `_scan_facets`
# scans the d-row normals up to _FACET_SUBSETS subsets for the hull side
# and the nearest facet; past them the NNLS gives the side, and Qhull
# the facet.  At 4 coordinates and C(12, 4) = 495 subsets the facet scan
# takes about 0.8 of Qhull's time per instance; it grows with C(n, d) n,
# Qhull about with n.
_SCAN_SUBSETS = 256
_FACET_SUBSETS = 512
_SCAN_MAX_DIM = 4
# A scan holds at most this many (instance, candidate) pairs per array:
# 8 instances of C(12, 4) normals taken both ways.
_SCAN_PAIRS = 1 << 13
# `_solve_routed` scans the first _PROBE instances of a stack for their
# nearest facets, and scans the rest too only where at most _OUTSIDE_SHARE
# of them are outside their hulls; else the rest take the NNLS first.  At
# C(12, 4) subsets the scan costs about 45 us an instance, and the NNLS
# about 5 us beyond its fixed cost: scanning an instance outside its hull
# costs what skipping the NNLS on about nine inside it saves.
_PROBE = 32
_OUTSIDE_SHARE = 0.1
# `nnls_stack` on unit-scale data: a column of positive gradient enters
# the passive set only if its part orthogonal to the passive columns
# exceeds _RANK_TOL (else it depends on them) and takes more than
# _EXACT_FIT of the residual (else the fit is exact to roundoff); an
# answer must meet the KKT conditions to _KKT_TOL within
# _STEPS_PER_COLUMN * n steps.
_RANK_TOL = 1e-14
_EXACT_FIT = 1e-14
_KKT_TOL = 1e-10
_STEPS_PER_COLUMN = 3
# A `stack_feasible` scan value within this of 0 is left to the NNLS.
_SIGN_MARGIN = 1e-9
# Rows minus and plus their center, in one array operation.
_MINUS_PLUS = np.array([-1.0, 1.0])[:, None, None]
# Scan directions are scaled by at least this length: a zero one scores 0.
_TINY_LENGTH = 1e-300


def unit_rows(mats: np.ndarray) -> np.ndarray:
    """Rows (the last axis) of one instance or a stack of them, scaled to unit norm.

    The normalization `Instance` applies, by elementwise operations only,
    so a row of a stack comes out bit for bit as in its own Instance.
    Rows whose norm is off 1 by more than 1e-6, or not finite, are
    rejected as corrupt.
    """
    norms = row_norms(mats)
    bad = np.argwhere(~(np.abs(norms - 1.0) <= 1e-6))
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


@dataclass(frozen=True)
class SicResult:
    """The cap `sic_bruteforce` found, with its class and condition number."""

    center: np.ndarray
    rho: float
    support: tuple
    cls: FeasibilityClass
    cond: float
    dist_to_sigma: float


def class_labels(rho: np.ndarray) -> np.ndarray:
    """The class label (a `FeasibilityClass` value) of each rho of a
    column: IP within ILL_POSED_BAND of pi/2, else SF below it and IF
    above; "" for a failed (NaN) solve."""
    half_pi = math.pi / 2
    ill = np.abs(rho - half_pi) <= ILL_POSED_BAND
    return np.where(np.isnan(rho), "", np.where(ill, "IP", np.where(rho < half_pi, "SF", "IF")))


def cond_columns(rho: np.ndarray):
    """(labels, cond) of a rho column: `class_labels`, and C = inf in the
    ill-posed band, else 1/|cos rho| with the C library's cos
    (`sphere._libm`), so each value is the `math.cos` one; NaN for NaN."""
    ill = np.abs(rho - math.pi / 2) <= ILL_POSED_BAND
    return class_labels(rho), np.where(ill, math.inf, 1.0 / np.abs(_libm(np.cos, rho)))


def ln_cond(cond: np.ndarray) -> np.ndarray:
    """`math.log` of each condition number up to COND_OVERFLOW, bit for
    bit (`sphere._libm`); NaN past it and for failed (NaN) samples."""
    ln = np.full(cond.shape, math.nan)
    kept = np.flatnonzero(cond <= COND_OVERFLOW)
    ln[kept] = _libm(np.log, cond.take(kept))
    return ln


def classify_rho(rho: float) -> FeasibilityClass:
    """The class of one rho: the one-value view of `class_labels`."""
    return FeasibilityClass(str(class_labels(np.array([rho]))[0]))


def cond_from_rho(rho: float) -> float:
    """C(A) of one rho: the one-value view of `cond_columns`."""
    return float(cond_columns(np.array([rho]))[1][0])


def _angles(mat: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Angles from center to each row, from chord lengths.

    2 atan2(|a - c|, |a + c|) keeps full precision for tiny angles, where
    arccos(1 - eps) loses half the digits.
    """
    diff, summ = mat - center, mat + center
    return 2.0 * np.arctan2(np.sqrt(np.einsum("...i,...i->...", diff, diff)),
                            np.sqrt(np.einsum("...i,...i->...", summ, summ)))


def _covers(mat: np.ndarray, center: np.ndarray, radius: np.ndarray):
    """Whether every row lies within radius + _CONTAIN_TOL of the center,
    compared on chords, per instance of a stack (B, n, d) with centers
    (B, d) and radii (B,); one instance (n, d) takes a one-element radius.
    The chords' sums run coordinate by coordinate (`_dot`) and the reach
    takes the C library's sin (`sphere._libm`), so a stack decides as each
    of its instances alone."""
    diff = (mat - center[..., None, :]).T
    reach = 2.0 * _libm(np.sin, np.minimum(radius + _CONTAIN_TOL, math.pi) / 2.0)
    return _dot(diff, diff).max(axis=0) <= reach * reach


def _equidistant(sub: np.ndarray):
    """(center, radius) of the cap through the rows of sub, center in their span.

    The center direction v solves <a_0, v> = 1 and
    <u_i, v> = (|a_i| - |a_0|) / (|a_0| |a_i - a_0|) for the unit chords
    u_i from a_0 to the other rows, so that <a_i, v> / |a_i| is one value:
    equal angles to the rows' directions, not equal dot products.  The
    difference matters at tiny caps, where rows off unit norm by an ulp
    move a 5e-8 rad angle by 1e-9.  Each norm difference is taken from
    <a_i - a_0, a_i + a_0>, so it keeps full relative precision, and unit
    chords keep each
    equation's backward error at eps, so the angles stay equal to full
    precision for tiny caps and near pi/2 alike.  None when the rows admit
    no common positive inner product (their affine hull holds the origin).
    """
    chords = sub[1:] - sub[0]
    lengths = np.maximum(np.sqrt(np.einsum("ij,ij->i", chords, chords)), 1e-300)
    norms = np.sqrt(np.einsum("ij,ij->i", sub, sub))
    gaps = np.einsum("ij,ij->i", chords, sub[1:] + sub[0]) / (norms[1:] + norms[0])
    rows = np.concatenate([sub[:1], chords / lengths[:, None]])
    rhs = np.concatenate([[1.0], gaps / (norms[0] * lengths)])
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
            if ((best is None or radius <= best[0])
                    and _covers(mat, center, np.array([radius]))[0]):
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
    rho, center, subset = best
    return SicResult(center=center, rho=rho, support=tuple(int(i) for i in subset),
                     cls=classify_rho(rho), cond=cond_from_rho(rho),
                     dist_to_sigma=abs(math.pi / 2 - rho))


def _scans(n: int, d: int) -> bool:
    """Whether an n x d instance is solved by the stack scan (`stack_rho`,
    `stack_feasible`)."""
    return d <= _SCAN_MAX_DIM and math.comb(n, d) <= _SCAN_SUBSETS


@functools.lru_cache(maxsize=None)
def _subset_index(n: int, sizes: tuple):
    """The subset of each `_max_min` candidate over n rows: all subsets of
    each size, then the last size's again (normals taken both ways); and
    per size the (k, S) array of the rows of its S subsets."""
    combos = [tuple(itertools.combinations(range(n), k)) for k in sizes]
    cols = tuple(np.array(combo, dtype=np.intp).reshape(-1, k).T.copy()
                 for combo, k in zip(combos, sizes))
    for col in cols:
        col.flags.writeable = False
    return sum(combos, ()) + combos[-1], cols


@functools.lru_cache(maxsize=None)
def _laplace_plan(d: int):
    """The Laplace expansion of `_normals`: per difference after the
    first, each grown minor's terms (coordinate, smaller minor) in column
    order, signs alternating; then each normal coordinate's minor."""
    keys, steps = [(c,) for c in range(d)], []
    for size in range(2, d):
        grown = list(itertools.combinations(range(d), size))
        steps.append([[(cols[t], keys.index(cols[:t] + cols[t + 1:])) for t in range(size)]
                      for cols in grown])
        keys = grown
    return steps, [keys.index(tuple(c for c in range(d) if c != j)) for j in range(d)]


def _normals(diffs) -> np.ndarray:
    """Normals (d, ...) of the hyperplanes through d points, from their d-1
    differences: diffs[r][c] is coordinate c of difference r.  Coordinate
    j is the signed minor without column j, by explicit cofactors (Laplace
    expansion in column order, like Qhull's determinant hyperplanes), each
    minor a sum of products of whole coordinate arrays; zero where the
    points are affinely dependent."""
    steps, last = _laplace_plan(len(diffs[0]))
    minors = list(diffs[0])
    for row, step in zip(diffs[1:], steps):
        grown = []
        for (c, k), *rest in step:
            minor = row[c] * minors[k]
            for t, (c, k) in enumerate(rest, 1):
                minor = minor - row[c] * minors[k] if t % 2 else minor + row[c] * minors[k]
            grown.append(minor)
        minors = grown
    return np.stack([-minors[k] if j % 2 else minors[k] for j, k in enumerate(last)])


def _directions(coords: np.ndarray, cols: np.ndarray):
    """Direction (d, P, S) of the min-norm point of aff(S) for the S subsets
    cols (k, S) of the rows coords (d, P, n) of P instances: the row, a
    chord's midpoint, Cramer's rule on a triangle's edge Gram system (d =
    4), or the hyperplane normal of d rows.  Unnormalized; a degenerate
    subset gives a zero or arbitrary direction, still a valid candidate.
    A normal's differences are gathered, contiguous, from all the row
    differences, so each cofactor product runs on whole arrays."""
    d, P, n = coords.shape
    k = len(cols)
    if k == 1:
        return coords
    if k == d:
        diffs = (coords[:, :, None, :] - coords[:, :, :, None]).reshape(d, P, n * n)
        return _normals([diffs.take(cols[0] * n + col, axis=2) for col in cols[1:]])
    pts = coords.take(cols, axis=2)
    if k == 2:
        return pts[:, :, 0] + pts[:, :, 1]
    a, u, v = pts[:, :, 0], pts[:, :, 1] - pts[:, :, 0], pts[:, :, 2] - pts[:, :, 0]
    uu, uv, vv, au, av = _dot(u, u), _dot(u, v), _dot(v, v), _dot(a, u), _dot(a, v)
    return (uu * vv - uv * uv) * a + (av * uv - au * vv) * u + (au * uv - av * uu) * v


def _max_min(mats: np.ndarray, sizes: tuple):
    """(value, center, candidate) of max over y of min_i <a_i, y> for a
    stack (B, n, d), y over the `_directions` of the row subsets of the
    given sizes (ending at d, whose normals count both ways); a zero
    direction scores 0.  Elementwise operations and one matrix product per
    instance, so a result does not depend on its stack; sliced to at most
    _SCAN_PAIRS (instance, candidate) pairs (an empty stack gives empty ones),
    each slice's rows gathered coordinate-major and contiguous."""
    B, n, d = mats.shape
    combos, cols = _subset_index(n, sizes)
    C = len(combos)
    step, found = max(1, _SCAN_PAIRS // C), []
    for lo in range(0, max(B, 1), step):
        part = mats[lo:lo + step]
        coords = np.ascontiguousarray(part.transpose(2, 0, 1))
        dirs = [_directions(coords, c) for c in cols]
        w = np.concatenate(dirs + [-dirs[-1]], axis=2)
        length = np.maximum(np.sqrt(_dot(w, w)), _TINY_LENGTH)
        value = (part @ w.transpose(1, 0, 2)).min(axis=1) / length
        win = value.argmax(axis=1)
        at = np.arange(0, len(part) * C, C) + win
        found.append((value.take(at), w.reshape(d, -1).take(at, axis=1) / length.take(at), win))
    value, centers, wins = found[0] if len(found) == 1 else (
        np.concatenate(x, axis=-1) for x in zip(*found))
    return value, centers.T, wins


def _orthogonalize(Q: np.ndarray, v: np.ndarray):
    """(w, c, |w|): the part w of the columns v (r, G) orthogonal to the
    orthonormal columns Q (P, r, G), its coefficients c (P, G) on them,
    and its norm.  Gram-Schmidt, run twice ("twice is enough")."""
    if not len(Q):
        return v, Q[:, 0], np.sqrt(_dot(v, v))
    QT = Q.transpose(1, 0, 2)
    c = _dot(QT, v)
    v = v - _dot(c, Q)
    again = _dot(QT, v)
    v = v - _dot(again, Q)
    return v, c + again, np.sqrt(_dot(v, v))


def nnls_stack(E: np.ndarray, f: np.ndarray):
    """(u, certified): u[b] = argmin ||E[b] u - f[b]|| over u >= 0 for a
    stack E (B, r, n), f (B, r), and whether u[b] is certified optimal.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    ch. 23), run on the whole stack at once.  Each instance keeps its
    passive set compact, at most r columns in order of entry, with an
    orthonormal basis Q of their span and the triangular R of E_P = Q R.
    A step enters the column of largest positive gradient, orthogonalized
    against the kept Q only; as in Lawson-Hanson, a column whose part
    orthogonal to Q is at most _RANK_TOL, or whose weight in the new
    least-squares solution would not be positive (its basis vector takes
    at most _EXACT_FIT of f), is passed over for the next one.  A weight
    driven to zero leaves, and only the instances that dropped a column
    rebuild Q and R, from the first slot that changed.
    An instance is certified if it stopped within _STEPS_PER_COLUMN * n
    steps and meets the KKT conditions to _KKT_TOL: max E^T(f - Eu) and
    |u . E^T(f - Eu)| at most 1e-10, on inputs of unit scale.  Every sum
    runs coordinate by coordinate, so an instance solves to the same bits
    in any stack.
    """
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    B, r, n = E.shape
    cap = _STEPS_PER_COLUMN * n
    # Coordinate-major: slot p of instance b holds passive column cols[p, b],
    # its entries Ec[p, :, b], basis vector Q[p, :, b], column R[p, :, b] of
    # the triangular factor, and weight uc[p, b].  Slots from k[b] on are
    # empty: zero, with R the identity there.
    Et = np.ascontiguousarray(E.transpose(1, 2, 0))
    ft = np.ascontiguousarray(f.T)
    lanes, slots = np.arange(B), np.arange(r)[:, None]
    cols = np.zeros((r, B), dtype=np.intp)
    k = np.zeros(B, dtype=np.intp)
    Ec, Q, R = np.zeros((3, r, r, B))
    R[range(r), range(r)] = 1.0
    uc = np.zeros((r, B))
    passive = np.zeros((n, B), dtype=bool)
    live = np.ones(B, dtype=bool)  # not yet at the optimum
    entering = live.copy()  # at a passive-set optimum: a column may enter
    y = np.zeros((r, B))  # Q^T f
    for step in itertools.count(1):
        # The gradient at a passive-set optimum, from the residual f - Q Q^T f
        # projected off span(Q) once more: its part in the span is roundoff
        # that would swamp the gradients of near ill-posed inputs (1e-19 at
        # a distance of 1e-10).
        top = int(k.max())
        resid = ft
        if top:
            resid = ft - _dot(y[:top], Q[:top])
            resid = resid - _dot(_dot(Q[:top].transpose(1, 0, 2), resid), Q[:top])
        grad = _dot(Et, resid)
        added = np.zeros(B, dtype=bool)
        g = lanes[live & entering & (k < r)]
        w = np.where(passive[:, g], -np.inf, grad[:, g])
        while g.size:
            t = w.argmax(axis=0)
            some = w[t, np.arange(g.size)] > 0.0
            if not some.all():
                g, w, t = g[some], w[:, some], t[some]
            col = Et[:, t, g]
            v, c, norm = _orthogonalize(Q[:top, :, g], col)
            q = v / np.maximum(norm, _RANK_TOL)
            ok = (norm > _RANK_TOL) & (_dot(q, ft[:, g]) > _EXACT_FIT)
            a, ka = g[ok], k[g[ok]]
            Q[ka, :, a] = q[:, ok].T
            R[ka, :top, a] = c[:, ok].T
            R[ka, ka, a] = norm[ok]
            Ec[ka, :, a] = col[:, ok].T
            cols[ka, a] = t[ok]
            passive[t[ok], a] = True
            k[a] += 1
            added[a] = True
            if ok.all():
                break
            w[t[~ok], np.flatnonzero(~ok)] = -np.inf
            g, w = g[~ok], w[:, ~ok]
        live &= added | ~entering
        if not live.any() or step > cap:
            break
        top = int(k.max())
        y[:top] = _dot(Q[:top].transpose(1, 0, 2), ft)
        s, rest = np.zeros((r, B)), y[:top].copy()
        for p in range(top - 1, -1, -1):
            s[p] = rest[p] / R[p, p]
            rest[:p] -= R[p, :p] * s[p]
        positive = (s > 0.0).sum(axis=0) == k
        uc = np.where(live & positive, s, uc)
        entering = ~live | positive
        if entering.all():
            continue
        # Move toward s until the first passive weight reaches zero; drop it.
        h = lanes[~entering]
        sh, uh, vh = s[:, h], uc[:, h], slots < k[h]
        neg = vh & (sh <= 0.0)
        ratio = np.where(neg, uh / np.where(neg, np.maximum(uh - sh, 1e-300), 1.0), np.inf)
        alpha = ratio.min(axis=0)
        moved = uh + alpha * (sh - uh)
        drop = vh & ((moved <= 0.0) | (ratio == alpha))
        passive[cols[:, h][drop], np.broadcast_to(h, drop.shape)[drop]] = False
        order = np.argsort(drop | ~vh, axis=0, kind="stable")
        kept = np.take_along_axis(vh & ~drop, order, axis=0)
        uc[:, h] = np.where(kept, np.take_along_axis(moved, order, axis=0), 0.0)
        cols[:, h] = np.take_along_axis(cols[:, h], order, axis=0)
        Eh = np.where(kept[:, None], np.take_along_axis(Ec[:, :, h], order[:, None], axis=0), 0.0)
        k[h] = kh = kept.sum(axis=0)
        first = int(drop.argmax(axis=0).min())
        Qh, Rh = Q[:, :, h], R[:, :, h]
        Qh[first:] = Rh[first:] = 0.0
        Rh[range(first, r), range(first, r)] = 1.0
        for j in range(first, int(kh.max())):
            on = j < kh
            v, c, norm = _orthogonalize(Qh[:j], Eh[j])
            Qh[j] = np.where(on, v / np.where(on, norm, 1.0), 0.0)
            Rh[j, :j] = np.where(on, c, 0.0)
            Rh[j, j] = np.where(on, norm, 1.0)
        Ec[:, :, h], Q[:, :, h], R[:, :, h] = Eh, Qh, Rh
    top = int(k.max())
    grad = _dot(Et, ft - _dot(Ec[:top], uc[:top]) if top else ft)
    valid = slots < k
    u = np.zeros((B, n))
    u[np.broadcast_to(lanes, valid.shape)[valid], cols[valid]] = uc[valid]
    slack = _dot(uc, np.take_along_axis(grad, cols, axis=0))
    return u, ~live & (grad.max(axis=0) <= _KKT_TOL) & (np.abs(slack) <= _KKT_TOL)


def _least_distances(mats: np.ndarray):
    """(z, u, certified): the nearest point z of conv(rows) to the origin
    for each instance of a stack (B, n, d), with its NNLS weights u.

    The least-distance program min ||x|| s.t. mat x >= 1 in the NNLS form
    of Lawson and Hanson (Solving Least Squares Problems, ch. 23):
    minimize ||E u - f|| over u >= 0 with E = [mat^T; 1^T], f = e_{m+2},
    one `nnls_stack` call for the stack.  The nearest point is mat^T u /
    sum(u), read off the weights rather than the residual, whose last
    entry cancels near ill-posed inputs.  Rows with u > 0 are the support
    of the nearest face.
    """
    B, n, d = mats.shape
    E = np.ones((B, d + 1, n))
    E[:, :d] = mats.transpose(0, 2, 1)
    f = np.zeros((B, d + 1))
    f[:, d] = 1.0
    u, certified = nnls_stack(E, f)
    uT = u.T
    total = _dot(uT, np.ones(n))
    z = _dot(uT[..., None], mats.transpose(1, 0, 2)) / np.where(total > 0.0, total, 1.0)[:, None]
    return z, u, certified


def stack_feasible(mats: np.ndarray) -> np.ndarray:
    """Whether the origin is outside conv(rows), i.e. rho < pi/2, for each
    instance of a stack (B, k, d).

    Where `_scans` holds, the sign of the facet scan (`_max_min` over the
    d-subsets' normals) decides: some facet hyperplane separates the hull
    from the origin iff it is outside.  A best value within _SIGN_MARGIN
    of 0 (flat hulls score 0), and every instance of a larger stack,
    takes the least-distance NNLS instead, feasible iff the distance
    exceeds _ORIGIN_TOL; ConvergenceError where that is not certified.
    """
    mats = np.asarray(mats, dtype=float)
    B, k, d = mats.shape
    feasible = np.zeros(B, dtype=bool)
    rest = np.arange(B)
    if d <= k and _scans(k, d):
        value = _max_min(mats, (d,))[0]
        feasible = value > 0.0
        rest = np.flatnonzero(np.abs(value) <= _SIGN_MARGIN)
    if rest.size:
        z, _, certified = _least_distances(mats[rest])
        if not certified.all():
            raise ConvergenceError(
                f"least-distance NNLS found no certified optimum on "
                f"{int((~certified).sum())} of {rest.size} instances")
        feasible[rest] = _dot(z.T, z.T) > _ORIGIN_TOL * _ORIGIN_TOL
    return feasible


def _stack_caps(mats: np.ndarray):
    """(rho, centers, candidates, routed) of the stack scan of (B, n, d).

    The maximizer of min_i <a_i, y> is the direction of the min-norm point
    of aff(S) for some S of 1..d rows: the nearest face of conv A, or the
    nearest facet's normal when the origin is inside (Caratheodory).  So
    `_max_min` over them all (the subset step of Gilbert, Johnson and
    Keerthi's distance algorithm) is cos rho in either class; rho is the
    winner's covering radius from chords.  Routed: winners within
    _POLISH_DIST of pi/2 (cancelling sums; flat hulls, whose zero normals
    score 0), caps below _TINY_CAP, and caps not covering to _CONTAIN_TOL.
    """
    cos_rho, centers, wins = _max_min(mats, tuple(range(1, mats.shape[2] + 1)))
    ends = mats.transpose(2, 0, 1)[:, None] + centers.T[:, None, :, None] * _MINUS_PLUS
    chords = np.sqrt(_dot(ends, ends))
    rho = 2.0 * np.arctan2(chords[0], chords[1]).max(axis=1)
    routed = ((np.abs(cos_rho) < _POLISH_DIST) | (rho < _TINY_CAP)
              | (cos_rho > np.cos(rho - _CONTAIN_TOL)))
    return rho, centers, wins, routed.nonzero()[0]


def stack_rho(mats: np.ndarray) -> np.ndarray:
    """rho of every instance of a stack (B, n, d) of unit rows: one
    `_stack_caps` scan where `_scans` holds, its routed instances (else
    all) by `_solve_routed`; NaN where an instance needs the NNLS and it
    is not certified, or the per-instance solve raised one of the
    solver's typed errors."""
    if _scans(*mats.shape[1:]):
        rho, _, _, routed = _stack_caps(mats)
    else:
        rho, routed = np.empty(len(mats)), np.arange(len(mats))
    if routed.size:
        for i, solved in zip(routed.tolist(), _solve_routed(mats[routed])):
            rho[i] = np.nan if isinstance(solved, Exception) else solved[0]
    return rho


def _solve_routed(mats: np.ndarray):
    """(rho, center, support) of each instance of a stack (B, n, d), or the
    typed error (ConvergenceError, DegenerateHullError) that ends its
    solve.

    Up to _SCAN_MAX_DIM coordinates and _FACET_SUBSETS d-row subsets,
    the facet scan (`_scan_facets`) decides the hull side: an
    instance whose best normal is nonzero and scores below -_SIGN_MARGIN
    holds the origin, and that normal's facet is its nearest.  The first
    _PROBE instances are scanned; where at most _OUTSIDE_SHARE of them
    are not inside, so are the rest, and only the instances not inside
    take the NNLS (one `_least_distances` call).  Else the rest take the
    NNLS first, and only those it does not put outside are scanned.
    Either way an instance gets the same answer.  Where only the NNLS puts
    the origin inside, the scan's nonzero normal, else `_hull_facet`, gives
    the facet; its DegenerateHullError fails that instance alone.  Then
    every first cap, the nearest facet's (rho = acos(cos rho)) or, where
    the NNLS puts the origin outside, the nearest point's, is checked in
    one stack: precise (a nearest point at least _POLISH_DIST from the
    origin), at least _TINY_CAP, and `_covers`.  Only the caps that fail
    take `_refine`.
    """
    B, n, d = mats.shape
    cos_rho, centers, supports = np.zeros(B), np.zeros((B, d)), [None] * B
    scanned = np.zeros(B, dtype=bool)

    def scan(idx):
        if idx.size:
            cos_rho[idx], centers[idx], found = _scan_facets(mats[idx])
            for i, support in zip(idx.tolist(), found):
                supports[i] = support
            scanned[idx] = True

    def enclosed():
        return scanned & (cos_rho < -_SIGN_MARGIN)

    later = np.arange(0)  # scanned after the NNLS, unless it puts them outside
    if d <= _SCAN_MAX_DIM and 0 < math.comb(n, d) <= _FACET_SUBSETS:
        probe = min(B, _PROBE)
        scan(np.arange(probe))
        if np.count_nonzero(~enclosed()[:probe]) <= _OUTSIDE_SHARE * probe:
            scan(np.arange(probe, B))
        else:
            later = np.arange(probe, B)
    rest = np.flatnonzero(~enclosed())
    zs, us, certified = np.zeros((0, d)), np.zeros((0, n)), np.zeros(0, dtype=bool)
    if rest.size:
        zs, us, certified = _least_distances(mats[rest])
    dist = np.sqrt([float(z @ z) for z in zs])  # one dot product per z, as rho was recorded
    if later.size:
        scan(rest[(~certified | (dist <= _ORIGIN_TOL)) & ~scanned[rest]])
    solved = [None] * B
    left = ~enclosed()[rest]
    for i in rest[left & ~certified].tolist():
        solved[i] = ConvergenceError("least-distance NNLS found no certified optimum")
    for i in rest[left & certified & (dist <= _ORIGIN_TOL)].tolist():
        if not centers[i].any():  # inside by the NNLS alone, with no scanned facet
            try:
                centers[i], supports[i], cos_rho[i] = _hull_facet(mats[i])
            except DegenerateHullError as exc:
                solved[i] = exc
    outside = left & certified & (dist > _ORIGIN_TOL)
    nearest, near = rest[outside], dist[outside]
    centers[nearest], cos_rho[nearest] = zs[outside] / near[:, None], np.minimum(near, 1.0)
    for i, u in zip(nearest.tolist(), us[outside]):
        supports[i] = tuple(np.flatnonzero(u > 0.0).tolist())
    facet = np.ones(B, dtype=bool)
    facet[nearest] = False
    # A nearest point's cos rho is |z| capped at 1: imprecise below _POLISH_DIST.
    first = np.flatnonzero([done is None for done in solved])
    rho = _libm(np.arccos, cos_rho[first])
    precise = facet[first] | (cos_rho[first] >= _POLISH_DIST)
    good = precise & (rho >= _TINY_CAP) & _covers(mats[first], centers[first], rho)
    for i, r, ok in zip(first.tolist(), rho.tolist(), good.tolist()):
        try:
            solved[i] = (r, centers[i], supports[i]) if ok else _refine(
                mats[i], centers[i], supports[i], facet[i])
        except (ConvergenceError, DegenerateHullError) as exc:
            solved[i] = exc
    return solved


def _scan_facets(mats: np.ndarray):
    """(cos rho, centers, supports) of the best d-row normal of each
    instance of a stack (B, n, d), by one `_max_min` over the d-subsets'
    normals.

    Where the hull holds the origin and the winning normal is nonzero, it
    is the hull facet nearest the origin, the one Qhull would find:
    |cos rho| = dist(0, bd conv A), the center is the facet's inward
    normal and the support its vertices.  A zero center (no subset spans
    a hyperplane, or a degenerate one beats every facet) answers nothing:
    `_hull_facet` does.
    """
    n, d = mats.shape[1:]
    cos_rho, centers, wins = _max_min(mats, (d,))
    combos = _subset_index(n, (d,))[0]
    return cos_rho, centers, [combos[win] for win in wins.tolist()]


def _qhull(points: np.ndarray):
    """(equations, simplices) of Qhull's convex hull of points; a
    DegenerateHullError where Qhull fails.  scipy is imported here, and
    only `_hull_facet` calls it."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DegenerateHullError(str(exc)) from exc
    return hull.equations, hull.simplices


def _hull_facet(mat: np.ndarray):
    """(center, support, cos rho) of the hull facet nearest the enclosed
    origin by Qhull, where `_scan_facets` does not answer.  A flat hull
    around the origin is exactly ill-posed: its center is the rows' null
    vector, all rows on the boundary."""
    n, d = mat.shape
    try:
        equations, simplices = _qhull(mat)
    except DegenerateHullError as exc:
        _, svals, vt = np.linalg.svd(mat)
        if svals.size == d and svals[-1] > _FLAT_TOL:
            raise DegenerateHullError(f"Qhull failed on a full-rank instance: {exc}") from exc
        return vt[-1], tuple(range(n)), 0.0
    f = int(np.argmax(equations[:, -1]))
    support = tuple(sorted(int(i) for i in simplices[f]))
    return -equations[f, :-1], support, float(equations[f, -1])


def _refine(mat: np.ndarray, center: np.ndarray, support: tuple, enclosed: bool):
    """(rho, center, support) of one instance whose first cap (center,
    support) failed `_solve_routed`'s check: a hull facet's, where the
    origin is `enclosed`, else the nearest point's.  The support rows are
    re-solved with the oracle's equidistant cap, else the rows near the
    rim enumerated."""
    d = mat.shape[1]
    angles = _angles(mat, center)
    rho = float(np.max(angles))
    cap = _equidistant(mat[list(support)])
    if cap is not None:
        polished = -cap[0] if enclosed else cap[0]
        radius = math.pi - cap[1] if enclosed else cap[1]
        if (_TINY_CAP <= radius <= rho + _CONTAIN_TOL
                and _covers(mat, polished, np.array([radius]))[0]):
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


def sic_rho(mat):
    """(rho, center, support) of the smallest cap containing the rows of mat.

    The one-instance view of `stack_rho`, bit for bit: the stack scan
    where `_scans` holds, else, or where it routes, `_solve_routed`.
    Raises the solver's typed errors where `stack_rho` gives NaN.
    """
    mat = np.asarray(mat, dtype=float)
    if _scans(*mat.shape):
        rho, centers, wins, routed = _stack_caps(mat[None])
        if not routed.size:
            n, d = mat.shape
            return float(rho[0]), centers[0], _subset_index(n, tuple(range(1, d + 1)))[0][wins[0]]
    solved = _solve_routed(mat[None])[0]
    if isinstance(solved, Exception):
        raise solved
    return solved


def cond_and_class(A: Instance):
    """(condition number, feasibility class, distance to the ill-posed set)."""
    rho = sic_rho(A.matrix)[0]
    return cond_from_rho(rho), classify_rho(rho), abs(math.pi / 2 - rho)
