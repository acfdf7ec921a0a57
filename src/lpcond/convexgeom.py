"""Spherical convex hulls as polyhedral cones.

Distances to hulls (`sconv_distances`, for the property suite's
feasible-witness check) and the facets of a stack of cones
(`cone_facets`, for its infeasible-transition check).

Projection onto a cone is nonnegative least squares, solved for a whole
stack of instances at once by `sic.nnls_stack`, the stacked
Lawson-Hanson kernel that also gives `sic` its least distances.
`distance_to_sconv` is the one-instance view of `sconv_distances`, and
`cone_member_batch`, membership by Caratheodory subsets, an oracle
independent of the projection: no command runs either, tests and the
benchmark's tracer do.  A stack of one pays the kernel's per-step numpy
overhead alone, so many instances belong in one stack.  The module
needs numpy only.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import sic
from .errors import ConvergenceError
from .sphere import clipped_arccos, row_norms

# A point is treated as a member of a hull when its hull distance is below
# this; chosen so NNLS roundoff never flips membership of true members.
MEMBER_TOL = 1e-9


def sconv_distances(X: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Angular distance from each X[b] to sconv(gens[b]), for unit rows
    X (B, d) and gens (B, k, d); 0 iff X[b] is a member.

    One `sic.nnls_stack` call projects every X[b] onto its cone, as the
    weights lam of its nearest point lam @ gens[b]; ConvergenceError unless
    every instance is certified.  Angles come from chords: arccos of a
    cosine near 1 puts members up to 2e-8 away.  Where the projection is 0,
    X[b] sits in the polar cone and the nearest hull point is a generator.
    """
    lam, certified = sic.nnls_stack(gens.transpose(0, 2, 1), X)
    if not certified.all():
        raise ConvergenceError(
            f"cone projection NNLS found no certified optimum on "
            f"{int((~certified).sum())} of {len(X)} instances")
    z = (lam[:, None, :] @ gens)[:, 0]
    nz = row_norms(z)
    polar = clipped_arccos((gens @ X[..., None])[..., 0].max(axis=1))
    return np.where(nz > 1e-12, sic._angles(X, z / np.maximum(nz, 1e-300)[:, None]), polar)


def distance_to_sconv(x, gens) -> float:
    """Angular distance from the unit x to sconv of the unit rows gens
    (k, d); 0 iff x is a member.  The one-instance view of
    `sconv_distances`."""
    gens = np.atleast_2d(np.asarray(gens, dtype=float))
    return float(sconv_distances(np.asarray(x, dtype=float)[None], gens[None])[0])


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

