import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpcond import harness, samplers, sic
from lpcond.convexgeom import (
    MEMBER_TOL,
    cone_facets,
    cone_member_batch,
    distance_to_sconv,
    sconv_distances,
)
from lpcond.errors import ConvergenceError, DegenerateHullError
from lpcond.sic import nnls_stack
from oracles import (
    SpherePolytope,
    cap_distances_batch,
    distance_to_boundary,
    distance_to_dual,
    sconv_distance_scipy,
    unit_point,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_units(rng, count, d=3):
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def cap_cloud(rng, count, radius, d=3):
    """Points inside a random cap of the given radius (pointed hull)."""
    center = unit(rng.standard_normal(d))
    pts = []
    while len(pts) < count:
        x = unit(rng.standard_normal(d))
        if x @ center >= math.cos(radius):
            pts.append(x)
    return np.array(pts), center


def project(x, P):
    """(z, lam): the nearest point z = sum lam_i b_i of cone(generators)
    to x, by `nnls_stack` on a stack of one."""
    xv = np.asarray(x, dtype=float)
    lam, certified = nnls_stack(P.generators.T[None], xv[None])
    assert certified[0]
    return P.generators.T @ lam[0], lam[0]


class TestNnls:
    def test_kkt_certificate_random(self):
        # nnls_stack certifies only answers that meet the 1e-10 KKT
        # conditions; check the certificate here as well.
        rng = np.random.default_rng(1)
        for _ in range(200):
            d, k = rng.integers(2, 7), rng.integers(1, 8)
            P = SpherePolytope(random_units(rng, k, d))
            x = unit(rng.standard_normal(d))
            z, lam = project(x, P)
            w = P.generators @ (x - z)
            assert np.all(lam >= 0)
            assert np.max(w) <= 1e-9  # no ascent direction among active vars
            assert abs(float(lam @ w)) <= 1e-9  # complementarity
            assert np.allclose(z, P.generators.T @ lam, atol=1e-12)


def adversarial_cone(rng, family, k, d):
    """k unit generators in R^d: random, or with the last one a duplicate,
    the antipode or a 1e-7 rotation of the first, or all on one great circle."""
    gens = random_units(rng, k, d)
    if family == "duplicate":
        gens[-1] = gens[0]
    elif family == "antipodal":
        gens[-1] = -gens[0]
    elif family == "near-parallel":
        tangent = unit(rng.standard_normal(d))
        tangent = unit(tangent - (tangent @ gens[0]) * gens[0])
        gens[-1] = unit(gens[0] + 1e-7 * tangent)
    elif family == "great-circle":
        gens[:, 2:] = 0.0
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
    return gens


class TestNnlsStack:
    @pytest.mark.parametrize("seed, family", enumerate(
        ["random", "duplicate", "antipodal", "near-parallel", "great-circle"]))
    def test_against_scipy_nnls(self, seed, family):
        rng = np.random.default_rng(seed)
        for d in range(2, 7):
            for k in range(1, 8):
                gens = np.array([adversarial_cone(rng, family, k, d) for _ in range(30)])
                X = random_units(rng, 30, d)
                lam, certified = nnls_stack(gens.transpose(0, 2, 1), X)
                assert certified.all() and np.all(lam >= 0)
                resid = X - (lam[:, None, :] @ gens)[:, 0]
                grad = (gens @ resid[..., None])[..., 0]
                assert np.all(grad.max(axis=1) <= 1e-10)
                assert np.all(np.abs((lam * grad).sum(axis=1)) <= 1e-10)
                dist = sconv_distances(X, gens)
                oracle = [sconv_distance_scipy(x, g) for x, g in zip(X, gens)]
                assert np.max(np.abs(dist - oracle)) <= 1e-12

    def test_an_instance_solves_alike_alone_and_in_a_stack(self):
        rng = np.random.default_rng(30)
        gens = np.array([random_units(rng, 5, 3) for _ in range(50)])
        X = random_units(rng, 50, 3)
        lam, _ = nnls_stack(gens.transpose(0, 2, 1), X)
        for j in (0, 17, 49):
            assert np.array_equal(nnls_stack(gens[j].T[None], X[j][None])[0][0], lam[j])

    def test_iteration_cap_is_a_typed_error(self, monkeypatch):
        # The octant's center needs all three generators: three steps.
        E, f = np.eye(3)[None], unit([1.0, 1.0, 1.0])[None]
        monkeypatch.setattr(sic, "_STEPS_PER_COLUMN", 1)
        lam, certified = nnls_stack(E, f)
        assert certified[0] and np.allclose(lam, f)
        monkeypatch.setattr(sic, "_STEPS_PER_COLUMN", 2 / 3)
        assert not nnls_stack(E, f)[1][0]
        with pytest.raises(ConvergenceError):
            sconv_distances(f, E)

    def test_no_certificate_is_a_typed_error(self):
        E, f = np.eye(3)[None], np.array([[np.nan, 0.0, 1.0]])
        assert not nnls_stack(E, f)[1][0]
        with pytest.raises(ConvergenceError):
            sconv_distances(f, E)


class TestProjection:
    def test_generator_projects_to_itself(self):
        P = SpherePolytope(np.eye(3))
        z, lam = project([1.0, 0, 0], P)
        assert np.allclose(z, [1.0, 0, 0], atol=1e-12)
        assert np.allclose(lam, [1.0, 0, 0], atol=1e-12)

    def test_polar_direction_projects_to_zero(self):
        P = SpherePolytope(np.eye(3)[:1])
        z, _ = project([-1.0, 0, 0], P)
        assert np.linalg.norm(z) <= 1e-12

    def test_orthogonal_direction_projects_to_zero(self):
        P = SpherePolytope(np.eye(3)[:2])
        z, _ = project([0.0, 0, 1.0], P)
        assert np.linalg.norm(z) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_moreau_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        gens = random_units(rng, int(rng.integers(1, 6)))
        x = unit(rng.standard_normal(3))
        z, _ = project(x, SpherePolytope(gens))
        w = x - z
        assert abs(float(z @ w)) <= 1e-10
        assert np.allclose(z + w, x, atol=1e-12)


class TestHullDistance:
    def test_generators_have_zero_distance(self):
        rng = np.random.default_rng(3)
        gens = random_units(rng, 4)
        P = SpherePolytope(gens)
        for g in gens:
            assert distance_to_sconv(unit_point(g), P.generators) <= 1e-8

    def test_orthogonal_example(self):
        P = SpherePolytope(np.eye(3)[:2])
        assert distance_to_sconv([0, 0, 1.0], P.generators) == pytest.approx(math.pi / 2)

    def test_antipodal_single_generator(self):
        P = SpherePolytope(np.eye(3)[:1])
        assert distance_to_sconv([-1.0, 0, 0], P.generators) == pytest.approx(math.pi)

    def test_against_dense_grid_oracle(self):
        # Brute-force minimum over a fine grid of convex combinations.
        rng = np.random.default_rng(4)
        for _ in range(6):
            k = int(rng.integers(2, 5))
            gens, _ = cap_cloud(rng, k, 1.0)
            x = unit(rng.standard_normal(3))
            ticks = np.linspace(0.0, 1.0, 35)
            lams = np.array([
                w for w in itertools.product(ticks, repeat=k)
                if abs(sum(w) - 1.0) < 1e-9
            ])
            hull = lams @ gens
            hull /= np.linalg.norm(hull, axis=1, keepdims=True)
            oracle = float(np.min(np.arccos(np.clip(hull @ x, -1, 1))))
            ours = distance_to_sconv(unit_point(x), SpherePolytope(gens).generators)
            assert ours <= oracle + 1e-9
            assert ours >= oracle - 1e-4  # grid resolution limits the oracle


class TestDualDistance:
    def test_point_in_dual(self):
        P = SpherePolytope(np.eye(3)[:1])
        assert distance_to_dual([-1.0, 0, 0], P) == 0.0

    def test_generator_to_its_dual(self):
        P = SpherePolytope(np.eye(3)[:1])
        assert distance_to_dual([1.0, 0, 0], P) == pytest.approx(math.pi / 2)

    def test_interior_point_octant(self):
        P = SpherePolytope(np.eye(3))
        x = unit([1.0, 1.0, 1.0])
        # Dense-sample oracle over the dual set (the negative octant).
        rng = np.random.default_rng(5)
        samples = -np.abs(random_units(rng, 40000))
        oracle = float(np.min(np.arccos(np.clip(samples @ x, -1, 1))))
        ours = distance_to_dual(x, P)
        assert ours == pytest.approx(math.pi / 2 + math.asin(1 / math.sqrt(3)), abs=1e-12)
        assert ours <= oracle + 1e-9
        assert ours >= oracle - 2e-2

    def test_monotone_under_more_generators(self):
        # Larger generating sets shrink the dual, so distances cannot drop.
        rng = np.random.default_rng(6)
        for _ in range(40):
            gens, _ = cap_cloud(rng, 5, 0.8)
            x = unit(rng.standard_normal(3))
            d3 = distance_to_dual(x, SpherePolytope(gens[:3]))
            d4 = distance_to_dual(x, SpherePolytope(gens[:4]))
            d5 = distance_to_dual(x, SpherePolytope(gens))
            assert d4 >= d3 - 1e-8
            assert d5 >= d4 - 1e-8

    def test_dkk_identity_polytopes(self):
        # d(x, K) + d(x, dual K) = pi/2 off K and its dual.
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            gens, _ = cap_cloud(rng, 5, 0.7)
            P = SpherePolytope(gens)
            x = unit(rng.standard_normal(3))
            dk = distance_to_sconv(x, P.generators)
            dd = distance_to_dual(x, P)
            if dk <= 1e-6 or dd <= 1e-6:
                continue
            assert dk + dd == pytest.approx(math.pi / 2, abs=1e-6)
            checked += 1


def oracle_boundary_distances(points, gens, n_dirs, seeds):
    """Independent boundary distances of interior points of sconv(gens):
    bisection along great circles, for all points in lockstep.

    Membership goes through the Caratheodory subset solver, not the facet
    enumeration being validated; each round of the search is one
    `cone_member_batch` call on the stacked points of every direction.
    Point p scans n_dirs random tangent directions drawn with seed
    seeds[p].  For ambient dimension 3 each point's best scan direction is
    polished by golden-section over the tangent angle, the two probes of
    every point's step in one search.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]

    def exit_angles(starts, dirs):
        lo = np.zeros(dirs.shape[0])
        hi = np.full(dirs.shape[0], math.pi / 2)
        for _ in range(30):
            pts = np.cos(hi)[:, None] * starts + np.sin(hi)[:, None] * dirs
            inside = cone_member_batch(pts, gens)
            if not inside.any():
                break
            hi = np.where(inside, np.minimum(hi * 1.4, math.pi - 1e-9), hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pts = np.cos(mid)[:, None] * starts + np.sin(mid)[:, None] * dirs
            inside = cone_member_batch(pts, gens)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    scans = []
    for xv, seed in zip(points, seeds):
        dirs = np.random.default_rng(seed).standard_normal((n_dirs, d))
        dirs -= (dirs @ xv)[:, None] * xv
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scans.append(dirs)
    dirs = np.concatenate(scans)
    angles = exit_angles(np.repeat(points, n_dirs, axis=0), dirs).reshape(-1, n_dirs)
    best = angles.min(axis=1)
    if d == 3:
        # Parametrize tangent directions by one angle and refine locally.
        b1 = dirs.reshape(-1, n_dirs, d)[np.arange(len(points)), angles.argmin(axis=1)]
        b2 = np.cross(points, b1)
        b2 /= np.linalg.norm(b2, axis=1, keepdims=True)

        def f(phi, copies=1):
            cos = np.array([math.cos(p) for p in phi.tolist()])[:, None]
            sin = np.array([math.sin(p) for p in phi.tolist()])[:, None]
            b1s, b2s = np.tile(b1, (copies, 1)), np.tile(b2, (copies, 1))
            return exit_angles(np.tile(points, (copies, 1)), cos * b1s + sin * b2s)

        lo_phi, hi_phi = np.full(len(points), -0.05), np.full(len(points), 0.05)
        for _ in range(40):
            m1 = lo_phi + 0.382 * (hi_phi - lo_phi)
            m2 = hi_phi - 0.382 * (hi_phi - lo_phi)
            f1, f2 = np.split(f(np.concatenate([m1, m2]), 2), 2)
            left = f1 <= f2
            hi_phi, lo_phi = np.where(left, m2, hi_phi), np.where(left, lo_phi, m1)
        best = np.minimum(best, f(0.5 * (lo_phi + hi_phi)))
    return best


class TestBoundaryDistance:
    def test_point_on_facet(self):
        P = SpherePolytope(np.eye(3))
        x = unit([1.0, 1.0, 0.0])
        assert distance_to_boundary(x, P) <= 1e-8

    def test_simplex_center(self):
        P = SpherePolytope(np.eye(3))
        x = unit([1.0, 1.0, 1.0])
        assert distance_to_boundary(x, P) == pytest.approx(
            math.asin(1 / math.sqrt(3)), abs=1e-12
        )

    def test_exterior_equals_hull_distance(self):
        P = SpherePolytope(np.eye(3))
        x = unit([-1.0, -0.2, 0.1])
        assert distance_to_boundary(x, P) == pytest.approx(
            distance_to_sconv(x, P.generators), abs=1e-12
        )

    def test_degenerate_hull_rejected(self):
        P = SpherePolytope(np.eye(3)[:2])
        with pytest.raises(DegenerateHullError):
            distance_to_boundary(unit([1.0, 1.0, 0.0]), P)

    def test_interior_against_direction_oracle(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 4:
            gens, center = cap_cloud(rng, 5, 0.9)
            P = SpherePolytope(gens)
            lam = rng.random(5)
            xv = unit(lam @ gens)
            if distance_to_sconv(unit_point(xv), P.generators) > 1e-10:
                continue
            ours = distance_to_boundary(xv, P)
            oracle = oracle_boundary_distances(xv[None], gens, n_dirs=2048, seeds=[done])[0]
            assert ours == pytest.approx(oracle, abs=1e-6)
            done += 1


class TestNeighborhood:
    def test_near_facet_matches_oracle_distance(self):
        # Which points lie within phi of the boundary, on either side,
        # agrees with the independent bisection oracle's distance.
        rng = np.random.default_rng(21)
        gens, _ = cap_cloud(rng, 4, 0.8)
        P = SpherePolytope(gens)
        phi = 0.15
        checked_out = 0
        inside = []
        for x in random_units(rng, 400):
            p = unit_point(x)
            d_hull = distance_to_sconv(p, P.generators)
            if MEMBER_TOL < d_hull < 0.5:
                assert (distance_to_boundary(p, P) < phi) == (d_hull < phi)
                checked_out += 1
            elif d_hull <= MEMBER_TOL:
                inside.append(x)
        d_or = oracle_boundary_distances(inside, gens, n_dirs=256, seeds=[0] * len(inside))
        checked_in = 0
        for x, d in zip(inside, d_or.tolist()):
            if abs(d - phi) > 1e-4:  # stay off the undecidable rim
                assert (distance_to_boundary(x, P) < phi) == (d < phi)
                checked_in += 1
        assert checked_in >= 5 and checked_out >= 5


def cap_distances(x, c, r):
    """(d(x,K), d(x,K_dual), d(x,bd K)) of one point x and the cap K of
    center c and radius r, by `cap_distances_batch`."""
    x, c = np.asarray(x, dtype=float), np.asarray(c, dtype=float)
    return tuple(float(d[0]) for d in cap_distances_batch(x[None], c, r))


class TestCapDistances:
    def test_center(self):
        c = [0.0, 0, 1.0]
        d_hull, d_dual, d_bd = cap_distances(c, c, math.pi / 4)
        assert d_hull == 0.0
        assert d_bd == pytest.approx(math.pi / 4)
        assert d_dual == pytest.approx(math.pi / 2 + math.pi / 4)

    def test_antipode_in_dual(self):
        _, d_dual, _ = cap_distances([0.0, 0, -1.0], [0.0, 0, 1.0], math.pi / 4)
        assert d_dual == 0.0

    def test_point_on_rim(self):
        x = [math.sin(math.pi / 4), 0, math.cos(math.pi / 4)]
        d_hull, _, d_bd = cap_distances(x, [0.0, 0, 1.0], math.pi / 4)
        assert d_bd <= 1e-12
        assert d_hull <= 1e-12

    def test_radius_beyond_half_pi_rejected(self):
        c = [0.0, 0, 1.0]
        with pytest.raises(ValueError):
            cap_distances(c, c, 2.0)

    def test_dkk_identity_caps(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 200:
            c = unit(rng.standard_normal(3))
            r = rng.uniform(0.1, math.pi / 2 - 0.1)
            x = unit(rng.standard_normal(3))
            d_hull, d_dual, _ = cap_distances(x, c, r)
            if d_hull <= 1e-9 or d_dual <= 1e-9:
                continue
            assert d_hull + d_dual == pytest.approx(math.pi / 2, abs=1e-10)
            checked += 1


class TestMembership:
    def test_member_batch_agrees_with_projection(self):
        rng = np.random.default_rng(12)
        gens, _ = cap_cloud(rng, 5, 0.8)
        P = SpherePolytope(gens)
        X = random_units(rng, 200)
        member = cone_member_batch(X, gens)
        for i in range(200):
            dist = distance_to_sconv(unit_point(X[i]), P.generators)
            assert member[i] == (dist <= 1e-9)


class TestConeFacets:
    @pytest.mark.parametrize("m, n", [(1, 3), (2, 5), (3, 6)])
    def test_property_pool_proposals(self, m, n):
        # The infeasible-transition check's cones cone(-A) of strictly
        # feasible pool instances, and the first 512 proposals of each
        # instance's stream.
        mats = harness._uniform_instances(0, 2, m, n, 60)
        _, labels, _ = harness._pool_columns(sic.unit_rows(mats))
        sf = np.flatnonzero(labels == "SF")[:12]
        normals = cone_facets(-mats[sf])
        checked = 0
        for neg, facets, i in zip(-mats[sf], normals, sf.tolist()):
            gen = harness._prop_stream(0, 3, i).generator()
            props = samplers.uniform_sphere_block(m, gen, 512)
            inside = (props @ facets.T).min(axis=1) >= -1e-10
            assert np.array_equal(inside, cone_member_batch(props, neg))
            P = SpherePolytope(neg)
            real = facets[facets.any(axis=1)]
            for x in props[inside][:40]:
                d_bd = float(np.arcsin(np.clip(np.abs(real @ x).min(), 0.0, 1.0)))
                assert d_bd == pytest.approx(distance_to_boundary(x, P), abs=1e-12)
                checked += 1
        assert checked >= 100

    def test_one_polytope_view_drops_repeated_facets(self):
        # Three generators on the facet x3 = 0 reach it through three subsets.
        gens = np.array([[1.0, 0, 0], [0, 1.0, 0], unit([1.0, 1.0, 0]), [0, 0, 1.0]])
        rows = cone_facets(gens[None])[0]
        assert rows.shape == (6, 3)
        assert sum(bool(np.allclose(r, [0, 0, 1])) for r in rows) == 3
        facets = SpherePolytope(gens).facet_normals()
        assert np.allclose(sorted(map(tuple, np.round(facets, 12))), np.eye(3)[::-1])

    def test_flat_cone_has_no_facet(self):
        # Rows on a great circle, and a cone spanning a line.
        circle = np.array([[1.0, 0, 0], [0, 1.0, 0], unit([1.0, 1.0, 0])])
        assert not cone_facets(circle[None]).any()
        assert not cone_facets(np.array([[[1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]]])).any()
        assert SpherePolytope(circle).facet_normals().shape == (0, 3)
        assert SpherePolytope(np.eye(4)[:2]).facet_normals().shape == (0, 4)
