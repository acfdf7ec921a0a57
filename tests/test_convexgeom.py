import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpcond.convexgeom import (
    MEMBER_TOL,
    SpherePolytope,
    cap_distance_suite,
    cap_distances_batch,
    cone_member_batch,
    distance_to_boundary,
    distance_to_dual,
    distance_to_sconv,
    project_onto_cone,
)
from lpcond.errors import DegenerateHullError
from lpcond.sphere import Cap, SpherePoint


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


class TestNnls:
    def test_kkt_certificate_random(self):
        # project_onto_cone raises unless its NNLS meets the 1e-10 KKT
        # certificate; check the certificate here as well.
        rng = np.random.default_rng(1)
        for _ in range(200):
            d, k = rng.integers(2, 7), rng.integers(1, 8)
            P = SpherePolytope(random_units(rng, k, d))
            x = unit(rng.standard_normal(d))
            z, lam = project_onto_cone(x, P)
            w = P.generators @ (x - z)
            assert np.all(lam >= 0)
            assert np.max(w) <= 1e-9  # no ascent direction among active vars
            assert abs(float(lam @ w)) <= 1e-9  # complementarity
            assert np.allclose(z, P.generators.T @ lam, atol=1e-12)


class TestProjection:
    def test_generator_projects_to_itself(self):
        P = SpherePolytope(np.eye(3))
        z, lam = project_onto_cone(SpherePoint([1.0, 0, 0]), P)
        assert np.allclose(z, [1.0, 0, 0], atol=1e-12)
        assert np.allclose(lam, [1.0, 0, 0], atol=1e-12)

    def test_polar_direction_projects_to_zero(self):
        P = SpherePolytope(np.eye(3)[:1])
        z, _ = project_onto_cone(SpherePoint([-1.0, 0, 0]), P)
        assert np.linalg.norm(z) <= 1e-12

    def test_orthogonal_direction_projects_to_zero(self):
        P = SpherePolytope(np.eye(3)[:2])
        z, _ = project_onto_cone(SpherePoint([0.0, 0, 1.0]), P)
        assert np.linalg.norm(z) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_moreau_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        gens = random_units(rng, int(rng.integers(1, 6)))
        x = SpherePoint(unit(rng.standard_normal(3)))
        z, _ = project_onto_cone(x, SpherePolytope(gens))
        w = x.coords - z
        assert abs(float(z @ w)) <= 1e-10
        assert np.allclose(z + w, x.coords, atol=1e-12)


class TestHullDistance:
    def test_generators_have_zero_distance(self):
        rng = np.random.default_rng(3)
        gens = random_units(rng, 4)
        P = SpherePolytope(gens)
        for g in gens:
            assert distance_to_sconv(SpherePoint(g), P) <= 1e-8

    def test_orthogonal_example(self):
        P = SpherePolytope(np.eye(3)[:2])
        assert distance_to_sconv(SpherePoint([0, 0, 1.0]), P) == pytest.approx(math.pi / 2)

    def test_antipodal_single_generator(self):
        P = SpherePolytope(np.eye(3)[:1])
        assert distance_to_sconv(SpherePoint([-1.0, 0, 0]), P) == pytest.approx(math.pi)

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
            ours = distance_to_sconv(SpherePoint(x), SpherePolytope(gens))
            assert ours <= oracle + 1e-9
            assert ours >= oracle - 1e-4  # grid resolution limits the oracle


class TestDualDistance:
    def test_point_in_dual(self):
        P = SpherePolytope(np.eye(3)[:1])
        assert distance_to_dual(SpherePoint([-1.0, 0, 0]), P) == 0.0

    def test_generator_to_its_dual(self):
        P = SpherePolytope(np.eye(3)[:1])
        assert distance_to_dual(SpherePoint([1.0, 0, 0]), P) == pytest.approx(math.pi / 2)

    def test_interior_point_octant(self):
        P = SpherePolytope(np.eye(3))
        x = SpherePoint(unit([1.0, 1.0, 1.0]))
        # Dense-sample oracle over the dual set (the negative octant).
        rng = np.random.default_rng(5)
        samples = -np.abs(random_units(rng, 40000))
        oracle = float(np.min(np.arccos(np.clip(samples @ x.coords, -1, 1))))
        ours = distance_to_dual(x, P)
        assert ours == pytest.approx(math.pi / 2 + math.asin(1 / math.sqrt(3)), abs=1e-12)
        assert ours <= oracle + 1e-9
        assert ours >= oracle - 2e-2

    def test_monotone_under_more_generators(self):
        # Larger generating sets shrink the dual, so distances cannot drop.
        rng = np.random.default_rng(6)
        for _ in range(40):
            gens, _ = cap_cloud(rng, 5, 0.8)
            x = SpherePoint(unit(rng.standard_normal(3)))
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
            x = SpherePoint(unit(rng.standard_normal(3)))
            dk = distance_to_sconv(x, P)
            dd = distance_to_dual(x, P)
            if dk <= 1e-6 or dd <= 1e-6:
                continue
            assert dk + dd == pytest.approx(math.pi / 2, abs=1e-6)
            checked += 1


def oracle_boundary_distance(xv, gens, n_dirs=4096, seed=0, polish=True):
    """Independent boundary distance: bisection along great circles.

    Membership goes through the Caratheodory subset solver, not the facet
    enumeration being validated.  For ambient dimension 3 the best scan
    direction is polished by golden-section over the tangent angle.
    """
    xv = np.asarray(xv, dtype=float)
    d = xv.size
    rng = np.random.default_rng(seed)

    def exit_angle(dirs):
        lo = np.zeros(dirs.shape[0])
        hi = np.full(dirs.shape[0], math.pi / 2)
        for _ in range(30):
            pts = np.cos(hi)[:, None] * xv + np.sin(hi)[:, None] * dirs
            inside = cone_member_batch(pts, gens)
            if not inside.any():
                break
            hi = np.where(inside, np.minimum(hi * 1.4, math.pi - 1e-9), hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pts = np.cos(mid)[:, None] * xv + np.sin(mid)[:, None] * dirs
            inside = cone_member_batch(pts, gens)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    dirs = rng.standard_normal((n_dirs, d))
    dirs -= (dirs @ xv)[:, None] * xv
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    angles = exit_angle(dirs)
    best = float(np.min(angles))
    if polish and d == 3:
        # Parametrize tangent directions by one angle and refine locally.
        b1 = dirs[int(np.argmin(angles))]
        b2 = np.cross(xv, b1)
        b2 /= np.linalg.norm(b2)

        def f(phi):
            t = math.cos(phi) * b1 + math.sin(phi) * b2
            return float(exit_angle(t[None, :])[0])

        lo_phi, hi_phi = -0.05, 0.05
        for _ in range(40):
            m1 = lo_phi + 0.382 * (hi_phi - lo_phi)
            m2 = hi_phi - 0.382 * (hi_phi - lo_phi)
            if f(m1) <= f(m2):
                hi_phi = m2
            else:
                lo_phi = m1
        best = min(best, f(0.5 * (lo_phi + hi_phi)))
    return best


class TestBoundaryDistance:
    def test_point_on_facet(self):
        P = SpherePolytope(np.eye(3))
        x = SpherePoint(unit([1.0, 1.0, 0.0]))
        assert distance_to_boundary(x, P) <= 1e-8

    def test_simplex_center(self):
        P = SpherePolytope(np.eye(3))
        x = SpherePoint(unit([1.0, 1.0, 1.0]))
        assert distance_to_boundary(x, P) == pytest.approx(
            math.asin(1 / math.sqrt(3)), abs=1e-12
        )

    def test_exterior_equals_hull_distance(self):
        P = SpherePolytope(np.eye(3))
        x = SpherePoint(unit([-1.0, -0.2, 0.1]))
        assert distance_to_boundary(x, P) == pytest.approx(
            distance_to_sconv(x, P), abs=1e-12
        )

    def test_degenerate_hull_rejected(self):
        P = SpherePolytope(np.eye(3)[:2])
        with pytest.raises(DegenerateHullError):
            distance_to_boundary(SpherePoint(unit([1.0, 1.0, 0.0])), P)

    def test_interior_against_direction_oracle(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 4:
            gens, center = cap_cloud(rng, 5, 0.9)
            P = SpherePolytope(gens)
            lam = rng.random(5)
            xv = unit(lam @ gens)
            if distance_to_sconv(SpherePoint(xv), P) > 1e-10:
                continue
            ours = distance_to_boundary(SpherePoint(xv), P)
            oracle = oracle_boundary_distance(xv, gens, n_dirs=2048, seed=done)
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
        checked_in = checked_out = 0
        for x in random_units(rng, 400):
            p = SpherePoint(x)
            d_hull = distance_to_sconv(p, P)
            if MEMBER_TOL < d_hull < 0.5:
                assert (distance_to_boundary(p, P) < phi) == (d_hull < phi)
                checked_out += 1
            elif d_hull <= MEMBER_TOL:
                d_or = oracle_boundary_distance(x, gens, n_dirs=256, polish=True)
                if abs(d_or - phi) > 1e-4:  # stay off the undecidable rim
                    assert (distance_to_boundary(p, P) < phi) == (d_or < phi)
                    checked_in += 1
        assert checked_in >= 5 and checked_out >= 5


class TestCapDistances:
    def test_center(self):
        c = SpherePoint([0.0, 0, 1.0])
        d_hull, d_dual, d_bd = cap_distance_suite(c, Cap(c, math.pi / 4))
        assert d_hull == 0.0
        assert d_bd == pytest.approx(math.pi / 4)
        assert d_dual == pytest.approx(math.pi / 2 + math.pi / 4)

    def test_antipode_in_dual(self):
        c = SpherePoint([0.0, 0, 1.0])
        _, d_dual, _ = cap_distance_suite(SpherePoint([0.0, 0, -1.0]), Cap(c, math.pi / 4))
        assert d_dual == 0.0

    def test_point_on_rim(self):
        c = SpherePoint([0.0, 0, 1.0])
        x = SpherePoint([math.sin(math.pi / 4), 0, math.cos(math.pi / 4)])
        d_hull, _, d_bd = cap_distance_suite(x, Cap(c, math.pi / 4))
        assert d_bd <= 1e-12
        assert d_hull <= 1e-12

    def test_radius_beyond_half_pi_rejected(self):
        c = SpherePoint([0.0, 0, 1.0])
        with pytest.raises(ValueError):
            cap_distance_suite(c, Cap(c, 2.0))

    def test_dkk_identity_caps(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 200:
            c = SpherePoint(unit(rng.standard_normal(3)))
            r = rng.uniform(0.1, math.pi / 2 - 0.1)
            x = SpherePoint(unit(rng.standard_normal(3)))
            d_hull, d_dual, _ = cap_distance_suite(x, Cap(c, r))
            if d_hull <= 1e-9 or d_dual <= 1e-9:
                continue
            assert d_hull + d_dual == pytest.approx(math.pi / 2, abs=1e-10)
            checked += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        c = unit(rng.standard_normal(3))
        X = random_units(rng, 50)
        r = 0.6
        bh, bd, bb = cap_distances_batch(X, c, r)
        for i in range(50):
            sh, sd, sb = cap_distance_suite(SpherePoint(X[i]), Cap(SpherePoint(c), r))
            assert bh[i] == pytest.approx(sh, abs=1e-12)
            assert bd[i] == pytest.approx(sd, abs=1e-12)
            assert bb[i] == pytest.approx(sb, abs=1e-12)


class TestMembership:
    def test_member_batch_agrees_with_projection(self):
        rng = np.random.default_rng(12)
        gens, _ = cap_cloud(rng, 5, 0.8)
        P = SpherePolytope(gens)
        X = random_units(rng, 200)
        member = cone_member_batch(X, gens)
        for i in range(200):
            dist = distance_to_sconv(SpherePoint(X[i]), P)
            assert member[i] == (dist <= 1e-9)

    def test_properly_convex(self):
        rng = np.random.default_rng(13)
        gens, _ = cap_cloud(rng, 5, 0.6)
        assert SpherePolytope(gens).properly_convex()
        assert not SpherePolytope(np.vstack([gens, -gens[0]])).properly_convex()
