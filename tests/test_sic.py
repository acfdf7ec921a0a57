import math

import numpy as np
import pytest

from scipy.spatial import ConvexHull, QhullError

from lpcond import sic
from lpcond.errors import (
    ConvergenceError,
    DegenerateHullError,
    DegenerateSubsetError,
    InstanceTooLargeError,
)
from lpcond.lp import FeasibilityClass
from lpcond.sic import (
    Instance,
    cond_and_class,
    cond_from_rho,
    sic_bruteforce,
    sic_rho,
    sic_solve,
)
from lpcond.sphere import SpherePoint, angular_distance
from oracles import circumcap, gordan_classify


def random_instance(rng, n, m):
    mat = rng.standard_normal((n, m + 1))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    return Instance(mat)


def circle_points(*angles):
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


SYM_TRIPLE = circle_points(0.0, 2 * math.pi / 3, 4 * math.pi / 3)
SIMPLEX_WITH_CENTER = np.vstack([np.eye(3), np.ones(3) / math.sqrt(3)])
ILL_POSED_S1 = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, 1.0]])


class TestInstance:
    def test_bad_row_named(self):
        with pytest.raises(ValueError, match="row 2"):
            Instance(np.array([[1.0, 0], [2.0, 0], [0, 1.0]]))

    def test_needs_n_above_dim(self):
        with pytest.raises(ValueError):
            Instance(np.eye(3))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("3 1\n1 0\n0 1\n-1 0\n")
        inst = Instance.from_file(path)
        assert inst.n == 3 and inst.m == 1
        assert np.allclose(inst.matrix[2], [-1.0, 0.0])

    def test_file_header_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="expected 6 coordinates"):
            Instance.from_file(path)

    def test_prefix_and_append(self):
        inst = Instance(np.vstack([SYM_TRIPLE, SYM_TRIPLE[:1]]))
        assert inst.prefix(3).n == 3
        grown = inst.with_row(SpherePoint([0.0, 1.0]))
        assert grown.n == 5


class TestCircumcap:
    def test_coordinate_triple(self):
        cap = circumcap(np.eye(3), 1)
        assert np.allclose(cap.center.coords, np.ones(3) / math.sqrt(3), atol=1e-12)
        assert cap.radius == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-12)

    def test_singleton(self):
        cap = circumcap(np.array([[1.0, 0, 0]]), 1)
        assert cap.radius == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(cap.center.coords, [1.0, 0, 0])

    def test_arc_midpoint(self):
        pts = circle_points(0.0, 2 * math.pi / 3)
        cap = circumcap(pts, 1)
        assert math.atan2(*cap.center.coords[::-1]) == pytest.approx(math.pi / 3)
        assert cap.radius == pytest.approx(math.pi / 3, abs=1e-12)

    def test_equidistance(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            pts = rng.standard_normal((k, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            for sign in (1, -1):
                cap = circumcap(pts, sign)
                dots = pts @ cap.center.coords
                assert np.max(np.abs(dots - dots[0])) <= 1e-10

    def test_singular_gram_rejected(self):
        with pytest.raises(DegenerateSubsetError):
            circumcap(np.array([[1.0, 0], [-1.0, 0]]), 1)

    def test_sign_validated(self):
        with pytest.raises(ValueError):
            circumcap(np.eye(3), 2)


class TestBruteforce:
    def test_symmetric_triple_with_duplicate(self):
        res = sic_bruteforce(Instance(np.vstack([SYM_TRIPLE, SYM_TRIPLE[:1]])))
        assert res.rho == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert res.cond == pytest.approx(2.0, abs=1e-9)
        assert res.cls is FeasibilityClass.INFEASIBLE

    def test_simplex_with_center(self):
        res = sic_bruteforce(Instance(SIMPLEX_WITH_CENTER))
        assert res.rho == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-12)
        assert res.cond == pytest.approx(math.sqrt(3), abs=1e-9)
        assert res.cls is FeasibilityClass.STRICTLY_FEASIBLE

    def test_exactly_ill_posed(self):
        res = sic_bruteforce(Instance(ILL_POSED_S1))
        assert res.rho == pytest.approx(math.pi / 2, abs=1e-12)
        assert math.isinf(res.cond)
        assert res.cls is FeasibilityClass.ILL_POSED
        assert res.dist_to_sigma == pytest.approx(0.0, abs=1e-12)

    def test_containment_and_support_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(4, 9)), 2)
            res = sic_bruteforce(inst)
            angles = np.arccos(np.clip(inst.matrix @ res.center.coords, -1, 1))
            assert np.max(angles) <= res.rho + 1e-9
            assert len(res.support) <= inst.m + 1
            for i in res.support:
                assert abs(angles[i] - res.rho) <= 1e-8

    def test_guard(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((250, 4))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        with pytest.raises(InstanceTooLargeError):
            sic_bruteforce(Instance(mat))


class TestSolve:
    def test_matches_oracle_on_constructed(self):
        for mat in (np.vstack([SYM_TRIPLE, SYM_TRIPLE[:1]]),
                    SIMPLEX_WITH_CENTER, ILL_POSED_S1):
            inst = Instance(mat)
            assert sic_solve(inst).rho == pytest.approx(
                sic_bruteforce(inst).rho, abs=1e-8
            )

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(m + 2, 10))
            inst = random_instance(rng, n, m)
            assert sic_solve(inst).rho == pytest.approx(
                sic_bruteforce(inst).rho, abs=1e-8
            )

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 7, 2)
        r1, r2 = sic_solve(inst), sic_solve(inst)
        assert r1.rho == r2.rho
        assert np.array_equal(r1.center.coords, r2.center.coords)

    def test_tiny_cluster(self):
        rng = np.random.default_rng(5)
        base = np.array([1.0, 0, 0])
        pts = []
        for _ in range(6):
            t = rng.standard_normal(3)
            t -= (t @ base) * base
            t /= np.linalg.norm(t)
            ang = rng.uniform(0, 1e-3)
            pts.append(math.cos(ang) * base + math.sin(ang) * t)
        res = sic_solve(Instance(np.array(pts)))
        assert res.rho <= 1e-3
        assert res.cond == pytest.approx(1.0, abs=1e-5)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 7, 2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = Instance(inst.matrix @ q.T)
        assert sic_solve(rotated).cond == pytest.approx(
            sic_solve(inst).cond, abs=1e-9, rel=1e-9
        )


class TestSicRho:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        mats = rng.standard_normal((60, 6, 3))
        mats /= np.linalg.norm(mats, axis=2, keepdims=True)
        for i in range(60):
            rho, center, _ = sic_rho(mats[i])
            ref = sic_bruteforce(Instance(mats[i]))
            assert rho == pytest.approx(ref.rho, abs=1e-10)
            angles = np.arccos(np.clip(mats[i] @ center, -1, 1))
            assert np.max(angles) <= rho + 1e-9

    def test_support_with_near_singular_gram(self):
        # Sample 5 of the m=2, n=5 tail run at master seed 25: strictly
        # feasible 8.1e-7 below pi/2, with support rows 2, 3, 4 whose Gram
        # matrix has condition above 1e12.  The deleted batch enumeration
        # dropped that subset and reported rho = pi/2 + 0.12 (infeasible).
        mat = np.array([
            [0.8312017271772602, -0.5192591404755296, 0.19867972662089634],
            [0.609301528885807, -0.6639012125164702, -0.43357447678176214],
            [-0.8840177454769634, -0.4448300443734997, -0.14366230300429286],
            [-0.4367772176460783, 0.8568339597251664, -0.2739730417523636],
            [0.9367566653093142, -0.2092272777871434, 0.2805546225396317],
        ])
        rho, _, support = sic_rho(mat)
        assert rho == pytest.approx(math.pi / 2 - 8.119368e-7, abs=1e-12)
        assert sorted(support) == [2, 3, 4]
        assert gordan_classify(mat) is FeasibilityClass.STRICTLY_FEASIBLE

    def test_flat_hull_around_origin_is_ill_posed(self):
        # Rows on the equator of S^2 surrounding the origin: exactly
        # ill-posed, with the pole (the rows' null vector) as center.
        mat = np.zeros((5, 3))
        mat[:, :2] = circle_points(*np.linspace(0.0, 2 * math.pi, 5, endpoint=False))
        rho, center, _ = sic_rho(mat)
        assert rho == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(center[2]) == pytest.approx(1.0, abs=1e-12)

    def test_qhull_failure_is_typed(self, monkeypatch):
        def broken_hull(points):
            raise QhullError("QH6154 simulated precision error")

        monkeypatch.setattr(sic, "ConvexHull", broken_hull)
        # 40 rows around S^1: 780 row pairs, past the facet scan, so Qhull runs.
        with pytest.raises(DegenerateHullError):
            sic_rho(circle_points(*np.linspace(0.0, 2 * math.pi, 40, endpoint=False)))

    def test_nnls_failure_is_typed(self, monkeypatch):
        def broken_nnls(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(sic, "nnls", broken_nnls)
        with pytest.raises(ConvergenceError):
            sic_rho(SIMPLEX_WITH_CENTER)

    def test_large_instance_in_small_memory(self):
        # n=200 on S^2 would be 1.3M support subsets for an enumeration.
        rng = np.random.default_rng(12)
        inst = random_instance(rng, 200, 2)
        res = sic_solve(inst)
        angles = np.arccos(np.clip(inst.matrix @ res.center.coords, -1, 1))
        assert np.max(angles) <= res.rho + 1e-9
        assert gordan_classify(inst.matrix) is res.cls


class TestFacetScan:
    @staticmethod
    def enclosing(rng, count, n, d):
        """count random instances of n rows on S^(d-1) whose hull holds the origin."""
        mats = unit_rows(rng.standard_normal((4 * count, n, d)))
        inside = [mat for mat in mats if not sic.strictly_feasible(mat)]
        return np.array(inside[:count])

    @pytest.mark.parametrize("n, d", [(3, 2), (6, 2), (5, 3), (9, 3), (7, 4), (12, 4)])
    def test_matches_qhull_nearest_facet(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        mats = self.enclosing(rng, 40, n, d)
        for mat, (center, support, cos_rho) in zip(mats, sic.facet_scan(mats)):
            eq = ConvexHull(mat).equations
            f = int(np.argmax(eq[:, -1]))
            assert cos_rho == pytest.approx(eq[f, -1], abs=1e-12)
            assert np.allclose(center, -eq[f, :-1], atol=1e-9)
            # The support rows lie on the facet's hyperplane.
            assert np.allclose(mat[list(support)] @ center, cos_rho, atol=1e-12)

    def test_result_does_not_depend_on_the_stack(self):
        rng = np.random.default_rng(5)
        mats = unit_rows(rng.standard_normal((3000, 5, 3)))
        stack = sic.facet_scan(mats)
        for i in range(0, 3000, 37):
            center, support, cos_rho = sic.facet_scan(mats[i:i + 1])[0]
            assert np.array_equal(center, stack[i][0])
            assert np.array_equal(support, stack[i][1]) and cos_rho == stack[i][2]
            assert sic_rho(mats[i])[0] == sic_rho(mats[i], stack[i])[0]

    def test_scan_and_qhull_agree_in_sic_rho(self, monkeypatch):
        rng = np.random.default_rng(9)
        mats = self.enclosing(rng, 60, 6, 3)
        scanned = [sic_rho(mat, facet)[0] for mat, facet in zip(mats, sic.nearest_facets(mats))]
        monkeypatch.setattr(sic, "_SCAN_SUBSETS", 0)
        hulled = [sic_rho(mat, facet)[0] for mat, facet in zip(mats, sic.nearest_facets(mats))]
        assert np.max(np.abs(np.subtract(scanned, hulled))) <= 1e-12

    def test_every_instance_of_a_large_stack_gets_a_hull_facet(self):
        # 20 rows on S^2: 1140 row triples, past the scan, so Qhull runs
        # for every instance, whether or not its hull holds the origin.
        rng = np.random.default_rng(4)
        mats = unit_rows(rng.standard_normal((30, 20, 3)))
        mats[:15, :, 0] = np.abs(mats[:15, :, 0]) + 1.0
        mats = unit_rows(mats)
        assert [sic.strictly_feasible(mat) for mat in mats].count(True) >= 15
        facets = sic.nearest_facets(mats)
        assert all(facet is not None for facet in facets)
        for mat, facet in zip(mats, facets):
            assert sic_rho(mat, facet)[0] == sic_rho(mat)[0]

    def test_affinely_dependent_rows_fall_back(self):
        # Two antipodal directions only: no 3 rows span a plane, so the scan
        # finds nothing and the flat-hull branch answers pi/2.
        p = np.array([1.0, 0.0, 0.0])
        mat = np.array([p, -p, p, -p, p])
        assert sic.facet_scan(mat[None]) == [None]
        rho, center, _ = sic_rho(mat)
        assert rho == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(center @ p) <= 1e-12


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def chord_angles(mat, center):
    return 2.0 * np.arctan2(np.linalg.norm(mat - center, axis=1),
                            np.linalg.norm(mat + center, axis=1))


def adversarial_instance(rng, family, m):
    """One seeded instance of an adversarial family on S^m."""
    d = m + 1
    n = int(rng.integers(m + 2, m + 6))
    mat = unit_rows(rng.standard_normal((n, d)))
    if family == "duplicate-rows":
        k = int(rng.integers(1, n))
        mat = mat[rng.integers(0, k, size=n)]
    elif family == "antipodal-pairs":
        k = n // 2
        mat[k:2 * k] = -mat[:k]
        mat = mat[rng.permutation(n)]
    elif family == "great-circle":
        mat[:, 2:] = 0.0
        mat = unit_rows(mat)
    elif family in ("tilt-one-side", "tilt-both-sides"):
        # Rows 1e-9 off the great sphere x_m = 0: strictly feasible when
        # all lean one way, either side of pi/2 when they lean both ways.
        mat[:, -1] = 0.0
        mat = unit_rows(mat)
        if family == "tilt-one-side":
            mat[:, -1] = 1e-9
        else:
            mat[:, -1] = 1e-9 * rng.choice([-1.0, 1.0], size=n)
        mat = unit_rows(mat)
    elif family == "tiny-cap":
        center = unit_rows(rng.standard_normal(d))
        radius = 10.0 ** rng.uniform(-6, -3)
        tangent = rng.standard_normal((n, d))
        tangent = unit_rows(tangent - np.outer(tangent @ center, center))
        ang = radius * rng.uniform(0.0, 1.0, size=n)
        mat = np.cos(ang)[:, None] * center + np.sin(ang)[:, None] * tangent
    return mat


ADVERSARIAL_FAMILIES = ("duplicate-rows", "antipodal-pairs", "great-circle",
                        "tilt-one-side", "tilt-both-sides", "tiny-cap")


class TestAdversarial:
    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("family", ADVERSARIAL_FAMILIES)
    def test_matches_oracle(self, family, m):
        rng = np.random.default_rng([m, ADVERSARIAL_FAMILIES.index(family)])
        for _ in range(25):
            mat = adversarial_instance(rng, family, m)
            rho, center, _ = sic_rho(mat)
            assert rho == pytest.approx(sic_bruteforce(Instance(mat)).rho, abs=1e-8)
            assert np.max(chord_angles(mat, center)) <= rho + 1e-9

    @pytest.mark.parametrize("m", (2, 3))
    def test_center_exact_near_ill_posed(self, m):
        # Within 1e-3 of pi/2 the NNLS center comes from a cancelling sum;
        # the center returned must still put the farthest row at rho.
        rng = np.random.default_rng(m)
        for tilt in np.geomspace(1e-11, 1e-3, 17):
            mat = unit_rows(rng.standard_normal((m + 5, m + 1)))
            mat[:, -1] = tilt * rng.uniform(0.2, 1.0, size=m + 5)
            mat = unit_rows(mat)
            rho, center, _ = sic_rho(mat)
            assert rho < math.pi / 2
            assert abs(np.max(chord_angles(mat, center)) - rho) <= 1e-12
            assert rho == pytest.approx(sic_bruteforce(Instance(mat)).rho, abs=1e-8)

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_oracle_reports_its_covering_radius(self, m):
        # Near pi/2 a candidate cap may contain the rows only to the
        # containment tolerance; the oracle must still report the radius
        # that actually covers them from its own center.
        rng = np.random.default_rng([m, 99])
        for tilt in np.geomspace(1e-12, 1e-2, 21):
            mat = unit_rows(rng.standard_normal((m + 4, m + 1)))
            mat[:, -1] = tilt * rng.choice([-1.0, 1.0], size=m + 4) * rng.uniform(0.2, 1.0, size=m + 4)
            inst = Instance(unit_rows(mat))
            oracle = sic_bruteforce(inst)
            cover = np.max(chord_angles(inst.matrix, oracle.center.coords))
            assert abs(oracle.rho - cover) <= 1e-15
            assert abs(oracle.rho - sic_rho(inst.matrix)[0]) <= 1e-12


class TestDerived:
    def test_cond_and_class_triple(self):
        cond, cls, dist = cond_and_class(Instance(np.vstack([SYM_TRIPLE, SYM_TRIPLE[:1]])))
        assert cond == pytest.approx(2.0, abs=1e-9)
        assert cls is FeasibilityClass.INFEASIBLE
        assert dist == pytest.approx(math.pi / 6, abs=1e-9)

    def test_cond_and_class_simplex(self):
        cond, cls, dist = cond_and_class(Instance(SIMPLEX_WITH_CENTER))
        assert cond == pytest.approx(math.sqrt(3), abs=1e-9)
        assert cls is FeasibilityClass.STRICTLY_FEASIBLE
        assert dist == pytest.approx(math.pi / 2 - math.acos(1 / math.sqrt(3)), abs=1e-9)

    def test_cond_and_class_ill_posed(self):
        cond, cls, dist = cond_and_class(Instance(ILL_POSED_S1))
        assert math.isinf(cond)
        assert cls is FeasibilityClass.ILL_POSED
        assert dist == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def prefix_profile(inst):
        """Solves of the prefixes of m+2..n rows, as the property suite takes them."""
        return [sic_solve(inst.prefix(k)) for k in range(inst.m + 2, inst.n + 1)]

    def test_profile_last_entry_consistent(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 8, 2)
        profile = self.prefix_profile(inst)
        assert len(profile) == inst.n - inst.m - 1
        full = sic_bruteforce(inst)
        assert profile[-1].cond == pytest.approx(full.cond, abs=1e-9, rel=1e-9)
        assert profile[-1].cls is full.cls
        with pytest.raises(ValueError):
            inst.prefix(inst.m + 1)

    def test_profile_feasible_prefixes(self):
        # Points packed in a small cap: every prefix stays strictly feasible.
        rng = np.random.default_rng(9)
        base = np.array([1.0, 0, 0])
        pts = []
        for _ in range(7):
            t = rng.standard_normal(3)
            t -= (t @ base) * base
            t /= np.linalg.norm(t)
            ang = rng.uniform(0, 0.3)
            pts.append(math.cos(ang) * base + math.sin(ang) * t)
        profile = self.prefix_profile(Instance(np.array(pts)))
        assert all(res.cls is FeasibilityClass.STRICTLY_FEASIBLE for res in profile)

    def test_cond_from_rho_band(self):
        assert math.isinf(cond_from_rho(math.pi / 2 + 5e-9))
        assert math.isfinite(cond_from_rho(math.pi / 2 + 5e-8))
