import math

import numpy as np
import pytest

from scipy.spatial import ConvexHull

from lpcond import convexgeom, harness, samplers, sic
from lpcond.errors import ConvergenceError, DegenerateHullError, InstanceTooLargeError
from lpcond.lp import FeasibilityClass
from lpcond.sic import (
    Instance,
    classify_rho,
    cond_and_class,
    cond_from_rho,
    sic_bruteforce,
    sic_rho,
)
from oracles import (
    DegenerateSubsetError,
    circumcap,
    gordan_classify,
    laplace_normals,
    least_distance_scipy,
    max_min_two_way,
    solve_routed_nnls_first,
    strictly_feasible_scipy,
)


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
        assert Instance(inst.matrix[:3]).n == 3
        grown = Instance(np.vstack([inst.matrix, np.array([0.0, 1.0])]))
        assert grown.n == 5


class TestCircumcap:
    def test_coordinate_triple(self):
        cap = circumcap(np.eye(3), 1)
        assert np.allclose(cap.center, np.ones(3) / math.sqrt(3), atol=1e-12)
        assert cap.radius == pytest.approx(math.acos(1 / math.sqrt(3)), abs=1e-12)

    def test_singleton(self):
        cap = circumcap(np.array([[1.0, 0, 0]]), 1)
        assert cap.radius == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(cap.center, [1.0, 0, 0])

    def test_arc_midpoint(self):
        pts = circle_points(0.0, 2 * math.pi / 3)
        cap = circumcap(pts, 1)
        assert math.atan2(*cap.center[::-1]) == pytest.approx(math.pi / 3)
        assert cap.radius == pytest.approx(math.pi / 3, abs=1e-12)

    def test_equidistance(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            pts = rng.standard_normal((k, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            for sign in (1, -1):
                cap = circumcap(pts, sign)
                dots = pts @ cap.center
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
            angles = np.arccos(np.clip(inst.matrix @ res.center, -1, 1))
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
    """`sic_rho` on whole instances, against the oracle and under symmetries."""

    def test_matches_oracle_on_constructed(self):
        for mat in (np.vstack([SYM_TRIPLE, SYM_TRIPLE[:1]]),
                    SIMPLEX_WITH_CENTER, ILL_POSED_S1):
            inst = Instance(mat)
            assert sic_rho(inst.matrix)[0] == pytest.approx(
                sic_bruteforce(inst).rho, abs=1e-8
            )

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(m + 2, 10))
            inst = random_instance(rng, n, m)
            assert sic_rho(inst.matrix)[0] == pytest.approx(
                sic_bruteforce(inst).rho, abs=1e-8
            )

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 7, 2)
        (rho1, center1, _), (rho2, center2, _) = sic_rho(inst.matrix), sic_rho(inst.matrix)
        assert rho1 == rho2
        assert np.array_equal(center1, center2)

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
        rho = sic_rho(Instance(np.array(pts)).matrix)[0]
        assert rho <= 1e-3
        assert cond_from_rho(rho) == pytest.approx(1.0, abs=1e-5)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 7, 2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = Instance(inst.matrix @ q.T)
        assert cond_and_class(rotated)[0] == pytest.approx(
            cond_and_class(inst)[0], abs=1e-9, rel=1e-9
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
            raise DegenerateHullError("QH6154 simulated precision error")

        monkeypatch.setattr(sic, "_qhull", broken_hull)
        # 40 rows around S^1: 780 row pairs, past the facet scan, so Qhull runs.
        with pytest.raises(DegenerateHullError):
            sic_rho(circle_points(*np.linspace(0.0, 2 * math.pi, 40, endpoint=False)))

    def test_nnls_failure_is_typed(self, monkeypatch):
        # A step cap below one step: the NNLS stops uncertified.
        monkeypatch.setattr(sic, "_STEPS_PER_COLUMN", 0.01)
        # Exactly ill-posed, so the scan routes it to the NNLS solve.
        with pytest.raises(ConvergenceError):
            sic_rho(ILL_POSED_S1)

    def test_large_instance_in_small_memory(self):
        # n=200 on S^2 would be 1.3M support subsets for an enumeration.
        rng = np.random.default_rng(12)
        inst = random_instance(rng, 200, 2)
        rho, center, _ = sic_rho(inst.matrix)
        angles = np.arccos(np.clip(inst.matrix @ center, -1, 1))
        assert np.max(angles) <= rho + 1e-9
        assert gordan_classify(inst.matrix) is classify_rho(rho)


class TestFacetScan:
    @staticmethod
    def enclosing(rng, count, n, d):
        """count random instances of n rows on S^(d-1) whose hull holds the origin."""
        mats = unit_rows(rng.standard_normal((4 * count, n, d)))
        return mats[~sic.stack_feasible(mats)][:count]

    @staticmethod
    def scan(mats):
        """(center, support, cos rho) of the best d-row normal of every
        instance of a stack (B, n, d), None where a zero normal wins."""
        cos_rho, centers, supports = sic._scan_facets(mats)
        return [(center, support, cos) if center.any() else None
                for center, support, cos in zip(centers, supports, cos_rho.tolist())]

    @pytest.mark.parametrize("n, d", [(3, 2), (6, 2), (5, 3), (9, 3), (7, 4), (12, 4)])
    def test_matches_qhull_nearest_facet(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        mats = self.enclosing(rng, 40, n, d)
        for mat, (center, support, cos_rho) in zip(mats, self.scan(mats)):
            eq = ConvexHull(mat).equations
            f = int(np.argmax(eq[:, -1]))
            assert cos_rho == pytest.approx(eq[f, -1], abs=1e-12)
            assert np.allclose(center, -eq[f, :-1], atol=1e-9)
            # The support rows lie on the facet's hyperplane.
            assert np.allclose(mat[list(support)] @ center, cos_rho, atol=1e-12)

    def test_result_does_not_depend_on_the_stack(self):
        rng = np.random.default_rng(5)
        mats = unit_rows(rng.standard_normal((3000, 5, 3)))
        stack = self.scan(mats)
        for i in range(0, 3000, 37):
            center, support, cos_rho = self.scan(mats[i:i + 1])[0]
            assert np.array_equal(center, stack[i][0])
            assert np.array_equal(support, stack[i][1]) and cos_rho == stack[i][2]

    def test_scan_and_qhull_agree_in_sic_rho(self, monkeypatch):
        rng = np.random.default_rng(9)
        mats = self.enclosing(rng, 60, 6, 3)
        scanned = [sic_rho(mat)[0] for mat in mats]
        monkeypatch.setattr(sic, "_SCAN_SUBSETS", 0)
        monkeypatch.setattr(sic, "_FACET_SUBSETS", 0)
        hulled = [sic_rho(mat)[0] for mat in mats]
        assert np.max(np.abs(np.subtract(scanned, hulled))) <= 1e-12

    def test_qhull_runs_only_where_the_hull_holds_the_origin(self, monkeypatch):
        def counted(points):
            calls.append(np.array(points))
            return qhull(points)

        # 20 rows on S^2: 1140 row triples, past both scans, so every instance
        # takes the NNLS, and Qhull runs once for each that holds the origin.
        rng = np.random.default_rng(4)
        mats = unit_rows(rng.standard_normal((30, 20, 3)))
        mats[:15, :, 0] = np.abs(mats[:15, :, 0]) + 1.0
        mats = unit_rows(mats)
        feasible = sic.stack_feasible(mats).tolist()
        assert feasible.count(True) >= 15 and feasible.count(False) >= 1
        calls, qhull = [], sic._qhull
        monkeypatch.setattr(sic, "_qhull", counted)
        rho = sic.stack_rho(mats)
        enclosing = [mat for mat, sf in zip(mats, feasible) if not sf]
        assert len(calls) == len(enclosing)
        assert all(np.array_equal(got, mat) for got, mat in zip(calls, enclosing))
        for mat, got in zip(mats, rho):
            assert got == sic_rho(mat)[0]

    def test_qhull_failure_on_an_enclosing_instance_is_typed(self, monkeypatch):
        def broken_hull(points):
            calls.append(points)
            raise DegenerateHullError("QH6154 simulated precision error")

        # Full-rank instances past the scan whose hulls hold the origin.
        mats = self.enclosing(np.random.default_rng(6), 4, 20, 3)
        assert len(mats) == 4
        calls = []
        monkeypatch.setattr(sic, "_qhull", broken_hull)
        assert np.isnan(sic.stack_rho(mats)).all()
        assert len(calls) == len(mats)
        for mat in mats:
            with pytest.raises(DegenerateHullError):
                sic_rho(mat)

    def test_stacked_facet_scan_is_the_one_instance_scan(self):
        # Mean's size: 495 row quadruples, past the full scan, within the facet scan.
        mats = self.enclosing(np.random.default_rng(12), 40, 12, 4)
        stack = self.scan(mats)
        assert len(stack) == 40 and None not in stack
        for mat, (center, support, cos_rho) in zip(mats, stack):
            [(alone_center, alone_support, alone_cos)] = self.scan(mat[None])
            assert np.array_equal(alone_center, center)
            assert alone_support == support and alone_cos == cos_rho
        assert sic.stack_rho(mats).tolist() == [sic_rho(mat)[0] for mat in mats]

    def test_zero_normal_winner_falls_back_to_qhull(self, monkeypatch):
        # A repeated row: every quadruple holding both copies has a zero
        # normal, which scores 0, above every facet of a hull around the
        # origin, so the scan gives way to Qhull.
        mat = self.enclosing(np.random.default_rng(14), 1, 11, 4)[0]
        mat = np.vstack([mat, mat[:1]])
        assert self.scan(mat[None]) == [None]
        calls, qhull = [], sic._qhull
        monkeypatch.setattr(sic, "_qhull", lambda points: calls.append(points) or qhull(points))
        rho, center, _ = sic_rho(mat)
        assert len(calls) == 1 and np.array_equal(calls[0], mat)
        assert rho == pytest.approx(sic_bruteforce(Instance(mat)).rho, abs=1e-8)
        assert np.max(np.arccos(np.clip(mat @ center, -1.0, 1.0))) <= rho + 1e-9

    def test_affinely_dependent_rows_fall_back(self):
        # Two antipodal directions only: no 3 rows span a plane, so the scan
        # finds nothing and the flat-hull branch answers pi/2.
        p = np.array([1.0, 0.0, 0.0])
        mat = np.array([p, -p, p, -p, p])
        assert self.scan(mat[None]) == [None]
        center, support, cos_rho = sic._hull_facet(mat)
        assert cos_rho == 0.0 and support == tuple(range(5))
        assert abs(center @ p) <= 1e-12
        rho, center, _ = sic_rho(mat)
        assert rho == pytest.approx(math.pi / 2, abs=1e-12)
        assert abs(center @ p) <= 1e-12


def workload_stack(kind: str, seed: int) -> np.ndarray:
    """The stack a benchmark command scans, drawn as it draws it: exp-mean's
    and exp-tail's first block (m = 3, n = 12, N = 256; m = 2, n = 5, N =
    2048), the property suite's (6000, 3, 2) pool, exp-wendel's 128
    streams of 9 rows on S^3."""
    if kind in ("mean", "tail"):
        m, n, N = (3, 12, 256) if kind == "mean" else (2, 5, 2048)
        cfg = harness.ExperimentConfig(kind="expectation", m=m, n=n, N=N, master_seed=seed)
        params = harness.params_from_config(cfg)
        center = harness.resolve_center(cfg, params)
        return next(harness.sample_blocks(cfg, params, center, 0, N))[1]
    if kind == "props":
        return sic.unit_rows(harness._uniform_instances(seed, 1, 1, 3, 6000))
    indices = samplers.stream_indices(samplers.PURPOSE_WENDEL, 0, 128)
    return samplers.uniform_sphere_batch(3, seed, indices, 9)


class TestOnePassScan:
    """`_max_min` scores each normal once, from shared minors; the two-way
    scan it replaced (`max_min_two_way`) is its reference, bit for bit:
    value, center and winning candidate."""

    @staticmethod
    def assert_two_way(mats, sizes):
        got, want = sic._max_min(mats, sizes), max_min_two_way(mats, sizes)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind, k, sizes", [
        ("mean", 12, (4,)), ("tail", 5, (1, 2, 3)), ("tail", 5, (3,)),
        ("props", 3, (1, 2)), ("props", 3, (2,)),
        ("wendel", 5, (4,)), ("wendel", 7, (4,)), ("wendel", 9, (4,))])
    def test_workload_stacks(self, kind, k, sizes, seed):
        mats = np.ascontiguousarray(workload_stack(kind, seed)[:, :k])
        self.assert_two_way(mats, sizes)

    @pytest.mark.parametrize("n, d", [(5, 3), (6, 4), (12, 4)])
    def test_flat_hull(self, n, d):
        # Every row on the great sphere x_{d-1} = 0: each d-row normal is
        # a multiple of e_{d-1} and scores exactly 0 both ways, so the
        # normal itself wins, not its negation.
        rng = np.random.default_rng([n, d])
        mats = unit_rows(rng.standard_normal((40, n, d)))
        mats[:, :, -1] = 0.0
        mats = unit_rows(mats)
        value, _, wins = self.assert_two_way(mats, (d,))
        assert not value.any() and (wins < math.comb(n, d)).all()
        self.assert_two_way(mats, tuple(range(1, d + 1)))

    @pytest.mark.parametrize("family", ["duplicate-rows", "antipodal-pairs"])
    @pytest.mark.parametrize("n, d", [(3, 2), (6, 3), (8, 4), (12, 4)])
    def test_duplicate_and_antipodal_rows(self, family, n, d):
        rng = np.random.default_rng([n, d, len(family)])
        mats = np.array([inst.matrix for inst in TestStackRho.family_stack(rng, family, n, d, 40)])
        self.assert_two_way(mats, (d,))
        if math.comb(n, d) <= sic._SCAN_SUBSETS:
            self.assert_two_way(mats, tuple(range(1, d + 1)))

    def test_a_normal_tied_with_its_negation_wins_as_itself(self):
        # Rows a, b, -a, -b: each chord's normal scores min = -max, so every
        # normal ties with its negation, and the positive half must win.
        rng = np.random.default_rng(3)
        half = unit_rows(rng.standard_normal((50, 2, 2)))
        mats = np.concatenate([half, -half], axis=1)
        value, _, wins = self.assert_two_way(mats, (2,))
        assert (wins < math.comb(4, 2)).all() and (value < 0.0).all()

    @pytest.mark.parametrize("n, sizes", [(12, (4,)), (5, (1, 2, 3)), (3, (1, 2))])
    def test_empty_stack(self, n, sizes):
        value, centers, wins = self.assert_two_way(np.zeros((0, n, sizes[-1])), sizes)
        assert value.shape == wins.shape == (0,) and centers.shape == (0, sizes[-1])

    @pytest.mark.parametrize("B, n, sizes", [(17, 12, (4,)), (1000, 5, (1, 2, 3)), (2001, 3, (1, 2))])
    def test_a_stack_that_is_not_a_multiple_of_the_slice(self, B, n, sizes):
        assert B % max(1, sic._SCAN_PAIRS // sum(math.comb(n, k) for k in sizes))
        rng = np.random.default_rng(B)
        self.assert_two_way(unit_rows(rng.standard_normal((B, n, sizes[-1]))), sizes)

    @pytest.mark.parametrize("k, d", [(3, 2), (5, 3), (6, 4), (4, 3)])
    def test_cone_facets_unchanged(self, monkeypatch, k, d):
        rng = np.random.default_rng([k, d])
        gens = unit_rows(rng.standard_normal((64, k, d)))
        gens[:8, :, -1] = 0.0  # flat cones: no facet
        gens[8:16, 1] = gens[8:16, 0]  # a repeated generator
        gens = unit_rows(gens)
        got = convexgeom.cone_facets(gens)
        monkeypatch.setattr(sic, "_normals", laplace_normals)
        assert got.tobytes() == convexgeom.cone_facets(gens).tobytes()


class TestStackRho:
    """The stack scan against the oracle, at every scan dimension."""

    SIZES = ((3, 2), (6, 2), (4, 3), (7, 3), (5, 4), (8, 4))
    FAMILIES = ("duplicate-rows", "antipodal-pairs", "great-circle", "tiny-cap", "off-great-sphere")

    @staticmethod
    def family_stack(rng, family, n, d, count=12):
        """count instances of n rows on S^(d-1) from one adversarial family."""
        mats = unit_rows(rng.standard_normal((count, n, d)))
        if family == "duplicate-rows":
            picks = rng.integers(0, n - 1, size=(count, n))
            mats = np.take_along_axis(mats, picks[:, :, None], axis=1)
        elif family == "antipodal-pairs":
            k = n // 2
            mats[:, k:2 * k] = -mats[:, :k]
        elif family == "great-circle":
            # A flat hull: every row on the great sphere x_{d-1} = 0.
            mats[:, :, -1] = 0.0
            mats = unit_rows(mats)
        elif family == "tiny-cap":
            # Rows within 1e-7 of each other around a random center.
            center = unit_rows(rng.standard_normal((count, 1, d)))
            mats = unit_rows(center + 5e-8 * unit_rows(rng.standard_normal((count, n, d))))
        else:
            # 1e-12..1e-2 off the great sphere x_{d-1} = 0, on either side.
            mats[:, :, -1] = 0.0
            mats = unit_rows(mats)
            tilt = np.geomspace(1e-12, 1e-2, count)[:, None]
            mats[:, :, -1] = tilt * rng.choice([-1.0, 1.0], size=(count, n))
            mats = unit_rows(mats)
        return [Instance(mat) for mat in mats]

    @pytest.mark.parametrize("n, d", SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_oracle(self, family, n, d):
        rng = np.random.default_rng([n, d, self.FAMILIES.index(family)])
        insts = self.family_stack(rng, family, n, d)
        # The oracle solves the very rows of the stack: at caps of 5e-8 a
        # 1-ulp change of a row moves rho by 1e-9.
        mats = np.array([inst.matrix for inst in insts])
        rho = sic.stack_rho(mats)
        for inst, mat, r in zip(insts, mats, rho.tolist()):
            oracle = sic_bruteforce(inst)
            assert abs(r - oracle.rho) <= 1e-12
            assert sic.classify_rho(r) is oracle.cls
            # The one-instance view is the same solve.
            assert sic_rho(mat)[0] == r

    @pytest.mark.parametrize("n, d", SIZES)
    def test_tiny_caps_center_at_equal_angles(self, n, d):
        # Rows are unit only to an ulp; equal dot products with the center
        # would leave the support's angles about 1e-9 rad apart at caps of
        # 5e-8 rad, and the cap that much too large.
        rng = np.random.default_rng([n, d, self.FAMILIES.index("tiny-cap")])
        for inst in self.family_stack(rng, "tiny-cap", n, d):
            oracle = sic_bruteforce(inst)
            angles = sic._angles(inst.matrix[list(oracle.support)], oracle.center)
            assert float(np.ptp(angles)) <= 1e-14
            assert oracle.rho == pytest.approx(float(np.max(angles)), abs=1e-14)

    @pytest.mark.parametrize("n, d", SIZES)
    def test_result_does_not_depend_on_the_stack(self, n, d):
        # 3000 instances span several _SCAN_PAIRS slices.
        rng = np.random.default_rng(n * 10 + d)
        mats = sic.unit_rows(unit_rows(rng.standard_normal((3000, n, d))))
        stack = sic.stack_rho(mats)
        for i in range(0, 3000, 97):
            alone = sic.stack_rho(mats[i:i + 1])[0]
            assert alone == stack[i] and sic_rho(mats[i])[0] == stack[i]

    def test_routes_only_what_needs_the_instance_solve(self):
        # Uniform rows at the tail workload's size are answered by the scan;
        # exactly ill-posed and tiny instances are routed.
        rng = np.random.default_rng(11)
        mats = sic.unit_rows(unit_rows(rng.standard_normal((2000, 5, 3))))
        assert sic._stack_caps(mats)[3].size <= 20
        special = np.stack([ILL_POSED_S1[:, [0, 1, 1]] * [1.0, 1.0, 0.0],
                            self.family_stack(rng, "tiny-cap", 4, 3, 1)[0].matrix])
        assert sic._stack_caps(special)[3].tolist() == [0, 1]


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
            cover = np.max(chord_angles(inst.matrix, oracle.center))
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
        """rho of the prefixes of m+2..n rows, as the property suite takes
        them: one stack per prefix length, its rows normalized again."""
        mats = inst.matrix[None]
        return [sic.stack_rho(sic.unit_rows(mats[:, :k]))[0] for k in range(inst.m + 2, inst.n + 1)]

    def test_profile_last_entry_consistent(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 8, 2)
        profile = self.prefix_profile(inst)
        assert len(profile) == inst.n - inst.m - 1
        full = sic_bruteforce(inst)
        assert cond_from_rho(profile[-1]) == pytest.approx(full.cond, abs=1e-9, rel=1e-9)
        assert classify_rho(profile[-1]) is full.cls
        with pytest.raises(ValueError):
            Instance(inst.matrix[:inst.m + 1])

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
        assert all(classify_rho(rho) is FeasibilityClass.STRICTLY_FEASIBLE for rho in profile)

    def test_cond_from_rho_band(self):
        assert math.isinf(cond_from_rho(math.pi / 2 + 5e-9))
        assert math.isfinite(cond_from_rho(math.pi / 2 + 5e-8))


def least_distance_family(rng, family, n, d):
    """n unit rows in R^d from one adversarial family: random, a duplicate
    or antipodal last row, a last row 1e-7 from the first, all rows on one
    great circle, or exactly ill-posed (rows on a closed hemisphere with an
    antipodal pair on its rim: the origin on the hull's boundary)."""
    mat = unit_rows(rng.standard_normal((n, d)))
    if family == "duplicate":
        mat[-1] = mat[0]
    elif family == "antipodal":
        mat[-1] = -mat[0]
    elif family == "near-parallel":
        tangent = rng.standard_normal(d)
        tangent -= (tangent @ mat[0]) * mat[0]
        mat[-1] = unit_rows(mat[0] + 1e-7 * unit_rows(tangent))
    elif family == "great-circle":
        mat[:, 2:] = 0.0
        mat = unit_rows(mat)
    elif family == "ill-posed":
        mat[:, -1] = np.abs(mat[:, -1])
        mat[-2, -1] = 0.0
        mat[-2] = unit_rows(mat[-2])
        mat[-1] = -mat[-2]
    return mat


class TestLeastDistanceKernel:
    """`sic.nnls_stack` on least-distance problems, against scipy's NNLS."""

    FAMILIES = ("random", "duplicate", "antipodal", "near-parallel", "great-circle", "ill-posed")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_against_scipy_nnls(self, family, d):
        rng = np.random.default_rng([d, self.FAMILIES.index(family)])
        for n in (d + 1, d + 3, 12, 40):
            mats = np.array([least_distance_family(rng, family, n, d) for _ in range(25)])
            z, u, certified = sic._least_distances(mats)
            assert certified.all() and np.all(u >= 0)
            dist = np.linalg.norm(z, axis=1)
            for mat, got in zip(mats, dist):
                zr, _ = least_distance_scipy(mat)
                oracle = float(np.linalg.norm(zr))
                assert abs(got - oracle) <= 1e-12
                assert (got > sic._ORIGIN_TOL) == (oracle > sic._ORIGIN_TOL)

    def test_an_instance_solves_alike_alone_and_in_a_stack(self):
        rng = np.random.default_rng(8)
        mats = unit_rows(rng.standard_normal((300, 12, 4)))
        z, u, _ = sic._least_distances(mats)
        for j in range(0, 300, 23):
            zj, uj, _ = sic._least_distances(mats[j:j + 1])
            assert np.array_equal(zj[0], z[j]) and np.array_equal(uj[0], u[j])

    def test_a_capped_instance_fails_alone(self, monkeypatch):
        # Past the scan sizes (C(40, 3) row triples), so every instance takes
        # the kernel.  Rows alternating between two directions need two
        # steps; random rows around the origin need at least four (the
        # origin inside takes d + 1 = 4 columns).
        rng = np.random.default_rng(21)
        pair = unit_rows(rng.standard_normal((2, 3)))
        easy = np.tile(pair, (20, 1))
        hard = TestFacetScan.enclosing(rng, 1, 40, 3)[0]
        mats = np.array([easy, hard, easy[::-1]])
        free = sic.stack_rho(mats)
        assert not np.isnan(free).any()
        monkeypatch.setattr(sic, "_STEPS_PER_COLUMN", 3.5 / 40)
        capped = sic.stack_rho(mats)
        assert np.isnan(capped[1])
        assert capped[0] == free[0] and capped[2] == free[2]
        with pytest.raises(ConvergenceError):
            sic.stack_feasible(mats)
        with pytest.raises(ConvergenceError):
            sic.stack_feasible(hard[None])
        with pytest.raises(ConvergenceError):
            sic_rho(hard)


class TestStackFeasible:
    @pytest.mark.parametrize("m", (1, 2, 3, 4))
    def test_matches_the_scipy_decision(self, m):
        # Wendel's sizes k = m+2, 2m+2, 3m+2: the facet-scan sign below the
        # crossover, the kernel past it.
        rng = np.random.default_rng(40 + m)
        for k in (m + 2, 2 * m + 2, 3 * m + 2):
            mats = unit_rows(rng.standard_normal((4096, k, m + 1)))
            oracle = np.array([strictly_feasible_scipy(mat) for mat in mats])
            assert np.array_equal(sic.stack_feasible(mats), oracle)

    @pytest.mark.parametrize("d, k", [(3, 12), (4, 10), (4, 9)])
    def test_scanned_sizes_match_the_scipy_decision(self, d, k):
        # The largest scanned sizes, C(12, 3) = 220 and C(10, 4) = 210, and
        # Wendel's k = 9 on S^3.  Rows pulled toward e_1 by a per-instance
        # amount mix the classes.
        assert sic._scans(k, d)
        rng = np.random.default_rng(50 + 10 * d + k)
        g = rng.standard_normal((1024, k, d))
        g[:, :, 0] += rng.uniform(0.0, 1.5, (1024, 1))
        mats = unit_rows(g)
        oracle = np.array([strictly_feasible_scipy(mat) for mat in mats])
        assert 0.2 < oracle.mean() < 0.8
        assert np.array_equal(sic.stack_feasible(mats), oracle)

    @staticmethod
    def kernel_calls(monkeypatch):
        calls = []
        solve = sic._least_distances

        def counted(mats):
            calls.append(np.array(mats))
            return solve(mats)

        monkeypatch.setattr(sic, "_least_distances", counted)
        return calls

    def test_scanned_random_stack_takes_no_kernel(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        mats = unit_rows(np.random.default_rng(9).standard_normal((128, 9, 4)))
        sic.stack_feasible(mats)
        assert calls == []

    def test_five_coordinates_take_the_kernel(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        mats = unit_rows(np.random.default_rng(10).standard_normal((64, 7, 5)))
        feasible = sic.stack_feasible(mats)
        assert [len(c) for c in calls] == [64]
        assert np.array_equal(feasible, [strictly_feasible_scipy(mat) for mat in mats])

    def test_near_zero_scan_values_take_the_kernel(self, monkeypatch):
        # Exactly ill-posed rows score 0 in the scan; a great circle's flat
        # hull scores 0 too.
        calls = self.kernel_calls(monkeypatch)
        rng = np.random.default_rng(3)
        mats = np.array([least_distance_family(rng, "ill-posed", 5, 3),
                         least_distance_family(rng, "great-circle", 5, 3),
                         unit_rows(np.abs(rng.standard_normal((5, 3))))])
        assert sic.stack_feasible(mats).tolist() == [False, False, True]
        assert [len(c) for c in calls] == [2]


class TestRoutedSolve:
    """`_solve_routed` takes the hull side from the facet scan, against the
    NNLS-first solve it replaced: past the stack scan at (12, 4), where
    every instance is routed, and within it at (8, 4) and (7, 3)."""

    SIZES = ((12, 4), (8, 4), (7, 3))
    FAMILIES = TestStackRho.FAMILIES + ("random",)

    @classmethod
    def stack(cls, family, n, d):
        """A stack (B, n, d) from one `TestStackRho` family, or 96 random
        instances with rows pulled toward e_1 by a per-instance amount, so
        both sides of the hull occur."""
        rng = np.random.default_rng([n, d, cls.FAMILIES.index(family)])
        if family == "random":
            g = rng.standard_normal((96, n, d))
            g[:, :, 0] += rng.uniform(0.0, 1.5, (96, 1))
            return unit_rows(g)
        return np.array([inst.matrix for inst in TestStackRho.family_stack(rng, family, n, d)])

    @staticmethod
    def routing(mats):
        """(rho, routed): `stack_rho`'s scan answers and the instances it
        gives `_solve_routed`."""
        if sic._scans(*mats.shape[1:]):
            rho, _, _, routed = sic._stack_caps(mats)
            return rho, routed
        return np.full(len(mats), np.nan), np.arange(len(mats))

    @classmethod
    def routed(cls, mats):
        """The instances `stack_rho` gives `_solve_routed`."""
        return mats[cls.routing(mats)[1]]

    @staticmethod
    def assert_same_solve(mats):
        """`_solve_routed` gives each instance the NNLS-first solve's
        (rho, center, support) bit for bit, or its type of error; returns
        the NNLS-first solve."""
        if not len(mats):
            return []
        solved = sic._solve_routed(mats)
        oracle = solve_routed_nnls_first(mats)
        for got, want in zip(solved, oracle):
            assert type(got) is type(want)
            if not isinstance(want, Exception):
                assert got[0] == want[0] and got[2] == want[2]
                assert np.array_equal(got[1], want[1])
        return oracle

    @pytest.mark.parametrize("n, d", SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_nnls_first_solve(self, family, n, d):
        mats = self.stack(family, n, d)
        oracle, routed = self.routing(mats)
        for i, want in zip(routed.tolist(), self.assert_same_solve(mats[routed])):
            oracle[i] = want[0]
        rho = sic.stack_rho(mats)
        assert np.array_equal(rho, oracle)
        assert rho.tolist() == [sic_rho(mat)[0] for mat in mats]

    @pytest.mark.parametrize("n, d", SIZES)
    def test_caps_that_do_not_cover_take_the_instance_solve(self, monkeypatch, n, d):
        # A negative containment tolerance fails every cover check, so each
        # instance the scan puts inside takes `_refine` with its facet.
        mats = self.stack("random", n, d)
        inside = sic._scan_facets(mats)[0] < -sic._SIGN_MARGIN
        assert inside.sum() >= 10
        monkeypatch.setattr(sic, "_CONTAIN_TOL", -1e-6)
        solve, calls = sic._refine, []
        monkeypatch.setattr(sic, "_refine", lambda mat, center, support, enclosed: (
            calls.append(enclosed) or solve(mat, center, support, enclosed)))
        self.assert_same_solve(mats)
        assert calls.count(True) == inside.sum()

    def test_nnls_inside_caps_take_the_stacked_check(self, monkeypatch):
        # Past _FACET_SUBSETS at (14, 4) the NNLS decides the hull side and
        # Qhull gives the facet of each instance it puts inside.  With no
        # containment slack some facet caps fail the cover check by roundoff:
        # those, and only those, take `_refine`.
        mats = np.concatenate([self.stack(family, 14, 4) for family in self.FAMILIES])
        assert math.comb(14, 4) > sic._FACET_SUBSETS
        zs, _, certified = sic._least_distances(mats)
        dist = np.sqrt([float(z @ z) for z in zs])
        inside = np.flatnonzero(certified & (dist <= sic._ORIGIN_TOL))
        monkeypatch.setattr(sic, "_CONTAIN_TOL", 0.0)
        hull, refine, hulls, refined = sic._hull_facet, sic._refine, [], []
        monkeypatch.setattr(sic, "_hull_facet", lambda mat: hulls.append(mat) or hull(mat))

        def refine_facets(mat, center, support, enclosed):
            if enclosed:
                refined.append(mat)
            return refine(mat, center, support, enclosed)

        monkeypatch.setattr(sic, "_refine", refine_facets)
        sic._solve_routed(mats)
        assert len(hulls) == inside.size and np.array_equal(hulls, mats[inside])
        failing = []
        for i, mat in zip(inside.tolist(), hulls):
            center, _, cos_rho = hull(mat)
            rho = math.acos(cos_rho)
            if not (rho >= sic._TINY_CAP and sic._covers(mat, center, np.array([rho]))[0]):
                failing.append(i)
        assert 0 < len(failing) < inside.size
        assert np.array_equal(refined, mats[failing])
        self.assert_same_solve(mats)
        # A Qhull failure fails its instance alone.
        free, bad = sic.stack_rho(mats), int(inside[0])

        def failing_on_bad(mat):
            if np.array_equal(mat, mats[bad]):
                raise DegenerateHullError("simulated Qhull failure")
            return hull(mat)

        monkeypatch.setattr(sic, "_hull_facet", failing_on_bad)
        rho = sic.stack_rho(mats)
        assert np.isnan(rho[bad]) and np.isnan(rho).sum() == 1
        assert np.array_equal(np.delete(rho, bad), np.delete(free, bad))
        with pytest.raises(DegenerateHullError):
            sic_rho(mats[bad])

    @staticmethod
    def kernel_stack(routed):
        """The instances of a routed stack that take the NNLS: those the
        facet scan does not put inside (a value not below -_SIGN_MARGIN,
        or a zero normal), and every one after the first _PROBE where more
        than _OUTSIDE_SHARE of those are."""
        if not len(routed):
            return routed
        cos_rho, centers, _ = sic._scan_facets(routed)
        taken = ~(centers.any(axis=1) & (cos_rho < -sic._SIGN_MARGIN))
        probe = taken[:sic._PROBE]
        if probe.sum() > sic._OUTSIDE_SHARE * probe.size:
            taken[sic._PROBE:] = True
        return routed[taken]

    @pytest.mark.parametrize("n, d", SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_kernel_gets_only_what_the_scan_leaves(self, monkeypatch, family, n, d):
        mats = self.stack(family, n, d)
        kept = self.kernel_stack(self.routed(mats))
        calls = TestStackFeasible.kernel_calls(monkeypatch)
        sic.stack_rho(mats)
        assert len(calls) == (1 if len(kept) else 0)
        assert all(np.array_equal(call, kept) for call in calls)

    def test_the_probe_picks_the_order(self, monkeypatch):
        # 40 instances around the origin, and 40 of which about half are not.
        inside = TestFacetScan.enclosing(np.random.default_rng(31), 40, 12, 4)
        mixed = self.stack("random", 12, 4)[:40]
        outside = sic.stack_feasible(mixed[:32]).sum()
        assert len(inside) == 40 and sic._OUTSIDE_SHARE * 32 < outside < 32
        scans, scan = [], sic._scan_facets
        monkeypatch.setattr(sic, "_scan_facets", lambda mats: scans.append(len(mats)) or scan(mats))
        calls = TestStackFeasible.kernel_calls(monkeypatch)
        # The probe all inside: the rest is scanned too, and the kernel takes
        # only what the scan leaves.
        stack = np.concatenate([inside[:32], mixed])
        self.assert_same_solve(stack)
        assert scans[:2] == [32, 40] and np.array_equal(calls[0], self.kernel_stack(stack))
        # The probe mixed: the rest takes the kernel first, and only those it
        # does not put outside are scanned.
        scans.clear()
        calls.clear()
        stack = np.concatenate([mixed[:32], inside])
        self.assert_same_solve(stack)
        assert scans[:2] == [32, 40] and np.array_equal(calls[0], self.kernel_stack(stack))
        assert len(calls[0]) == outside + 40

    def test_uncertified_nnls_fails_only_the_kernel_instances(self, monkeypatch):
        # Inside-hull instances need no NNLS certificate; the others fail.
        mats = self.stack("random", 12, 4)
        outside = sic._scan_facets(mats)[0] >= -sic._SIGN_MARGIN
        assert 0 < outside.sum() < len(mats) / 2
        free = sic.stack_rho(mats)
        assert not np.isnan(free).any()
        solve = sic.nnls_stack
        monkeypatch.setattr(sic, "nnls_stack",
                            lambda E, f: (solve(E, f)[0], np.zeros(len(E), dtype=bool)))
        rho = sic.stack_rho(mats)
        assert np.isnan(rho[outside]).all()
        assert np.array_equal(rho[~outside], free[~outside])
        with pytest.raises(ConvergenceError):
            sic_rho(mats[outside][0])
        assert sic_rho(mats[~outside][0])[0] == free[~outside][0]
