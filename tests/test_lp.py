import math

import numpy as np
import pytest

from lpcond.lp import FeasibilityClass
from lpcond.sic import Instance
from oracles import SimplexProblem, gordan_classify, origin_in_conv, simplex_solve


def random_units(rng, count, d):
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class TestSimplex:
    def test_single_equality(self):
        res = simplex_solve(SimplexProblem([0.0], [[1.0]], [1.0]))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_unbounded(self):
        res = simplex_solve(SimplexProblem([-1.0], np.zeros((0, 1)), []))
        assert res.status == "unbounded"

    def test_infeasible(self):
        res = simplex_solve(SimplexProblem([0.0], [[1.0]], [-1.0]))
        assert res.status == "infeasible"

    def test_textbook_optimum(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  (1.6, 1.2), value 2.8
        c = [-1.0, -1.0, 0.0, 0.0]
        A = [[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]]
        b = [4.0, 6.0]
        res = simplex_solve(SimplexProblem(c, A, b))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.8, abs=1e-9)
        assert res.x[0] == pytest.approx(1.6, abs=1e-9)
        assert res.x[1] == pytest.approx(1.2, abs=1e-9)

    def test_degenerate_redundant_rows(self):
        # Duplicated constraint must not confuse phase 1.
        c = [1.0, 1.0]
        A = [[1.0, 1.0], [1.0, 1.0]]
        b = [1.0, 1.0]
        res = simplex_solve(SimplexProblem(c, A, b))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_residual_certificate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            nvar = int(rng.integers(2, 8))
            nrow = int(rng.integers(1, nvar + 1))
            A = rng.standard_normal((nrow, nvar))
            x_feas = rng.random(nvar)
            b = A @ x_feas
            c = rng.standard_normal(nvar)
            res = simplex_solve(SimplexProblem(c, A, b))
            if res.status == "optimal":
                assert np.max(np.abs(A @ res.x - b)) <= 1e-9
                assert np.min(res.x) >= -1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimplexProblem([0.0, 0.0], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            SimplexProblem([0.0], [[np.inf]], [1.0])


class TestOriginInConv:
    def test_antipodal_pair(self):
        assert origin_in_conv(np.array([[1.0, 0], [-1.0, 0]]))

    def test_two_orthogonal(self):
        assert not origin_in_conv(np.array([[1.0, 0], [0, 1.0]]))

    def test_explicit_combination(self):
        v = -(np.array([1.0, 0]) + np.array([0, 1.0])) / math.sqrt(2)
        assert origin_in_conv(np.array([[1.0, 0], [0, 1.0], v]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pts = random_units(rng, 5, 3)
            base = origin_in_conv(pts)
            perm = rng.permutation(5)
            assert origin_in_conv(pts[perm]) == base

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            pts = random_units(rng, 5, 3)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            assert origin_in_conv(pts @ q.T) == origin_in_conv(pts)


class TestGordanRhoConsistency:
    def test_thousand_random_instances(self):
        # LP class must match the cap radius test rho vs pi/2 outside the
        # 1e-8 band, for m in {2, 3} and n = m + 3.
        from lpcond.sic import sic_rho

        rng = np.random.default_rng(2718)
        for m in (2, 3):
            n = m + 3
            mats = rng.standard_normal((500, n, m + 1))
            mats /= np.linalg.norm(mats, axis=2, keepdims=True)
            for i in range(500):
                rho = sic_rho(mats[i])[0]
                cls = gordan_classify(mats[i])
                if rho < math.pi / 2 - 1e-8:
                    assert cls is FeasibilityClass.STRICTLY_FEASIBLE
                elif rho > math.pi / 2 + 1e-8:
                    assert cls is FeasibilityClass.INFEASIBLE


class TestGordan:
    def test_strictly_feasible_example(self):
        mat = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
                        [1.0, 1.0, 1.0] / np.linalg.norm([1.0, 1.0, 1.0])])
        assert gordan_classify(Instance(mat)) is FeasibilityClass.STRICTLY_FEASIBLE

    def test_ill_posed_example(self):
        mat = np.array([[1.0, 0], [-1.0, 0], [0, 1.0]])
        assert gordan_classify(Instance(mat)) is FeasibilityClass.ILL_POSED

    def test_infeasible_example(self):
        mat = np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]])
        assert gordan_classify(Instance(mat)) is FeasibilityClass.INFEASIBLE

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            gordan_classify(np.eye(3))
