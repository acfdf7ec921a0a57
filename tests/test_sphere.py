import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpcond.errors import DimensionMismatchError
from lpcond.sphere import (
    Cap,
    SpherePoint,
    angular_distance,
    integral_I,
    integral_J,
    rotation_to,
    sphere_volume,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return SpherePoint(v / np.linalg.norm(v))


E1 = SpherePoint([1.0, 0.0, 0.0])
E2 = SpherePoint([0.0, 1.0, 0.0])


def random_units(rng, count, d=3):
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class TestSpherePoint:
    def test_normalizes_small_deviation(self):
        p = SpherePoint(np.array([1.0 + 5e-7, 0.0, 0.0]))
        assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            SpherePoint([1.1, 0.0, 0.0])

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            SpherePoint([1.0])

    def test_coords_read_only(self):
        p = SpherePoint([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            p.coords[0] = 0.5


class TestDistances:
    def test_identity(self):
        assert angular_distance(E1, E1) == 0.0

    def test_antipodal(self):
        assert angular_distance(E1, SpherePoint([-1.0, 0, 0])) == pytest.approx(math.pi)

    def test_orthogonal(self):
        assert angular_distance(E1, E2) == pytest.approx(math.pi / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            angular_distance(E1, SpherePoint([1.0, 0.0]))


class TestRotation:
    def test_identity_case(self):
        assert np.allclose(rotation_to(E1, E1), np.eye(3))

    def test_maps_source_to_target(self):
        R = rotation_to(E1, E2)
        assert np.allclose(R @ E1.coords, E2.coords, atol=1e-12)
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12

    def test_antipodal(self):
        R = rotation_to(E1, SpherePoint([-1.0, 0, 0]))
        assert np.allclose(R @ E1.coords, [-1.0, 0, 0], atol=1e-12)
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12

    def test_deterministic(self):
        R1 = rotation_to(E1, E2)
        R2 = rotation_to(E1, E2)
        assert np.array_equal(R1, R2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_preserves_angular_distance(self, seed):
        rng = np.random.default_rng(seed)
        s, t, x, y = (SpherePoint(v) for v in random_units(rng, 4))
        R = rotation_to(s, t)
        rx, ry = SpherePoint(R @ x.coords), SpherePoint(R @ y.coords)
        assert angular_distance(rx, ry) == pytest.approx(
            angular_distance(x, y), abs=1e-10
        )


class TestCap:
    def test_contains_inner_product_rule(self):
        cap = Cap(E1, math.pi / 4)
        assert cap.contains(unit([1.0, 1.2, 0.0])) is False
        assert cap.contains(unit([1.0, 0.5, 0.0])) is True

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Cap(E1, -0.1)
        with pytest.raises(ValueError):
            Cap(E1, math.pi + 0.1)


class TestVolumesAndIntegrals:
    def test_sphere_volume_values(self):
        assert sphere_volume(1) == pytest.approx(2 * math.pi)
        assert sphere_volume(2) == pytest.approx(4 * math.pi)
        assert sphere_volume(3) == pytest.approx(2 * math.pi**2)

    def test_integral_I_closed_forms(self):
        assert integral_I(1, 0.7) == pytest.approx(0.7, abs=1e-12)
        assert integral_I(2, math.pi / 2) == pytest.approx(1.0, abs=1e-10)
        assert integral_I(3, math.pi / 2) == pytest.approx(math.pi / 4, abs=1e-10)

    def test_integral_J_closed_forms(self):
        assert integral_J(2, 1, math.pi / 2) == pytest.approx(1.0, abs=1e-10)
        assert integral_J(3, 2, math.pi / 2) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("m,alpha", [(2, 0.4), (3, 1.1), (4, math.pi / 2)])
    def test_J_mm_equals_I_m(self, m, alpha):
        assert integral_J(m, m, alpha) == pytest.approx(integral_I(m, alpha), abs=1e-12)

    def test_J_upper_bound_sigma_k_over_k(self):
        # J_{m,k}(alpha) <= sin(alpha)^k / k for k < m
        for m in (2, 3, 4, 5):
            for k in range(1, m):
                for alpha in (0.2, 0.7, 1.2, math.pi / 2):
                    bound = math.sin(alpha) ** k / k
                    assert integral_J(m, k, alpha) <= bound + 1e-10

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            integral_I(2, 0.0)
        with pytest.raises(ValueError):
            integral_I(0, 0.5)
        with pytest.raises(ValueError):
            integral_J(2, 3, 0.5)
        with pytest.raises(ValueError):
            integral_J(2, 0, 0.5)

    def test_integral_table_matches_quadrature(self):
        # A composite-midpoint table of J_{3,2}(1) on 4096 cells.
        mids = (np.arange(4096) + 0.5) / 4096
        table = float(np.sum(np.sin(mids) * np.cos(mids)) / 4096)
        assert table == pytest.approx(integral_J(3, 2, 1.0), abs=1e-7)
