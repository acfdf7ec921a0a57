import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from lpcond.samplers import _rotations
from lpcond.sic import Instance, unit_rows
from lpcond.sphere import clipped_arccos, integral_I
from oracles import Cap

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def random_units(rng, count, d=3):
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def rotation_to(target):
    """The rotation taking the pole E1 to target (`samplers._rotations`)."""
    return _rotations(np.asarray(target, dtype=float)[None])[0]


class TestSpherePoint:
    """A point of the sphere is a row of an `Instance`, whose one
    unit-norm rule is `sic.unit_rows`."""

    def test_normalizes_small_deviation(self):
        p = unit_rows(np.array([[1.0 + 5e-7, 0.0, 0.0]]))
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            unit_rows(np.array([[1.1, 0.0, 0.0]]))

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            Instance(np.ones((3, 1)))

    def test_coords_read_only(self):
        inst = Instance(np.vstack([np.eye(3), -np.eye(3)]))
        with pytest.raises(ValueError):
            inst.matrix[0, 0] = 0.5


class TestRotation:
    def test_identity_case(self):
        assert np.allclose(rotation_to(E1), np.eye(3))

    def test_maps_source_to_target(self):
        R = rotation_to(E2)
        assert np.allclose(R @ E1, E2, atol=1e-12)
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12

    def test_antipodal(self):
        R = rotation_to(-E1)
        assert np.allclose(R @ E1, -E1, atol=1e-12)
        assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(rotation_to(E2), rotation_to(E2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_preserves_angular_distance(self, seed):
        rng = np.random.default_rng(seed)
        t, x, y = random_units(rng, 3)
        R = rotation_to(t)
        assert np.allclose(R @ E1, t, atol=1e-12)
        assert clipped_arccos((R @ x) @ (R @ y)) == pytest.approx(
            clipped_arccos(x @ y), abs=1e-10
        )


class TestCap:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Cap(E1, -0.1)
        with pytest.raises(ValueError):
            Cap(E1, math.pi + 0.1)


class TestVolumesAndIntegrals:
    @pytest.mark.parametrize("alpha", [1e-3, math.pi / 6, math.pi / 2])
    def test_integral_I_against_quadrature(self, alpha):
        for k in range(1, 7):
            ref, _ = quad(lambda t: math.sin(t) ** (k - 1), 0.0, alpha,
                          epsabs=0.0, epsrel=2e-14, limit=200)
            assert integral_I(k, alpha) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_integral_I_closed_forms(self):
        assert integral_I(1, 0.7) == pytest.approx(0.7, abs=1e-12)
        assert integral_I(2, math.pi / 2) == pytest.approx(1.0, abs=1e-10)
        assert integral_I(3, math.pi / 2) == pytest.approx(math.pi / 4, abs=1e-10)
        # At a = 1e-9, sin a == a and cos a == 1.0 in floating point, so no
        # formula in sin a and cos a resolves I_k; it is a^k / k to within
        # (k - 1) a^2 / 6.
        for k in (3, 4):
            assert integral_I(k, 1e-9) == pytest.approx(1e-9 ** k / k, rel=1e-14, abs=0.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            integral_I(2, 0.0)
        with pytest.raises(ValueError):
            integral_I(0, 0.5)
        with pytest.raises(ValueError):
            integral_I(2, math.pi)

    def test_integral_table_matches_quadrature(self):
        # A composite-midpoint table of I_3(1) on 4096 cells.
        mids = (np.arange(4096) + 0.5) / 4096
        table = float(np.sum(np.sin(mids) ** 2) / 4096)
        assert table == pytest.approx(integral_I(3, 1.0), abs=1e-7)
