import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from lpcond import sic
from lpcond.errors import ConfigError
from lpcond.samplers import (
    BLOCK_ROWS,
    PURPOSE_CENTER,
    PURPOSE_SAMPLE,
    PURPOSE_WENDEL,
    HTable,
    RngStream,
    build_radial_cdf,
    cap_batch,
    cap_block,
    compute_delta_c,
    keyed_uniforms,
    make_adversarial_params,
    perturb_rows,
    radial_density,
    rejection_cap_block,
    sample_cap,
    sample_instance,
    sample_ranges,
    stream,
    stream_indices,
    uniform_sphere,
    uniform_sphere_batch,
    uniform_sphere_block,
)
from lpcond.sic import Instance
from lpcond.sphere import SpherePoint, rotation_to


def per_row_instance(center: Instance, params, rng: RngStream) -> Instance:
    """Reference draw: one numpy generator per row stream, scalar colatitude,
    a BLAS rotation and a SpherePoint per row."""
    table = build_radial_cdf(params)
    pole = SpherePoint(np.eye(params.m + 1)[0])
    rows = []
    for i in range(center.n):
        u = np.clip(rng.with_row(i).generator().random(params.m + 1), 1e-300, None)
        theta = float(table.theta_of_u(u[0]))
        w = ndtri(u[1:])
        pt = np.concatenate([[math.cos(theta)], math.sin(theta) * w / np.linalg.norm(w)])
        pt = rotation_to(pole, SpherePoint(center.matrix[i])) @ pt
        rows.append(SpherePoint(pt / np.linalg.norm(pt)).coords)
    return Instance(np.array(rows))


def random_center(m: int, n: int, seed: int) -> Instance:
    return Instance(uniform_sphere_block(m, stream(seed, PURPOSE_CENTER).generator(), n))


class TestStreams:
    def test_pure_function_of_coordinates(self):
        a = stream(42, PURPOSE_SAMPLE, 7, 3).generator().random(8)
        b = stream(42, PURPOSE_SAMPLE, 7, 3).generator().random(8)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = stream(42, PURPOSE_SAMPLE, 7, 3).generator().random(8)
        b = stream(42, PURPOSE_SAMPLE, 7, 4).generator().random(8)
        c = stream(43, PURPOSE_SAMPLE, 7, 3).generator().random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_with_row_replaces_row_bits(self):
        s = stream(1, PURPOSE_SAMPLE, 5, 0)
        assert s.with_row(9) == stream(1, PURPOSE_SAMPLE, 5, 9)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            stream(1, PURPOSE_SAMPLE, -1)
        with pytest.raises(ValueError):
            RngStream(1, 0).with_row(1 << 20)


class TestKeyedUniforms:
    # Uniform counts of one row stream for m = 1..6, one to four 4-word blocks.
    COUNTS = sorted({c for m in range(1, 7) for c in (1, m + 1, 2 * (m + 1))})

    @staticmethod
    def numpy_philox(key: int, count: int) -> np.ndarray:
        return np.random.Generator(np.random.Philox(key=key)).random(count)

    def test_matches_numpy_philox_on_random_keys(self):
        rng = np.random.default_rng(2024)
        words = rng.integers(0, 1 << 64, size=(200, 2), dtype=np.uint64)
        for master, index in words.tolist():
            for count in self.COUNTS:
                got = keyed_uniforms(master, [index], count)[0]
                assert np.array_equal(got, self.numpy_philox((master << 64) | index, count))

    def test_extreme_key_words(self):
        extremes = [0, 1, 1 << 63, (1 << 64) - 1]
        for master in extremes:
            got = keyed_uniforms(master, extremes, 12)
            for row, index in zip(got, extremes):
                assert np.array_equal(row, self.numpy_philox((master << 64) | index, 12))

    def test_stream_indices_match_streams(self):
        idx = stream_indices(PURPOSE_WENDEL, 5, 9)
        assert idx.tolist() == [stream(0, PURPOSE_WENDEL, i).index for i in range(5, 9)]

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_sphere_batch_matches_generator(self, k):
        m, idx = 3, stream_indices(PURPOSE_WENDEL, 100, 110)
        batch = uniform_sphere_batch(m, 4, idx, k)
        for row, index in zip(batch, idx.tolist()):
            gen = RngStream(4, index).generator()
            assert np.array_equal(row, uniform_sphere_block(m, gen, k))


class TestCapBatch:
    def test_batch_size_invariance(self):
        center = random_center(2, 5, 1)
        p = make_adversarial_params(2, math.pi / 6, 0.5)
        idx = stream_indices(PURPOSE_SAMPLE, 0, 4096)
        big = cap_batch(center, p, 7, idx)
        for j in (0, 1, 2047, 4095):
            assert np.array_equal(cap_batch(center, p, 7, idx[j:j + 1])[0], big[j])
        split = [cap_batch(center, p, 7, idx[a:b]) for a, b in ((0, 37), (37, 1000), (1000, 4096))]
        assert np.array_equal(np.concatenate(split), big)

    @pytest.mark.parametrize("m,n", [(2, 5), (8, 11)])
    def test_sample_instance_replays_batch(self, m, n):
        center = random_center(m, n, 2)
        p = make_adversarial_params(m, math.pi / 6, 0.0)
        idx = stream_indices(PURPOSE_SAMPLE, 100, 612)
        mats = sic.unit_rows(cap_batch(center, p, 3, idx))
        for j in (0, 17, 511):
            inst = sample_instance(center, p, RngStream(3, int(idx[j])))
            assert np.array_equal(inst.matrix, mats[j])

    def test_sample_ranges_bound_rows(self):
        ranges = sample_ranges(10, 5000, 200)
        assert ranges[0][0] == 10 and ranges[-1][1] == 5000
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all((hi - lo) * 200 <= BLOCK_ROWS for lo, hi in ranges)
        assert sample_ranges(0, 3, BLOCK_ROWS + 1) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("m,n,beta", [(1, 3, 0.0), (2, 5, 0.5), (3, 12, 0.0)])
    def test_agrees_with_per_row_draw(self, m, n, beta):
        center = random_center(m, n, 3)
        p = make_adversarial_params(m, math.pi / 6, beta)
        idx = stream_indices(PURPOSE_SAMPLE, 0, 200)
        mats = sic.unit_rows(cap_batch(center, p, 5, idx))
        for mat, index in zip(mats, idx.tolist()):
            ref = per_row_instance(center, p, RngStream(5, index))
            assert np.max(np.abs(mat - ref.matrix)) <= 1e-15
            assert sic.sic_solve(Instance(mat)).cls is sic.sic_solve(ref).cls

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cap_batch(random_center(3, 6, 4), make_adversarial_params(2, 0.5), 1, [0])


class TestUniformSphere:
    def test_unit_norm_and_mean(self):
        gen = stream(0, PURPOSE_SAMPLE, 0).generator()
        pts = uniform_sphere_block(2, gen, 100_000)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(pts.mean(axis=0))) <= 4.0 / math.sqrt(100_000)

    def test_projection_second_moment(self):
        gen = stream(1, PURPOSE_SAMPLE, 0).generator()
        m = 3
        pts = uniform_sphere_block(m, gen, 100_000)
        u = np.zeros(m + 1)
        u[0] = 1.0
        proj2 = (pts @ u) ** 2
        se = proj2.std() / math.sqrt(proj2.size)
        assert abs(proj2.mean() - 1.0 / (m + 1)) <= 4.0 * se

    def test_scalar_wrapper(self):
        p = uniform_sphere(2, stream(2, PURPOSE_SAMPLE, 0))
        assert isinstance(p, SpherePoint)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigError):
            make_adversarial_params(2, 0.0)
        with pytest.raises(ConfigError):
            make_adversarial_params(2, math.pi)
        with pytest.raises(ConfigError):
            make_adversarial_params(2, 1.0, beta=2.0)
        with pytest.raises(ConfigError):
            make_adversarial_params(2, 1.0, beta=-0.5)

    def test_uniform_case(self):
        p = make_adversarial_params(2, math.pi / 6, 0.0)
        assert p.H == 1.0
        assert p.C_norm == pytest.approx(1.0, abs=1e-12)
        assert p.c_exponent == pytest.approx(0.5)
        assert p.sigma == pytest.approx(0.5)

    def test_beta_normalization_constant(self):
        # C = I_m(alpha) / I_{m-beta}(alpha); for m=2, beta=1:
        # I_2 = 1 - cos(alpha), I_1 = alpha.
        alpha = math.pi / 6
        p = make_adversarial_params(2, alpha, 1.0)
        assert p.C_norm == pytest.approx((1 - math.cos(alpha)) / alpha, abs=1e-10)
        assert p.c_exponent == pytest.approx(0.25)


class TestDeltaC:
    def test_printed_formula_m2(self):
        expected = (1 / math.pi) * (1.0 - (1 / math.pi) ** 0.5)
        assert compute_delta_c(2, 0.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_H(self):
        values = [compute_delta_c(2, 0.0, H) for H in (1.0, 2.0, 8.0, 64.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_vanishes_as_beta_approaches_m(self):
        values = [compute_delta_c(2, b, 1.0) for b in (0.0, 1.0, 1.9, 1.99)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-30

    def test_remark_mode(self):
        assert compute_delta_c(2, 0.0, 2.0, "beta0-remark") == pytest.approx(0.25)
        assert compute_delta_c(2, 0.0, 1.0, "beta0-remark") != compute_delta_c(2, 0.0, 1.0)
        with pytest.raises(ConfigError):
            compute_delta_c(2, 0.5, 1.0, "beta0-remark")

    def test_mode_wired_into_params(self):
        p1 = make_adversarial_params(2, 1.0, 0.0, delta_mode="lemma")
        p2 = make_adversarial_params(2, 1.0, 0.0, delta_mode="beta0-remark")
        assert p1.delta_c != p2.delta_c
        assert p2.delta_c == 1.0


class TestRadialDensity:
    def test_uniform_cap_shape(self):
        p = make_adversarial_params(2, 1.0, 0.0)
        thetas = np.array([0.2, 0.5, 0.9])
        assert np.allclose(radial_density(thetas, p), np.sin(thetas))

    def test_constant_when_exponent_zero(self):
        p = make_adversarial_params(2, 1.0, 1.0)
        vals = radial_density(np.array([0.1, 0.4, 0.8]), p)
        assert np.allclose(vals, vals[0])

    def test_zero_beyond_cap(self):
        p = make_adversarial_params(2, 0.5, 0.0)
        assert radial_density(np.array([0.6]), p)[0] == 0.0

    def test_pole_reported(self):
        p = make_adversarial_params(2, 0.5, 1.5)
        assert math.isinf(radial_density(np.array([0.0]), p)[0])


class TestRadialCdf:
    def test_uniform_half_sphere_closed_form(self):
        p = make_adversarial_params(2, math.pi / 2, 0.0)
        table = build_radial_cdf(p)
        u = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(table.theta_of_u(u) - np.arccos(1 - u))) <= 1e-6

    def test_endpoints(self):
        p = make_adversarial_params(2, 0.7, 0.5)
        table = build_radial_cdf(p)
        assert table.theta_of_u(0.0) == pytest.approx(0.0, abs=1e-12)
        assert table.theta_of_u(1.0) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.7])
    def test_midpoints_against_quadrature(self, beta):
        # Independent oracle: adaptive quadrature of the raw colatitude
        # density on [0, theta], with the pole split off analytically.
        alpha, m = math.pi / 6, 2
        p = make_adversarial_params(m, alpha, beta)
        table = build_radial_cdf(p)

        def mass(theta):
            expo = m - 1 - beta
            val, _ = quad(lambda t: math.sin(t) ** expo, 0.0, theta,
                          epsabs=1e-13, limit=200, points=[0.0])
            return val

        total = mass(alpha)
        for theta in np.linspace(0.05, alpha - 0.02, 7):
            assert table.cdf_of_theta(theta) == pytest.approx(
                mass(theta) / total, abs=1e-6
            )


class TestCapSampling:
    def test_support_and_determinism(self):
        p = make_adversarial_params(2, math.pi / 6, 0.5)
        abar = SpherePoint([0.0, 0.6, 0.8])
        s = stream(3, PURPOSE_SAMPLE, 1, 0)
        x1 = sample_cap(abar, p, s)
        x2 = sample_cap(abar, p, s)
        assert np.array_equal(x1.coords, x2.coords)
        assert math.acos(np.clip(x1.coords @ abar.coords, -1, 1)) <= math.pi / 6 + 1e-10

    def test_block_support(self):
        p = make_adversarial_params(2, math.pi / 4, 0.0)
        abar = np.array([0.0, 0.0, 1.0])
        pts = cap_block(abar, p, stream(4, PURPOSE_SAMPLE, 0).generator(), 5000)
        ang = np.arccos(np.clip(pts @ abar, -1, 1))
        assert np.max(ang) <= math.pi / 4 + 1e-10

    def test_hemisphere_support(self):
        p = make_adversarial_params(2, math.pi / 2, 0.0)
        abar = np.array([1.0, 0.0, 0.0])
        pts = cap_block(abar, p, stream(5, PURPOSE_SAMPLE, 0).generator(), 5000)
        assert np.min(pts @ abar) >= -1e-12

    def test_instance_determinism_and_support(self):
        center = Instance(uniform_sphere_block(2, stream(6, 2).generator(), 5))
        p = make_adversarial_params(2, math.pi / 6, 0.0)
        i1 = sample_instance(center, p, stream(7, PURPOSE_SAMPLE, 11))
        i2 = sample_instance(center, p, stream(7, PURPOSE_SAMPLE, 11))
        assert np.array_equal(i1.matrix, i2.matrix)
        disp = np.arccos(np.clip(np.sum(i1.matrix * center.matrix, axis=1), -1, 1))
        assert np.max(disp) <= math.pi / 6 + 1e-10

    def test_rows_uncorrelated(self):
        center = Instance(uniform_sphere_block(2, stream(8, 2).generator(), 5))
        p = make_adversarial_params(2, math.pi / 6, 0.0)
        u = np.array([1.0, 0.0, 0.0])
        vals = np.empty((2000, 2))
        for i in range(2000):
            inst = sample_instance(center, p, stream(9, PURPOSE_SAMPLE, i))
            vals[i] = inst.matrix[:2] @ u
        corr = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(2000)


class TestHTable:
    def test_file_parsing(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# r h\n0.0 1.0\n0.25 1.5\n0.5 2.0\n")
        table = HTable.from_file(path)
        assert table(0.125) == pytest.approx(1.25)

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 9\n")
        with pytest.raises(ValueError):
            HTable.from_file(path)
        path.write_text("0.5 1.0\n0.2 1.0\n")
        with pytest.raises(ValueError):
            HTable.from_file(path)
        path.write_text("0.0 0.0\n0.5 1.0\n")
        with pytest.raises(ValueError):
            HTable.from_file(path)

    def test_normalization_identity(self):
        alpha, m, beta = math.pi / 6, 2, 0.5
        raw = HTable((0.0, 0.25, 0.5), (1.0, 2.0, 1.0))
        p = make_adversarial_params(m, alpha, beta, h_table=raw)
        assert p.H >= 1.0
        # After rescaling, the colatitude mass must equal I_{m-beta}(alpha).
        lhs, _ = quad(
            lambda t: math.sin(t) ** (m - beta - 1.0) * float(p.h(math.sin(t))),
            0.0, alpha, epsabs=1e-12, limit=200, points=[0.0],
        )
        rhs, _ = quad(lambda t: math.sin(t) ** (m - beta - 1.0), 0.0, alpha,
                      epsabs=1e-12, limit=200, points=[0.0])
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestRejectionOracle:
    def test_two_sample_ks_uniform_cap(self):
        from lpcond.harness import ks_two_sample, ks_two_sample_threshold

        m, alpha, N = 2, math.pi / 6, 20_000
        p = make_adversarial_params(m, alpha, 0.0)
        abar = np.array([0.0, 0.0, 1.0])
        mine = cap_block(abar, p, stream(10, PURPOSE_SAMPLE, 0).generator(), N)
        other = rejection_cap_block(abar, alpha, m, stream(11, PURPOSE_SAMPLE, 0).generator(), N)
        d = ks_two_sample(
            np.arccos(np.clip(mine @ abar, -1, 1)),
            np.arccos(np.clip(other @ abar, -1, 1)),
        )
        assert d <= ks_two_sample_threshold(N, N)


class TestPerturb:
    def test_exact_angle(self):
        rng = np.random.default_rng(0)
        mat = uniform_sphere_block(2, stream(12, PURPOSE_SAMPLE, 0).generator(), 6)
        out = perturb_rows(mat, 0.05, stream(13, PURPOSE_SAMPLE, 0).generator())
        ang = np.arccos(np.clip(np.sum(mat * out, axis=1), -1, 1))
        assert np.max(np.abs(ang - 0.05)) <= 1e-9
