import json
import math
import os
import threading
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from scipy.integrate import quad

from lpcond import cli, harness, samplers, sic
from lpcond.errors import ConfigError, ConvergenceError
from lpcond.harness import (
    CHUNK,
    CSV_HEADER,
    ExperimentConfig,
    bound_Emain,
    bound_F,
    bound_I,
    default_t_grid,
    ks_statistic,
    ks_threshold,
    ks_two_sample,
    persist,
    pkm_partial_sum,
    run_expectation_experiment,
    run_property_suite,
    run_sampler_check,
    run_tail_experiment,
    run_tube_experiment,
    run_wendel_experiment,
    threshold_F,
    wendel_p,
    wendel_p_exact,
)
from lpcond.lp import FeasibilityClass
from lpcond.samplers import RngStream, make_adversarial_params, sample_instance
from lpcond.sphere import clipped_arccos
from oracles import (
    af_check_per_instance,
    cond_per_value,
    feasible_fraction_per_k,
    first_reflected_point,
    gordan_classify,
    if_check_per_instance,
    ln_cond_per_value,
    sconv_distance_scipy,
    tube_counts_by_cap_distances,
    wendel_p_pascal,
)


PARAMS = make_adversarial_params(2, math.pi / 6, 0.0)

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["config", "counts", "tail_table", "expectation",
                 "wendel_table", "tube_table", "property_suite"],
    "properties": {
        "config": {"type": "object"},
        "counts": {"type": ["object", "null"]},
        "tail_table": {"type": ["array", "null"]},
        "expectation": {"type": ["object", "null"]},
        "wendel_table": {"type": ["array", "null"]},
        "tube_table": {"type": ["array", "null"]},
        "property_suite": {"type": ["object", "null"]},
    },
}


class TestBounds:
    def test_feasible_bound_printed_value(self):
        # n (13 m (m+1) / (2 sigma))^c t^-c at m=2, n=5, sigma=1/2, t=7800
        assert bound_F(7800.0, PARAMS, 5) == pytest.approx(0.5, abs=1e-12)

    def test_feasible_bound_vanishes_at_infinity(self):
        assert bound_F(1e30, PARAMS, 5) < 1e-10

    def test_sigma_scaling(self):
        # Doubling sigma scales the bound by 2^-c.
        p2 = make_adversarial_params(2, math.pi / 2, 0.0)  # sigma = 1
        ratio = bound_F(1e4, p2, 5) / bound_F(1e4, PARAMS, 5)
        assert ratio == pytest.approx(2.0 ** (-PARAMS.c_exponent), abs=1e-12)

    def test_infeasible_bound_at_t_one(self):
        m, n, c = 2, 5, 0.5
        lead = n * (1690 * m * m * (m + 1) / (4 * PARAMS.sigma**2)) ** c
        assert bound_I(1.0, PARAMS, n) == pytest.approx(
            lead * PARAMS.delta_c ** (-c), rel=1e-12
        )

    def test_infeasible_bound_eventually_decreasing(self):
        ts = np.geomspace(math.exp(1 / PARAMS.c_exponent), 1e9, 60)
        vals = [bound_I(t, PARAMS, 5) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_expectation_bound_terms(self):
        val, informational = bound_Emain(PARAMS, 5)
        expect = 12 * math.log(5) + 17 * math.log(2) + 6 * math.log(2) + 29
        assert val == pytest.approx(expect, abs=1e-12)
        assert informational is False
        p1 = make_adversarial_params(2, math.pi / 2, 0.0)  # sigma term vanishes
        assert bound_Emain(p1, 5)[0] == pytest.approx(
            12 * math.log(5) + 17 * math.log(2) + 29, abs=1e-12
        )

    def test_beta_positive_is_informational(self):
        p = make_adversarial_params(2, math.pi / 6, 1.0)
        assert bound_Emain(p, 5)[1] is True

    def test_threshold_and_default_grid(self):
        lo = threshold_F(PARAMS)
        assert lo == pytest.approx(13 * 2 * 3 / (2 * 0.5 * PARAMS.delta_c), rel=1e-12)
        grid = default_t_grid(PARAMS)
        assert len(grid) == 12
        assert grid[0] == pytest.approx(lo)
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestWendelFormulas:
    @pytest.mark.parametrize("k,m,expect", [
        (4, 2, Fraction(7, 8)),
        (6, 2, Fraction(1, 2)),
        (8, 2, Fraction(29, 128)),
    ])
    def test_exact_values(self, k, m, expect):
        assert wendel_p_exact(k, m) == expect

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_always_feasible_at_m_plus_one(self, m):
        assert wendel_p_exact(m + 1, m) == 1

    def test_pascal_path_identical(self):
        for k in range(2, 65):
            for m in (1, 2, 3, 5):
                if k > m:
                    assert wendel_p_exact(k, m) == wendel_p_pascal(k, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_partial_sum_is_the_fraction_loop(self, m):
        k_max = 4 * m + 60
        total = Fraction(0)
        for k in range(4 * m + 1, k_max + 1):
            total += k * wendel_p_exact(k, m)
        assert pkm_partial_sum(m, k_max) == total

    def test_partial_sums_decay_in_m(self):
        vals = [pkm_partial_sum(m, 4 * m + 60) for m in range(1, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            wendel_p(2, 2)


@pytest.fixture(scope="module")
def tail_run():
    cfg = ExperimentConfig(kind="tail", m=2, n=5, N=2500, master_seed=101)
    return cfg, *run_tail_experiment(cfg)


@pytest.fixture(scope="module")
def suite():
    cfg = ExperimentConfig(kind="property-suite", m=2, n=5, N=1500,
                           master_seed=23)
    return run_property_suite(cfg)[1]["property_suite"]


class TestDrawConditionRecords:
    @staticmethod
    def draw(m, n, N):
        cfg = ExperimentConfig(kind="tail", m=m, n=n, N=N, master_seed=7)
        params = harness.params_from_config(cfg)
        center = harness.resolve_center(cfg, params)
        return cfg, params, center, harness.draw_condition_records(cfg, params, center)

    @staticmethod
    def counts(rho):
        return harness._counts(*sic.cond_columns(rho))

    def test_typed_solver_error_counts_as_failed(self, monkeypatch):
        # With _POLISH_DIST at 2 the stack scan routes every sample and no
        # NNLS cap counts as precise, so each sample outside its hull, sample
        # 2 among them, takes `_refine`, which fails on sample 2's rows
        # alone.  (Samples the facet scan puts inside skip it where their
        # caps cover.)
        monkeypatch.setattr(sic, "_POLISH_DIST", 2.0)
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=1000, master_seed=7)
        params = harness.params_from_config(cfg)
        [(_, sample_2)] = harness.sample_blocks(
            cfg, params, harness.resolve_center(cfg, params), 2, 3)
        solve = sic._refine
        calls = []

        def failing_on_sample_2(mat, *solved):
            if np.array_equal(mat, sample_2[0]):
                calls.append(mat)
                raise ConvergenceError("simulated solver failure")
            return solve(mat, *solved)

        monkeypatch.setattr(sic, "_refine", failing_on_sample_2)
        _, _, _, (_, rho) = self.draw(2, 5, 1000)
        assert len(calls) == 1
        counts = self.counts(rho)
        assert counts["failed"] == 1
        assert math.isnan(rho[2]) and sic.cond_columns(rho)[0][2] == ""
        assert counts["sf"] + counts["ip"] + counts["if"] == 999

    def test_untyped_error_propagates(self, monkeypatch):
        def buggy(mat, *solved):
            raise ZeroDivisionError("simulated bug")

        monkeypatch.setattr(sic, "_POLISH_DIST", 2.0)
        monkeypatch.setattr(sic, "_refine", buggy)
        with pytest.raises(ZeroDivisionError):
            self.draw(2, 5, 3)

    def test_many_rows_give_cap_certificates(self):
        # m=2, n=200: an enumeration would build 1.3M support subsets.
        cfg, params, center, (seeds, rhos) = self.draw(2, 200, 2)
        assert self.counts(rhos)["failed"] == 0
        for seed, rec_rho in zip(seeds.tolist(), rhos.tolist()):
            inst = sample_instance(center, params, RngStream(cfg.master_seed, seed))
            rho, cap_center, _ = sic.sic_rho(inst.matrix)
            assert rho == rec_rho
            angles = np.arccos(np.clip(inst.matrix @ cap_center, -1.0, 1.0))
            assert np.max(angles) <= rec_rho + 1e-9

    def test_outputs_identical_for_one_and_two_workers(self, tmp_path):
        # N = 8200 spans three fixed chunks; --workers is accepted and ignored.
        blobs = []
        for workers in (1, 2):
            out = os.fspath(tmp_path / f"w{workers}")
            assert cli.main(["exp-tail", "--m", "2", "--n", "5", "--N", "8200",
                             "--seed", "12", "--workers", str(workers), "--out", out]) == 0
            blobs.append([open(os.path.join(out, name), "rb").read()
                          for name in ("records.csv", "summary.json")])
        assert blobs[0] == blobs[1]

    def test_chunks_run_serially_in_order(self):
        calls = []

        def fn(lo, hi):
            calls.append((threading.get_ident(), lo, hi))
            return lo

        total = 2 * harness.CHUNK + 5
        assert harness._run_chunks(total, 2, fn) == [0, harness.CHUNK, 2 * harness.CHUNK]
        me = threading.get_ident()
        assert calls == [(me, 0, harness.CHUNK), (me, harness.CHUNK, 2 * harness.CHUNK),
                         (me, 2 * harness.CHUNK, total)]


class TestTail:
    def test_class_frequencies_sum_to_one(self, tail_run):
        _, records, summary = tail_run
        counts = summary["counts"]
        assert counts["sf"] + counts["ip"] + counts["if"] + counts["failed"] == 2500

    def test_tail_nonincreasing(self, tail_run):
        _, _, summary = tail_run
        emps = [row["emp_F"] for row in summary["tail_table"]]
        assert all(a >= b for a, b in zip(emps, emps[1:]))

    def test_probabilities_and_se(self, tail_run):
        _, _, summary = tail_run
        for row in summary["tail_table"]:
            for key in ("emp_F", "emp_I"):
                assert 0.0 <= row[key] <= 1.0
            assert row["se_F"] == pytest.approx(
                math.sqrt(row["emp_F"] * (1 - row["emp_F"]) / 2500), abs=1e-12
            )

    def test_grid_covers_threshold(self, tail_run):
        _, _, summary = tail_run
        assert all(row["covered"] for row in summary["tail_table"])
        assert summary["tail_table"][0]["t"] == pytest.approx(
            threshold_F(PARAMS), rel=1e-9
        )

    def test_records_consistent(self, tail_run):
        _, (_, rho, *_), _ = tail_run
        _, conds = sic.cond_columns(rho[:200])
        for r, cond in zip(rho[:200].tolist(), conds.tolist()):
            if math.isfinite(cond):
                assert cond == pytest.approx(1 / abs(math.cos(r)), rel=1e-9)

    def test_grid_validation(self):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=50, master_seed=1,
                               t_grid=(5.0, 4.0))
        with pytest.raises(ConfigError):
            run_tail_experiment(cfg)


class TestExpectation:
    def test_small_run_passes(self):
        cfg = ExperimentConfig(kind="expectation", m=2, n=5, N=1500, master_seed=7)
        _, summary = run_expectation_experiment(cfg)
        e = summary["expectation"]
        assert e["status"] == "pass"
        assert e["mean"] + 3 * e["se"] <= e["bound"]

    def test_single_sample_insufficient(self):
        cfg = ExperimentConfig(kind="expectation", m=2, n=5, N=1, master_seed=7)
        _, summary = run_expectation_experiment(cfg)
        assert summary["expectation"]["status"] == "insufficient-precision"
        assert summary["expectation"]["pass"] is None

    def test_beta_positive_informational(self):
        cfg = ExperimentConfig(kind="expectation", m=2, n=5, beta=1.0, N=300,
                               master_seed=7)
        _, summary = run_expectation_experiment(cfg)
        assert summary["expectation"]["status"] == "informational"


class TestWendelExperiment:
    def test_small_run(self):
        cfg = ExperimentConfig(kind="wendel", m=2, N=4000, master_seed=5,
                               k_values=(4, 6))
        _, summary = run_wendel_experiment(cfg)
        for row in summary["wendel_table"]:
            assert row["pass"]
        assert summary["pkm_decay"][0]["m"] == 1

    def test_k_validation(self):
        cfg = ExperimentConfig(kind="wendel", m=2, N=10, k_values=(2,))
        with pytest.raises(ConfigError):
            run_wendel_experiment(cfg)

    @pytest.mark.parametrize("m, ks, N, block_rows", [
        (3, (9, 5, 7), 500, samplers.BLOCK_ROWS),
        (2, cli.parse_k_values("4:10"), harness.CHUNK + 300, 640),
    ])
    def test_one_draw_is_the_per_k_draw(self, monkeypatch, m, ks, N, block_rows):
        # Unsorted ks, and a lo:hi range over two chunks of many blocks.
        monkeypatch.setattr(samplers, "BLOCK_ROWS", block_rows)
        indices = samplers.stream_indices(samplers.PURPOSE_WENDEL, 0, 64)
        rows = samplers.uniform_sphere_batch(m, 9, indices, max(ks))
        for k in ks:
            assert np.array_equal(rows[:, :k], samplers.uniform_sphere_batch(m, 9, indices, k))
        expect = [feasible_fraction_per_k(m, k, N, 9) for k in ks]
        assert harness.feasible_fractions(m, ks, N, 9) == expect

    def test_one_draw_per_block(self, monkeypatch):
        monkeypatch.setattr(samplers, "BLOCK_ROWS", 640)
        draw, shapes = samplers.uniform_sphere_batch, []

        def counted(m, master, indices, count, start=0):
            shapes.append((len(indices), count))
            return draw(m, master, indices, count, start)

        monkeypatch.setattr(samplers, "uniform_sphere_batch", counted)
        N, chunk = harness.CHUNK + 300, harness.CHUNK
        harness.feasible_fractions(2, (6, 10, 4), N, 3)
        blocks = [block for lo in range(0, N, chunk)
                  for block in samplers.sample_ranges(lo, min(lo + chunk, N), 10)]
        assert shapes == [(stop - start, 10) for start, stop in blocks]
        assert max(samples * count for samples, count in shapes) <= 640

    def test_nnls_feasibility_matches_gordan(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 4):
            mats = rng.standard_normal((200, m + 3, m + 1))
            mats /= np.linalg.norm(mats, axis=2, keepdims=True)
            fast = sic.stack_feasible(mats)
            slow = np.array([
                gordan_classify(mats[i]) is not FeasibilityClass.INFEASIBLE
                for i in range(200)
            ])
            assert np.array_equal(fast, slow)


class TestCondColumns:
    def test_columns_are_the_per_value_loops(self):
        # numpy's forward-stride cos and log differ from the C library's in
        # the last bit on a few inputs in a thousand; the columns must not.
        rng = np.random.default_rng(17)
        half_pi, band = math.pi / 2, sic.ILL_POSED_BAND
        edges = half_pi + np.array([-band, band])
        rho = np.concatenate([
            rng.uniform(0.0, math.pi, 600_000),
            half_pi + rng.uniform(-1e-3, 1e-3, 300_000),
            half_pi + rng.uniform(-3 * band, 3 * band, 100_000),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 4.0),
            [0.0, half_pi, math.pi, math.nan, math.nan],
        ])
        rng.shuffle(rho)
        _, cond = sic.cond_columns(rho)
        assert np.array_equal(cond.view(np.uint64), cond_per_value(rho).view(np.uint64))
        assert np.isinf(cond).sum() > 30_000 and np.isnan(cond).sum() == 2
        cond = np.concatenate([cond, np.geomspace(1.0, 1e20, 10_000),
                               np.nextafter(sic.COND_OVERFLOW, [0.0, math.inf]),
                               [sic.COND_OVERFLOW, math.inf, math.nan]])
        ln = sic.ln_cond(cond)
        assert np.array_equal(ln.view(np.uint64), ln_cond_per_value(cond).view(np.uint64))
        assert np.isnan(ln[cond > sic.COND_OVERFLOW]).all()


class TestTube:
    def test_disjoint_configuration_empty(self):
        # Ball far inside K: the neighborhood misses it entirely.
        cfg = ExperimentConfig(kind="tube", m=2, alpha=0.1, phi=0.02,
                               cap_radius=1.2, placement_offset=0.0,
                               N=4000, master_seed=3)
        _, summary = run_tube_experiment(cfg)
        row = summary["tube_table"][0]
        assert row["est_outer"] == 0.0
        assert row["est_inner"] == 0.0

    def test_bound_holds_on_boundary_placement(self):
        cfg = ExperimentConfig(kind="tube", m=2, alpha=math.pi / 6,
                               phi=math.asin(0.5 / 8), cap_radius=math.pi / 4,
                               placement_offset=math.pi / 4, N=20000, master_seed=3)
        _, summary = run_tube_experiment(cfg)
        row = summary["tube_table"][0]
        assert row["pass_outer"] and row["pass_inner"]
        assert row["est_outer"] > 0  # the configuration is non-trivial

    def test_epsilon_hypothesis_enforced(self):
        cfg = ExperimentConfig(kind="tube", m=2, alpha=math.pi / 6, phi=0.8,
                               cap_radius=math.pi / 4, N=100, master_seed=3)
        with pytest.raises(ConfigError):
            run_tube_experiment(cfg)

    def test_cap_must_be_properly_convex(self):
        cfg = ExperimentConfig(kind="tube", m=2, alpha=math.pi / 6, phi=0.05,
                               cap_radius=math.pi / 2, N=100, master_seed=3)
        with pytest.raises(ConfigError):
            run_tube_experiment(cfg)

    @pytest.mark.parametrize("m, alpha, phi, cap_radius, offset, seed", [
        (2, math.pi / 6, 0.01, 0.5, 0.0, 0),
        (2, math.pi / 6, 0.0627, math.pi / 4, math.pi / 4, 1),
        (1, math.pi / 6, 0.2, 0.7, 0.3, 2),
        (3, math.pi / 4, 0.05, 1.0, 0.5, 3),
    ])
    def test_signed_angle_counts_are_the_cap_distance_counts(
            self, m, alpha, phi, cap_radius, offset, seed):
        # Two chunks, the second partial.
        cfg = ExperimentConfig(kind="tube", m=m, alpha=alpha, phi=phi, cap_radius=cap_radius,
                               placement_offset=offset, N=CHUNK + 1000, master_seed=seed)
        outer, inner = tube_counts_by_cap_distances(cfg)
        row = run_tube_experiment(cfg)[1]["tube_table"][0]
        assert (row["est_outer"], row["est_inner"]) == (outer / cfg.N, inner / cfg.N)
        assert outer > 0 and inner > 0

    def test_signed_angle_counts_at_the_rim_and_its_neighborhood_edges(self, monkeypatch):
        # Points whose dot products with K's center run over the 41 floats
        # around cos r and cos(r -+ phi), and their antipodes, so that the
        # random sign leaves each chain once as it is.  r and phi are
        # chosen so that the signed angle d hits 0, phi and -phi exactly.
        r = float(clipped_arccos(math.cos(0.5)))
        phi = (r + 0.01) - r
        dots = []
        for c in (math.cos(r), math.cos(r - phi), math.cos(r + phi)):
            up = down = c
            dots.append(c)
            for _ in range(20):
                up, down = np.nextafter(up, 2.0), np.nextafter(down, -2.0)
                dots += [up, down]
        dots = np.array(dots + [-c for c in dots])
        d = clipped_arccos(dots) - r
        assert {0.0, phi, -phi} <= set(d.tolist())
        placed = np.stack([dots, np.sqrt(1.0 - dots**2), np.zeros_like(dots)], axis=1)

        def cap_block(center_vec, params, gen, count):
            return np.resize(placed, (count, 3))

        monkeypatch.setattr(samplers, "cap_block", cap_block)
        cfg = ExperimentConfig(kind="tube", m=2, phi=phi, cap_radius=r, N=2460, master_seed=4)
        outer, inner = tube_counts_by_cap_distances(cfg)
        row = run_tube_experiment(cfg)[1]["tube_table"][0]
        assert (row["est_outer"], row["est_inner"]) == (outer / cfg.N, inner / cfg.N)
        assert outer > 0 and inner > 0

class TestPropertySuite:
    def test_all_checks_pass(self, suite):
        for check in suite.values():
            assert check["status"] == "pass"
            assert check["violations"] == 0

    def test_qualifying_counts(self, suite):
        for check in suite.values():
            assert check["qualifying"] >= 20


def great_circle_pool(count, m=2, n=5, seed=0):
    """Strictly feasible instances whose rows lie on one great circle (an
    arc of S^1 inside S^m), so every cone(-A) is flat."""
    angles = np.random.default_rng(seed).uniform(0.0, 1.5, (count, n))
    mats = np.zeros((count, n, m + 1))
    mats[..., 0], mats[..., 1] = np.cos(angles), np.sin(angles)
    return mats


class TestInfeasibleTransition:
    @pytest.mark.parametrize("m, n, seeds", [(1, 3, range(8)), (2, 5, range(2))])
    def test_stack_check_is_the_per_instance_check(self, m, n, seeds):
        for seed in seeds:
            cfg = ExperimentConfig(kind="property-suite", m=m, n=n, master_seed=seed)
            assert harness._if_check(cfg) == if_check_per_instance(cfg)

    def test_a_block_finds_each_instance_s_own_point(self):
        # One flat instance in a stack changes nothing for the others.
        mats = harness._uniform_instances(3, 2, 2, 5, 40)
        _, labels, _ = harness._pool_columns(sic.unit_rows(mats))
        sf = np.flatnonzero(labels == "SF")[:6]
        stack = np.concatenate([mats[sf], great_circle_pool(1)])
        b, d_bd = harness._reflected_points(3, stack, np.append(sf, 39))
        assert np.isnan(b[-1]).all() and np.isnan(d_bd[-1])
        for j, i in enumerate(sf.tolist()):
            one_b, one_d = harness._reflected_points(3, mats[[i]], np.array([i]))
            assert np.array_equal(one_b[0], b[j]) and one_d[0] == d_bd[j]

    def test_flat_cones_are_skipped_without_drawing(self, monkeypatch):
        # Every proposal is drawn through samplers.keyed_uniforms.
        pool = great_circle_pool(harness._IF_POOL)
        draws = []
        monkeypatch.setattr(harness, "_uniform_instances", lambda *args: pool)
        monkeypatch.setattr(harness.samplers, "keyed_uniforms",
                            lambda *args: draws.append(args))
        cfg = ExperimentConfig(kind="property-suite", m=2, n=5, master_seed=0)
        _, labels, _ = harness._pool_columns(sic.unit_rows(pool))
        assert (labels == "SF").all()
        assert harness._if_check(cfg) == {
            "check": "infeasible-transition", "qualifying": 0, "violations": 0,
            "skipped": harness._IF_POOL, "status": "inconclusive"}
        assert draws == []

    def test_points_are_each_stream_s_first_member(self):
        # Pool instances mostly hit among a round's first 16 proposals,
        # some in its rest; rows within a few 1e-3 rad of each other leave
        # cone(-A) a thin arc, hit rounds later.
        mats = harness._uniform_instances(3, 2, 1, 3, harness._IF_POOL)
        _, labels, _ = harness._pool_columns(sic.unit_rows(mats))
        spread = np.linspace(1e-3, 5e-3, 24)[:, None] * np.array([-1.0, 0.0, 1.0])
        thin = np.stack([np.cos(spread), np.sin(spread)], axis=2)
        stack = np.concatenate([mats[labels == "SF"], thin])
        indices = np.append(np.flatnonzero(labels == "SF"), np.arange(24) + harness._IF_POOL)
        b, _ = harness._reflected_points(3, stack, indices)
        where = []
        for j, i in enumerate(indices.tolist()):
            one_b, at = first_reflected_point(3, i, stack[j])
            assert np.array_equal(b[j], one_b)
            where.append(at)
        # Hits on both sides of the prefix's end, and in later rounds.
        assert {15, 16, 17}.issubset(where)
        assert any(512 <= at < 1024 for at in where) and max(where) >= 1024

    def test_slices_give_the_points_of_separate_calls(self, monkeypatch):
        # With 1024 rows per array a round's rest holds two instances, so
        # a block of seven is drawn in slices.
        mats = harness._uniform_instances(4, 2, 2, 5, 40)
        _, labels, _ = harness._pool_columns(sic.unit_rows(mats))
        sf = np.flatnonzero(labels == "SF")[:7]
        whole = harness._reflected_points(4, mats[sf], sf)
        monkeypatch.setattr(harness.samplers, "BLOCK_ROWS", 1024)
        sliced = harness._reflected_points(4, mats[sf], sf)
        for j, i in enumerate(sf.tolist()):
            one_b, one_d = harness._reflected_points(4, mats[[i]], np.array([i]))
            assert np.array_equal(one_b[0], whole[0][j]) and one_d[0] == whole[1][j]
            assert np.array_equal(one_b[0], sliced[0][j]) and one_d[0] == sliced[1][j]


class TestFeasibleWitness:
    @pytest.mark.parametrize("m, n, seeds", [(1, 3, range(8)), (2, 5, [0]), (3, 7, [0])])
    def test_stack_check_is_the_per_row_check(self, m, n, seeds):
        for seed in seeds:
            cfg = ExperimentConfig(kind="property-suite", m=m, n=n, master_seed=seed)
            assert harness._af_check(cfg) == af_check_per_instance(cfg)

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 5)])
    def test_distances_are_the_scipy_projection(self, m, n):
        units = sic.unit_rows(harness._uniform_instances(2, 1, m, n, 30))
        d = harness._witness_distances(units)
        for unit_rows, row_d in zip(units, d):
            for j in range(n):
                others = -np.delete(unit_rows, j, axis=0)
                assert abs(row_d[j] - sconv_distance_scipy(unit_rows[j], others)) <= 1e-12

    def test_a_witness_in_any_row_counts(self, monkeypatch):
        # Only the last row of each instance lies in (MEMBER_TOL, phi].
        def last_row_only(units):
            d = np.full(units.shape[:2], 1.0)
            d[:, -1] = 0.1
            return d
        monkeypatch.setattr(harness, "_witness_distances", last_row_only)
        cfg = ExperimentConfig(kind="property-suite", m=1, n=3, master_seed=0)
        assert harness._af_check(cfg)["violations"] == 0

    def test_a_pool_without_qualifying_instances_is_inconclusive(self, monkeypatch):
        # Rows within 0.2 rad of each other: strictly feasible, C(A) near 1.
        angles = np.array([0.0, 0.1, 0.2])
        pool = np.tile(np.stack([np.cos(angles), np.sin(angles)], axis=1), (harness._AF_POOL, 1, 1))
        monkeypatch.setattr(harness, "_uniform_instances", lambda *args: pool)
        cfg = ExperimentConfig(kind="property-suite", m=1, n=3, master_seed=0)
        out = harness._af_check(cfg)
        assert out == af_check_per_instance(cfg)
        assert (out["qualifying"], out["violations"], out["status"]) == (0, 0, "inconclusive")

    @pytest.mark.parametrize("rows, slices", [(64, 4), (2, 120)])
    def test_slices_give_the_distances_of_one_stack(self, monkeypatch, rows, slices):
        # At n = 3 a (row, other rows) pair has two generator rows: 64 rows
        # per array cut the 120 pairs of 40 instances into four slices, and
        # 2 rows into one call per pair.
        units = sic.unit_rows(harness._uniform_instances(1, 1, 1, 3, 40))
        whole = harness._witness_distances(units)
        monkeypatch.setattr(harness.samplers, "BLOCK_ROWS", rows)
        assert len(harness.samplers.sample_ranges(0, 120, 2)) == slices
        assert np.array_equal(harness._witness_distances(units), whole)


class TestProductTail:
    def test_counts_are_the_mean_of_each_comparison(self):
        # The same draws as the check, counted one grid point at a time.
        cfg = ExperimentConfig(kind="property-suite", m=1, n=3, master_seed=5)
        gen = harness._prop_stream(5, 5, 0).generator()
        w = np.clip(gen.random((2, harness._MULTRVA_N)), 1e-300, None)
        prod = (4.0 * w[0] ** -2.0) * (9.0 * w[1] ** -2.0)
        grid = harness._multrva_check(cfg)["grid"]
        assert [row["p_hat"] for row in grid] == [float(np.mean(prod >= row["x"])) for row in grid]


class TestPrefixMonotonicity:
    def test_roundoff_in_rho_is_no_violation(self, suite, monkeypatch):
        # Master seed 23, pool sample 290: the first infeasible prefix and
        # the full instance share one cap; through Qhull, which solves
        # instances past both scans, their rho differ by roundoff, which
        # moves C ~ 1.2e3 by about 3e-10.
        monkeypatch.setattr(sic, "_SCAN_SUBSETS", 0)
        monkeypatch.setattr(sic, "_FACET_SUBSETS", 0)
        m, n = 2, 8
        units = sic.unit_rows(harness._uniform_instances(23, 4, m, n, 291)[290])
        prefix, full = sic.sic_rho(sic.unit_rows(units[:m + 2]))[0], sic.sic_rho(units)[0]
        assert sic.classify_rho(prefix) is sic.classify_rho(full) is FeasibilityClass.INFEASIBLE
        assert abs(prefix - full) <= 1e-15
        assert abs(sic.cond_from_rho(prefix) - sic.cond_from_rho(full)) > 1e-10
        assert suite["ccine"]["violations"] == 0


class TestSamplerCheck:
    def test_beta_zero_with_rejection(self):
        cfg = ExperimentConfig(kind="sampler-check", m=2, N=20000, master_seed=9)
        _, summary = run_sampler_check(cfg)
        row = summary["sampler_table"][0]
        assert row["pass_radial"] and row["pass_direction"]
        assert row["pass_rejection"] and row["support_ok"]


    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_radial_oracle_is_the_cumulative_quadrature(self, beta):
        # The laws of the sampler acceptance check: m = 2, alpha = pi/6.
        m, alpha = 2, math.pi / 6
        params = make_adversarial_params(m, alpha, beta)
        edges = np.linspace(0.0, alpha, 65)
        cells = [quad(lambda t: math.sin(t) ** (m - 1 - beta), lo, hi, epsabs=0.0,
                      epsrel=2e-14, limit=200)[0] for lo, hi in zip(edges, edges[1:])]
        cdf = np.concatenate([[0.0], np.cumsum(cells)]) / sum(cells)
        assert np.max(np.abs(harness.oracle_radial_cdf(params, edges) - cdf)) <= 1e-12


class TestKsUtilities:
    def test_ks_statistic_uniform_self(self):
        u = np.sort(np.random.default_rng(0).random(5000))
        assert ks_statistic(u, u) <= ks_threshold(5000)

    def test_ks_detects_mismatch(self):
        rng = np.random.default_rng(1)
        squared = np.sort(rng.random(5000) ** 2)
        # Uniform model CDF evaluated at a non-uniform sample: must reject.
        assert ks_statistic(squared, squared) > ks_threshold(5000)

    def test_two_sample_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(1000), rng.random(1500)
        assert ks_two_sample(a, b) == pytest.approx(ks_two_sample(b, a), abs=1e-15)


class TestPersistence:
    def test_replay_bytes_and_schema(self, tmp_path):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=300, master_seed=55)
        records, summary = run_tail_experiment(cfg)
        p1 = persist(records, summary, cfg, os.fspath(tmp_path / "a"))
        records2, summary2 = run_tail_experiment(cfg)
        p2 = persist(records2, summary2, cfg, os.fspath(tmp_path / "b"))
        assert open(p1[0], "rb").read() == open(p2[0], "rb").read()
        assert open(p1[1], "rb").read() == open(p2[1], "rb").read()
        data = json.loads(open(p1[1]).read())
        jsonschema.validate(data, SUMMARY_SCHEMA)

    def test_csv_header_and_missing_fields(self, tmp_path):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=200, master_seed=56)
        records, summary = run_tail_experiment(cfg)
        csv_path, _ = persist(records, summary, cfg, os.fspath(tmp_path))
        lines = open(csv_path).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 201
        for line in lines[1:]:
            assert len(line.split(",")) == 8

    def test_chunked_csv_is_the_one_chunk_bytes(self, tmp_path, monkeypatch):
        # records.csv is written _CSV_ROWS rows at a time; a chunk size that
        # splits the rows, with failed and ill-posed samples among them,
        # writes the bytes of a single chunk.
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=300, master_seed=57)
        (seeds, rho, *_), summary = run_tail_experiment(cfg)
        rho = rho.copy()
        rho[[3, 7, 299]] = [math.nan, math.pi / 2, math.nan]
        records = harness._records(seeds, rho)
        one = persist(records, summary, cfg, os.fspath(tmp_path / "one"))[0]
        monkeypatch.setattr(harness, "_CSV_ROWS", 7)
        split = persist(records, summary, cfg, os.fspath(tmp_path / "split"))[0]
        text = open(one, "rb").read()
        assert open(split, "rb").read() == text
        lines = text.decode().splitlines()
        assert len(lines) == 301 and lines[4].endswith(",,,,,")
        assert lines[8].split(",")[3:6] == ["IP", repr(math.pi / 2), "inf"]
        assert lines[300].startswith("299,57,") and lines[300].endswith(",,,,,")

    def test_empty_records(self, tmp_path):
        cfg = ExperimentConfig(kind="wendel", m=2, N=100, k_values=(4,),
                               master_seed=1)
        records, summary = run_wendel_experiment(cfg)
        csv_path, json_path = persist(records, summary, cfg, os.fspath(tmp_path))
        assert open(csv_path).read().splitlines() == [CSV_HEADER]
        data = json.loads(open(json_path).read())
        assert data["N"] == 0
        jsonschema.validate(data, SUMMARY_SCHEMA)

    def test_unserializable_summary_writes_nothing(self, tmp_path):
        # The summary is serialized before the directory or either file is made.
        cfg = ExperimentConfig(kind="tube", N=100)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="not JSON compliant"):
            persist(harness.NO_RECORDS, {"tube_table": [{"phi": math.nan}]}, cfg,
                    os.fspath(out))
        assert not os.path.exists(out)

    def test_config_echo_excludes_runtime_knobs(self, tmp_path):
        cfg = ExperimentConfig(kind="wendel", m=2, N=100, k_values=(4,),
                               master_seed=1, out_dir="x")
        _, summary = run_wendel_experiment(cfg)
        assert "workers" not in summary["config"]
        assert "out_dir" not in summary["config"]
        assert summary["config"]["master_seed"] == 1


class TestHTablePath:
    def test_params_from_config_reads_table(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.0 1.0\n0.25 2.0\n0.5 1.0\n")
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=10, master_seed=1,
                               h_path=os.fspath(path))
        params = harness.params_from_config(cfg)
        assert params.h_table is not None
        assert params.H > 1.0

    def test_tail_run_with_table(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.0 1.0\n0.25 2.0\n0.5 1.0\n")
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=200, master_seed=2,
                               h_path=os.fspath(path))
        _, summary = run_tail_experiment(cfg)
        counts = summary["counts"]
        assert counts["sf"] + counts["ip"] + counts["if"] == 200


class TestCenters:
    def test_file_center(self, tmp_path):
        path = tmp_path / "center.txt"
        path.write_text("4 1\n1 0\n0 1\n-1 0\n0 -1\n")
        cfg = ExperimentConfig(kind="tail", m=1, n=4, center=f"file:{path}",
                               N=10, master_seed=1)
        center = harness.resolve_center(cfg, PARAMS)
        assert center.n == 4 and center.m == 1

    def test_equal_rows_center(self):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, center="equal-rows",
                               N=10, master_seed=1)
        center = harness.resolve_center(cfg, PARAMS)
        assert np.allclose(center.matrix, center.matrix[0])

    def test_great_circle_center(self):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, center="great-circle",
                               N=10, master_seed=1)
        center = harness.resolve_center(cfg, PARAMS)
        assert np.allclose(center.matrix[:, 2], 0.0)

    def test_unknown_center_rejected(self):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, center="bogus", N=10)
        with pytest.raises(ConfigError):
            harness.resolve_center(cfg, PARAMS)

    def test_low_t_grid_rejected(self):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, N=20, master_seed=1,
                               t_grid=(0.5, 2.0))
        with pytest.raises(ConfigError):
            run_tail_experiment(cfg)
