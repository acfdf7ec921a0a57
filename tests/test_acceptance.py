"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Runs are fully seeded, so outcomes
are reproducible bit for bit.
"""

import math
import os
import time

import numpy as np
import pytest

from lpcond import cli, convexgeom, harness, samplers, sic
from lpcond.harness import ExperimentConfig
from lpcond.samplers import PURPOSE_CHECK, make_adversarial_params, stream
from lpcond.sic import ILL_POSED_BAND, Instance
from oracles import (
    Cap,
    SpherePolytope,
    cap_distances_batch,
    distance_to_dual,
    gordan_classify,
    perturb_rows,
    unit_point,
)


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_c01_wendel_exactness():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="wendel", m=2, N=200_000, master_seed=101,
                           k_values=(4, 6, 8))
    _, summary = harness.run_wendel_experiment(cfg)
    elapsed = time.perf_counter() - t0
    rows = summary["wendel_table"]
    expected = {4: 7 / 8, 6: 1 / 2, 8: 29 / 128}
    ok = all(row["pass"] for row in rows)
    ok &= all(row["p_exact"] == pytest.approx(expected[row["k"]]) for row in rows)
    ok &= elapsed < 60.0
    detail = ", ".join(
        f"k={r['k']}: |{r['p_hat']:.5f}-{r['p_exact']:.5f}| <= {r['gate']:.5f}"
        for r in rows
    )
    report(1, ok, f"wendel m=2 N=200000 ({elapsed:.1f}s): {detail}")


@pytest.fixture(scope="module")
def mixed_instances():
    """500 seeded instances, m in {2,3}, n in {m+2..10}, half adversarial."""
    out = []
    for i in range(500):
        m = 2 if i % 2 == 0 else 3
        n = (m + 2) + (i // 2) % (10 - (m + 2) + 1)
        gen = stream(2024, PURPOSE_CHECK, 1000 + i).generator()
        if i % 4 < 2:
            mat = samplers.uniform_sphere_block(m, gen, n)
        else:
            params = make_adversarial_params(m, math.pi / 6, 0.5 if i % 4 == 3 else 0.0)
            center = samplers.uniform_sphere_block(m, gen, n)
            mat = np.vstack([
                samplers.cap_block(center[j], params, gen, 1)[0] for j in range(n)
            ])
        out.append(Instance(mat))
    return out


@pytest.fixture(scope="module")
def mixed_solutions(mixed_instances):
    t0 = time.perf_counter()
    solved = [(sic.sic_rho(inst.matrix)[0], sic.sic_bruteforce(inst)) for inst in mixed_instances]
    return solved, time.perf_counter() - t0


def test_c02_sic_oracle_equivalence(mixed_instances, mixed_solutions):
    solved, elapsed = mixed_solutions
    gaps = [abs(rho - b.rho) for rho, b in solved]
    worst = max(gaps)
    ok = worst <= 1e-8 and elapsed < 120.0
    report(2, ok, f"500 instances, worst |rho_solve - rho_brute| = {worst:.2e} "
                  f"({elapsed:.1f}s)")


def test_c03_classification_cross_check(mixed_instances, mixed_solutions):
    solved, _ = mixed_solutions
    band_hits = 0
    mismatches = 0
    for inst, (rho, _) in zip(mixed_instances, solved):
        if abs(rho - math.pi / 2) <= ILL_POSED_BAND:
            band_hits += 1
            continue
        if gordan_classify(inst) is not sic.classify_rho(rho):
            mismatches += 1
    ok = mismatches == 0 and band_hits <= 1
    report(3, ok, f"sic vs gordan on 500 instances: {mismatches} mismatches, "
                  f"{band_hits} band hits")


def test_c04_perturbation_class_stability():
    violations = 0
    checked = 0
    for i in range(100):
        gen = stream(404, PURPOSE_CHECK, i).generator()
        mat = samplers.uniform_sphere_block(2, gen, 5)
        _, cls, dist_to_sigma = sic.cond_and_class(Instance(mat))
        delta = 0.9 * dist_to_sigma
        if delta <= 0:
            continue
        perturbed = np.empty((200, 5, 3))
        for j in range(200):
            perturbed[j] = perturb_rows(mat, delta, gen)
        for mat_p in perturbed:
            checked += 1
            if sic.classify_rho(sic.sic_rho(mat_p)[0]) is not cls:
                violations += 1
    ok = violations == 0 and checked == 20000
    report(4, ok, f"perturbations at 0.9 d(A, Sigma): {violations} class flips "
                  f"over {checked} cases")


@pytest.fixture(scope="module")
def tail_runs():
    runs = {}
    for beta in (0.0, 1.0):
        cfg = ExperimentConfig(kind="tail", m=2, n=5, alpha=math.pi / 6,
                               beta=beta, N=100_000, master_seed=505)
        t0 = time.perf_counter()
        _, summary = harness.run_tail_experiment(cfg)
        runs[beta] = (summary, time.perf_counter() - t0)
    return runs


def test_c05_tail_bound_feasible(tail_runs):
    ok = True
    details = []
    for beta, (summary, elapsed) in tail_runs.items():
        covered = [row for row in summary["tail_table"] if row["covered"]]
        passed = all(row["pass_F"] for row in covered)
        ok &= passed and elapsed < 300.0 and len(covered) == 12
        worst = max((row["emp_F"] - 3 * row["se_F"]) / row["bound_F"] for row in covered)
        details.append(f"beta={beta}: {len(covered)} points, "
                       f"max (emp-3se)/bound = {worst:.3f} ({elapsed:.0f}s)")
    report(5, ok, "; ".join(details))


def test_c06_tail_bound_infeasible(tail_runs):
    ok = True
    details = []
    for beta, (summary, _) in tail_runs.items():
        rows = summary["tail_table"]
        passed = all(row["pass_I"] for row in rows)
        ok &= passed
        worst = max((row["emp_I"] - 3 * row["se_I"]) / row["bound_I"] for row in rows)
        details.append(f"beta={beta}: max (emp-3se)/bound = {worst:.3g}")
    report(6, ok, "; ".join(details))


def test_c07_expectation_bound():
    ok = True
    details = []
    for center in ("random", "equal-rows", "great-circle"):
        cfg = ExperimentConfig(kind="expectation", m=2, n=5, alpha=math.pi / 6,
                               N=100_000, master_seed=707, center=center)
        _, summary = harness.run_expectation_experiment(cfg)
        e = summary["expectation"]
        ok &= e["status"] == "pass"
        details.append(f"{center}: mean={e['mean']:.3f}+3*{e['se']:.4f} "
                       f"<= {e['bound']:.1f}")
    report(7, ok, "; ".join(details))


def test_c08_duality_identity():
    gen = stream(808, PURPOSE_CHECK, 0).generator()
    worst_cap = 0.0
    checked = 0
    while checked < 1000:
        c = samplers.uniform_sphere_block(2, gen, 1)[0]
        r = float(gen.uniform(0.05, math.pi / 2 - 0.05))
        x = samplers.uniform_sphere_block(2, gen, 1)[0]
        cap = Cap(c, r)
        d_hull, d_dual, _ = (float(d[0]) for d in cap_distances_batch(
            unit_point(x)[None], cap.center, cap.radius))
        if d_hull <= 1e-9 or d_dual <= 1e-9:
            continue
        worst_cap = max(worst_cap, abs(d_hull + d_dual - math.pi / 2))
        checked += 1
    worst_poly = 0.0
    checked_poly = 0
    while checked_poly < 200:
        center = samplers.uniform_sphere_block(2, gen, 1)[0]
        cos_r = math.cos(0.7)
        gens = []
        while len(gens) < 5:
            cand = samplers.uniform_sphere_block(2, gen, 1)[0]
            if cand @ center >= cos_r:
                gens.append(cand)
        poly = SpherePolytope(np.array(gens))
        x = unit_point(samplers.uniform_sphere_block(2, gen, 1)[0])
        dk = convexgeom.distance_to_sconv(x, poly.generators)
        dd = distance_to_dual(x, poly)
        if dk <= 1e-6 or dd <= 1e-6:
            continue
        worst_poly = max(worst_poly, abs(dk + dd - math.pi / 2))
        checked_poly += 1
    ok = worst_cap <= 1e-10 and worst_poly <= 1e-6
    report(8, ok, f"caps: worst |d_K + d_dual - pi/2| = {worst_cap:.2e} (1000 cases); "
                  f"polytopes: {worst_poly:.2e} (200 cases)")


def test_c09_neighborhood_volume_bound():
    configs = {
        2: [
            (math.pi / 6, math.asin(0.0625), math.pi / 4),
            (math.pi / 6, math.asin(0.07), math.pi / 4 + 0.1),
            (math.pi / 3, math.asin(0.0866), 0.0),
        ],
        3: [
            (math.pi / 6, math.asin(0.04), math.pi / 4),
            (math.pi / 6, math.asin(0.025), math.pi / 4 + 0.15),
            (math.pi / 3, math.asin(0.0606), 0.0),
        ],
    }
    ok = True
    details = []
    for m, rows in configs.items():
        for alpha, phi, offset in rows:
            cfg = ExperimentConfig(kind="tube", m=m, alpha=alpha, phi=phi,
                                   cap_radius=math.pi / 4, placement_offset=offset,
                                   N=200_000, master_seed=909)
            _, summary = harness.run_tube_experiment(cfg)
            row = summary["tube_table"][0]
            ok &= row["pass_outer"] and row["pass_inner"]
            ok &= not row["vacuous"]  # keep every comparison informative
            details.append(
                f"m={m} eps/sigma={math.sin(phi) / math.sin(alpha):.3f}: "
                f"outer={row['est_outer']:.4f} inner={row['est_inner']:.4f} "
                f"<= {row['bound']:.4f}"
            )
    report(9, ok, "; ".join(details))


def test_c10_property_suite():
    cfg = ExperimentConfig(kind="property-suite", m=2, n=5, N=6000, master_seed=1010)
    _, summary = harness.run_property_suite(cfg)
    suite = summary["property_suite"]
    ok = True
    details = []
    for name, check in suite.items():
        ok &= check["status"] == "pass" and check["qualifying"] >= 200
        details.append(f"{name}: {check['qualifying']} qualifying, "
                       f"{check['violations']} violations")
    report(10, ok, "; ".join(details))


def test_c11_sampler_fidelity():
    ok = True
    details = []
    for beta in (0.0, 0.5, 1.0):
        cfg = ExperimentConfig(kind="sampler-check", m=2, alpha=math.pi / 6,
                               beta=beta, N=100_000, master_seed=1111)
        _, summary = harness.run_sampler_check(cfg)
        row = summary["sampler_table"][0]
        ok &= row["pass_radial"] and row["support_ok"] and row["pass_direction"]
        details.append(f"beta={beta}: KS={row['ks_radial']:.5f} "
                       f"<= {row['ks_radial_threshold']:.5f}")
        if beta == 0.0:
            ok &= row["pass_rejection"]
            details.append(f"rejection KS={row['ks_rejection']:.5f} "
                           f"<= {row['ks_rejection_threshold']:.5f}")
    report(11, ok, "; ".join(details))


def test_c12_determinism_across_workers(tmp_path):
    ok = True
    details = []
    specs = [
        ("tail", ["exp-tail", "--m", "2", "--n", "5", "--N", "2000"]),
        ("tube", ["exp-tube", "--m", "2", "--alpha", "piOver6",
                  "--phi", repr(math.asin(0.06)), "--cap-radius", "piOver4",
                  "--offset", "piOver4", "--N", "10000"]),
        ("wendel", ["exp-wendel", "--m", "2", "--N", "10000", "--k", "4"]),
    ]
    for name, argv in specs:
        blobs = []
        for workers in (1, 3):
            out = os.fspath(tmp_path / f"{name}-w{workers}")
            code = cli.main(argv + ["--seed", "1212", "--workers", str(workers),
                                    "--out", out])
            ok &= code == 0
            blobs.append(tuple(open(os.path.join(out, f), "rb").read()
                               for f in ("records.csv", "summary.json")))
        same = blobs[0] == blobs[1]
        ok &= same
        details.append(f"{name}: byte-identical={same}")
    report(12, ok, "; ".join(details))
