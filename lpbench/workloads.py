"""The benchmark's workloads and the check of their outputs.

Every workload is one `lpcond` CLI command with `--workers` given
explicitly (the CLI default is the machine's core count).  A run's inputs
come from its seed: the CLI's master seed is `seed % REFERENCE_SEEDS`, so
every run has a reference outcome, recorded by `make_reference.py`, to
compare against.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

REFERENCE_SEEDS = 32
RHO_TOL = 1e-8
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI arguments without --seed, --N, --workers and --out
    N: int | None  # --N of the command; None when its size is built in
    k_count: int  # instances per sample index (the number of --k values)
    m: int
    n: int
    rho_rows: int  # records.csv rows re-solved by sic_bruteforce per check

    @property
    def instances(self) -> int:
        """Instances one CLI call classifies; a property suite counts as one."""
        return self.N * self.k_count if self.N else 1

    def argv(self, seed: int, out_dir: str, workers: int = 1, N: int | None = None):
        argv = list(self.command) + ["--seed", str(master_seed(seed)),
                                     "--workers", str(workers), "--out", out_dir]
        if self.N:
            argv += ["--N", str(N or self.N)]
        return argv


WORKLOADS = {
    w.name: w for w in (
        Workload("tail-m2n5", ("exp-tail", "--m", "2", "--n", "5", "--alpha",
                               "piOver6", "--beta", "0"), 2048, 1, 2, 5, 32),
        Workload("mean-m3n12", ("exp-mean", "--m", "3", "--n", "12", "--center",
                                "random"), 256, 1, 3, 12, 8),
        Workload("wendel-m3", ("exp-wendel", "--m", "3", "--k", "5,7,9"),
                 128, 3, 3, 0, 0),
        Workload("props-m1n3", ("exp-properties", "--m", "1", "--n", "3"),
                 None, 1, 1, 3, 0),
    )
}

# The tail command measured at --workers 1 and 2 for harness.speedup_w2:
# two fixed 4096-instance chunks, so two workers have work to share.
SPEEDUP_WORKLOAD = "tail-m2n5"
SPEEDUP_N = 8192


def master_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def outcome(name: str, summary: dict) -> dict:
    """The parts of summary.json that must match the reference exactly:
    class counts, Wendel p_hat, and every pass flag or status."""
    if name == "tail-m2n5":
        return {"counts": summary["counts"],
                "pass": [[r["pass_F"], r["pass_I"]] for r in summary["tail_table"]]}
    if name == "mean-m3n12":
        e = summary["expectation"]
        return {"counts": summary["counts"], "pass": e["pass"], "status": e["status"]}
    if name == "wendel-m3":
        return {"p_hat": [r["p_hat"] for r in summary["wendel_table"]],
                "pass": [r["pass"] for r in summary["wendel_table"]]}
    if name == "props-m1n3":
        return {key: {f: check[f] for f in ("status", "qualifying", "violations")}
                for key, check in summary["property_suite"].items()}
    raise KeyError(name)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_outputs(w: Workload, seed: int, out_dir: str, reference: dict) -> list:
    """Problems found in the outputs of one CLI call; empty when correct.

    Compares the outcome with the reference for the run's seed and, for
    workloads that write records.csv, checks the row count and class
    counts and re-solves a seeded subsample of rows with sic_bruteforce.
    """
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    ref = reference["workloads"][w.name]
    if ref["N"] != w.N:
        problems.append(f"reference taken at N={ref['N']}, workload runs N={w.N}")
    want = ref["outcomes"].get(str(master_seed(seed)))
    got = outcome(w.name, summary)
    if got != want:
        problems.append(f"outcome {got} differs from reference {want}")
    if w.rho_rows:
        problems += _record_problems(w, seed, out_dir, summary["counts"])
    return problems


def _record_problems(w: Workload, seed: int, out_dir: str, counts: dict) -> list:
    import numpy as np
    from lpcond import harness, samplers, sic

    with open(os.path.join(out_dir, "records.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != w.N:
        return [f"records.csv has {len(rows)} rows, expected {w.N}"]
    problems = []
    for cls in ("sf", "ip", "if"):
        found = sum(1 for r in rows if r["class"].lower() == cls)
        if found != counts[cls]:
            problems.append(f"records.csv has {found} {cls} rows, summary says {counts[cls]}")
    cfg = harness.ExperimentConfig(kind="check", m=w.m, n=w.n, alpha=math.pi / 6,
                                   beta=0.0, master_seed=master_seed(seed))
    params = harness.params_from_config(cfg)
    center = harness.resolve_center(cfg, params)
    picks = np.random.default_rng(seed).choice(len(rows), size=w.rho_rows, replace=False)
    for i in sorted(int(p) for p in picks):
        row = rows[i]
        if not row["rho"]:
            problems.append(f"row {i}: no rho recorded")
            continue
        stream = samplers.RngStream(int(row["seed_hi"]), int(row["seed_lo"]))
        oracle = sic.sic_bruteforce(samplers.sample_instance(center, params, stream)).rho
        if abs(oracle - float(row["rho"])) > RHO_TOL:
            problems.append(f"row {i}: rho {row['rho']} but sic_bruteforce gives {oracle!r}")
    return problems
