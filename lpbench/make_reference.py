"""Record the reference outcomes the benchmark's output check compares with.

Run from the repository root at the commit whose results are the
reference:

    python3 lpbench/make_reference.py [WORKLOAD ...]

For every workload (default: all) and every master seed below
REFERENCE_SEEDS it calls the CLI once, in this process, and stores the
outcome (class counts, Wendel p_hat, pass flags) in lpbench/reference.json.
Workloads not named keep their stored outcomes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import workloads


def main(names) -> int:
    root = run.repo_root()
    sys.path.insert(0, os.path.join(root, "src"))
    import lpcond.cli

    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {"seeds": workloads.REFERENCE_SEEDS, "workloads": {}}
    reference["taken_at"] = run.machine_info(root)["git_commit"]
    out_dir = os.path.join(root, run.OUT_DIR, "reference")
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        outcomes = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = lpcond.cli.main(w.argv(seed, out_dir))
            if rc != 0:
                print(f"{name} seed {seed}: exit code {rc}", file=sys.stderr)
                return 1
            with open(os.path.join(out_dir, "summary.json")) as fh:
                outcomes[str(seed)] = workloads.outcome(name, json.load(fh))
            print(f"{name} seed {seed}: {outcomes[str(seed)]}", flush=True)
        reference["workloads"][name] = {"N": w.N, "outcomes": outcomes}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
