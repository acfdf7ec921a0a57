"""One timed call of `lpcond.cli.main(argv)` in a fresh process.

Started by run.py with one JSON argument:
    {"argv": [...], "result": path, "trace": bool, "run_id": str,
     "spans": path, "instances": int}
It imports lpcond (its set-up), times the CLI call between two runs of
a fixed reference computation, and writes a JSON result: exit code, the
monotonic time at which the import finished, wall time, the times of the
reference computation before and after the call, peak RSS, a digest of
summary.json, the solver failure count and, when traced, the per-layer
metrics.  Spans go to the "spans" path.
"""

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time

import lpcond.cli
import numpy as np

IMPORTED_AT = time.monotonic()


def reference_s(loops: int = 2000, batches: int = 30) -> float:
    """Duration of a fixed reference computation, about 0.1 s.

    It mixes what lpcond spends its time on: keying Philox generators,
    small draws and dense solves driven from Python, and batched array
    products.  It uses numpy only, never lpcond, so a change to the
    program leaves it alone.  Timed next to a CLI call in the same
    process, it measures how fast the CPU runs at that moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for key in range(loops):
        gen = np.random.Generator(np.random.Philox(key=key))
        a = gen.standard_normal((5, 4))
        x = np.linalg.solve(a[:4] @ a[:4].T + np.eye(4), a[4])
        acc += float(x @ x) + math.sqrt(abs(acc) + 1.0)
    b = np.random.default_rng(0).standard_normal((400, 12, 4))
    for _ in range(batches):
        acc += float(np.einsum("nij,nkj->nik", b, b).sum())
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    out_dir = spec["argv"][spec["argv"].index("--out") + 1]
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
    reference_s(loops=200, batches=3)  # warm-up
    before = reference_s()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        with tracer.installed() if tracer else contextlib.nullcontext():
            with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                rc = lpcond.cli.main(spec["argv"])
                wall = time.perf_counter() - start
    after = reference_s()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"rc": rc, "imported_at": IMPORTED_AT, "wall_s": wall,
              "ref_before_s": before, "ref_after_s": after, "rss_mb": rss_mb,
              "lpcond_file": lpcond.cli.__file__}
    summary_path = os.path.join(out_dir, "summary.json")
    if rc == 0 and os.path.exists(summary_path):
        with open(summary_path, "rb") as fh:
            body = fh.read()
        result["summary_sha256"] = hashlib.sha256(body).hexdigest()
        counts = json.loads(body).get("counts") or {}
        result["solver_failed"] = int(counts.get("failed", 0))
    if tracer:
        tracer.write(spec["spans"])
        result["layers"] = tracing.layer_metrics(tracer, spec["instances"])
        result["layer_split"] = tracing.layer_split(tracer)
        result["missing_targets"] = tracer.missing
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
