"""Benchmark of the lpcond CLI: one workload, one seed, one run.

    python3 lpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each measurement is one call of
`lpcond.cli.main(argv)` in a fresh Python process (child.py), one process
at a time, with the BLAS pools held to one thread so that a process
computes on at most `--workers` threads.  Children are started for
about `--seconds` (at least MIN_CHILDREN); the metrics are medians over
them, with the CLI call's wall time scaled to a reference speed (see
`scaled_wall_s`), except setup_s, their minimum.  The output check runs
after the timed children.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced children, reports the per-layer metrics of the traced ones,
the tracing overhead, and the --workers 2 speed-up of the tail command.
Both print the machine and software stack, every metric with its unit,
and last a JSON line {"correct", "attempted", "failed", "metrics"}.
Results and the spans of the last traced child are kept under
.lpbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracing
import workloads

OUT_DIR = ".lpbench_out"
MIN_CHILDREN = 3
PROBE_LOOPS = 60  # loops timed on each CPU before a call
DEADLINE_S = 160  # whole run, so that it ends well within 180 s
REF_S = 0.1  # the reference computation's time at the speed times are scaled to

# (name, unit, better): the end-to-end metrics of an untraced run.
END_TO_END = (
    ("scaled_wall_s", "s", "lower"),
    ("scaled_instances_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
)


class ProgramMissing(Exception):
    """The checkout holds no lpcond sources to benchmark."""


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def machine_info(root: str) -> dict:
    """Machine and software stack of a result."""
    mem_kb = None
    cpu = platform.machine()
    try:
        with open("/proc/meminfo") as fh:
            mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "lpcond")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "ram_gb": round(mem_kb / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def _loop_s() -> float:
    """Duration of a short fixed interpreter loop."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i
    return time.perf_counter() - start


def fastest_cpu() -> int | None:
    """The CPU, of those this process may use, that runs a fixed loop
    fastest right now; None when there is only one.

    The vCPUs of a shared host slow down by up to 1.6x for a second or
    more at a time, whenever a neighbour loads the same physical core, and
    less often both at once.  Pinning each single-threaded call to the
    faster vCPU of the moment makes more calls run at full speed, and
    keeps the call and the reference computation timed next to it on the
    same CPU.  The probe takes about 0.05 s.
    """
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    best = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(_loop_s() for _ in range(PROBE_LOOPS))
    finally:
        os.sched_setaffinity(0, allowed)
    return min(best, key=best.get)


class Runner:
    """Starts the children of one benchmark run, one at a time."""

    def __init__(self, root: str, run_dir: str, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def child(self, w: workloads.Workload, seed: int, trace: bool = False,
              workers: int = 1, N: int | None = None, tag: str = "main") -> dict:
        """Run one CLI call.  Returns the child's result with its tag,
        instance count and setup_s; failures carry an "error" reason."""
        self.count += 1
        out = os.path.join(self.run_dir, tag)
        result_path = os.path.join(self.run_dir, f"child-{self.count}.json")
        spec = {
            "argv": w.argv(seed, out, workers=workers, N=N), "result": result_path,
            "trace": trace, "run_id": f"{w.name}-s{seed}-{self.count}",
            "spans": os.path.join(self.run_dir, "spans.jsonl"),
            "instances": w.instances if N is None else N * w.k_count,
        }
        base = {"tag": tag, "instances": spec["instances"]}
        cpu = fastest_cpu() if workers == 1 else None
        started = time.monotonic()
        timeout = self.deadline - started
        if timeout <= 0:
            return {**base, "error": "no time left before the run's deadline"}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(workloads.HERE, "child.py"), json.dumps(spec)],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
                preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}))
        except subprocess.TimeoutExpired:
            return {**base, "error": f"child timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {**base, "error": f"child exited {proc.returncode}: "
                                     f"{proc.stderr.strip()[-2000:]}"}
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        result.update(base, setup_s=result["imported_at"] - started)
        src = os.path.join(self.root, "src") + os.sep
        if not result["lpcond_file"].startswith(src):
            result["error"] = f"lpcond imported from {result['lpcond_file']}, not {src}"
        elif result["rc"] != 0:
            result["error"] = f"lpcond exited with code {result['rc']}"
        return result


def measure(w, seed: int, seconds: float, trace: bool, runner: Runner):
    """The children of one run: (speed-up pair, untraced, traced).

    A traced run first times the tail command at --workers 1 and 2, within
    the same `seconds`, then alternates untraced and traced children.
    Children stop at the first error, or, once there are enough of them,
    when stopping now ends the run closer to `seconds` than one more child
    (or pair) would.
    """
    start = time.monotonic()
    speed = []
    if trace:
        tail = workloads.WORKLOADS[workloads.SPEEDUP_WORKLOAD]
        speed = [runner.child(tail, seed, workers=k, N=workloads.SPEEDUP_N, tag="speedup")
                 for k in (1, 2)]
    plain, traced = [], []
    while not any("error" in r for r in speed + plain + traced):
        plain.append(runner.child(w, seed))
        if trace:
            traced.append(runner.child(w, seed, trace=True))
        done = len(traced) if trace else len(plain)
        elapsed = time.monotonic() - start
        if done >= (1 if trace else MIN_CHILDREN) and elapsed * (1 + 0.5 / done) > seconds:
            break
    return speed, plain, traced


def check(w, seed: int, children: list, runner: Runner) -> list:
    """Problems with the run's outputs; empty when every check passes."""
    problems = [r["error"] for r in children if "error" in r]
    if problems:
        return problems
    main = [r for r in children if r["tag"] == "main"]
    if len({r.get("summary_sha256") for r in main}) != 1:
        problems.append("summary.json differs between calls with the same inputs")
    src = os.path.join(runner.root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        problems += workloads.check_outputs(w, seed, os.path.join(runner.run_dir, "main"),
                                            workloads.load_reference())
    except Exception as exc:  # a check that cannot run counts as failed
        problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return problems


def scaled_wall_s(r: dict) -> float:
    """A child's wall time in reference seconds: the measured wall time
    times REF_S over the mean time of the reference computation.

    The vCPUs of a shared host run at speeds up to 1.6x apart, switching
    every second or so and drifting over minutes, so a measured time says
    as much about the host as about lpcond.  child.py runs a fixed
    reference computation just before and just after the CLI call, in the
    same process on the same CPU; scaling by it gives the time the call
    would take on a CPU that runs the reference in exactly REF_S.
    """
    return r["wall_s"] * 2 * REF_S / (r["ref_before_s"] + r["ref_after_s"])


def metrics(w, speed: list, plain: list, traced: list, ok_frac: float, trace: bool) -> dict:
    """Medians over the run's successful children, by metric name, except
    setup_s: the import comes before any reference computation, so it
    cannot be scaled, and its shortest time is the one least slowed by
    the host."""
    plain = [r for r in plain if "wall_s" in r]
    if not trace:
        wall = statistics.median(scaled_wall_s(r) for r in plain)
        return {
            "scaled_wall_s": wall,
            "scaled_instances_per_s": w.instances / wall,
            "setup_s": min(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "ok_frac": ok_frac,
        }
    traced = [r for r in traced if "wall_s" in r]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["harness.speedup_w2"] = scaled_wall_s(speed[0]) / scaled_wall_s(speed[1])
    values["trace.overhead_frac"] = (statistics.median(scaled_wall_s(r) for r in traced)
                                     / statistics.median(scaled_wall_s(r) for r in plain) - 1.0)
    return values


def run(args) -> dict:
    """One benchmark run; returns the full result."""
    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "lpcond", "cli.py")):
        raise ProgramMissing(f"no lpcond sources under {os.path.join(root, 'src')}")
    w = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(root, OUT_DIR, f"{w.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Byte-compile first, so that no child's set-up time includes it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                   check=True, capture_output=True, timeout=120)
    runner = Runner(root, run_dir, deadline)
    speed, plain, traced = measure(w, args.seed, args.seconds, bool(args.trace), runner)
    children = speed + plain + traced
    problems = check(w, args.seed, children, runner)
    attempted = sum(r["instances"] for r in children)
    if problems:
        failed = attempted
    else:
        failed = sum(r.get("solver_failed", 0) for r in children)
    if not any("wall_s" in r for r in (traced if args.trace else plain)):
        raise RuntimeError("no successful measurement: " + "; ".join(problems))
    table = tracing.PER_LAYER if args.trace else END_TO_END
    values = metrics(w, speed, plain, traced, 1.0 - failed / attempted, bool(args.trace))
    missing = sorted({t for r in traced for t in r.get("missing_targets", ())})
    traced_ok = [r for r in traced if "layer_split" in r]
    split = {layer: statistics.median(r["layer_split"].get(layer, 0.0) for r in traced_ok)
             for layer in sorted({k for r in traced_ok for k in r["layer_split"]})}
    return {
        "workload": w.name, "seed": args.seed, "master_seed": workloads.master_seed(args.seed),
        "trace": args.trace, "seconds": args.seconds, "machine": machine_info(root),
        "children": len(children), "problems": problems,
        "walls_s": {tag: [r.get("wall_s") for r in group]
                    for tag, group in (("speedup", speed), ("plain", plain), ("traced", traced))},
        "refs_s": {tag: [[r.get("ref_before_s"), r.get("ref_after_s")] for r in group]
                   for tag, group in (("speedup", speed), ("plain", plain), ("traced", traced))},
        "setups_s": [r.get("setup_s") for r in plain],
        "layer_split": split,
        "speedup_base": (f"{workloads.SPEEDUP_WORKLOAD} at N={workloads.SPEEDUP_N}: scaled wall_s "
                         "at --workers 1 over that at --workers 2, one untraced call each"
                         if args.trace else None), "untraced_targets": missing,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except (ProgramMissing, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(repo_root(), OUT_DIR, "results",
                        f"{result['workload']}-s{args.seed}-t{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print("machine: " + json.dumps(result["machine"]))
    print(f"workload {result['workload']} seed {args.seed} (master seed "
          f"{result['master_seed']}), {result['children']} CLI calls, trace={args.trace}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if result["layer_split"]:
        print("layer split (self time, share of the traced call): " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in result["layer_split"].items()))
    if result["speedup_base"]:
        print(f"harness.speedup_w2 base: {result['speedup_base']}")
    if result["untraced_targets"]:
        print("not traced (absent): " + ", ".join(result["untraced_targets"]))
    walls = [t for t in result["walls_s"]["plain"] if t is not None]
    refs = [t for pair in result["refs_s"]["plain"] for t in pair if t is not None]
    if walls and refs:
        print(f"measured, not scaled: wall_s median {statistics.median(walls):.4g} s, "
              f"reference computation median {statistics.median(refs):.4g} s "
              f"(REF_S = {REF_S} s)")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} instances)")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
