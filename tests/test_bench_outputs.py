"""The benchmark's output check, run on the benchmark's own CLI commands.

`lpbench/workloads.py` defines each workload's command and the check of
its outputs (class counts and pass flags against `lpbench/reference.json`,
and records re-solved by `sic_bruteforce`).  It is loaded here by path and
only read.  The property suite runs at every master seed, since its
checks keep the first qualifying instances of their pools in pool order.
The tail run leaves out master seed 25: its reference holds counts from
a deleted solver (see ROADMAP.md).
"""

import importlib.util
import os
import sys

import pytest

from lpcond import cli

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "lpbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("lpbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name, seed", [
    ("tail-m2n5", 3), ("tail-m2n5", 17),
    *(("props-m1n3", seed) for seed in range(32)),
    ("mean-m3n12", 3), ("wendel-m3", 3),
])
def test_outputs_pass_the_benchmark_check(workloads, tmp_path, name, seed):
    w = workloads.WORKLOADS[name]
    out = os.fspath(tmp_path / "out")
    assert cli.main(w.argv(seed, out)) in (0, 2)
    assert workloads.check_outputs(w, seed, out, workloads.load_reference()) == []
