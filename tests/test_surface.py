"""Every function lpcond defines runs in some command.

One run of every CLI command at a tiny size, under `sys.setprofile`,
records each code object of the package that is called and the type of
each value it returns.  The runs take every `--center` mode, `--h-table`,
`--t-grid`, `--k` and `--config`, and three instance files: three
equidistant points on the circle, a tiny cap (below `sic._TINY_CAP`, so
`_refine` enumerates the rows near its rim), and an m = 4
cross-polytope, whose hull Qhull gives.  The test asserts:

- every function, method and lambda of `src/lpcond` (comprehensions
  aside) is called, except BENCH_ONLY, which the benchmark calls or wraps
  and no command does;
- every name of `lpcond.__all__` is reached (a function called, a class
  with a method called or an instance returned) or is one that the
  benchmark's output check calls (CHECK_NAMES).
"""

import contextlib
import inspect
import io
import math
import os
import sys
import types

import numpy as np
import scipy.spatial  # noqa: F401  imported here, outside the trace

import lpcond
from lpcond import cli, convexgeom, errors, harness, lp, samplers, sic, sphere

MODULES = (lpcond, cli, convexgeom, errors, harness, lp, samplers, sic, sphere)
SRC = os.path.dirname(os.path.abspath(lpcond.__file__)) + os.sep
# Called by the benchmark's output check or wrapped by its tracer only.
BENCH_ONLY = {"sic.py:sic_bruteforce", "samplers.py:sample_instance",
              "convexgeom.py:distance_to_sconv", "convexgeom.py:cone_member_batch"}
CHECK_NAMES = {"sic_bruteforce", "SicResult", "sample_instance", "RngStream"}
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def key(code):
    return f"{os.path.basename(code.co_filename)}:{code.co_qualname}"


def defined_functions():
    """Keys of every function code object compiled from the package."""
    found = set()

    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in COMPREHENSIONS:
                    found.add(key(const))
                walk(const)

    for module in MODULES:
        with open(module.__file__) as fh:
            walk(compile(fh.read(), module.__file__, "exec"))
    return found


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return os.fspath(path)


def argvs(tmp):
    tiny = np.array([[1.0, 0, 0], [1.0, 2e-7, 0], [1.0, 0, 2e-7], [1.0, -1e-7, -1e-7]])
    tiny /= np.linalg.norm(tiny, axis=1, keepdims=True)
    cross = np.vstack([np.eye(5), -np.eye(5)])
    files = [
        write(tmp / "triple.txt", "3 1\n1 0\n-0.5 0.8660254037844386\n-0.5 -0.8660254037844386\n"),
        write(tmp / "tiny.txt", "4 2\n" + "".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in tiny)),
        write(tmp / "cross.txt", "10 4\n" + "".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in cross)),
    ]
    center = write(tmp / "center.txt", "5 2\n" + "".join(
        f"{math.cos(a)} {math.sin(a)} 0\n" for a in np.linspace(0.1, 1.0, 5)))
    h_table = write(tmp / "h.txt", "0 1\n0.25 2\n0.5 1\n")
    config = write(tmp / "tail.cfg", "m = 2\nn = 5\ncenter = equal-rows\nN = 32\n")
    out = os.fspath(tmp / "out")
    runs = [[command, "--instance", path] for command in ("classify", "cond", "sic")
            for path in files]
    runs += [
        ["sample", "--m", "2", "--n", "5", "--N", "2", "--center", "great-circle"],
        ["exp-tail", "--config", config, "--t-grid", "1:1000:3", "--h-table", h_table,
         "--alpha", "piOver6", "--workers", "1"],
        ["exp-mean", "--m", "3", "--n", "12", "--N", "16", "--center", "random"],
        ["exp-tail", "--m", "2", "--n", "5", "--N", "8", "--center", "file:" + center],
        ["exp-wendel", "--m", "1", "--k", "3:4", "--N", "16"],
        ["exp-tube", "--m", "2", "--phi", "0.01", "--cap-radius", "0.5", "--N", "64"],
        ["exp-properties", "--m", "1", "--n", "3"],
        ["validate-sampler", "--m", "2", "--beta", "0", "--N", "64"],
    ]
    return [argv + ["--out", out] if argv[0] not in ("classify", "cond", "sic") else argv
            for argv in runs]


def trace(tmp):
    """(keys of the package code called, types of the values it returned)."""
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()  # a cached call would skip the function
    called, returned = set(), set()

    def profile(frame, event, arg):
        if event in ("call", "return") and frame.f_code.co_filename.startswith(SRC):
            if event == "call":
                called.add(key(frame.f_code))
            else:
                returned.add(type(arg))

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in argvs(tmp):
                codes.append((argv[0], cli.main(argv)))
        finally:
            sys.setprofile(None)
    assert all(code in (0, 2) for _, code in codes), codes
    return called, returned


def test_every_function_runs_in_a_command(tmp_path):
    called, returned = trace(tmp_path)
    assert sorted(defined_functions() - called - BENCH_ONLY) == []
    assert BENCH_ONLY <= defined_functions()

    def reached(name):
        obj = inspect.unwrap(getattr(lpcond, name))
        if isinstance(obj, type):
            return obj in returned or any(
                key(f.__code__) in called for f in vars(obj).values()
                if isinstance(f, types.FunctionType))
        return key(obj.__code__) in called

    assert len(lpcond.__all__) == 14
    assert {name for name in lpcond.__all__ if not reached(name)} <= CHECK_NAMES
