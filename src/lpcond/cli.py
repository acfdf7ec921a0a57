"""Command-line front end.

Exit codes: 0 success (all bound checks passing or informational),
2 on any bound-check failure, 1 on usage, I/O, or solver errors.
Flags override values from an optional key=value config file.  Every
command runs serially on one thread; `--workers` and a config file's
`workers` key are accepted and ignored, so scripts that pass them still run.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import harness, samplers
from .errors import ConfigError, ConvergenceError, DegenerateHullError, InstanceTooLargeError
from .harness import ExperimentConfig
from .sic import Instance, cond_and_class, sic_solve, unit_rows

_PI_OVER = re.compile(r"^piOver(\d+)$")

_DEFAULTS = {
    "m": 2, "n": 5, "alpha": math.pi / 6, "beta": 0.0, "h_table": None,
    "N": 100_000, "seed": 0, "t_grid": None, "phi": None, "center": "random",
    "out": "lpcond-out", "delta_mode": "lemma",
    "k": None, "cap_radius": None, "offset": 0.0,
}


def parse_angle(text) -> float:
    """Angle flag: plain radians or the piOverK shorthand."""
    if isinstance(text, (int, float)):
        return float(text)
    match = _PI_OVER.match(text)
    if match:
        return math.pi / int(match.group(1))
    return float(text)


def parse_t_grid(text) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"t-grid must be lo:hi:points, got {text!r}")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < hi and pts >= 1):
        raise ValueError(f"bad t-grid {text!r}")
    import numpy as np

    return tuple(float(t) for t in np.geomspace(lo, hi, pts))


def parse_k_values(text) -> tuple:
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(p) for p in text.split(","))


_CONVERTERS = {
    "m": int, "n": int, "alpha": parse_angle, "beta": float, "h_table": str,
    "N": int, "seed": int, "t_grid": parse_t_grid, "phi": parse_angle,
    "center": str, "out": str, "workers": int, "delta_mode": str,
    "k": parse_k_values, "cap_radius": parse_angle, "offset": parse_angle,
}


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONVERTERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONVERTERS[key](val.strip())
    return values


def _merge(args) -> dict:
    """Builtin defaults, then config file, then explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _CONVERTERS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _experiment_config(kind, opt) -> ExperimentConfig:
    return ExperimentConfig(
        kind=kind, m=opt["m"], n=opt["n"], alpha=opt["alpha"], beta=opt["beta"],
        h_path=opt["h_table"], delta_mode=opt["delta_mode"], N=opt["N"],
        master_seed=opt["seed"], center=opt["center"], t_grid=opt["t_grid"],
        k_values=opt["k"], phi=opt["phi"], cap_radius=opt["cap_radius"],
        placement_offset=opt["offset"], out_dir=opt["out"],
    )


def _summary_exit_code(summary: dict) -> int:
    failed = False
    for row in summary.get("tail_table") or []:
        if row["pass_F"] is False or row["pass_I"] is False:
            failed = True
    exp = summary.get("expectation")
    if exp and exp.get("pass") is False:
        failed = True
    for row in summary.get("wendel_table") or []:
        if row["pass"] is False:
            failed = True
    for row in summary.get("tube_table") or []:
        if row["pass_outer"] is False or row["pass_inner"] is False:
            failed = True
    suite = summary.get("property_suite")
    if suite and any(check["status"] == "fail" for check in suite.values()):
        failed = True
    for row in summary.get("sampler_table") or []:
        if not all(row.get(k, True) for k in
                   ("pass_radial", "pass_direction", "pass_rejection", "support_ok")):
            failed = True
    return 2 if failed else 0


def _finish(records, summary, cfg) -> int:
    if cfg.out_dir:
        csv_path, json_path = harness.persist(records, summary, cfg, cfg.out_dir)
        print(f"wrote {csv_path} and {json_path}")
    return _summary_exit_code(summary)


def _cmd_classify(args) -> int:
    _, cls, _ = cond_and_class(Instance.from_file(args.instance))
    print(f"class={cls.short}")
    return 0


def _cmd_cond(args) -> int:
    inst = Instance.from_file(args.instance)
    cond, cls, dist = cond_and_class(inst)
    cond_text = "inf" if math.isinf(cond) else f"{cond:g}"
    print(f"class={cls.short} cond={cond_text} dist_to_sigma={dist:.9g}")
    return 0


def _cmd_sic(args) -> int:
    inst = Instance.from_file(args.instance)
    res = sic_solve(inst)
    cond_text = "inf" if math.isinf(res.cond) else f"{res.cond:g}"
    center = " ".join(f"{v:.12g}" for v in res.center.coords)
    print(f"rho={res.rho:.12g} class={res.cls.short} cond={cond_text}")
    print(f"center={center}")
    print(f"support={','.join(str(i) for i in res.support)}")
    return 0


def _cmd_sample(args) -> int:
    opt = _merge(args)
    cfg = _experiment_config("sample", opt)
    params = harness.params_from_config(cfg)
    center = harness.resolve_center(cfg, params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for lo, hi in samplers.sample_ranges(0, cfg.N, center.n):
        indices = samplers.stream_indices(samplers.PURPOSE_SAMPLE, lo, hi)
        mats = unit_rows(samplers.cap_batch(center, params, cfg.master_seed, indices))
        for idx, mat in enumerate(mats, start=lo):
            path = os.path.join(cfg.out_dir, f"instance_{idx:06d}.txt")
            with open(path, "w") as fh:
                fh.write(f"{center.n} {center.m}\n")
                for row in mat:
                    fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {cfg.N} instance file(s) under {cfg.out_dir}")
    return 0


def _run_experiment(kind, args) -> int:
    opt = _merge(args)
    cfg = _experiment_config(kind, opt)
    runner = {
        "tail": harness.run_tail_experiment,
        "expectation": harness.run_expectation_experiment,
        "wendel": harness.run_wendel_experiment,
        "tube": harness.run_tube_experiment,
        "property-suite": harness.run_property_suite,
        "sampler-check": harness.run_sampler_check,
    }[kind]
    records, summary = runner(cfg)
    _print_summary(kind, summary)
    return _finish(records, summary, cfg)


def _print_summary(kind, summary):
    if summary.get("tail_table"):
        rows = summary["tail_table"]
        ok_f = sum(1 for r in rows if r["pass_F"] is not False)
        ok_i = sum(1 for r in rows if r["pass_I"])
        print(f"tail: {len(rows)} grid points, pass_F {ok_f}/{len(rows)}, "
              f"pass_I {ok_i}/{len(rows)}; counts={summary['counts']}")
    if summary.get("expectation"):
        e = summary["expectation"]
        print(f"expectation: mean={e['mean']} se={e['se']} bound={e['bound']:.6g} "
              f"status={e['status']}")
    for row in summary.get("wendel_table") or []:
        print(f"wendel k={row['k']}: p_hat={row['p_hat']:.6f} "
              f"p={row['p_exact']:.6f} pass={row['pass']}")
    for row in summary.get("tube_table") or []:
        print(f"tube m={row['m']}: outer={row['est_outer']:.6f} "
              f"inner={row['est_inner']:.6f} bound={row['bound']:.6f} "
              f"pass={row['pass_outer'] and row['pass_inner']}")
    suite = summary.get("property_suite")
    if suite:
        for name, check in suite.items():
            print(f"property {name}: qualifying={check['qualifying']} "
                  f"violations={check['violations']} status={check['status']}")
    for row in summary.get("sampler_table") or []:
        print(f"sampler beta={row['beta']}: ks_radial={row['ks_radial']:.5f} "
              f"(<= {row['ks_radial_threshold']:.5f}) support_ok={row['support_ok']}")


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file (flags win)")
    parser.add_argument("--m", type=int, help="sphere dimension m (default 2)")
    parser.add_argument("--n", type=int, help="rows per instance (default 5)")
    parser.add_argument("--alpha", type=parse_angle,
                        help="cap radius in radians or piOverK (default piOver6)")
    parser.add_argument("--beta", type=float, help="density pole order (default 0)")
    parser.add_argument("--h-table", dest="h_table", help="two-column h(r) table file")
    parser.add_argument("--N", type=int, help="sample count (default 100000)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--center", help="center instance: random | file:PATH | "
                                         "equal-rows | great-circle")
    parser.add_argument("--out", help="output directory (default lpcond-out)")
    parser.add_argument("--workers", type=int,
                        help="accepted and ignored: every run is serial")
    parser.add_argument("--delta-mode", dest="delta_mode",
                        choices=["lemma", "beta0-remark"],
                        help="tolerance formula (default lemma)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpcond",
        description="Condition numbers of spherical feasibility instances and "
                    "Monte Carlo verification of their smoothed-analysis bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
        ("classify", _cmd_classify, "feasibility class of an instance file"),
        ("cond", _cmd_cond, "condition number and class of an instance file"),
        ("sic", _cmd_sic, "smallest including cap of an instance file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--instance", required=True, help="instance file (header 'n m')")
        p.set_defaults(func=fn)

    p = sub.add_parser("sample", help="draw seeded instances to files")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    experiments = (
        ("exp-tail", "tail", "tail probability vs closed-form bounds"),
        ("exp-mean", "expectation", "mean log-condition vs its bound"),
        ("exp-wendel", "wendel", "uniform feasibility frequency vs exact formula"),
        ("exp-tube", "tube", "boundary-neighborhood volume vs its bound"),
        ("exp-properties", "property-suite", "structural property checks"),
        ("validate-sampler", "sampler-check", "sampler fidelity checks"),
    )
    for name, kind, help_text in experiments:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if kind == "tail":
            p.add_argument("--t-grid", dest="t_grid", type=parse_t_grid,
                           help="geometric grid lo:hi:points")
        if kind == "wendel":
            p.add_argument("--k", type=parse_k_values,
                           help="row counts, lo:hi or comma list")
        if kind == "tube":
            p.add_argument("--phi", type=parse_angle, help="neighborhood angle")
            p.add_argument("--cap-radius", dest="cap_radius", type=parse_angle,
                           help="radius of the convex cap K")
            p.add_argument("--offset", type=parse_angle,
                           help="angle between the ball center and K's center")
        p.set_defaults(func=lambda args, kind=kind: _run_experiment(kind, args))
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ConvergenceError, DegenerateHullError, InstanceTooLargeError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
