"""Command-line front end.

Exit codes: 1 on usage, configuration, I/O or solver errors; else 2
where the summary records a failed check (`_failed`), else 0.  Flags
override values from an optional key=value config file.  Each key
(`_KEYS`: its converter and help) is declared once, and each experiment
command is one row of `_EXPERIMENTS`: the harness function that runs it
and the keys it reads, as flags and as config-file keys, besides `out`
and `workers`; any other key is an error naming the command and the key.
Every command runs serially on one thread; `workers` is accepted and
ignored, so scripts that pass it still run.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import harness
from .errors import ConfigError, ConvergenceError, DegenerateHullError
from .harness import ExperimentConfig
from .sic import Instance, classify_rho, cond_and_class, cond_from_rho, sic_rho

_PI_OVER = re.compile(r"^piOver(\d+)$")

# Keys (flags and config-file keys) named unlike their ExperimentConfig
# field; every other key but the ignored `workers` is its field's name.
_FIELDS = {"seed": "master_seed", "h_table": "h_path", "k": "k_values",
           "offset": "placement_offset", "out": "out_dir"}
# The one default the CLI adds to ExperimentConfig's: where outputs go.
_OUT_DIR = "lpcond-out"


def parse_angle(text) -> float:
    """Angle flag: plain finite radians or the piOverK shorthand."""
    match = _PI_OVER.match(text)
    if match:
        if int(match.group(1)) == 0:
            raise ValueError(f"{text} divides by zero")
        return math.pi / int(match.group(1))
    if not math.isfinite(float(text)):
        raise ValueError(f"angle {text} is not finite")
    return float(text)


def parse_t_grid(text) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"t-grid must be lo:hi:points, got {text!r}")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < hi and pts >= 1):
        raise ValueError(f"bad t-grid {text!r}")
    return tuple(float(t) for t in np.geomspace(lo, hi, pts))


def parse_k_values(text) -> tuple:
    if ":" in text:
        lo, hi = (int(p) for p in text.split(":"))
        if lo > hi:
            raise ValueError(f"k range {text!r} is empty")
        return tuple(range(lo, hi + 1))
    return tuple(int(p) for p in text.split(","))


# Every key a command may read: its converter and help text.  A key is
# given as the flag "--" + key (underscores as dashes) or as a config-file
# line "key = value".
_KEYS = {
    "m": (int, "sphere dimension m (default 2)"),
    "n": (int, "rows per instance (default 5)"),
    "alpha": (parse_angle, "cap radius in radians or piOverK (default piOver6)"),
    "beta": (float, "density pole order (default 0)"),
    "h_table": (str, "two-column h(r) table file; without it h = 1"),
    "N": (int, "sample count (default 100000)"),
    "seed": (int, "master seed (default 0)"),
    "center": (str, "center instance: random | file:PATH | equal-rows | great-circle "
                     "(default random)"),
    "delta_mode": (str, "tolerance formula: lemma | beta0-remark (default lemma)"),
    "t_grid": (parse_t_grid, "geometric grid lo:hi:points; without it 12 points from "
               "threshold_F to 10^4 times it"),
    "k": (parse_k_values, "row counts, lo:hi or comma list; without it k = m+2, 2m+2, 3m+2"),
    "phi": (parse_angle, "neighborhood angle (required, here or in --config)"),
    "cap_radius": (parse_angle, "radius of the convex cap K (required, here or in --config)"),
    "offset": (parse_angle, "angle between the ball center and K's center (default 0)"),
    "out": (str, "output directory (default lpcond-out)"),
    "workers": (int, "accepted and ignored: every run is serial"),
}
# What a condition-number draw reads (`sample`, `exp-tail`, `exp-mean`).
_DRAW = ("m", "n", "alpha", "beta", "h_table", "N", "seed", "center")
# The commands that run an ExperimentConfig: (command, kind, the name of
# the harness function that runs it, help, the keys it reads besides `out`
# and the ignored `workers`).  `sample` writes instance files itself.
_EXPERIMENTS = (
    ("sample", "sample", None, "draw seeded instances to files", _DRAW),
    ("exp-tail", "tail", "run_tail_experiment", "tail probability vs closed-form bounds",
     _DRAW + ("delta_mode", "t_grid")),
    ("exp-mean", "expectation", "run_expectation_experiment", "mean log-condition vs its bound",
     _DRAW),
    ("exp-wendel", "wendel", "run_wendel_experiment",
     "uniform feasibility frequency vs exact formula", ("m", "N", "seed", "k")),
    ("exp-tube", "tube", "run_tube_experiment", "boundary-neighborhood volume vs its bound",
     ("m", "alpha", "N", "seed", "phi", "cap_radius", "offset")),
    ("exp-properties", "property-suite", "run_property_suite", "structural property checks",
     ("m", "n", "seed")),
    ("validate-sampler", "sampler-check", "run_sampler_check", "sampler fidelity checks",
     ("m", "alpha", "beta", "N", "seed")),
)
# kind -> (command, every key it reads: its flags and its config-file keys).
_READS = {kind: (command, keys + ("out", "workers")) for command, kind, _, _, keys in _EXPERIMENTS}


def _read_config_file(path, kind) -> dict:
    """A config file's key=value lines, converted.  A key that `kind`'s
    command does not read is a ConfigError naming the command and the key."""
    command, keys = _READS[kind]
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
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: {command} reads no key {key!r}")
            values[key] = _KEYS[key][0](val.strip())
    return values


def _experiment_config(kind, args) -> ExperimentConfig:
    """ExperimentConfig's defaults (outputs under _OUT_DIR), then the
    config file, then explicit flags."""
    given = _read_config_file(args.config, kind) if getattr(args, "config", None) else {}
    for key in _READS[kind][1]:
        val = getattr(args, key, None)
        if val is not None:
            given[key] = val
    fields = {_FIELDS.get(key, key): val for key, val in given.items() if key != "workers"}
    return ExperimentConfig(kind=kind, **{"out_dir": _OUT_DIR, **fields})


def _failed(summary) -> bool:
    """Whether a summary, at any depth, holds False under a `pass`,
    `pass_*` or `support_ok` key, or "fail" under a `status` key."""
    if isinstance(summary, list):
        return any(_failed(value) for value in summary)
    return isinstance(summary, dict) and any(
        (value is False and (key in ("pass", "support_ok") or key.startswith("pass_")))
        or (key == "status" and value == "fail") or _failed(value)
        for key, value in summary.items())


def _cmd_classify(args) -> int:
    _, cls, _ = cond_and_class(Instance.from_file(args.instance))
    print(f"class={cls.value}")
    return 0


def _cmd_cond(args) -> int:
    cond, cls, dist = cond_and_class(Instance.from_file(args.instance))
    print(f"class={cls.value} cond={cond:g} dist_to_sigma={dist:.9g}")
    return 0


def _cmd_sic(args) -> int:
    rho, center, support = sic_rho(Instance.from_file(args.instance).matrix)
    print(f"rho={rho:.12g} class={classify_rho(rho).value} cond={cond_from_rho(rho):g}")
    print(f"center={' '.join(f'{v:.12g}' for v in center / np.linalg.norm(center))}")
    print(f"support={','.join(map(str, support))}")
    return 0


def _cmd_sample(args) -> int:
    cfg = _experiment_config("sample", args)
    params = harness.params_from_config(cfg)
    center = harness.resolve_center(cfg, params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for lo, mats in harness.sample_blocks(cfg, params, center, 0, cfg.N):
        for idx, mat in enumerate(mats, start=lo):
            path = os.path.join(cfg.out_dir, f"instance_{idx:06d}.txt")
            with open(path, "w") as fh:
                fh.write(f"{center.n} {center.m}\n")
                for row in mat:
                    fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {cfg.N} instance file(s) under {cfg.out_dir}")
    return 0


def _run_experiment(kind, runner, args) -> int:
    """Run `harness.<runner>`, looked up at each call (a tracer may patch
    it), print its summary and write its outputs: 2 if a check failed."""
    cfg = _experiment_config(kind, args)
    records, summary = getattr(harness, runner)(cfg)
    _print_summary(summary)
    if cfg.out_dir:
        csv_path, json_path = harness.persist(records, summary, cfg, cfg.out_dir)
        print(f"wrote {csv_path} and {json_path}")
    return 2 if _failed(summary) else 0


def _print_summary(summary):
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


_FILE_COMMANDS = (
    ("classify", _cmd_classify, "feasibility class of an instance file"),
    ("cond", _cmd_cond, "condition number and class of an instance file"),
    ("sic", _cmd_sic, "smallest including cap of an instance file"),
)


def _parser(argv=None) -> argparse.ArgumentParser:
    """The CLI parser: only the subcommand that argv's first word names,
    else (for the help and the invalid-choice error) all of them.  Each
    subcommand's `error` is its parser's, for the arguments it does not
    read."""
    parser = argparse.ArgumentParser(
        prog="lpcond",
        description="Condition numbers of spherical feasibility instances and "
                    "Monte Carlo verification of their smoothed-analysis bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [row[0] for row in _FILE_COMMANDS + _EXPERIMENTS]
    alone = argv[0] if argv and argv[0] in names else None
    for name, func, help_text in _FILE_COMMANDS:
        if alone in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=func, error=p.error)
            p.add_argument("--instance", required=True, help="instance file (header 'n m')")
    for name, kind, runner, help_text, _ in _EXPERIMENTS:
        if alone in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(error=p.error, func=_cmd_sample if runner is None else
                           functools.partial(_run_experiment, kind, runner))
            p.add_argument("--config", help="key=value config file (flags win)")
            for key in _READS[kind][1]:
                convert, key_help = _KEYS[key]
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=convert,
                               help=key_help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, unread = _parser(argv).parse_known_args(argv)
        if unread:
            args.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConvergenceError, DegenerateHullError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
