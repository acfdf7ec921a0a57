import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lpcond
from lpcond import harness, sic
from lpcond.cli import (
    _EXPERIMENTS,
    _FIELDS,
    _OUT_DIR,
    _experiment_config,
    _failed,
    _parser,
    _read_config_file,
    main,
    parse_angle,
    parse_k_values,
    parse_t_grid,
)
from lpcond.harness import ExperimentConfig
from lpcond.sic import Instance
from oracles import gordan_classify

TRIPLE = "3 1\n1 0\n-0.5 0.8660254037844386\n-0.5 -0.8660254037844386\n"
# Strictly feasible: the coordinate frame of S^2 and its center direction.
SIMPLEX = ("4 2\n1 0 0\n0 1 0\n0 0 1\n"
           "0.5773502691896258 0.5773502691896258 0.5773502691896258\n")
# Exactly ill-posed: an antipodal pair and a doubled row on S^1.
ANTIPODAL = "4 1\n1 0\n-1 0\n0 1\n0 1\n"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIPLE)
    return os.fspath(path)


class TestParsers:
    def test_angle_shorthand(self):
        assert parse_angle("piOver6") == pytest.approx(math.pi / 6)
        assert parse_angle("piOver2") == pytest.approx(math.pi / 2)
        assert parse_angle("0.75") == 0.75

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_angle_is_a_value_error(self, text):
        with pytest.raises(ValueError, match=f"angle {text} is not finite"):
            parse_angle(text)

    def test_pi_over_zero_is_a_value_error(self):
        with pytest.raises(ValueError, match="piOver0 divides by zero"):
            parse_angle("piOver0")

    def test_t_grid(self):
        grid = parse_t_grid("10:1000:3")
        assert grid[0] == pytest.approx(10.0)
        assert grid[-1] == pytest.approx(1000.0)
        assert len(grid) == 3
        with pytest.raises(ValueError):
            parse_t_grid("10:1000")

    def test_k_values(self):
        assert parse_k_values("4:7") == (4, 5, 6, 7)
        assert parse_k_values("4,6,8") == (4, 6, 8)
        assert parse_k_values("5:5") == (5,)

    def test_empty_k_range_rejected(self):
        with pytest.raises(ValueError, match="k range '9:5' is empty"):
            parse_k_values("9:5")


class TestPrecedence:
    def test_config_file_parsed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nm = 3\nalpha = piOver4\nN=500\n")
        values = _read_config_file(cfg, "tail")
        assert values == {"m": 3, "alpha": pytest.approx(math.pi / 4), "N": 500}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(Exception):
            _read_config_file(cfg, "tail")

    def test_flags_override_file_override_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 3\nN = 500\nseed = 9\n")

        class Args:
            config = os.fspath(cfg)
            m = None      # from file
            N = 20        # explicit flag wins
            seed = None   # from file
            n = None      # builtin default

        cfg = _experiment_config("tail", Args())
        assert cfg.m == 3
        assert cfg.N == 20
        assert cfg.master_seed == 9
        assert cfg.n == 5


class TestDefaults:
    def test_help_defaults_are_the_config_defaults(self):
        # Every "(default X)" in the help is ExperimentConfig's default for
        # the flag's field (the output directory: the CLI's own default).
        config_defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        config_defaults["out_dir"] = _OUT_DIR
        parser = _parser(None)
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        seen = set()
        for command in commands.choices.values():
            for action in command._actions:
                found = re.search(r"\(default ([^)]+)\)", action.help or "")
                if found:
                    text = found.group(1)
                    value = action.type(text) if action.type else text
                    assert value == config_defaults[_FIELDS.get(action.dest, action.dest)], (
                        action.dest)
                    seen.add(action.dest)
        assert seen == {"m", "n", "alpha", "beta", "N", "seed", "out", "delta_mode", "center",
                        "offset"}


class TestRejectedInputs:
    @pytest.mark.parametrize("command, flag", [
        ("exp-tail", "--alpha"), ("exp-tube", "--phi"), ("exp-tube", "--cap-radius"),
        ("exp-tube", "--offset"),
    ])
    def test_pi_over_zero_flag_exit_one(self, tmp_path, capsys, command, flag):
        assert main([command, flag, "piOver0", "--out", os.fspath(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"lpcond {command}: error: argument {flag}: invalid parse_angle value: 'piOver0'"]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_angle_flag_exit_one(self, tmp_path, capsys, text):
        out = tmp_path / "o"
        assert main(["exp-tube", "--phi", text, "--cap-radius", "piOver4", "--N", "100",
                     "--out", os.fspath(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"lpcond exp-tube: error: argument --phi: invalid parse_angle value: '{text}'"]
        assert not os.path.exists(out)

    def test_non_finite_angle_in_config_file_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("phi = nan\ncap_radius = piOver4\nN = 100\n")
        out = tmp_path / "o"
        assert main(["exp-tube", "--config", os.fspath(cfg), "--out", os.fspath(out)]) == 1
        assert capsys.readouterr().err == "error: angle nan is not finite\n"
        assert not os.path.exists(out)

    def test_pi_over_zero_in_config_file_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("alpha = piOver0\n")
        out = tmp_path / "o"
        assert main(["exp-tail", "--config", os.fspath(cfg), "--out", os.fspath(out)]) == 1
        assert capsys.readouterr().err == "error: piOver0 divides by zero\n"
        assert not os.path.exists(out)

    def test_empty_k_range_exit_one(self, tmp_path, capsys):
        # Not the default k = m+2, 2m+2, 3m+2 with k_values null in the summary.
        out = tmp_path / "o"
        assert main(["exp-wendel", "--k", "9:5", "--N", "64", "--out", os.fspath(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "lpcond exp-wendel: error: argument --k: invalid parse_k_values value: '9:5'"]
        cfg = tmp_path / "w.cfg"
        cfg.write_text("k = 9:5\n")
        assert main(["exp-wendel", "--config", os.fspath(cfg), "--N", "64",
                     "--out", os.fspath(out)]) == 1
        assert capsys.readouterr().err == "error: k range '9:5' is empty\n"
        assert not os.path.exists(out)

    def test_sphere_dimension_zero_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["exp-wendel", "--m", "0", "--N", "64", "--seed", "1",
                     "--out", os.fspath(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the sphere dimension m must be at least 1, got 0\n")
        assert not os.path.exists(out)

    def test_low_t_grid_exit_one_before_any_draw(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the grid is checked before the draw")

        monkeypatch.setattr(harness, "draw_condition_records", no_draw)
        out = tmp_path / "o"
        assert main(["exp-tail", "--N", "200000", "--t-grid", "0.5:10:3",
                     "--out", os.fspath(out)]) == 1
        assert capsys.readouterr().err == "error: the infeasible-tail bound needs t >= 1\n"
        assert not os.path.exists(out)

    def test_properties_need_more_rows_than_m_plus_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["exp-properties", "--m", "1", "--n", "2", "--out", os.fspath(out)]) == 1
        assert capsys.readouterr().err == "error: property suite needs n > m+1\n"
        assert not os.path.exists(out)


TAIL_ARGV = ["exp-tail", "--N", "64"]
MEAN_ARGV = ["exp-mean", "--m", "3", "--n", "12", "--N", "16"]
TUBE_ARGV = ["exp-tube", "--phi", "0.01", "--cap-radius", "0.5", "--N", "64"]
PROPS_ARGV = ["exp-properties", "--m", "1", "--n", "3"]
SAMPLER_ARGV = ["validate-sampler", "--N", "64"]  # m = 2, beta = 0: every sampler check
# Every verdict field the harness writes: (argv, its runner, the field's
# path in the summary).  Each run's own verdicts pass.
VERDICTS = [
    (TAIL_ARGV, "run_tail_experiment", ("tail_table", 0, "pass_F")),
    (TAIL_ARGV, "run_tail_experiment", ("tail_table", -1, "pass_I")),
    (MEAN_ARGV, "run_expectation_experiment", ("expectation", "pass")),
    (["exp-wendel", "--k", "4:5", "--N", "64"], "run_wendel_experiment",
     ("wendel_table", 1, "pass")),
    (TUBE_ARGV, "run_tube_experiment", ("tube_table", 0, "pass_outer")),
    (TUBE_ARGV, "run_tube_experiment", ("tube_table", 0, "pass_inner")),
    (PROPS_ARGV, "run_property_suite", ("property_suite", "multrva", "grid", 0, "pass")),
    (SAMPLER_ARGV, "run_sampler_check", ("sampler_table", 0, "pass_radial")),
    (SAMPLER_ARGV, "run_sampler_check", ("sampler_table", 0, "pass_direction")),
    (SAMPLER_ARGV, "run_sampler_check", ("sampler_table", 0, "pass_rejection")),
    (SAMPLER_ARGV, "run_sampler_check", ("sampler_table", 0, "support_ok")),
]
STATUSES = [
    (MEAN_ARGV, "run_expectation_experiment", ("expectation", "status")),
    (PROPS_ARGV, "run_property_suite", ("property_suite", "af", "status")),
    (PROPS_ARGV, "run_property_suite", ("property_suite", "ccine", "status")),
]


class TestExitCodes:
    """A command exits 2 if and only if its summary holds False under a
    pass, pass_* or support_ok key, or a status of "fail"."""

    @staticmethod
    def _run_with(monkeypatch, tmp_path, argv, runner, path, value):
        # The CLI looks its runner up on harness at each call.
        real = getattr(harness, runner)

        def patched(cfg):
            records, summary = real(cfg)
            node = summary
            for step in path[:-1]:
                node = node[step]
            assert path[-1] in node
            node[path[-1]] = value
            return records, summary

        monkeypatch.setattr(harness, runner, patched)
        code = main(argv + ["--seed", "1", "--out", os.fspath(tmp_path / "o")])
        assert json.load(open(tmp_path / "o" / "summary.json"))  # written either way
        return code

    @pytest.mark.parametrize("argv, runner", sorted({(tuple(a), r) for a, r, _ in VERDICTS}),
                             ids=lambda v: v if isinstance(v, str) else v[0])
    def test_every_verdict_is_a_bool_or_none(self, monkeypatch, tmp_path, capsys, argv, runner):
        # `_failed` tests `value is False`, which a numpy bool never is.
        real, summaries = getattr(harness, runner), []

        def kept(cfg):
            records, summary = real(cfg)
            summaries.append(summary)
            return records, summary

        monkeypatch.setattr(harness, runner, kept)
        assert main(list(argv) + ["--seed", "1", "--out", os.fspath(tmp_path / "o")]) == 0
        verdicts = []

        def walk(node):
            for key, value in (node.items() if isinstance(node, dict) else
                               enumerate(node) if isinstance(node, list) else ()):
                if key in ("pass", "support_ok") or str(key).startswith("pass_"):
                    verdicts.append(value)
                walk(value)

        walk(summaries)
        assert verdicts and all(type(v) in (bool, type(None)) for v in verdicts), verdicts

    @pytest.mark.parametrize("value, code", [(False, 2), (True, 0), (None, 0)])
    @pytest.mark.parametrize("argv, runner, path", VERDICTS,
                             ids=["/".join(map(str, v[2])) for v in VERDICTS])
    def test_verdict_field(self, monkeypatch, tmp_path, capsys, argv, runner, path, value, code):
        assert self._run_with(monkeypatch, tmp_path, argv, runner, path, value) == code

    @pytest.mark.parametrize("value, code", [
        ("fail", 2), ("pass", 0), ("inconclusive", 0), ("informational", 0),
        ("insufficient-precision", 0)])
    @pytest.mark.parametrize("argv, runner, path", STATUSES,
                             ids=["/".join(map(str, v[2])) for v in STATUSES])
    def test_status_field(self, monkeypatch, tmp_path, capsys, argv, runner, path, value, code):
        assert self._run_with(monkeypatch, tmp_path, argv, runner, path, value) == code

    def test_bound_failure_maps_to_two(self):
        assert not _failed({"wendel_table": [{"pass": True}]})
        assert _failed({"wendel_table": [{"pass": False}]})
        assert not _failed({"tail_table": [{"pass_F": None, "pass_I": True}]})
        assert _failed({"tail_table": [{"pass_F": False, "pass_I": True}]})
        assert not _failed({"property_suite": {"af": {"status": "inconclusive"}}})
        assert _failed({"property_suite": {"af": {"status": "fail"}}})


class TestCommands:
    def test_cond_known_instance(self, tri_file, capsys):
        assert main(["cond", "--instance", tri_file]) == 0
        out = capsys.readouterr().out
        assert "class=IF" in out
        assert "cond=2" in out

    @pytest.mark.parametrize("text,expected", [
        (TRIPLE, "IF"), (SIMPLEX, "SF"), (ANTIPODAL, "IP"),
    ])
    def test_classify_agrees_with_cond(self, tmp_path, capsys, text, expected):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        classes = []
        for command in ("classify", "cond"):
            assert main([command, "--instance", os.fspath(path)]) == 0
            out = capsys.readouterr().out
            classes.append(out.split("class=", 1)[1].split()[0])
        assert classes == [expected, expected]
        assert gordan_classify(Instance.from_file(path)).value == expected

    def test_classify_bad_row_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n1 0\n3 0\n0 1\n")
        assert main(["classify", "--instance", os.fspath(bad)]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err
        # A NaN norm is not within 1e-6 of 1 either.
        bad.write_text("3 1\n1 0\nnan 0\n0 1\n")
        for command in ("classify", "cond", "sic"):
            assert main([command, "--instance", os.fspath(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "row 2 has norm nan" in captured.err

    def test_sic_output(self, tri_file, capsys):
        assert main(["sic", "--instance", tri_file]) == 0
        out = capsys.readouterr().out
        assert "rho=" in out and "support=" in out

    def test_missing_file_exit_one(self, capsys):
        assert main(["cond", "--instance", "/nonexistent/x.txt"]) == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["classify"]) == 1  # missing required --instance

    def test_unknown_command_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_listings(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("classify", "cond", "sic", "sample", "exp-tail", "exp-mean",
                    "exp-wendel", "exp-tube", "exp-properties", "validate-sampler"):
            assert sub in out
        assert main(["exp-tail", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--m", "--n", "--alpha", "--beta", "--N", "--seed",
                     "--t-grid", "--center", "--out", "--workers", "--delta-mode"):
            assert flag in out


COMMANDS = ("classify", "cond", "sic", "sample", "exp-tail", "exp-mean", "exp-wendel",
            "exp-tube", "exp-properties", "validate-sampler")


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in COMMANDS])
    def test_matches_the_full_parser(self, capsys, argv):
        # main builds the named subcommand's arguments only.
        with pytest.raises(SystemExit):
            _parser(None).parse_args(argv)
        full = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == full

    @pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "exp-mean"], ["frobnicate"],
                                      ["classify"], ["exp-mean", "--bogus", "1"]]
                             + [[c, "--help"] for c in COMMANDS])
    def test_streams_and_exit_match_the_full_parser(self, monkeypatch, capsys, argv):
        # main builds only the subcommand its first word names, if any; the
        # help, usage errors and exit code are those of every one built.
        code = main(argv)
        built = capsys.readouterr()
        monkeypatch.setattr(lpcond.cli, "_parser", lambda _: _parser(None))
        assert main(argv) == code
        assert capsys.readouterr() == built

    def test_tube_help_says_phi_and_cap_radius_are_required(self, capsys):
        assert main(["exp-tube", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--phi PHI neighborhood angle (required, here or in --config)" in text
        assert ("--cap-radius CAP_RADIUS radius of the convex cap K (required, here or in "
                "--config)") in text

    @pytest.mark.parametrize("given", [[], ["--phi", "0.06"], ["--cap-radius", "piOver4"]])
    def test_tube_without_phi_or_cap_radius_exit_one(self, tmp_path, capsys, given):
        out = tmp_path / "o"
        argv = ["exp-tube", "--seed", "0", "--workers", "1", "--out", os.fspath(out)]
        assert main(argv + given) == 1
        assert capsys.readouterr().err == "error: tube experiment needs cap_radius and phi\n"
        assert not os.path.exists(out)


# The keys each command reads (flag "--" + key with "_" as "-"), besides
# --config, --out and --workers; the file commands read --instance alone.
DRAW = ["m", "n", "alpha", "beta", "h_table", "N", "seed", "center"]
READS = {
    "sample": DRAW,
    "exp-tail": DRAW + ["delta_mode", "t_grid"],
    "exp-mean": DRAW,
    "exp-wendel": ["m", "N", "seed", "k"],
    "exp-tube": ["m", "alpha", "N", "seed", "phi", "cap_radius", "offset"],
    "exp-properties": ["m", "n", "seed"],
    "validate-sampler": ["m", "alpha", "beta", "N", "seed"],
}
# A valid value of every key but out and workers.
VALUES = {"m": "2", "n": "5", "alpha": "piOver6", "beta": "0", "h_table": "h.txt",
          "N": "10", "seed": "0", "center": "random", "delta_mode": "lemma",
          "t_grid": "10:1000:3", "k": "4", "phi": "0.06", "cap_radius": "piOver4",
          "offset": "0"}


def _flag(key):
    return "--" + key.replace("_", "-")


class TestEachCommandReadsItsKeys:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_exactly_the_keys_read(self, capsys, command):
        assert main([command, "--help"]) == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        if command in READS:
            expected = ["--config"] + [_flag(k) for k in READS[command]] + ["--out", "--workers"]
        else:
            expected = ["--instance"]
        assert listed == ["--help"] + expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unread_flag_refused(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        base = [command, "--out", os.fspath(out)] if command in READS else [
            command, "--instance", os.fspath(tmp_path / "x.txt")]
        for key in sorted(set(VALUES) - set(READS.get(command, ()))):
            assert main(base + [_flag(key), VALUES[key]]) == 1, key
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"lpcond {command}: error: unrecognized arguments: {_flag(key)} {VALUES[key]}"]
            assert not os.path.exists(out), key

    @pytest.mark.parametrize("command", sorted(READS))
    def test_unread_config_key_refused(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        cfg = tmp_path / "c.cfg"
        for key in sorted(set(VALUES) - set(READS[command])):
            cfg.write_text(f"{key} = {VALUES[key]}\n")
            assert main([command, "--config", os.fspath(cfg), "--out", os.fspath(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}:1: {command} reads no key {key!r}\n"), key
            assert not os.path.exists(out), key

    @pytest.mark.parametrize("command", sorted(READS))
    def test_read_keys_accepted_in_config_file(self, tmp_path, command):
        kind = {c: k for c, k, _, _, _ in _EXPERIMENTS}[command]
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{key} = {VALUES[key]}\n" for key in READS[command])
                       + "out = o\nworkers = 2\n")
        assert set(_read_config_file(cfg, kind)) == set(READS[command]) | {"out", "workers"}

    def test_out_and_workers_read_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "o"
        cfg.write_text(f"out = {out}\nworkers = 3\nN = 64\nk = 4\n")
        assert main(["exp-wendel", "--config", os.fspath(cfg)]) == 0
        assert os.path.exists(out / "summary.json")


def _fresh_python(code, *args):
    """The stdout words of `python -c code args` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(lpcond.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return done.stdout.split()


def test_cli_import_loads_no_scipy():
    code = ("import sys, lpcond.cli; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == []


# Runs the CLI on argv after `import lpcond.cli`, then prints its exit code
# and every scipy or numpy module the call imported.
_CALL_IMPORTS = """
import contextlib, io, sys
import lpcond.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = lpcond.cli.main(sys.argv[1:])
print(code, *sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('scipy', 'numpy')))
"""


@pytest.mark.parametrize("argv", [
    ("exp-tail", "--m", "2", "--n", "5", "--N", "300"),
    ("exp-mean", "--m", "3", "--n", "12", "--N", "64"),
    ("exp-wendel", "--m", "3", "--k", "5,7,9", "--N", "64"),
    ("exp-properties", "--m", "1", "--n", "3"),
], ids=lambda argv: argv[0])
def test_benchmark_commands_import_no_scipy_nor_numpy_module(argv, tmp_path):
    out = os.fspath(tmp_path / "out")
    assert _fresh_python(_CALL_IMPORTS, *argv, "--seed", "3", "--workers", "1", "--out", out) == ["0"]


class TestExperimentsEndToEnd:
    def test_wendel_writes_outputs(self, tmp_path, capsys):
        out = os.fspath(tmp_path / "w")
        code = main(["exp-wendel", "--m", "2", "--k", "4:5", "--N", "2000",
                     "--seed", "7", "--out", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["wendel_table"][0]["k"] == 4
        assert os.path.exists(os.path.join(out, "records.csv"))

    def test_same_invocation_byte_identical(self, tmp_path):
        args = ["exp-tail", "--m", "2", "--n", "5", "--N", "400", "--seed", "3"]
        out1, out2 = os.fspath(tmp_path / "a"), os.fspath(tmp_path / "b")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("records.csv", "summary.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_sample_writes_instances(self, tmp_path):
        out = os.fspath(tmp_path / "s")
        code = main(["sample", "--m", "2", "--n", "5", "--N", "3",
                     "--seed", "1", "--out", out])
        assert code == 0
        files = sorted(os.listdir(out))
        assert len(files) == 3
        header = open(os.path.join(out, files[0])).readline().split()
        assert header == ["5", "2"]

    def test_sample_writes_the_rows_an_experiment_solves(self, tmp_path, capsys):
        # The same draw: each file's rows, stacked and solved, give the
        # records' rho bit for bit.
        args = ["--m", "2", "--n", "5", "--N", "6", "--seed", "4", "--out"]
        assert main(["sample"] + args + [os.fspath(tmp_path / "s")]) == 0
        assert main(["exp-tail"] + args + [os.fspath(tmp_path / "t")]) == 0
        files = sorted(os.listdir(tmp_path / "s"))
        mats = np.stack([np.loadtxt(tmp_path / "s" / f, skiprows=1) for f in files])
        lines = open(tmp_path / "t" / "records.csv").read().splitlines()[1:]
        assert sic.stack_rho(mats).tolist() == [float(line.split(",")[4]) for line in lines]

    def test_tube_config_error_exit_one(self, tmp_path, capsys):
        code = main(["exp-tube", "--m", "2", "--alpha", "piOver6", "--phi", "0.9",
                     "--cap-radius", "piOver4", "--N", "100",
                     "--out", os.fspath(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["-0.01", "0", "3.1", "piOver2"])
    def test_tube_phi_outside_zero_to_half_pi_exit_one(self, tmp_path, capsys, phi):
        # Each but pi/2 has sin(phi) <= sigma/(2m); the bound also needs
        # 0 < phi < pi/2.  -0.01 ran and exited 2, 0 passed vacuously.
        out = tmp_path / "o"
        assert main(["exp-tube", "--m", "2", "--phi=" + phi, "--cap-radius", "0.5",
                     "--N", "2000", "--out", os.fspath(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phi=") and "outside the bound's hypothesis" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["exp-tail", "--N", "0"],
        ["exp-tail", "--N", "-5"],
        ["exp-mean", "--N", "0"],
        ["exp-wendel", "--k", "4", "--N", "0"],
        ["exp-tube", "--phi", "0.06", "--cap-radius", "piOver4", "--offset", "piOver4",
         "--N", "0"],
        ["validate-sampler", "--N", "0"],
        ["sample", "--N", "0"],
    ])
    def test_sample_count_below_one_exit_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", os.fspath(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "N must be at least 1" in err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_properties_take_no_sample_count(self, tmp_path, capsys, source):
        # The property suite's pools are fixed: it reads no N.
        argv = ["exp-properties", "--out", os.fspath(tmp_path / "o")]
        cfg = tmp_path / "p.cfg"
        if source == "flag":
            argv += ["--N", "500"]
        else:
            cfg.write_text("m = 1\nN = 500\n")
            argv += ["--config", os.fspath(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        if source == "flag":
            assert [line for line in err.splitlines() if "error:" in line] == [
                "lpcond exp-properties: error: unrecognized arguments: --N 500"]
        else:
            assert err == f"error: {cfg}:2: exp-properties reads no key 'N'\n"
        assert not os.path.exists(tmp_path / "o")

    def test_properties_help_says_no_sample_count(self, capsys):
        assert main(["exp-properties", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--N" not in help_text
        assert "sample count" not in help_text

    @pytest.mark.parametrize("header, rows, named", [
        ("7 2", [[0.0, 0.6, 0.8]] * 7, "n=7 rows on S^2, but the config asks for n=5 on S^2"),
        ("5 1", [[0.6, 0.8]] * 5, "n=5 rows on S^1, but the config asks for n=5 on S^2"),
    ])
    def test_center_file_of_another_size_exit_one(self, tmp_path, capsys, header, rows, named):
        # --n and --m keep their defaults, 5 and 2.
        path = tmp_path / "center.txt"
        path.write_text(header + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        out = tmp_path / "o"
        assert main(["exp-tail", "--center", f"file:{path}", "--N", "10", "--out", os.fspath(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not os.path.exists(out)

    def test_config_file_flag(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("m = 2\nN = 1500\nseed = 4\nk = 4:4\n")
        out = os.fspath(tmp_path / "o")
        code = main(["exp-wendel", "--config", os.fspath(cfg), "--out", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["config"]["N"] == 1500
        assert summary["config"]["master_seed"] == 4
