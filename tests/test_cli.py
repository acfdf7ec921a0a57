import json
import math
import os

import pytest

from lpcond.cli import (
    _merge,
    _read_config_file,
    main,
    parse_angle,
    parse_k_values,
    parse_t_grid,
)
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


class TestPrecedence:
    def test_config_file_parsed(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nm = 3\nalpha = piOver4\nN=500\n")
        values = _read_config_file(cfg)
        assert values == {"m": 3, "alpha": pytest.approx(math.pi / 4), "N": 500}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(Exception):
            _read_config_file(cfg)

    def test_flags_override_file_override_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 3\nN = 500\nseed = 9\n")

        class Args:
            config = os.fspath(cfg)
            m = None      # from file
            N = 20        # explicit flag wins
            seed = None   # from file
            n = None      # builtin default

        merged = _merge(Args())
        assert merged["m"] == 3
        assert merged["N"] == 20
        assert merged["seed"] == 9
        assert merged["n"] == 5


class TestExitCodes:
    def test_bound_failure_maps_to_two(self):
        from lpcond.cli import _summary_exit_code

        passing = {"wendel_table": [{"pass": True}]}
        failing = {"wendel_table": [{"pass": False}]}
        assert _summary_exit_code(passing) == 0
        assert _summary_exit_code(failing) == 2
        assert _summary_exit_code({"tail_table": [
            {"pass_F": None, "pass_I": True},
        ]}) == 0
        assert _summary_exit_code({"tail_table": [
            {"pass_F": False, "pass_I": True},
        ]}) == 2
        assert _summary_exit_code({"property_suite": {
            "af": {"status": "inconclusive"},
        }}) == 0
        assert _summary_exit_code({"property_suite": {
            "af": {"status": "fail"},
        }}) == 2


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
        assert gordan_classify(Instance.from_file(path)).short == expected

    def test_classify_bad_row_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n1 0\n3 0\n0 1\n")
        assert main(["classify", "--instance", os.fspath(bad)]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err

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

    def test_tube_config_error_exit_one(self, tmp_path, capsys):
        code = main(["exp-tube", "--m", "2", "--alpha", "piOver6", "--phi", "0.9",
                     "--cap-radius", "piOver4", "--N", "100",
                     "--out", os.fspath(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["exp-tail", "--N", "0"],
        ["exp-tail", "--N", "-5"],
        ["exp-mean", "--N", "0"],
        ["exp-wendel", "--k", "4", "--N", "0"],
        ["exp-tube", "--phi", "0.06", "--cap-radius", "piOver4", "--offset", "piOver4",
         "--N", "0"],
        ["exp-properties", "--N", "0"],
        ["validate-sampler", "--N", "0"],
        ["sample", "--N", "0"],
    ])
    def test_sample_count_below_one_exit_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", os.fspath(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "N must be at least 1" in err
        assert not os.path.exists(tmp_path / "o")

    def test_config_file_flag(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("m = 2\nN = 1500\nseed = 4\nk = 4:4\n")
        out = os.fspath(tmp_path / "o")
        code = main(["exp-wendel", "--config", os.fspath(cfg), "--out", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["config"]["N"] == 1500
        assert summary["config"]["master_seed"] == 4
