"""The files the experiment commands write, and what the CLI prints,
byte for byte.

Each run calls `cli.main` in process and compares the sha256 of its
`summary.json` and `records.csv` with the digests recorded at commit
b738b0f (numpy 2.4.6, scipy 1.17.1; another numpy may move the last bit
of a rho, and so a digest).  The runs:

- exp-tail, exp-mean and exp-wendel with the benchmark's arguments
  (`lpbench/workloads.py`) at master seed 3, and exp-properties with its
  arguments at master seed 5;
- exp-mean at master seed 16, where 156 of the 256 instances lie outside
  their hulls, so the routed solve takes the NNLS first;
- exp-mean at (m, n) = (3, 14) and (4, 8), past the facet scan's bound,
  where Qhull gives the nearest facets.

`test_streams_match_recorded_digests` pins the exit code and the sha256
of stdout and stderr of one tiny run of every command, of the help and
of three usage errors (STREAMS).

A change that moves a digest says why in CHANGES.md, and records the new
digest here.
"""

import contextlib
import hashlib
import io
import os

import pytest

from lpcond.cli import main

TAIL = ("exp-tail", "--m", "2", "--n", "5", "--alpha", "piOver6", "--beta", "0", "--N", "2048")
MEAN = ("exp-mean", "--m", "3", "--n", "12", "--center", "random", "--N", "256")
WENDEL = ("exp-wendel", "--m", "3", "--k", "5,7,9", "--N", "128")
PROPERTIES = ("exp-properties", "--m", "1", "--n", "3")
# A records.csv with its header alone.
NO_RECORDS = "cc24e26734a685e08bd47b731c56d15fb56d9623ff3fc9bcd5119a656e792207"

RUNS = {
    "tail-s3": (TAIL, 3, "c0457f6f1f6b6ebfda1a3b700e52a6aecb9424eae9ed50d224895b9e01125fe4",
                "f43b875019a66d8369b8c598cca12b681587cfc146f3282235295e2008db6092"),
    "mean-s3": (MEAN, 3, "d9a928972cdfaa4dc94715eaeb0e6120c78abb59a12cd355fc727fb5932b9dd9",
                "3d921d575fa5c55174126b15aeb0cc88a290d04147549822ec522ee492cd920a"),
    "wendel-s3": (WENDEL, 3, "64f889a9fdbd02e4dc608ca272adb875d0f2353e0e973813dcd19e7bded44082",
                  NO_RECORDS),
    "properties-s5": (PROPERTIES, 5,
                      "6c9e6ff30a3068e2ab4ecd39c9d8a330ba4bb5a6cb9773da2b14154378bc2508",
                      NO_RECORDS),
    "mean-s16": (MEAN, 16, "00a59ebb87e032cd3eabd9d9131060d96c80633185f585c3c05095e0d0d88e18",
                 "61d005a186e9937cffafe15945b33f117b98a33cd2a1086cb181cfb6d18e1836"),
    "mean-m3n14-s3": (("exp-mean", "--m", "3", "--n", "14", "--N", "256"), 3,
                      "1670da440c3824b77af08310580baa03915ce48e4f6317a08c1a3eaea5e73444",
                      "de22ab2a57238380ba2329160af9ea3f6757d70edf072ebd2536de58aae09044"),
    "mean-m4n8-s3": (("exp-mean", "--m", "4", "--n", "8", "--N", "256"), 3,
                     "b8423f9ce5ba6b27c5117fe5d10fa01d380ee1b939e740b1018eab4448ee34cb",
                     "370b77464c9bd5bb7b6475d8f605975be22c220bc4e9067b6e82da3a44865cb9"),
}


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("run", RUNS)
def test_outputs_match_recorded_digests(run, tmp_path):
    argv, seed, summary, records = RUNS[run]
    out = os.fspath(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--seed", str(seed), "--workers", "1", "--out", out])
    assert code == 0
    assert digest(tmp_path / "summary.json") == summary
    assert digest(tmp_path / "records.csv") == records


# The instance and table files the stream runs read, by name.
INPUTS = {
    "triple.txt": "3 1\n1 0\n-0.5 0.8660254037844386\n-0.5 -0.8660254037844386\n",
    # Exactly ill-posed (an antipodal pair): cond prints cond=inf.
    "antipodal.txt": "4 1\n1 0\n-1 0\n0 1\n0 1\n",
    "h.txt": "0 1\n0.25 2\n0.5 1\n",
}
# What the CLI prints: (argv, exit code, sha256 of stdout, sha256 of stderr)
# of one tiny run of every command, of the help and of three usage errors,
# recorded at commit 57087f1.  Outputs go to the relative directory `out`,
# which the experiments' "wrote ..." line names.
OUT = ("--seed", "3", "--out", "out")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # no output
STREAMS = {
    "classify": (("classify", "--instance", "triple.txt"), 0,
        "a096c9e540264c594592f46bced91e984d0c43e88eb78aa2b1c2b09e13d21ceb", EMPTY),
    "cond": (("cond", "--instance", "antipodal.txt"), 0,
        "7782c2d252fd8fb5da27469deb997187a3a9a48fd90260d587372fc69757523c", EMPTY),
    "sic": (("sic", "--instance", "triple.txt"), 0,
        "52908c5798e78f06605cdb06a784faefa020dbc6e6365ffc562e652da0c48580", EMPTY),
    "sample": (("sample", "--m", "2", "--n", "5", "--N", "2", "--center", "great-circle", *OUT), 0,
        "963a48ede65ebabe6a32b9abff0fd152d52e6b4efa3d85720a65e8d8cd1390ef", EMPTY),
    "exp-tail": (("exp-tail", "--m", "2", "--n", "5", "--N", "32", "--center", "equal-rows",
                  "--t-grid", "1:1000:3", "--h-table", "h.txt", *OUT), 0,
        "e15eab7dd52888af1ebcfea5a3883bbce044d14d5d3ee81478b03eadbb4b19da", EMPTY),
    "exp-mean": (("exp-mean", "--m", "3", "--n", "12", "--N", "16", *OUT), 0,
        "6178e00b4d46fd8e1279468f701474ba600be503c13fb95b795b31a35c79662c", EMPTY),
    "exp-wendel": (("exp-wendel", "--m", "1", "--k", "3:4", "--N", "16", *OUT), 0,
        "27f957b5c935dd1fa13b73d87fe9ea8fb99b10e85e66ea07f28d01849885e322", EMPTY),
    "exp-tube": (("exp-tube", "--m", "2", "--phi", "0.01", "--cap-radius", "0.5", "--N", "64",
                  *OUT), 0,
        "eb2aa3e6a56348012d1339c5371527dc6b76430e4d4780f2d83e17eee96cf07f", EMPTY),
    "exp-properties": (("exp-properties", "--m", "1", "--n", "3", *OUT), 0,
        "81c015b71cb1c8003a11bcba8e7d528cd332e5abc16a04c7d9a231ffff9e010c", EMPTY),
    "validate-sampler": (("validate-sampler", "--m", "2", "--beta", "0", "--N", "64", *OUT), 0,
        "a125f9316f3a00ca3202665ca1205c2c389bc04494f4decf60e6937dc3629e0e", EMPTY),
    "help": (("--help",), 0,
        "775b80970d774e975a46b341ebd017b2f2fd694e8367cbeb18bf2bde93ef3b2d", EMPTY),
    "no-instance": (("classify",), 1,
        EMPTY, "9e6145b882cd759b5ca58a3d37002e4be5f00fbc19812c4101966761df57b32c"),
    "unknown-command": (("frobnicate",), 1,
        EMPTY, "97e68ad8031e9a345408a7252aa09d7834ffee424ea32a80e9d2bc124a84a80f"),
    "unread-flag": (("exp-mean", "--bogus", "1"), 1,
        EMPTY, "3e1329e92325bff21c784d7ba1f12d0b9d2e441623e266d0faccc21d67b7f18e"),
}


@pytest.mark.parametrize("run", STREAMS)
def test_streams_match_recorded_digests(run, tmp_path, monkeypatch):
    argv, code, stdout, stderr = STREAMS[run]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(list(argv)) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == stdout
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == stderr
