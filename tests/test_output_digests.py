"""The files the experiment commands write, byte for byte.

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
