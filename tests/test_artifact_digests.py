"""The byte ledger: sha256 of every CLI artifact of a fixed command set.

``artifact_digests.json`` maps each artifact's path, relative to the run
directory, to its sha256 (``manifest.json`` files excluded: they hold a
timestamp), and records the NumPy and orjson versions that wrote it.  A
change that means to change bytes rewrites the ledger with

    PYTHONPATH=src python tests/test_artifact_digests.py --write

and says so; any other change must leave every digest as it is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path as FsPath

import numpy as np
import orjson

from pathcalc.cli import main

LEDGER = FsPath(__file__).with_name("artifact_digests.json")

JUMP = ["simulate", "--kind", "jump-diffusion", "--steps", "64", "--count", "2",
        "--volatility", "0.4", "--jump-intensity", "20", "--jump-mean", "-0.05",
        "--jump-std", "0.25", "--x0", "0.5", "--seed", "5"]
PSIS = {"constant": "constant:0.05", "affine": "affine:0.01,0.05", "power": "power:0.1,0.5",
        "table": "table:0,0.02,1,0.05,4,0.2"}

COMMANDS = [
    ["simulate", "--kind", "brownian", "--steps", "256", "--mode", "step", "--seed", "3",
     "--output-dir", "bm1"],
    ["simulate", "--kind", "brownian", "--steps", "128", "--dim", "2", "--mode", "linear",
     "--seed", "4", "--output-dir", "bm2"],
    *[JUMP + ["--dim", str(d), "--psi", psi, "--output-dir", f"jd_{name}_{d}"]
      for name, psi in PSIS.items() for d in (1, 2, 8)],
    ["qv", "--input", "bm1/path_0000.csv", "--n-max", "10", "--output-dir", "qv_bm1"],
    ["qv", "--input", "bm2/path_0000.csv", "--n-max", "8", "--output-dir", "qv_bm2"],
    ["qv", "--input", "jd_affine_2/path_0001.csv", "--n-max", "8", "--output-dir", "qv_jd2"],
    ["integrate", "--input", "bm1/path_0000.csv", "--rule", "prev-price", "--n-max", "10",
     "--output-dir", "int_bm1"],
    ["integrate", "--input", "bm2/path_0000.csv", "--rule", "prev-price", "--n-max", "6",
     "--output-dir", "int_bm2"],
    ["crossings", "--input", "jd_power_1/path_0000.csv", "--h", "0.125",
     "--output-dir", "cr_jd1"],
    ["verify", "--check", "all", "--count", "20", "--seed", "1", "--output-dir", "verify"],
    ["continuity", "--ensemble", "continuous", "--count", "8", "--seed", "2",
     "--output-dir", "cont_c"],
    ["continuity", "--ensemble", "cadlag", "--count", "8", "--seed", "2",
     "--output-dir", "cont_j"],
]


def run_commands(root: FsPath) -> dict:
    """Run :data:`COMMANDS` in the directory ``root``; return the ledger of what they wrote."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    digests = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(root.rglob("*"))
               if p.is_file() and p.name != "manifest.json"}
    return {"numpy": np.__version__, "orjson": orjson.__version__, "digests": digests}


def test_artifacts_match_the_ledger(tmp_path):
    want = json.loads(LEDGER.read_text())
    got = run_commands(tmp_path)
    files = sorted(set(want["digests"]) | set(got["digests"]))
    differ = [f for f in files if want["digests"].get(f) != got["digests"].get(f)]
    versions = "" if want["numpy"] == got["numpy"] and want["orjson"] == got["orjson"] else (
        f" (ledger written with numpy {want['numpy']}, orjson {want['orjson']}; "
        f"running numpy {got['numpy']}, orjson {got['orjson']})")
    assert not differ, f"{len(differ)} artifact(s) differ from the ledger{versions}: {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_artifact_digests.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ledger = run_commands(FsPath(tmp))
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger['digests'])} digests to {LEDGER}")
