"""The byte ledger: sha256 of every CLI artifact of a fixed command set.

``artifact_digests.json`` maps each artifact's path, relative to the run
directory, to its sha256 (``manifest.json`` files excluded: they hold a
timestamp), and records the NumPy and orjson versions that wrote it.  A
change that means to change bytes rewrites the ledger with

    PYTHONPATH=src python tests/test_artifact_digests.py --write

and says so; any other change must leave every digest as it is.  The same
digests pin a rerun into the same directory, and what an artifact does to a
file, link or directory already at its path; an AST scan keeps every
artifact on the one opener, ``paths._create``.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path as FsPath

import numpy as np
import orjson
import pytest

import pathcalc
from pathcalc.cli import EXIT_IO, main

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


def _run(root: FsPath, argv) -> int:
    """``main(argv)`` run in the directory ``root``, its standard output dropped."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    finally:
        os.chdir(cwd)


def run_commands(root: FsPath, runs: int = 1) -> dict:
    """Run :data:`COMMANDS` ``runs`` times in the directory ``root``; return the ledger of what
    they wrote."""
    for argv in COMMANDS * runs:
        assert _run(root, argv) == 0, argv
    digests = {p.relative_to(root).as_posix(): _sha256(p)
               for p in sorted(root.rglob("*"))
               if p.is_file() and p.name != "manifest.json"}
    return {"numpy": np.__version__, "orjson": orjson.__version__, "digests": digests}


def _sha256(file: FsPath) -> str:
    return hashlib.sha256(file.read_bytes()).hexdigest()


def _assert_matches_the_ledger(got: dict):
    want = json.loads(LEDGER.read_text())
    files = sorted(set(want["digests"]) | set(got["digests"]))
    differ = [f for f in files if want["digests"].get(f) != got["digests"].get(f)]
    versions = "" if want["numpy"] == got["numpy"] and want["orjson"] == got["orjson"] else (
        f" (ledger written with numpy {want['numpy']}, orjson {want['orjson']}; "
        f"running numpy {got['numpy']}, orjson {got['orjson']})")
    assert not differ, f"{len(differ)} artifact(s) differ from the ledger{versions}: {differ}"


def test_artifacts_match_the_ledger(tmp_path):
    _assert_matches_the_ledger(run_commands(tmp_path))


def test_a_rerun_in_place_matches_the_ledger(tmp_path):
    """The second run writes every artifact over the first run's: each ends with its ledger
    bytes."""
    _assert_matches_the_ledger(run_commands(tmp_path, runs=2))


# ---------------------------------------------------------------------------
# What an artifact replaces: each is written as a new file, so whatever is at its
# name is unlinked, never truncated or written through.
# ---------------------------------------------------------------------------

SIMULATE_BM1, QV_BM1 = (next(argv for argv in COMMANDS if argv[-1] == out)
                        for out in ("bm1", "qv_bm1"))


@pytest.fixture
def qv_root(tmp_path) -> FsPath:
    """A run directory holding the path ``qv_bm1`` reads, and its empty output directory."""
    assert _run(tmp_path, SIMULATE_BM1) == 0
    (tmp_path / "qv_bm1").mkdir()
    return tmp_path


def test_a_longer_file_leaves_no_stale_tail(qv_root):
    want = json.loads(LEDGER.read_text())["digests"]
    names = ("qv_report.json", "qv_limit.csv", "partition_n10.csv")
    garbage = bytes(range(256)) * 4096  # 1 MiB, longer than every qv_bm1 artifact
    for name in names:
        (qv_root / "qv_bm1" / name).write_bytes(garbage)
    assert _run(qv_root, QV_BM1) == 0
    for name in names:
        assert _sha256(qv_root / "qv_bm1" / name) == want[f"qv_bm1/{name}"], name


def test_a_link_is_replaced_not_written_through(qv_root):
    want = json.loads(LEDGER.read_text())["digests"]
    old = b"t,qv_11\n0.0,0.0\n"
    (qv_root / "hard.csv").write_bytes(old)
    (qv_root / "soft.csv").write_bytes(old)
    os.link(qv_root / "hard.csv", qv_root / "qv_bm1" / "qv_limit.csv")
    (qv_root / "qv_bm1" / "partition_n10.csv").symlink_to(qv_root / "soft.csv")
    assert _run(qv_root, QV_BM1) == 0
    assert (qv_root / "hard.csv").read_bytes() == old
    assert (qv_root / "soft.csv").read_bytes() == old
    for name in ("qv_limit.csv", "partition_n10.csv"):
        artifact = qv_root / "qv_bm1" / name
        assert not artifact.is_symlink() and artifact.stat().st_nlink == 1, name
        assert _sha256(artifact) == want[f"qv_bm1/{name}"], name


def test_a_directory_at_an_artifact_path_is_an_io_error(qv_root):
    (qv_root / "qv_bm1" / "qv_limit.csv").mkdir()
    assert _run(qv_root, QV_BM1) == EXIT_IO


def test_a_racing_writer_is_an_io_error(qv_root, monkeypatch):
    """A file another writer creates between the unlink and the create is not overwritten."""
    unlink = FsPath.unlink

    def unlink_then_race(self, missing_ok=False):
        unlink(self, missing_ok=missing_ok)
        self.write_bytes(b"theirs")

    monkeypatch.setattr(FsPath, "unlink", unlink_then_race)
    assert _run(qv_root, QV_BM1) == EXIT_IO
    assert (qv_root / "qv_bm1" / "qv_report.json").read_bytes() == b"theirs"


WRITE_MODES = set("wax")
SOURCES = sorted(FsPath(pathcalc.__file__).parent.glob("*.py"))


def _write_opens(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each ``open`` or ``.open`` call in ``source`` whose mode
    may write: a literal mode with "w", "a" or "x", or a mode that is not a literal."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            named = getattr(node.func, "id", None) == "open"  # open(file, mode)
            if named or getattr(node.func, "attr", None) == "open":  # FsPath(file).open(mode)
                args = node.args[1:] if named else node.args
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            args[0] if args else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not WRITE_MODES & set(mode.value)):
                    found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_every_artifact_is_opened_by_create():
    """The package's one write-mode ``open`` is the one in ``paths._create``."""
    found = [(src.name, function) for src in SOURCES
             for function, _ in _write_opens(src.read_text())]
    assert found == [("paths.py", "_create")]


def test_the_open_guard_sees_every_write_mode():
    source = """
def _create(file):
    return open(file, "x")
def f(file, fh, mode):
    open(file); open(file, "r"); fh.open(); fh.open(newline=""); FsPath(file).open("rb")
    open(file, "w"); open(file, mode="a"); FsPath(file).open("wb"); fh.open(mode="r+x")
    open(file, mode)
"""
    assert _write_opens(source) == [("_create", 3)] + [("f", 6)] * 4 + [("f", 7)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_artifact_digests.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ledger = run_commands(FsPath(tmp))
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger['digests'])} digests to {LEDGER}")
