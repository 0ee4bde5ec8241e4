"""pyproject.toml declares every third-party module that pathcalc imports."""

import ast
import re
import sys
from pathlib import Path as FsPath

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = FsPath(__file__).resolve().parents[1]


def imported_top_level_modules(package):
    """Top-level names of the absolute imports in every module of ``package``, at any depth
    of the code (an import inside a function counts)."""
    names = set()
    for file in package.rglob("*.py"):
        for node in ast.walk(ast.parse(file.read_text(), str(file))):
            if isinstance(node, ast.Import):
                names |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared():
    third_party = (imported_top_level_modules(ROOT / "src" / "pathcalc")
                   - set(sys.stdlib_module_names) - {"pathcalc"})
    assert {"numpy", "orjson"} <= third_party
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in project["dependencies"]}
    assert third_party <= declared, sorted(third_party - declared)
