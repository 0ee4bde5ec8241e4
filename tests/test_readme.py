"""README.md's examples: the ``python`` blocks run, the ``pathcalc`` lines parse."""

import re
import shlex
from pathlib import Path as FsPath

import pytest

from pathcalc import cli

README = FsPath(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def pathcalc_lines(text):
    """Each ``pathcalc ...`` command of the ``sh`` blocks, continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("pathcalc ")]


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_pathcalc_lines_parse():
    lines = pathcalc_lines(README.read_text())
    assert lines, "README.md has no pathcalc command"
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README.md: {line!r} does not parse")
