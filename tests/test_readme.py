"""The ``python`` blocks of README.md run, in order, in one namespace."""

import re
from pathlib import Path as FsPath

README = FsPath(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
