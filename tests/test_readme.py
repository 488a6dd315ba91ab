"""The README's Python API runs as printed, and the package exports what it lists."""

import re
from pathlib import Path

import photonmesh

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_every_export_resolves():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    names = photonmesh.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(photonmesh, name), name
