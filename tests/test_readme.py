"""The README's library quick start runs as written."""

import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    row = capsys.readouterr().out.strip()
    assert row.startswith("deformational,4,26,0,") and row.count(",") == 12
