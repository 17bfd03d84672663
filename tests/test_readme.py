"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quickstart"})
    prob, ci = capsys.readouterr().out.split(" ", 1)
    assert 0.0 < float(prob) < 1.0
    lo, hi = (float(v) for v in ci.strip().strip("()").split(","))
    assert lo < float(prob) < hi
