"""The README's library quickstart and CLI examples run as written."""

import csv
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from drmfuse.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quickstart"})
    prob, ci = capsys.readouterr().out.split(" ", 1)
    assert 0.0 < float(prob) < 1.0
    lo, hi = (float(v) for v in ci.strip().strip("()").split(","))
    assert lo < float(prob) < hi


def _cli_example(command: str) -> list[str]:
    """The README's ``drmfuse <command>`` example as an argv, without the program name."""
    blocks = re.findall(r"```\n(drmfuse .*?)```", README.read_text(encoding="utf-8"), re.S)
    (text,) = [b for b in blocks if b.startswith(f"drmfuse {command} ")]
    return shlex.split(text.replace("\\\n", " "))[1:]


@pytest.fixture
def radon_csv(tmp_path):
    """Five regions over two periods, under the names the README's examples use."""
    rng = np.random.default_rng(5)
    lines = ["region,period,value"]
    for period in ("89-93", "94-98"):
        for k, region in enumerate(("Beaver", "Washington", "Allegheny", "Butler", "Lawrence")):
            lines += [f"{region},{period},{float(v)!r}"
                      for v in rng.lognormal(1.0 + 0.1 * k, 0.9, 300)]
    path = tmp_path / "radon.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, header", [
    ("refine", ["period", "Washington", "Allegheny", "Butler", "Lawrence"]),
    ("threshold", ["method", "T", "prob", "se", "ci_low", "ci_high",
                   "ci_low_clamped", "ci_high_clamped"]),
])
def test_readme_cli_examples_run(radon_csv, capsys, command, header):
    argv = [radon_csv if arg == "radon.csv" else arg for arg in _cli_example(command)]
    assert main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == header
    if command == "refine":
        assert [row[0] for row in rows[1:]] == ["89-93", "94-98", "pooled"]
    else:
        assert [row[0] for row in rows[1:]] == ["drm"] * 7 + ["empirical"] * 7
