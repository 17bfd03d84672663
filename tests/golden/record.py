"""Record the golden outputs of the drmfuse CLI that ``tests/test_golden.py``
compares fresh output against.

    PYTHONPATH=src python tests/golden/record.py

rewrites ``<name>.stdout``, ``<name>.stderr`` and ``exit_codes.json`` here
for every command in ``COMMANDS``. Run it only when an output is meant to
change, and name the change in CHANGES.md. The input, ``radon.csv``, is the
five-region fixture of ``tests/test_readme.py`` (``default_rng(5)``); it is
committed and read as it is, and written from the generator only when it is
missing.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from drmfuse.cli import main as drmfuse

GOLDEN = Path(__file__).resolve().parent
FIXTURE = GOLDEN / "radon.csv"

_DATA = ["radon.csv", "--reference", "Beaver", "--neighbors",
         "Washington,Allegheny,Butler,Lawrence"]
COMMANDS = {
    "fit_global": ["fit", *_DATA, "--tilt", "global"],
    "fit_auto": ["fit", *_DATA, "--tilt", "auto"],
    "fit_per_neighbor": ["fit", *_DATA, "--tilt", "x,logx,log2x; -; x,log2x; logx"],
    "threshold_global": ["threshold", *_DATA, "--tilt", "global",
                         "--thresholds", "5,10,25,50,100,150,200"],
    "threshold_auto": ["threshold", *_DATA, "--tilt", "auto",
                       "--thresholds", "5,10,25,50,100,150,200"],
    "refine": ["refine", *_DATA],
    "gof_auto": ["gof", *_DATA, "--tilt", "auto"],
    "simulate": ["simulate", "--reps", "20", "--sizes", "1000,1000,1000", "--seed", "3"],
}


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``drmfuse`` on ``argv``, in this
    process, with ``radon.csv`` standing for the committed fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = drmfuse([str(FIXTURE) if arg == "radon.csv" else arg for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _write_fixture() -> None:
    rng = np.random.default_rng(5)
    lines = ["region,period,value"]
    for period in ("89-93", "94-98"):
        for k, region in enumerate(("Beaver", "Washington", "Allegheny", "Butler", "Lawrence")):
            lines += [f"{region},{period},{float(v)!r}"
                      for v in rng.lognormal(1.0 + 0.1 * k, 0.9, 300)]
    FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    if not FIXTURE.exists():
        _write_fixture()
    codes = {}
    for name, argv in COMMANDS.items():
        codes[name], out, err = run(argv)
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(err, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    main()
