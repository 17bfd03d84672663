"""Fresh CLI output matches the golden outputs under ``tests/golden/``.

Text, line structure, exit codes and integers (iteration counts, sample
sizes, labels such as ``89-93``) must match exactly; other numbers must
agree to ``REL_TOL`` relative. Two kinds of value are formed by
cancellation and may move in their last bits for sound reasons; each gets a
named absolute floor. ``tests/golden/record.py`` rewrites the files.
"""

import csv
import functools
import json
import re

import pytest

from golden.record import COMMANDS, FIXTURE, GOLDEN, run

REL_TOL = 1e-10
# ``fit`` prints the score's inf-norm at the optimum, where Newton stops once
# it is below 64 eps n (4.3e-11 at the fixture's n = 3000): rounding noise
SCORE_NORM_FLOOR = 1e-10
# the DRM prob 1 - G(T) at or above the largest fused point, where G(T) is
# the sum of all n point masses, is 0 up to n eps (3.3e-13 at n = 3000)
TAIL_PROB_FLOOR = 1e-12

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")
_INTEGER = re.compile(r"[-+]?\d+")


@functools.cache
def _largest_fused_point() -> float:
    with open(FIXTURE, encoding="utf-8") as fh:
        return max(float(row[2]) for row in list(csv.reader(fh))[1:])


def _floor(line: str, text_before: str) -> float:
    """The absolute floor of a number in ``line`` that follows ``text_before``."""
    if text_before.endswith("score_norm="):
        return SCORE_NORM_FLOOR
    fields = line.split(",")
    if fields[0] == "drm" and len(fields) > 2 and float(fields[1]) >= _largest_fused_point():
        return TAIL_PROB_FLOOR
    return 0.0


def _same_number(want: str, got: str, floor: float) -> bool:
    if want == got:
        return True
    if _INTEGER.fullmatch(want) or _INTEGER.fullmatch(got):
        return False
    w, g = float(want), float(got)
    return abs(w - g) <= max(REL_TOL * abs(w), floor)


def _mismatches(want: str, got: str) -> list[str]:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, golden has {len(want_lines)}"]
    bad = []
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        w_parts, g_parts = _NUMBER.split(w), _NUMBER.split(g)
        ok = len(w_parts) == len(g_parts) and all(
            wp == gp if j % 2 == 0 else _same_number(wp, gp, _floor(w, "".join(w_parts[:j])))
            for j, (wp, gp) in enumerate(zip(w_parts, g_parts)))
        if not ok:
            bad.append(f"line {i}: {g!r}, golden {w!r}")
    return bad


def test_number_comparison_rules():
    assert 50.0 < _largest_fused_point() < 100.0   # for the two drm rows below
    assert not _mismatches("a,1,0.5\n", "a,1,0.50000000000001\n")
    assert _mismatches("a,1,0.5\n", "a,1,0.5000001\n")
    assert _mismatches("iterations=5\n", "iterations=6\n")
    assert _mismatches("89-93,x\n", "89-94,x\n")
    assert _mismatches("drm,5,0.1\n", "empirical,5,0.1\n")
    assert not _mismatches("# score_norm=1.819e-12\n", "# score_norm=4.547e-13\n")
    assert _mismatches("# loglik=1.819e-12\n", "# loglik=4.547e-13\n")
    assert not _mismatches("drm,100,1.2e-15,0.0\n", "drm,100,0.0,0.0\n")
    assert _mismatches("drm,50,1.2e-15,0.0\n", "drm,50,0.0,0.0\n")
    assert _mismatches("a\n", "a\nb\n")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    code, out, err = run(COMMANDS[name])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))[name]
    for stream, fresh in (("stdout", out), ("stderr", err)):
        golden = (GOLDEN / f"{name}.{stream}").read_text(encoding="utf-8")
        assert not _mismatches(golden, fresh), (stream, _mismatches(golden, fresh)[:5])

