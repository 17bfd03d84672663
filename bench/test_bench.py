"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

CLI = run.import_cli()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Counts a later change may cite; they must repeat exactly for a seed.
COUNT_METRICS = [name for name, _ in spans.PER_LAYER
                 if name.endswith((".calls", ".newton_iters", ".mb_computed", ".per_cmd"))
                 or name in ("asymptotics.blocks_per_fit", "cli.rows_read",
                             "likelihood.fit.evals_per_iter")
                 or name.startswith("simulation.failures.")]


def test_committed_spec_is_generated_and_valid():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in committed[key]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in committed[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACED_OPS", 2)
    workload = workloads.WORKLOADS[name]

    def counts():
        tally = run.Tally()
        ops, tracer = run.run_ops(CLI, workload, 5, 0.0, True, tmp_path, tally)
        traced = [ms for ms, traced_op in ops if traced_op]
        untraced = [ms for ms, traced_op in ops if not traced_op]
        assert len(traced) == 2 and not tally.errors and tally.failed == 0
        values, absent = spans.per_layer(tracer, traced, traced, untraced)
        assert not absent
        return {m: values[m] for m in COUNT_METRICS}

    first = counts()
    assert first == counts()
    assert first["likelihood.fit.calls"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_case_matches_and_a_perturbed_one_does_not(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    recorded = json.loads(run.REFERENCE_FILE.read_text())[name][0]
    op = run.reference_op(workload, 0, tmp_path)
    code, stdout, _ = run.run_cli(CLI, op.argv)
    tally = run.Tally()
    tally.record(workload, op, code, stdout, recorded)
    assert tally.errors == [] and tally.attempted == op.items

    bad = json.loads(json.dumps(recorded))
    if bad["floats"]:
        bad["floats"][0] *= 1 + 1e-4
    else:
        bad["exact"][1][1] = "x" if bad["exact"][1][1] != "x" else "-"
    tally.record(workload, op, code, stdout, bad)
    assert len(tally.errors) == 1 and tally.failed == op.items


def test_threshold_check_catches_a_wrong_empirical_row(tmp_path):
    workload = workloads.WORKLOADS["threshold_grid"]
    op = run.reference_op(workload, 0, tmp_path)
    code, stdout, _ = run.run_cli(CLI, op.argv)
    lines = stdout.splitlines()
    method, T, prob, *rest = lines[31].split(",")    # the first empirical row
    assert method == "empirical"
    lines[31] = ",".join([method, T, repr(float(prob) + 1e-3), *rest])
    with pytest.raises(workloads.CheckFailed):
        workload.check(op, workload.parse("\n".join(lines)))


def test_missing_function_is_reported_absent(monkeypatch):
    import drmfuse._kernels
    monkeypatch.delattr(drmfuse._kernels, "log_denominators")
    tracer = spans.Tracer()
    tracer.install(op_id=0)
    tracer.uninstall()
    values, absent = spans.per_layer(tracer, [1.0], [1.0], [1.0])
    assert absent == {"kernels.log_denominators.calls", "kernels.log_denominators.self_ms",
                      "kernels.log_denominators.mb_computed"}
    assert all(values[m] == 0.0 for m in absent)


def test_uninstall_restores_every_binding():
    import drmfuse
    from drmfuse import cli, core, inference, likelihood
    before = (core.validate, cli.validate, inference.validate, drmfuse.validate,
              likelihood.log_denominators, cli._read_rows)
    tracer = spans.Tracer()
    tracer.install(op_id=0)
    assert cli.validate is not before[1] and likelihood.log_denominators is not before[4]
    tracer.uninstall()
    assert (core.validate, cli.validate, inference.validate, drmfuse.validate,
            likelihood.log_denominators, cli._read_rows) == before


def test_fails_without_a_result_where_the_package_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_sim", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
