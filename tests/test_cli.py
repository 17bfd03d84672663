import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drmfuse
import drmfuse.cli as cli
import ingest_oracle
from drmfuse import GLOBAL_TILT, TiltSpec, validate
from drmfuse.cli import (
    ConfigError,
    EmptyAfterFilter,
    ParseError,
    UnknownRegion,
    ingest,
    main,
    parse_tilt_string,
)


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["region", "period", "value"])
        w.writerows(rows)


@pytest.fixture
def radon_csv(tmp_path):
    rng = np.random.default_rng(8)
    rows = []
    for period in ("89-93", "94-98"):
        for region, n in (("Beaver", 250), ("Butler", 200), ("Allegheny", 300)):
            shift = 0.15 if region == "Allegheny" else 0.0
            for v in rng.lognormal(1.1 + shift, 0.9, n):
                rows.append([region, period, repr(float(v))])
    rows.append(["Beaver", "89-93", "0.0"])        # dropped, counted
    rows.append(["Beaver", "94-98", "-2.5"])       # dropped, counted
    rows.append(["Elsewhere", "89-93", "3.0"])     # ignored region
    path = tmp_path / "radon.csv"
    write_csv(path, rows)
    return str(path)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_partitions_and_counts(radon_csv):
    res = ingest(radon_csv, "Beaver", ["Butler", "Allegheny"], None)
    assert res.reference.n == 500
    assert res.neighbors[0].n == 400
    assert res.neighbors[1].n == 600
    assert res.rejected == {"Beaver": 2, "Butler": 0, "Allegheny": 0}
    assert res.periods_seen == ("89-93", "94-98")


def test_ingest_small_fixture_sizes(tmp_path):
    rows = [["Beaver", "p", "1.0"]] * 3 + [["Butler", "p", "2.0"]] * 2
    path = tmp_path / "f.csv"
    write_csv(path, rows)
    res = ingest(str(path), "Beaver", ["Butler"], None)
    data = validate(res.samples(), [TiltSpec.parse("x")])
    assert data.n0 == 3 and data.n == 5


def test_ingest_five_region_fixture(tmp_path):
    # realistic unbalanced county row counts for one period
    sizes = {"Beaver": 816, "Washington": 471, "Allegheny": 12328,
             "Butler": 985, "Lawrence": 231}
    rng = np.random.default_rng(0)
    rows = []
    for region, n in sizes.items():
        for v in rng.lognormal(1.0, 1.0, n):
            rows.append([region, "89-93", repr(float(v))])
    path = tmp_path / "t2.csv"
    write_csv(path, rows)
    res = ingest(str(path), "Beaver", ["Washington", "Allegheny", "Butler", "Lawrence"],
                 {"89-93"})
    data = validate(res.samples(), [GLOBAL_TILT] * 4)
    assert data.n0 == 816
    assert np.allclose(data.rho, [1, 471 / 816, 12328 / 816, 985 / 816, 231 / 816])


def test_ingest_period_filter(radon_csv):
    res = ingest(radon_csv, "Beaver", ["Butler"], {"89-93"})
    assert res.reference.n == 250
    assert res.neighbors[0].n == 200


def test_ingest_unknown_region(radon_csv):
    with pytest.raises(UnknownRegion):
        ingest(radon_csv, "Beaver", ["Nowhere"], None)


def test_ingest_empty_after_filter(radon_csv):
    with pytest.raises(EmptyAfterFilter):
        ingest(radon_csv, "Beaver", ["Butler"], {"99-03"})


def test_ingest_parse_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(ParseError):
        ingest(str(bad_header), "x", [], None)

    bad_value = tmp_path / "bad2.csv"
    bad_value.write_text("region,period,value\nBeaver,p,notanumber\n")
    with pytest.raises(ParseError) as exc:
        ingest(str(bad_value), "Beaver", [], None)
    assert exc.value.line_no == 2

    bad_arity = tmp_path / "bad3.csv"
    bad_arity.write_text("region,period,value\nBeaver,p\n")
    with pytest.raises(ParseError):
        ingest(str(bad_arity), "Beaver", [], None)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_value_is_a_parse_error(tmp_path, capsys, raw):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"region,period,value\nBeaver,p,2.0\nButler,p,1.5\nBeaver,p,{raw}\n")
    with pytest.raises(ParseError) as exc:
        ingest(str(path), "Beaver", ["Butler"], None)
    assert exc.value.line_no == 4
    assert main(["fit", str(path), "--reference", "Beaver", "--neighbors", "Butler"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_fault_in_second_block_names_its_line(tmp_path):
    rng = np.random.default_rng(3)
    rows = [[("Beaver", "Butler")[i % 2], "p", repr(float(v))]
            for i, v in enumerate(rng.lognormal(1.0, 0.8, 2 * cli._BLOCK_ROWS))]
    path = tmp_path / "blocks.csv"
    write_csv(path, rows)
    res = ingest(str(path), "Beaver", ["Butler"], None)
    want = ingest_oracle.ingest(str(path), ["Beaver", "Butler"], None)
    assert res.reference.values.tobytes() == want.reference.values.tobytes()
    assert res.neighbors[0].values.tobytes() == want.neighbors[0].values.tobytes()
    # a faulty row in the second block, then an ignored region's inf after it
    bad = cli._BLOCK_ROWS + 200
    rows[bad - 2] = ["Beaver", "p", " 1.5x "]
    rows[bad + 100] = ["Elsewhere", "p", "inf"]
    write_csv(path, rows)
    for read in (lambda: ingest(str(path), "Beaver", ["Butler"], None),
                 lambda: ingest_oracle.ingest(str(path), ["Beaver", "Butler"], None)):
        with pytest.raises(ParseError) as exc:
            read()
        assert exc.value.line_no == bad
        assert str(exc.value) == f"line {bad}: bad value '1.5x'"


def test_utf8_bom_is_ignored(tmp_path, radon_csv, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff".encode() + Path(radon_csv).read_bytes())
    plain = ingest(radon_csv, "Beaver", ["Butler", "Allegheny"], None)
    bom = ingest(str(path), "Beaver", ["Butler", "Allegheny"], None)
    for a, b in zip(plain.samples(), bom.samples()):
        assert a.label == b.label and a.values.tobytes() == b.values.tobytes()
    assert (bom.rejected, bom.periods_seen) == (plain.rejected, plain.periods_seen)
    assert main(["fit", *_flags(str(path), "--tilt", "global")]) == 0


# ---------------------------------------------------------------------------
# tilt grammar
# ---------------------------------------------------------------------------

def test_parse_tilt_string():
    specs = parse_tilt_string("x,logx,log2x; x,log2x", 2)
    assert specs[0] == GLOBAL_TILT
    assert specs[1] == TiltSpec.parse("x,log2x")
    assert parse_tilt_string("-;-", 2) == [TiltSpec(()), TiltSpec(())]
    with pytest.raises(ConfigError):
        parse_tilt_string("x", 2)
    with pytest.raises(ConfigError):
        parse_tilt_string("x,bogus", 1)


# ---------------------------------------------------------------------------
# subcommands via main()
# ---------------------------------------------------------------------------

def _flags(radon_csv, *extra):
    return [radon_csv, "--reference", "Beaver", "--neighbors", "Butler,Allegheny", *extra]


def test_cmd_fit_output(radon_csv, capsys):
    rc = main(["fit", *_flags(radon_csv, "--tilt", "global")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "region,term,estimate,se"
    terms = [line.split(",")[1] for line in out[1:] if not line.startswith("#")]
    assert terms == ["alpha", "x", "logx", "log2x"] * 2
    assert any(line.startswith("# loglik=") for line in out)


def test_cmd_refine_table_shape(radon_csv, capsys):
    rc = main(["refine", *_flags(radon_csv)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    parsed = list(csv.reader(out))
    assert parsed[0] == ["period", "Butler", "Allegheny"]
    assert [row[0] for row in parsed[1:]] == ["89-93", "94-98", "pooled"]
    assert all(len(row) == 3 for row in parsed[1:])


def test_cmd_refine_reads_the_file_once(radon_csv, capsys, monkeypatch):
    import drmfuse.cli as cli
    reads = []
    read_rows = cli._read_rows

    def counting(path):
        reads.append(path)
        return read_rows(path)

    monkeypatch.setattr(cli, "_read_rows", counting)
    assert main(["refine", *_flags(radon_csv)]) == 0
    assert reads == [radon_csv]
    assert main(["refine", *_flags(radon_csv, "--periods", "12-34")]) == 2


def test_cmd_refine_reports_dropped_rows_once(radon_csv, tmp_path, capsys):
    # one line per command, counted over the selected periods
    assert main(["refine", *_flags(radon_csv)]) == 0
    assert capsys.readouterr().err == "# dropped non-positive rows (Beaver: 2)\n"
    assert main(["refine", *_flags(radon_csv, "--periods", "94-98")]) == 0
    assert capsys.readouterr().err == "# dropped non-positive rows (Beaver: 1)\n"

    with open(radon_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    clean = tmp_path / "clean.csv"
    write_csv(clean, [row for row in rows if float(row[2]) > 0])
    assert main(["refine", *_flags(str(clean))]) == 0
    assert capsys.readouterr().err == ""
    write_csv(clean, rows + [["Butler", "89-93", "-1"], ["Allegheny", "89-93", "0"]])
    assert main(["refine", *_flags(str(clean))]) == 0
    assert capsys.readouterr().err == (
        "# dropped non-positive rows (Allegheny: 1, Beaver: 2, Butler: 1)\n")


def test_cmd_threshold_block_shape(radon_csv, capsys):
    rc = main(["threshold", *_flags(radon_csv, "--tilt", "global",
                                    "--thresholds", "5,10,25,50,100,150,200")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("method,T,prob,se,ci_low,ci_high")
    drm = [l for l in out[1:] if l.startswith("drm,")]
    emp = [l for l in out[1:] if l.startswith("empirical,")]
    assert len(drm) == 7 and len(emp) == 7
    row = emp[0].split(",")
    prob, lo, hi = float(row[2]), float(row[4]), float(row[5])
    assert lo <= prob <= hi


def test_cmd_threshold_tiny_alpha_gives_finite_intervals(radon_csv, capsys):
    # level = 1 - 1e-16 rounds to nextafter(1, 0), whose upper-tail point
    # 0.5 + level / 2 rounds to 1
    rc = main(["threshold", *_flags(radon_csv, "--tilt", "global", "--alpha", "1e-16",
                                    "--thresholds", "5,10")])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert len(rows) == 4
    for row in rows:
        prob, se, lo, hi = map(float, row[2:6])
        assert all(math.isfinite(v) for v in (lo, hi))
        assert (hi - lo) / (2.0 * se) == pytest.approx(8.2924, abs=1e-3)


@pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
def test_cmd_threshold_alpha_below_level_resolution_is_config_error(radon_csv, capsys, alpha):
    # 1 - alpha rounds to 1 here, so no confidence level below 1 is left
    rc = main(["threshold", *_flags(radon_csv, "--tilt", "global", "--alpha", alpha,
                                    "--thresholds", "5,10")])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("drmfuse: config error: --alpha ")
    assert "confidence level" not in captured.err


def test_cmd_gof_two_columns(radon_csv, capsys):
    rc = main(["gof", *_flags(radon_csv, "--tilt", "global")])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "ghat,gtilde"
    gh, gt = map(float, lines[1].split(","))
    assert 0 <= gh <= 1 and 0 <= gt <= 1
    assert "max |Ghat - Gtilde|" in captured.err


def test_cmd_gof_auto_tilt_runs(radon_csv, capsys):
    assert main(["gof", *_flags(radon_csv)]) == 0   # default --tilt auto


def test_cmd_gof_reference_only_is_diagonal(radon_csv, capsys):
    # empty neighbor list: Gtilde reduces to Ghat, pairs sit on the 45-degree line
    rc = main(["gof", radon_csv, "--reference", "Beaver", "--neighbors", "",
               "--tilt", "global"])
    assert rc == 0
    captured = capsys.readouterr()
    for line in captured.out.splitlines()[1:]:
        gh, gt = map(float, line.split(","))
        assert abs(gh - gt) < 1e-12
    assert "max |Ghat - Gtilde| = 0.000000" in captured.err


def test_cmd_refine_recovers_synthetic_truth(tmp_path, capsys):
    from drmfuse.simulation import generate
    ref, g, ln = generate(15, (1000, 1000, 1000))
    rows = []
    for sample in (ref, g, ln):
        rows += [[sample.label, "p1", repr(float(v))] for v in sample.values]
    path = tmp_path / "synth.csv"
    write_csv(path, rows)
    rc = main(["refine", str(path), "--reference", "exp",
               "--neighbors", "gamma,lognormal"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    parsed = list(csv.reader(out))
    assert parsed[1] == ["p1", "logx", "x,log2x"]


def test_cmd_simulate_deterministic(capsys):
    args = ["simulate", "--reps", "2", "--sizes", "150,150,150", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "estimator,metric,value,mc_se,I,n"


def test_cached_parser_matches_a_fresh_one(radon_csv, capsys, monkeypatch):
    # main reuses one parser per process: consecutive commands give the stdout
    # and exit code that each gets from a freshly built parser
    argvs = [["fit", *_flags(radon_csv, "--tilt", "global")],
             ["threshold", *_flags(radon_csv, "--tilt", "global", "--thresholds", "5,50")],
             ["fit"],
             ["gof", *_flags(radon_csv, "--tilt", "global")],
             ["simulate", "--reps", "1", "--sizes", "120,120,120", "--grid", "0,10,20"],
             ["refine", *_flags(radon_csv, "--alpha", "1.5")],
             ["threshold", *_flags(radon_csv, "--tilt", "global", "--thresholds", "nan")]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr().out))
    assert [rc for rc, _ in fresh] == [0, 0, 4, 0, 0, 4, 4]
    assert [(main(argv), capsys.readouterr().out) for argv in argvs] == fresh
    assert cli.build_parser() is cli.build_parser()
    # dispatch looks the subcommand up in the module, so a patched one runs
    monkeypatch.setattr(cli, "cmd_gof", lambda args: 7)
    assert main(["gof", *_flags(radon_csv)]) == 7


def test_cmd_out_flag_writes_file(radon_csv, tmp_path, capsys):
    out = tmp_path / "fit.csv"
    rc = main(["fit", *_flags(radon_csv, "--tilt", "global", "--out", str(out))])
    assert rc == 0
    assert out.read_text().startswith("region,term,estimate,se")


def test_exit_code_2_on_missing_file(tmp_path, capsys):
    path = tmp_path / "nope.csv"
    assert main(["fit", str(path), "--reference", "A", "--neighbors", "B"]) == 2
    assert capsys.readouterr().err == (
        f"drmfuse: input error: [Errno 2] No such file or directory: '{path}'\n")


@pytest.mark.parametrize("command", ["fit", "refine"])
def test_exit_code_2_on_unreadable_file(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("region,period,value\nA,p,1.0\nZ\u00fcrich,p,2.0\n".encode("latin-1"))
    wide = tmp_path / "wide.csv"
    wide.write_text('region,period,value\nA,p,1.0\nA,p,"' + "9" * 140_000 + '"\n')
    header_only = tmp_path / "header.csv"
    header_only.write_text("region,period,value\n")
    for path, message in ((tmp_path, "Is a directory"), (latin1, "not UTF-8 text"),
                          (wide, "line 3: field larger than field limit"),
                          (header_only, "region 'A' has no rows in the input file")):
        assert main([command, str(path), "--reference", "A", "--neighbors", "B"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("drmfuse: input error: ") and message in err, err


def test_exit_code_2_on_unknown_region(radon_csv, capsys):
    assert main(["fit", *_flags(radon_csv)[:-1], "Nowhere"]) == 2


def test_exit_code_4_on_bad_tilt(radon_csv, capsys):
    assert main(["fit", *_flags(radon_csv, "--tilt", "x,bogus; x")]) == 4


def test_exit_code_4_on_bad_flags(radon_csv, capsys):
    assert main(["fit"]) == 4                       # missing required flags
    assert main(["simulate", "--sizes", "1,2"]) == 4
    assert main(["refine", *_flags(radon_csv, "--alpha", "1.5")]) == 4
    for thresholds in ("abc", "nan,4", "5,inf", ","):
        assert main(["threshold", *_flags(radon_csv, "--tilt", "global",
                                          "--thresholds", thresholds)]) == 4
    assert main(["simulate", "--sizes", "a,b,c"]) == 4
    assert main(["simulate", "--grid", "0,x,10"]) == 4
    assert main(["simulate", "--grid", "0,10,2.5"]) == 4
    for flag, value in (("--sizes", "0,1,1"), ("--grid", "10,0,10"), ("--reps", "0")):
        assert main(["simulate", flag, value]) == 4   # SimConfig's range checks


def test_exit_code_3_on_numerical_failure(tmp_path, capsys):
    rows = [["A", "p", "2.0"]] * 30 + [["B", "p", "2.0"]] * 20
    path = tmp_path / "flat.csv"
    write_csv(path, rows)
    rc = main(["fit", str(path), "--reference", "A", "--neighbors", "B",
               "--tilt", "global"])
    assert rc == 3


def test_period_selection_flags(radon_csv, capsys):
    assert main(["fit", *_flags(radon_csv, "--tilt", "global",
                                "--periods", "89-93")]) == 0
    assert main(["fit", *_flags(radon_csv, "--tilt", "global",
                                "--periods", "89-93,94-98")]) == 0
    assert main(["fit", *_flags(radon_csv, "--tilt", "global",
                                "--periods", "12-34")]) == 2


@pytest.mark.parametrize("command", ["fit", "threshold", "gof", "refine"])
@pytest.mark.parametrize("periods", ["89-93,q", "q"])
def test_unknown_period_label_is_an_input_error(radon_csv, capsys, command, periods):
    assert main([command, *_flags(radon_csv, "--periods", periods)]) == 2
    assert capsys.readouterr().err == (
        "drmfuse: input error: period label(s) ['q'] not present in the file\n")


@pytest.mark.parametrize("command", ["fit", "threshold", "gof", "refine"])
def test_empty_period_list_is_a_config_error(radon_csv, capsys, command):
    assert main([command, *_flags(radon_csv, "--periods", " , ")]) == 4
    assert capsys.readouterr().err == (
        "drmfuse: config error: --periods must be 'all' or a non-empty label list\n")


def test_cmd_refine_repeated_period_is_one_row(radon_csv, capsys):
    assert main(["refine", *_flags(radon_csv, "--periods", "94-98,89-93,94-98")]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[0] for row in rows[1:]] == ["94-98", "89-93", "pooled"]
    assert main(["refine", *_flags(radon_csv, "--periods", "89-93,89-93")]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[0] for row in rows[1:]] == ["89-93"]


_NO_SCIPY = r"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import drmfuse
from drmfuse.cli import main

flags = [sys.argv[1], "--reference", "Beaver", "--neighbors", "Butler,Allegheny"]
for argv in (["fit", *flags], ["threshold", *flags, "--thresholds", "5,10"],
             ["gof", *flags], ["refine", *flags],
             ["simulate", "--reps", "2", "--sizes", "150,150,150", "--grid", "0,10,50"]):
    if main(argv) != 0:
        sys.exit(f"drmfuse {argv[0]} failed")
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_runs_without_scipy(radon_csv):
    # numpy is the only runtime dependency: every subcommand runs with scipy
    # made unimportable, and none of it is loaded
    src = str(Path(drmfuse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, radon_csv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
