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
from conftest import cli_ingest
from drmfuse import GLOBAL_TILT, TiltSpec, inference, likelihood, simulation, validate
from drmfuse.cli import (
    ConfigError,
    EmptyAfterFilter,
    ParseError,
    UnknownRegion,
    main,
    parse_tilt_string,
)
from drmfuse.core import InputError


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
# ingest: the subcommands' read path, _read_rows then _partition
# ---------------------------------------------------------------------------

def test_ingest_partitions_and_counts(radon_csv):
    samples, rejected, periods = cli_ingest(radon_csv, ["Beaver", "Butler", "Allegheny"], None)
    assert [s.n for s in samples] == [500, 400, 600]
    assert rejected == {"Beaver": 2, "Butler": 0, "Allegheny": 0}
    assert periods == ("89-93", "94-98")


def test_ingest_small_fixture_sizes(tmp_path):
    rows = [["Beaver", "p", "1.0"]] * 3 + [["Butler", "p", "2.0"]] * 2
    path = tmp_path / "f.csv"
    write_csv(path, rows)
    samples, _, _ = cli_ingest(str(path), ["Beaver", "Butler"], None)
    data = validate(samples, [TiltSpec.parse("x")])
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
    samples, _, _ = cli_ingest(str(path), list(sizes), {"89-93"})
    data = validate(samples, [GLOBAL_TILT] * 4)
    assert data.n0 == 816
    assert np.allclose(data.rho, [1, 471 / 816, 12328 / 816, 985 / 816, 231 / 816])


def test_ingest_period_filter(radon_csv):
    samples, _, _ = cli_ingest(radon_csv, ["Beaver", "Butler"], {"89-93"})
    assert [s.n for s in samples] == [250, 200]


def test_ingest_unknown_region(radon_csv):
    with pytest.raises(UnknownRegion):
        cli_ingest(radon_csv, ["Beaver", "Nowhere"], None)


def test_ingest_empty_after_filter(radon_csv):
    with pytest.raises(EmptyAfterFilter):
        cli_ingest(radon_csv, ["Beaver", "Butler"], {"99-03"})


def test_ingest_parse_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(ParseError):
        cli_ingest(str(bad_header), ["x"], None)

    bad_value = tmp_path / "bad2.csv"
    bad_value.write_text("region,period,value\nBeaver,p,notanumber\n")
    with pytest.raises(ParseError) as exc:
        cli_ingest(str(bad_value), ["Beaver"], None)
    assert exc.value.line_no == 2

    bad_arity = tmp_path / "bad3.csv"
    bad_arity.write_text("region,period,value\nBeaver,p\n")
    with pytest.raises(ParseError):
        cli_ingest(str(bad_arity), ["Beaver"], None)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_value_is_a_parse_error(tmp_path, capsys, raw):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"region,period,value\nBeaver,p,2.0\nButler,p,1.5\nBeaver,p,{raw}\n")
    with pytest.raises(ParseError) as exc:
        cli_ingest(str(path), ["Beaver", "Butler"], None)
    assert exc.value.line_no == 4
    assert main(["fit", str(path), "--reference", "Beaver", "--neighbors", "Butler"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_fault_in_second_block_names_its_line(tmp_path):
    rng = np.random.default_rng(3)
    rows = [[("Beaver", "Butler")[i % 2], "p", repr(float(v))]
            for i, v in enumerate(rng.lognormal(1.0, 0.8, 2 * cli._BLOCK_ROWS))]
    path = tmp_path / "blocks.csv"
    write_csv(path, rows)
    samples, _, _ = cli_ingest(str(path), ["Beaver", "Butler"], None)
    want, _, _ = ingest_oracle.ingest(str(path), ["Beaver", "Butler"], None)
    for got, oracle in zip(samples, want, strict=True):
        assert got.values.tobytes() == oracle.values.tobytes()
    # a faulty row in the second block, then an ignored region's inf after it
    bad = cli._BLOCK_ROWS + 200
    rows[bad - 2] = ["Beaver", "p", " 1.5x "]
    rows[bad + 100] = ["Elsewhere", "p", "inf"]
    write_csv(path, rows)
    for read in (lambda: cli_ingest(str(path), ["Beaver", "Butler"], None),
                 lambda: ingest_oracle.ingest(str(path), ["Beaver", "Butler"], None)):
        with pytest.raises(ParseError) as exc:
            read()
        assert exc.value.line_no == bad
        assert str(exc.value) == f"line {bad}: bad value '1.5x'"


def test_utf8_bom_is_ignored(tmp_path, radon_csv, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff".encode() + Path(radon_csv).read_bytes())
    plain = cli_ingest(radon_csv, ["Beaver", "Butler", "Allegheny"], None)
    bom = cli_ingest(str(path), ["Beaver", "Butler", "Allegheny"], None)
    for a, b in zip(plain[0], bom[0], strict=True):
        assert a.label == b.label and a.values.tobytes() == b.values.tobytes()
    assert bom[1:] == plain[1:]
    assert main(["fit", *_flags(str(path), "--tilt", "global")]) == 0


# ---------------------------------------------------------------------------
# reader routes: numpy's tokenizer, and the csv module for what it cannot read
# ---------------------------------------------------------------------------

@pytest.fixture
def csv_reader_calls(monkeypatch):
    """A list that grows by one for every ``csv.reader`` call."""
    calls = []
    reader = csv.reader

    def spy(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", spy)
    return calls


def _columns_bytes(columns):
    (region_labels, region_codes), (period_labels, period_codes), values = columns
    return (region_labels, region_codes.tobytes(), period_labels, period_codes.tobytes(),
            values.tobytes())


def _ingest_outcome(read):
    try:
        samples, rejected, periods = read()
    except InputError as e:
        return type(e), getattr(e, "line_no", None), str(e)
    return [(s.label, s.values.tobytes()) for s in samples], rejected, periods


def test_plain_file_is_read_without_the_csv_module(radon_csv, csv_reader_calls):
    got = cli._read_rows(radon_csv)
    assert csv_reader_calls == []
    assert got[2].size == 1503
    assert _columns_bytes(got) == _columns_bytes(cli._columns(radon_csv, cli._csv_blocks))
    assert len(csv_reader_calls) == 1


@pytest.mark.parametrize("line", ["  \t", "Butler,94-98,1_000", "Else\0where,89-93,3.0"],
                         ids=["whitespace-only", "python-number", "nul"])
def test_csv_only_input_takes_the_csv_route(radon_csv, tmp_path, csv_reader_calls, line):
    lines = Path(radon_csv).read_text().splitlines()
    lines.insert(cli._BLOCK_ROWS + 100, line)
    path = tmp_path / "route.csv"
    path.write_text("\n".join(lines) + "\n")
    wanted = ["Beaver", "Butler", "Allegheny"]
    got = _ingest_outcome(lambda: cli_ingest(str(path), wanted, None))
    assert len(csv_reader_calls) == 1
    assert got == _ingest_outcome(lambda: ingest_oracle.ingest(str(path), wanted, None))


def test_field_longer_than_the_csv_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "long.csv"
    long_label = "B" * (csv.field_size_limit() + 1)
    path.write_text(f"region,period,value\nBeaver,p,1.0\n{long_label},p,2.0\nButler,p,3.0\n")
    with pytest.raises(ParseError) as exc:
        cli._read_rows(str(path))
    assert exc.value.line_no == 3
    assert "field larger than field limit" in str(exc.value)


def test_first_fault_is_named_when_a_csv_error_follows_in_its_block(tmp_path):
    # the csv module raises at the long field on line 4 only after it has
    # yielded the bad value on line 3, the file's first faulty record
    path = tmp_path / "fault_then_long.csv"
    long_label = "B" * (csv.field_size_limit() + 1)
    path.write_text(f"region,period,value\nBeaver,p,1.0\nBeaver,p,x\n{long_label},p,2.0\n")
    for read in (lambda: cli._read_rows(str(path)),
                 lambda: ingest_oracle.ingest(str(path), ["Beaver"], None)):
        with pytest.raises(ParseError) as exc:
            read()
        assert str(exc.value) == "line 3: bad value 'x'"


def test_quote_open_at_a_block_end_takes_the_csv_route(tmp_path, monkeypatch):
    # the csv module carries the open field on to the end of the file, while
    # numpy would close it at the end of the block and read on
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    path = tmp_path / "quote.csv"
    path.write_text('region,period,value\nBeaver,p,1.0\nBeaver,p,"2.0\nButler,p,3.0\n'
                    'Butler,p,4.0\n')
    want = "line 3: bad value '2.0\\nButler,p,3.0\\nButler,p,4.0'"
    for read in (lambda: cli._read_rows(str(path)),
                 lambda: ingest_oracle.ingest(str(path), ["Beaver", "Butler"], None)):
        with pytest.raises(ParseError) as exc:
            read()
        assert str(exc.value) == want


def test_fault_after_a_multi_line_record_names_its_physical_line(tmp_path):
    # a quoted label spans lines 3-4, so the faulty record on line 6 is the
    # file's fifth record; both routes name the line it starts on
    path = tmp_path / "multiline.csv"
    path.write_text('region,period,value\nA,p,1\n"B\nB",p,2\nA,p,3\nA,p,x\n')
    for read in (lambda: cli._read_rows(str(path)),
                 lambda: ingest_oracle.ingest(str(path), ["A"], None)):
        with pytest.raises(ParseError) as exc:
            read()
        assert (exc.value.line_no, str(exc.value)) == (6, "line 6: bad value 'x'")


def test_value_padding_is_stripped_on_both_routes(tmp_path):
    # U+001C..U+001F are whitespace to str.strip, not to float()
    path = tmp_path / "pad.csv"
    path.write_text("region,period,value\nBeaver,p,\x1c2.5\x1f\nButler,p, 1.5\x1d\n")
    for columns in (cli._read_rows(str(path)), cli._columns(str(path), cli._csv_blocks)):
        assert columns[2].tolist() == [2.5, 1.5]


@pytest.mark.parametrize("text, err", [
    ("region,period,value\n", "region 'Beaver' has no rows in the input file"),
    ("region,period,value\n\n\r\n\n", "region 'Beaver' has no rows in the input file"),
    ("\n\n\n", "line 1: expected header region,period,value, got []"),
    ("", "line 1: empty file"),
    ("\ufeff", "line 1: empty file"),
], ids=["header-only", "blank-data-lines", "blank-lines-only", "empty", "bom-only"])
def test_file_without_data_rows(tmp_path, capsys, text, err):
    path = tmp_path / "nodata.csv"
    path.write_bytes(text.encode())
    argv = ["fit", str(path), "--reference", "Beaver", "--neighbors", "Butler", "--tilt", "global"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"drmfuse: input error: {err}\n")


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


def test_cmd_fit_and_refine_quote_labels(tmp_path, capsys):
    # the field """Q"" County" is the label "Q" County, which reads back only
    # from a quoted CSV field
    rng = np.random.default_rng(3)
    path = tmp_path / "quoted.csv"
    path.write_text("region,period,value\n" + "".join(
        f"{region},p,{v!r}\n" for region in ("Beaver", '"""Q"" County"')
        for v in rng.lognormal(1.0, 0.8, 120).tolist()))
    argv = [str(path), "--reference", "Beaver", "--neighbors", '"Q" County']
    assert main(["fit", *argv, "--tilt", "x"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [row[:2] for row in rows[1:3]] == [['"Q" County', "alpha"], ['"Q" County', "x"]]
    assert rows[3][0].startswith("# loglik=") and rows[4] == ["# tilts: x"]
    assert main(["refine", *argv]) == 0
    assert next(csv.reader(capsys.readouterr().out.splitlines())) == ["period", '"Q" County']


@pytest.mark.parametrize("tilt", ["global", "x,logx;"])
def test_cmd_fit_se_is_the_sigma_diagonal_over_n(radon_csv, capsys, tilt):
    # the se of each free coordinate is sqrt(Sigma_jj / n) from the library's
    # fit; the alpha of an empty tilt is pinned, with estimate and se 0
    assert main(["fit", *_flags(radon_csv, "--tilt", tilt)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]
            if not line.startswith("#")]
    printed = {(region, term): (float(est), float(se)) for region, term, est, se in rows}
    samples = cli_ingest(radon_csv, ["Beaver", "Butler", "Allegheny"], None)[0]
    specs = [GLOBAL_TILT] * 2 if tilt == "global" else parse_tilt_string(tilt, 2)
    fitted = likelihood.fit(validate(samples, specs))
    data = fitted.data
    assert len(printed) == data.m + data.r
    terms = ["alpha"] + [b.value for b in GLOBAL_TILT.basis]
    for j in range(data.m + data.r):
        key = (data.neighbors[data.nbr[j]][0].label, terms[data.col[j]])
        est, se = printed[key]
        assert est == fitted.theta[j], key
        if j in data.free:
            assert se == pytest.approx(math.sqrt(fitted.Sigma[j, j] / data.n), rel=1e-12), key
            assert se > 0, key
        else:
            assert (est, se) == (0.0, 0.0), key
    if tilt != "global":
        assert printed[("Allegheny", "alpha")] == (0.0, 0.0)


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


def test_cmd_threshold_empirical_rows_come_from_the_reference(radon_csv, capsys):
    thresholds = [2.0, 5.0, 10.0, 25.0]
    assert main(["threshold", *_flags(radon_csv, "--tilt", "global", "--thresholds",
                                      ",".join(map(str, thresholds)))]) == 0
    rows = [row for row in csv.reader(capsys.readouterr().out.splitlines()[1:])
            if row[0] == "empirical"]
    reference = cli_ingest(radon_csv, ["Beaver", "Butler", "Allegheny"], None)[0][0]
    assert reference.label == "Beaver"
    expected = inference.threshold_probability(reference, thresholds)
    assert len(rows) == len(expected)
    for row, est in zip(rows, expected):
        assert float(row[1]) == est.T
        assert [float(v) for v in row[2:]] == [est.prob, est.se, *est.ci, *est.ci_clamped]


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


def test_cmd_simulate_mc_se_is_the_replicate_spread(capsys):
    # unequal sizes and a grid that starts off 0; each replicate's errors come
    # from its documented seed, and mc_se is their sample sd (ddof=1) / sqrt(I)
    sizes, grid, reps, seed = (300, 200, 250), (0.5, 6.0, 40), 5, 4
    assert main(["simulate", "--reps", str(reps), "--sizes", ",".join(map(str, sizes)),
                 "--grid", ",".join(map(str, grid)), "--seed", str(seed)]) == 0
    captured = capsys.readouterr()
    assert f"(failures excluded: 0), n0={sizes[0]}" in captured.err
    printed = {(row[0], row[1]): row[2:] for row in
               csv.reader(captured.out.splitlines()[1:])}
    errors = [simulation._replicate_errors(
        simulation.generate(np.random.SeedSequence(seed, spawn_key=(i,)), sizes), grid)
        for i in range(reps)]
    for name in simulation.ESTIMATORS:
        per = np.array([e[name] for e in errors])   # (I, 2): IAE, ISE
        for k, metric in enumerate(("miae", "mise")):
            value, mc_se, i_used, n = printed[(name, metric)]
            assert float(value) == pytest.approx(per[:, k].mean(), rel=1e-12)
            assert float(mc_se) == pytest.approx(
                per[:, k].std(ddof=1) / math.sqrt(reps), rel=1e-12)
            assert (int(i_used), int(n)) == (reps, sizes[0])
    # the grid's step is (M2 - M1) / J: a unit error integrates to M2 - M1
    iae, ise = simulation.miae_mise(lambda x: np.zeros((x.size, 1)),
                                    lambda x: np.ones(x.size), grid)
    assert (iae[0], ise[0]) == pytest.approx((grid[1] - grid[0],) * 2, rel=1e-12)


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


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_exit_code_2_on_unwritable_out(radon_csv, tmp_path, capsys, command):
    args = (["--reps", "2", "--sizes", "50,50,50"] if command == "simulate"
            else _flags(radon_csv, "--tilt", "global"))
    for out, message in ((tmp_path / "missing" / "o.csv", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main([command, *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"drmfuse: input error: cannot write '{out}': {message}\n"), captured.err


def test_unwritable_out_is_found_before_the_command_runs(radon_csv, tmp_path, capsys,
                                                        monkeypatch):
    def unreachable(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(simulation, "run_comparison", unreachable)
    monkeypatch.setattr(cli, "_read_rows", unreachable)
    out = tmp_path / "missing" / "o.csv"
    assert main(["simulate", "--reps", "2", "--sizes", "50,50,50", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"drmfuse: input error: cannot write '{out}': No such file or directory\n")
    assert main(["fit", *_flags(radon_csv, "--tilt", "global", "--out", str(tmp_path))]) == 2
    assert capsys.readouterr() == (
        "", f"drmfuse: input error: cannot write '{tmp_path}': Is a directory\n")
    assert not out.parent.exists()


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


@pytest.mark.parametrize("command", ["fit", "refine", "threshold", "gof"])
@pytest.mark.parametrize("neighbors", ["Beaver", "Butler,Beaver", "Butler,Butler"])
def test_regions_must_be_distinct(radon_csv, capsys, command, neighbors):
    argv = [command, radon_csv, "--reference", "Beaver", "--neighbors", neighbors]
    assert main(argv) == 4
    assert capsys.readouterr() == (
        "", "drmfuse: config error: reference and neighbor regions must be distinct\n")


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
    capsys.readouterr()
    assert main(["simulate", "--grid", "0,10"]) == 4
    assert capsys.readouterr().err == "drmfuse: config error: --grid needs M1,M2,J\n"
    for flag, value in (("--sizes", "0,1,1"), ("--grid", "10,0,10"), ("--reps", "0"),
                        ("--seed", "-1")):
        assert main(["simulate", flag, value]) == 4   # SimConfig's range checks
        err = capsys.readouterr().err
        assert err.startswith("drmfuse: config error:") and "Traceback" not in err


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

# the Monte Carlo workers import these where they use them, so that importing
# the package does not pay for them (about 2 ms of cold import)
eager = [m for m in ("signal", "traceback") if m in sys.modules]
if eager:
    sys.exit(f"imported with the package: {eager}")

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
    # made unimportable, and none of it is loaded; nor are signal and
    # traceback loaded by importing the CLI
    src = str(Path(drmfuse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, radon_csv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
