"""Command dispatch, emitted files, exit codes, determinism."""
import argparse
import importlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from eubalance import accounting, cli, expfit, reports, stability
from eubalance.dataset import DuplicateKey

import golden_values as gv

BUNDLED_DATA = Path(cli.__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]

# Cells of the year tables pinned as printed text, (year, header, cell),
# on top of the golden comparison.
PINNED_CELLS = {7: ((1995, "EU10", "0.207622"),)}
TABLE5_CODES = ("DE", "FR", "UK", "IT", "ES", "NL")


def run(tmp_path, *argv):
    return cli.main(["--out", str(tmp_path), *argv])


def read(tmp_path, name):
    return (tmp_path / name).read_text(encoding="utf-8")


def cells(csv_text):
    lines = csv_text.strip().split("\n")
    return [line.split(",") for line in lines]


def _huge_cab(codes, years, ggb=None):
    """Input edits giving each (code, year) a GDP of 1.5e308 and a CAB/GDP
    of 0.9, so its CAB fits a float, and a GGB of ggb if one is given."""
    rows = [f"{code},{year}," for code in codes for year in years]
    edits = {"gdp.csv": dict.fromkeys(rows, "1.5e308"),
             "cab_pct.csv": dict.fromkeys(rows, "0.9")}
    if ggb is not None:
        edits["ggb.csv"] = dict.fromkeys(rows, ggb)
    return edits


def _edited_copy(tmp_path, edits):
    """A copy of the bundled data with the {file name: {row prefix:
    value}} edits of _huge_cab applied."""
    data = tmp_path / "data"
    shutil.copytree(BUNDLED_DATA, data)
    for name, values in edits.items():
        lines = (data / name).read_text().split("\n")
        (data / name).write_text("\n".join(
            line[:8] + values[line[:8]] if line[:8] in values else line
            for line in lines))
    return data


# One fault of each entry of cli's exit-code table, with its code and its
# stderr line.
_FAULTS = (
    (DuplicateKey("duplicate row for DE 1995"), 3,
     "error: duplicate row for DE 1995\n"),
    (accounting.EmptyIntersection("no CAB data for region 'X'"), 3,
     "error: no CAB data for region 'X'\n"),
    (ValueError("forced"), 3, "error: forced\n"),
    (ZeroDivisionError("float division by zero"), 3,
     "error: float division by zero\n"),
    (PermissionError(13, "Permission denied", "table_2.csv"), 2,
     "error: [Errno 13] Permission denied: 'table_2.csv'\n"),
    (expfit.NoConvergence("forced"), 4, "error: forced\n"),
    (stability.RootNotBracketed("forced"), 5, "error: forced\n"),
    (RuntimeError("forced"), 1,
     "error: internal error: RuntimeError: forced\n"),
)


class TestReport:
    def test_table1_germany_row(self, tmp_path, capsys):
        assert run(tmp_path, "report", "--table", "1") == 0
        rows = cells(read(tmp_path, "table_1.csv"))
        germany = next(r for r in rows if r[0] == "Germany")
        assert germany[1:] == ["1097.96", "1", "-977.186", "26",
                               "2075.15", "1"]

    def test_table1_ordered_by_name(self, tmp_path):
        run(tmp_path, "report", "--table", "1")
        rows = cells(read(tmp_path, "table_1.csv"))[1:]
        names = [r[0] for r in rows if r[0] != "EU27"]
        assert names == sorted(names)
        assert len(names) == 27

    @pytest.mark.parametrize("table_id", range(5, 13))
    def test_year_table_goldens(self, dataset, regions, table_id):
        golden = getattr(gv, f"TABLE{table_id}")
        table = reports.build_table(dataset, regions, table_id)
        rows = {int(row[0]): row[1:] for row in table.rows}
        assert list(rows) == sorted(golden)
        total_column = table_id == 5
        for year, values in golden.items():
            assert len(rows[year]) == len(values) + total_column
            assert rows[year][:len(values)] == \
                tuple(reports.sig6(v) for v in values)
        if total_column:
            assert table.header[1:] == (
                *(reports.COUNTRY_NAMES[c] for c in TABLE5_CODES), "Total")
            for year, row in rows.items():
                shares = [
                    accounting.gdp_share(
                        dataset, accounting.RegionDefinition(c, {c}), year)
                    for c in TABLE5_CODES]
                assert row[-1] == reports.sig6(math.fsum(shares))
        for year, column, text in PINNED_CELLS.get(table_id, ()):
            assert rows[year][table.header.index(column) - 1] == text

    def test_all_tables_render_both_forms(self, tmp_path):
        for table_id in range(1, 13):
            assert run(tmp_path, "report", "--table", str(table_id)) == 0
            csv_text = read(tmp_path, f"table_{table_id}.csv")
            txt_text = read(tmp_path, f"table_{table_id}.txt")
            rows = cells(csv_text)
            width = len(rows[0])
            assert all(len(r) == width for r in rows)
            assert len(txt_text.strip().split("\n")) == len(rows) + 2

    def test_invalid_table_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "report", "--table", "99")
        assert exc.value.code == 2


class TestSubjects:
    """A country is a region of one, named as in the tables, and its name
    resolves before any region of the same name in the regions file."""

    def test_country_names_resolve_to_one_code_regions(self):
        for code, name in reports.COUNTRY_NAMES.items():
            region = reports._region({}, name)
            assert (region.name, region.members) == (name, {code})

    def test_regions_file_cannot_redefine_a_country(self, tmp_path):
        regions = {name: sorted(region.members) for name, region
                   in accounting.bundled_regions().items()}
        regions["Germany"] = ["DE", "FR"]
        regions["France"] = ["FR", "IT"]
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(regions))
        bundled, redefined = tmp_path / "bundled", tmp_path / "redefined"
        for table in (2, 3, 4, 5, 11):
            argv = ["report", "--table", str(table)]
            assert cli.main(["--out", str(bundled), *argv]) == 0
            assert cli.main(["--regions", str(path), "--out", str(redefined),
                             *argv]) == 0
            for suffix in ("csv", "txt"):
                name = f"table_{table}.{suffix}"
                assert read(redefined, name) == read(bundled, name)


class TestFit:
    def test_summary_values(self, tmp_path):
        assert run(tmp_path, "fit", "--series", "eu9plus") == 0
        summary = dict((r[0], r[1]) for r in
                       cells(read(tmp_path, "fit_eu9plus_summary.csv"))[1:])
        assert summary["alpha"] == "168.249"
        assert summary["alpha_se"] == "23.3499"
        assert summary["r_squared"] == "0.988488"

    def test_euro10minus_rate(self, tmp_path):
        assert run(tmp_path, "fit", "--series", "euro10minus") == 0
        summary = dict((r[0], r[1]) for r in
                       cells(read(tmp_path,
                                  "fit_euro10minus_summary.csv"))[1:])
        assert summary["beta"] == "0.233702"

    def test_euro7plus_forecast_row(self, tmp_path):
        assert run(tmp_path, "fit", "--series", "euro7plus") == 0
        rows = cells(read(tmp_path, "fit_euro7plus_predictions.csv"))
        header, data = rows[0], rows[1:]
        row_t20 = next(r for r in data if r[header.index("t")] == "20")
        predicted = float(row_t20[header.index("predicted")])
        assert predicted == pytest.approx(4179.8, rel=1e-3)
        assert row_t20[header.index("observed")] == "-"
        assert len(data) == 21

    def test_observed_column_stops_at_last_data_year(self, tmp_path):
        run(tmp_path, "fit", "--series", "eu9plus")
        rows = cells(read(tmp_path, "fit_eu9plus_predictions.csv"))
        header, data = rows[0], rows[1:]
        observed = [r[header.index("observed")] for r in data]
        assert all(v != "-" for v in observed[:17])
        assert all(v == "-" for v in observed[17:])


class TestStability:
    def test_eu_report(self, tmp_path):
        assert run(tmp_path, "stability", "--scope", "eu") == 0
        report = dict((r[0], r[1]) for r in
                      cells(read(tmp_path, "stability_eu.csv"))[1:])
        assert report["t0_turning_point"] == "14.386"
        assert report["t0_year"] == "2009"
        assert report["t_m_year"] == "2008"
        assert report["t_M_year"] == "2011"
        assert report["band_level"] == "0.99"
        assert report["joint_level"] == "0.9801"
        assert report["phase_at_latest_year"] == "increasing-instability"

    def test_eurozone_report(self, tmp_path):
        assert run(tmp_path, "stability", "--scope", "eurozone") == 0
        report = dict((r[0], r[1]) for r in
                      cells(read(tmp_path, "stability_eurozone.csv"))[1:])
        assert report["t0_turning_point"] == "21.0384"
        assert report["level_at_t0"] == "4993.13"
        assert report["t_m_year"] == "2015"
        assert report["t_M_year"] == "2018"
        assert report["phase_at_latest_year"] == "decreasing-stability"

    def test_plot_data_grid(self, tmp_path):
        run(tmp_path, "stability", "--scope", "eurozone")
        rows = cells(read(tmp_path, "plot_eurozone.csv"))
        assert rows[0][0] == "t"
        assert len(rows) == 1 + 501  # 0 .. 25 step 0.05
        assert rows[1][0] == "0."
        assert rows[2][0] == "0.05"
        assert rows[-1][0] == "25."

    def test_plot_negated_columns_flip_the_sign(self, tmp_path):
        assert run(tmp_path, "stability", "--scope", "eu") == 0
        header, *rows = cells(read(tmp_path, "plot_eu.csv"))
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            for cell, negated in (("surplus", "surplus_neg"),
                                  ("deficit", "deficit_mag")):
                value = row[col[cell]]
                assert value != "0."
                flipped = value[1:] if value[0] == "-" else "-" + value
                assert row[col[negated]] == flipped, row

    def test_tiny_band_collapses_interval(self, tmp_path):
        assert run(tmp_path, "stability", "--scope", "eurozone",
                   "--band-level", "0.0001") == 0
        report = dict((r[0], r[1]) for r in
                      cells(read(tmp_path, "stability_eurozone.csv"))[1:])
        assert abs(float(report["t_m"]) - float(report["t_M"])) < 1e-3


class TestExitCodes:
    def test_missing_data_dir_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--data-dir", str(tmp_path / "nope"), "--out",
                      str(tmp_path), "report", "--table", "1"])
        assert exc.value.code == 2

    # an existing path of the wrong kind is named as such, not as missing
    @pytest.mark.parametrize("flag, kind, message", (
        ("--data-dir", "file", "--data-dir {} is not a directory"),
        ("--regions", "directory", "regions file {} is not a file"),
    ), ids=("data-dir-is-a-file", "regions-is-a-directory"))
    def test_path_of_the_wrong_kind_is_config_error(self, tmp_path, capsys,
                                                    flag, kind, message):
        path = tmp_path / "taken"
        if kind == "file":
            path.write_text("")
        else:
            path.mkdir()
        with pytest.raises(SystemExit) as exc:
            run(tmp_path / "out", flag, str(path), "report", "--table", "1")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: eubalance ")
        assert err.endswith(f"error: {message.format(path)}\n")

    def test_bad_level_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "fit", "--series", "eu9plus", "--level", "1.5")
        assert exc.value.code == 2

    # One float lower the level passes the check: the fit runs, and the
    # stability bands are too wide to reach the turning-point level.
    @pytest.mark.parametrize("argv, flag, lower_code", (
        (("fit", "--series", "eu9plus", "--level"), "--level", 0),
        (("stability", "--scope", "eu", "--band-level"), "--band-level", 5)))
    def test_level_too_close_to_one_is_config_error(self, tmp_path, capsys,
                                                    argv, flag, lower_code):
        # the largest float below 1: 1 - (1 - level) / 2 rounds to 1.0
        level = math.nextafter(1.0, 0.0)
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv, repr(level))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: {flag} {level!r} is too close to 1 for a two-sided "
            f"interval\n")
        assert list(tmp_path.iterdir()) == []
        assert run(tmp_path, *argv,
                   repr(math.nextafter(level, 0.0))) == lower_code

    def test_validation_failure_is_exit_3(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "gdp.csv").write_text("country,year,value\nDE,2010,1.0\n")
        (data / "cab_pct.csv").write_text(
            "country,year,value\nDE,2010,0.05\nFR,2010,0.01\n")
        (data / "ggb.csv").write_text("country,year,value\n")
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       "report", "--table", "1"])
        assert rc == 3

    @pytest.mark.parametrize("value", ("nan", "inf"))
    @pytest.mark.parametrize("name", ("gdp.csv", "cab_pct.csv", "ggb.csv"))
    def test_non_finite_cell_is_exit_3(self, tmp_path, capsys, name, value):
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        header, first, rest = (data / name).read_text().split("\n", 2)
        first = first.rsplit(",", 1)[0] + "," + value
        (data / name).write_text("\n".join((header, first, rest)))
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       "report", "--table", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_blank_country_code_is_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        for name, value in (("gdp.csv", "1.0"), ("cab_pct.csv", "0.01")):
            with open(data / name, "a") as fh:
                fh.write(f",2011,{value}\n")
        out = tmp_path / "out"
        rc = cli.main(["--data-dir", str(data), "--out", str(out),
                       "report", "--table", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error: line ")
        assert captured.err.endswith(": empty country code: ',2011,1.0'\n")
        assert not out.exists()

    def test_missing_region_is_exit_3(self, tmp_path):
        regions = tmp_path / "regions.json"
        regions.write_text('{"EU27": ["DE", "FR"]}')
        rc = cli.main(["--regions", str(regions), "--out", str(tmp_path),
                       "fit", "--series", "eu9plus"])
        assert rc == 3

    def test_deeply_nested_regions_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "regions.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc = cli.main(["--regions", str(path), "--out", str(tmp_path),
                       "report", "--table", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == "error: regions file is nested too deeply\n"

    def test_region_defined_twice_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "regions.json"
        path.write_text('{"EU9+": ["DE"], "EU9+": ["FR"], "EU18-": ["IT"]}')
        rc = cli.main(["--regions", str(path), "--out", str(tmp_path),
                       "report", "--table", "1"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: region 'EU9+' is defined twice\n")

    @pytest.mark.parametrize("table", (8, 9))
    def test_region_starting_late_is_exit_3(self, tmp_path, capsys, table):
        # Bulgaria reports no current account before 1998
        regions = {name: sorted(region.members) for name, region
                   in accounting.bundled_regions().items()}
        regions["EU10"] = ["BG"]
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(regions))
        rc = cli.main(["--regions", str(path), "--out", str(tmp_path),
                       "report", "--table", str(table)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == "error: no CAB data for region 'EU10' in 1995\n"

    @pytest.mark.parametrize("gdp, argv", (
        ({"DE": "0"}, ("report", "--table", "9")),
        ({"DE": "0"}, ("report", "--table", "11")),
        ({"DE": "1.5e308", "FR": "1.5e308"}, ("report", "--table", "6")),
        ({"DE": "1.5e308", "FR": "1.5e308"}, ("fit", "--series", "eu9plus")),
        ({"DE": "1.5e308", "FR": "1.5e308"}, ("stability", "--scope", "eu")),
    ), ids=("table-9", "table-11", "table-6", "fit", "stability"))
    def test_arithmetic_fault_is_exit_3(self, tmp_path, capsys, gdp, argv):
        # a zero GDP divides by zero; two GDPs near the float maximum
        # overflow their sum and the fit
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        text = (data / "gdp.csv").read_text()
        for code, value in gdp.items():
            row = next(line for line in text.split("\n")
                       if line.startswith(f"{code},1995,"))
            text = text.replace(row, f"{code},1995,{value}")
        (data / "gdp.csv").write_text(text)
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       *argv])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", (
        ("fit", "--series", "eu9plus"), ("stability", "--scope", "eu"),
    ), ids=("fit", "stability"))
    def test_fit_overflow_names_the_series(self, tmp_path, capsys, argv):
        # the EU9+ sums fit a float; the fit's squares do not: at 1.5e308
        # the residual squares overflow, at 1e160 only the normal equations
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        lines = (data / "gdp.csv").read_text().split("\n")
        for gdp in ("1.5e308", "1e160"):
            (data / "gdp.csv").write_text("\n".join(
                f"{line[:2]},1995,{gdp}"
                if line[:8] in ("DE,1995,", "FR,1995,") else line
                for line in lines))
            rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                           *argv])
            assert rc == 3
            assert capsys.readouterr().err == (
                "error: fit of series eu9plus overflows the float range\n")

    @pytest.mark.parametrize("table, message", (
        ("5", "GDP sum for all countries overflows in 1995"),
        ("6", "annual GDP sum for region 'EU9+' overflows in 1995"),
    ), ids=("table-5", "table-6"))
    def test_region_sum_overflow_is_named(self, tmp_path, capsys, table,
                                          message):
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        lines = (data / "gdp.csv").read_text().split("\n")
        (data / "gdp.csv").write_text("\n".join(
            f"{line[:2]},1995,1.5e308"
            if line[:8] in ("DE,1995,", "FR,1995,") else line
            for line in lines))
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       "report", "--table", table])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edits, table, message", (
        (_huge_cab(("DE", "FR"), (1995,)), "1",
         "CAB total for all countries overflows"),
        (_huge_cab(("DE",), range(1995, 2000)), "1",
         "CAB total for DE overflows"),
        (_huge_cab(("DE",), (1995,), ggb="-1.5e308"), "1",
         "PSB total for DE overflows"),
        (_huge_cab(("DE",), (1995,), ggb="-1.5e308"), "2",
         "PSB total for Eurozone overflows"),
    ), ids=("eu27-total", "country-total", "psb-table-1", "psb-table-2"))
    def test_total_overflow_is_named(self, tmp_path, capsys, edits, table,
                                     message):
        data = _edited_copy(tmp_path, edits)
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       "report", "--table", table])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_psb_overflow_fails_only_what_sums_it(self, tmp_path, capsys):
        # Germany's 1995 CAB and GGB fit a float, CAB less GGB does not:
        # the totals tables print a PSB, the year tables do not, and the
        # EU9+ and Eurozone7+ fits overflow on Germany's CAB
        data = _edited_copy(tmp_path,
                            _huge_cab(("DE",), (1995,), ggb="-1.5e308"))
        fit_overflow = "fit of series {} overflows the float range"
        expected = {
            ("report", "--table", "1"): "PSB total for DE overflows",
            ("report", "--table", "2"): "PSB total for Eurozone overflows",
            ("report", "--table", "3"): "PSB total for Eurozone7+ overflows",
            ("report", "--table", "4"): "PSB total for Germany overflows",
            **{("report", "--table", str(n)): None for n in range(5, 13)},
            ("fit", "--series", "eu9plus"): fit_overflow.format("eu9plus"),
            ("fit", "--series", "eu18minus"): None,
            ("fit", "--series", "euro7plus"): fit_overflow.format("euro7plus"),
            ("fit", "--series", "euro10minus"): None,
            ("stability", "--scope", "eu"): fit_overflow.format("eu9plus"),
            ("stability", "--scope", "eurozone"):
                fit_overflow.format("euro7plus"),
        }
        for argv, message in expected.items():
            rc = cli.main(["--data-dir", str(data), "--out",
                           str(tmp_path / "out"), *argv])
            err = capsys.readouterr().err
            assert (rc, err) == ((3, f"error: {message}\n") if message
                                 else (0, "")), argv

    @pytest.mark.parametrize("table, regions, message", (
        ("2", None, "no CAB data for region 'Eurozone'"),
        ("3", None, "no CAB data for region 'Eurozone7+'"),
        ("4", None, "no CAB data for region 'Germany'"),
        ("5", None, "no GDP data for region 'Germany'"),
        ("6", None, "no GDP data for region 'EU9+'"),
        ("7", None, "no GDP data for region 'EU9+'"),
        ("8", None, "no CAB data for region 'Germany'"),
        ("9", None, "no CAB data for region 'Germany'"),
        ("10", None, "no CAB data for region 'EU9+'"),
        ("11", None, "no CAB data for region 'Germany'"),
        ("12", None, "no CAB data for region 'Eurozone7+'"),
        ("6", {"EU18-": ["DE"]}, "region 'EU9+' is not defined"),
    ), ids=[*map(str, range(2, 13)), "6-undefined"])
    def test_header_only_files_name_the_first_subject(self, tmp_path,
                                                      capsys, table,
                                                      regions, message):
        # three header-only files: no year, so no cell, in any table
        data = tmp_path / "data"
        data.mkdir()
        for name in ("gdp.csv", "cab_pct.csv", "ggb.csv"):
            (data / name).write_text("country,year,value\n")
        argv = ["--data-dir", str(data), "--out", str(tmp_path)]
        if regions is not None:
            path = tmp_path / "regions.json"
            path.write_text(json.dumps(regions), encoding="utf-8")
            argv += ["--regions", str(path)]
        rc = cli.main([*argv, "report", "--table", table])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_gdp_is_rejected_at_load(self, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        text = (data / "gdp.csv").read_text()
        row = next(line for line in text.split("\n")
                   if line.startswith("DE,1995,"))
        (data / "gdp.csv").write_text(text.replace(row, "DE,1995,0"))
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       "report", "--table", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == "error: GDP for DE 1995 is not positive: 0.0\n"

    # Table 7 sums the members that report, so losing every row of a
    # member-year is no fault there.
    @pytest.mark.parametrize("files, table, code", (
        (("gdp.csv",), "1", 3),
        (("gdp.csv", "cab_pct.csv", "ggb.csv"), "7", 0),
    ), ids=("balance-without-gdp", "share-without-gdp"))
    def test_data_error_message_is_stable(self, tmp_path, files, table,
                                          code):
        # four member-years lose their rows; set iteration order varies
        # with the string hash seed, the output must not
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        for name in files:
            lines = (data / name).read_text().split("\n")
            (data / name).write_text("\n".join(
                line for line in lines
                if line[:8] not in ("BG,1995,", "CZ,1995,", "DK,1995,",
                                    "HU,1995,")))
        src = str(BUNDLED_DATA.parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run(
                [sys.executable, "-m", "eubalance.cli", "--data-dir",
                 str(data), "--out", str(tmp_path), "report", "--table",
                 table], capture_output=True, text=True, env=env)
            assert proc.returncode == code
            outputs.append((proc.stdout, proc.stderr))
        assert outputs[0] == outputs[1]

    def test_no_countries_is_a_data_error(self, tmp_path, capsys):
        # three header-only files: table 1 has no total to print
        data = tmp_path / "data"
        data.mkdir()
        for name in ("gdp.csv", "cab_pct.csv", "ggb.csv"):
            (data / name).write_text("country,year,value\n")
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       "report", "--table", "1"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: no CAB data for all countries\n")

    @pytest.mark.parametrize("below", ("", "sub"))
    def test_out_in_a_file_is_config_error(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(taken / below), "report", "--table", "1"])
        assert exc.value.code == 2
        assert "is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, below", (
        ("--out", "y"), ("--data-dir", ""), ("--regions", "")))
    def test_path_the_os_rejects_is_config_error(self, tmp_path, capsys,
                                                 flag, below):
        path = tmp_path / ("x" * 300) / below  # one name over NAME_MAX
        argv = [flag, str(path), "report", "--table", "1"]
        if flag != "--out":
            argv = ["--out", str(tmp_path), *argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: cannot use path {path}" in err  # or a file in it
        assert err.endswith(": File name too long\n")

    def test_output_path_is_a_directory_is_config_error(self, tmp_path,
                                                        capsys):
        (tmp_path / "table_1.csv").mkdir()
        rc = run(tmp_path, "report", "--table", "1")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "table_1.csv" in err

    def test_solver_failure_is_exit_4(self, tmp_path, monkeypatch):
        def explode(points):
            raise expfit.NoConvergence("forced")
        monkeypatch.setattr(cli.expfit, "fit_exponential", explode)
        rc = run(tmp_path, "fit", "--series", "eu9plus")
        assert rc == 4

    @pytest.mark.parametrize("argv, series", (
        (("fit", "--series", "euro7plus"), "euro7plus"),
        (("stability", "--scope", "eu"), "eu9plus"),
    ), ids=("fit", "stability"))
    @pytest.mark.parametrize("points, message", (
        ([(t, 1.0 if t == 0 else 1e-9) for t in range(17)],
         "normal equations are singular"),
        ([(t, math.exp(30.0 * t - 480.0)) for t in range(17)],
         "dSSR/dbeta shows no sign change within |beta| <= 22.0922"),
    ), ids=("singular", "no-minimum"))
    def test_fit_error_names_the_series(self, tmp_path, capsys, monkeypatch,
                                        argv, series, points, message):
        monkeypatch.setattr(reports, "fit_series_points",
                            lambda ds, regions, key: points)
        rc = run(tmp_path, *argv)
        assert rc == 4
        assert capsys.readouterr().err == (
            f"error: fit of series {series}: {message}\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", (
        ("fit", "--series", "eu9plus"), ("stability", "--scope", "eu"),
    ), ids=("fit", "stability"))
    def test_too_few_points_names_the_series(self, tmp_path, capsys, argv):
        # only the 2010 and 2011 rows: each series has two points
        data = tmp_path / "data"
        data.mkdir()
        for name in ("gdp.csv", "cab_pct.csv", "ggb.csv"):
            header, *lines = (BUNDLED_DATA / name).read_text().splitlines()
            (data / name).write_text("\n".join(
                [header, *(line for line in lines
                           if line[3:8] in ("2010,", "2011,"))]) + "\n")
        rc = cli.main(["--data-dir", str(data), "--out", str(tmp_path),
                       *argv])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: fit of series eu9plus: need at least 3 points\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_zero_uncorrected_total_is_exit_4(self, tmp_path, monkeypatch,
                                              capsys):
        def explode(model):
            raise expfit.DegenerateTotal("forced")
        monkeypatch.setattr(cli.expfit, "r_squared", explode)
        rc = run(tmp_path, "fit", "--series", "eu9plus")
        assert rc == 4
        assert capsys.readouterr().err == "error: forced\n"

    def test_deficit_rate_not_above_surplus_rate_is_exit_5(self, tmp_path,
                                                           capsys):
        # Germany's surpluses outgrow the UK's deficits: no turning point
        path = tmp_path / "regions.json"
        path.write_text('{"EU9+": ["DE"], "EU18-": ["UK"]}')
        rc = cli.main(["--regions", str(path), "--out", str(tmp_path),
                       "stability", "--scope", "eu"])
        assert rc == 5
        assert capsys.readouterr().err == (
            "error: deficit rate d = 0.151364 does not exceed surplus rate "
            "b = 0.298277: deficits never overtake surpluses\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_pair_fault_names_the_scope_and_both_fits(self, tmp_path,
                                                      capsys):
        # France's balances fit a positive alpha: it cannot be the deficit
        path = tmp_path / "regions.json"
        path.write_text('{"EU9+": ["DE"], "EU18-": ["FR"]}')
        rc = cli.main(["--regions", str(path), "--out", str(tmp_path),
                       "stability", "--scope", "eu"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: scope eu: deficit model must have negative alpha "
            "(surplus eu9plus: alpha = 10.4764, beta = 0.298277; deficit "
            "eu18minus: alpha = 9.47429, beta = 0.0941996)\n")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("surplus, deficit, rule", (
        ((-100.0, 0.1), (-50.0, 0.2), "surplus model must have positive "
                                      "alpha"),
        ((100.0, 0.1), (50.0, 0.2), "deficit model must have negative "
                                    "alpha"),
        ((100.0, -0.1), (-50.0, 0.2), "both growth rates must be positive"),
    ), ids=("surplus-alpha", "deficit-alpha", "rate"))
    def test_each_pair_rule_is_exit_3_and_named(self, tmp_path, capsys,
                                                monkeypatch, surplus,
                                                deficit, rule):
        # exact exponentials, so the fits return these alpha and beta
        params = {"euro7plus": surplus, "euro10minus": deficit}
        monkeypatch.setattr(
            reports, "fit_series_points",
            lambda ds, regions, key: [(t, params[key][0]
                                       * math.exp(params[key][1] * t))
                                      for t in range(17)])
        rc = run(tmp_path, "stability", "--scope", "eurozone")
        assert rc == 3
        (a, b), (c, d) = surplus, deficit
        assert capsys.readouterr().err == (
            f"error: scope eurozone: {rule} (surplus euro7plus: alpha = "
            f"{a:g}, beta = {b:g}; deficit euro10minus: alpha = {c:g}, "
            f"beta = {d:g})\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_level_underflow_is_exit_5(self, tmp_path, capsys, monkeypatch):
        # exact exponentials whose turning-point level S(t0) underflows
        params = {"euro7plus": (0.028623, 0.831165),
                  "euro10minus": (-2.22327, 0.833986)}
        monkeypatch.setattr(
            reports, "fit_series_points",
            lambda ds, regions, key: [(t, params[key][0]
                                       * math.exp(params[key][1] * t))
                                      for t in range(17)])
        rc = run(tmp_path, "stability", "--scope", "eurozone")
        assert rc == 5
        assert capsys.readouterr().err == (
            "error: the turning-point level underflows to 0 at t0 = -1542.9\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_unnamed_fault_is_one_line_and_exit_1(self, tmp_path, capsys,
                                                  monkeypatch):
        def explode(dataset, regions, table_id):
            raise RuntimeError("forced")
        monkeypatch.setattr(reports, "build_table", explode)
        rc = run(tmp_path, "report", "--table", "2")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: internal error: RuntimeError: forced\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc, code, err", _FAULTS,
                             ids=[type(exc).__name__ for exc, _, _ in _FAULTS])
    def test_each_fault_class_has_its_exit_code(self, tmp_path, capsys,
                                                monkeypatch, exc, code, err):
        def explode(dataset, regions, table_id):
            raise exc
        monkeypatch.setattr(reports, "build_table", explode)
        assert run(tmp_path, "report", "--table", "2") == code
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc", (SystemExit(7), KeyboardInterrupt()),
                             ids=("SystemExit", "KeyboardInterrupt"))
    def test_exit_and_interrupt_pass_through(self, tmp_path, monkeypatch,
                                             exc):
        def explode(dataset, regions, table_id):
            raise exc
        monkeypatch.setattr(reports, "build_table", explode)
        with pytest.raises(type(exc)):
            run(tmp_path, "report", "--table", "2")

    def test_no_intersection_is_exit_5(self, tmp_path, monkeypatch):
        def explode(analysis, band_level):
            raise stability.RootNotBracketed("forced")
        monkeypatch.setattr(cli.stability, "uncertainty_interval", explode)
        rc = run(tmp_path, "stability", "--scope", "eu")
        assert rc == 5


class TestOutputHygiene:
    # (argv, report stems, plot stems): a report is written as .csv and
    # .txt and echoed, plot data is written as .csv only
    @pytest.mark.parametrize("argv, stems, plots", [
        (("report", "--table", "1"), ("table_1",), ()),
        (("fit", "--series", "eu9plus"),
         ("fit_eu9plus_summary", "fit_eu9plus_predictions"), ()),
        (("stability", "--scope", "eu"), ("stability_eu",), ("plot_eu",)),
    ])
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("csv", "csv")])
    def test_emit_contract(self, tmp_path, capsys, argv, stems, plots, fmt,
                           suffix):
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--format", fmt, *argv]) == 0
        want = [f"{s}.{x}" for s in stems for x in ("csv", "txt")]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            want + [f"{p}.csv" for p in plots])
        assert capsys.readouterr().out == "".join(
            read(out, f"{s}.{suffix}") for s in stems)

    @pytest.mark.parametrize("argv, csv_calls, text_calls", [
        (("report", "--table", "1"), 1, 1),
        (("fit", "--series", "eu9plus"), 2, 2),
        (("stability", "--scope", "eu"), 2, 1),
    ], ids=("report", "fit", "stability"))
    @pytest.mark.parametrize("fmt", ("text", "csv"))
    def test_each_form_is_rendered_once(self, tmp_path, monkeypatch, capsys,
                                        argv, csv_calls, text_calls, fmt):
        # the echo reuses the string written to the file
        calls = []
        for name in ("to_csv", "to_text"):
            render = getattr(reports, name)
            monkeypatch.setattr(reports, name,
                                lambda table, name=name, render=render:
                                calls.append(name) or render(table))
        assert run(tmp_path, "--format", fmt, *argv) == 0
        assert (calls.count("to_csv"), calls.count("to_text")) == (
            csv_calls, text_calls)

    def test_tty_titles_are_bold(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        run(tmp_path, "fit", "--series", "eu9plus")
        out = capsys.readouterr().out
        want = ""
        for stem in ("fit_eu9plus_summary", "fit_eu9plus_predictions"):
            title, rest = read(tmp_path, f"{stem}.txt").split("\n", 1)
            want += f"\x1b[1m{title}\x1b[0m\n{rest}"
        assert out == want

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["--out", str(out), "report", "--table", "1"])
            cli.main(["--out", str(out), "fit", "--series", "euro7plus"])
            cli.main(["--out", str(out), "stability", "--scope", "eu"])
        for name in ("table_1.csv", "table_1.txt",
                     "fit_euro7plus_summary.csv",
                     "fit_euro7plus_predictions.csv", "stability_eu.csv",
                     "stability_eu.txt", "plot_eu.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_no_color_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        run(tmp_path, "report", "--table", "2")
        out = capsys.readouterr().out
        assert "\x1b[" not in out

    def test_csv_echo_format(self, tmp_path, capsys):
        run(tmp_path, "--format", "csv", "report", "--table", "2")
        out = capsys.readouterr().out
        assert out == read(tmp_path, "table_2.csv")

    def test_console_entry_point(self, tmp_path):
        # the child imports this checkout's package, installed or not
        src = str(BUNDLED_DATA.parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "eubalance.cli", "--out", str(tmp_path),
             "report", "--table", "4"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "EU27" in read(tmp_path, "table_4.csv")

    def test_import_graph_is_lean(self):
        # run with -S: this interpreter's site may load typing itself
        src = str(BUNDLED_DATA.parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = ("import sys, eubalance.cli; print(sorted(set(sys.modules) "
                 "& {'dataclasses', 'inspect', 'decimal', 'typing'}))")
        proc = subprocess.run([sys.executable, "-S", "-c", probe],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_no_command_loads_decimal(self, tmp_path):
        src = str(BUNDLED_DATA.parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = (
            "import sys; from eubalance import cli\n"
            "for argv in (['report', '--table', '9'],\n"
            "             ['fit', '--series', 'eu9plus'],\n"
            "             ['stability', '--scope', 'eu']):\n"
            "    assert cli.main(['--out', sys.argv[1], *argv]) == 0\n"
            "print(sorted(set(sys.modules)\n"
            "             & {'decimal', 'importlib.resources'}))")
        proc = subprocess.run([sys.executable, "-S", "-c", probe,
                               str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        # the package's own files are read as plain files, as user files are
        assert proc.stdout.endswith("[]\n")


class TestParserReuse:
    """The parser is built once per process; no call leaves state in it."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_band_level_does_not_carry_over(self, tmp_path):
        after, fresh = tmp_path / "after", tmp_path / "fresh"
        assert run(tmp_path / "first", "stability", "--scope", "eu",
                   "--band-level", "0.9") == 0
        assert run(after, "stability", "--scope", "eu") == 0
        src = str(BUNDLED_DATA.parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "eubalance.cli", "--out", str(fresh),
             "stability", "--scope", "eu"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in after.iterdir())
        for name in names:
            assert (after / name).read_bytes() == (fresh / name).read_bytes()

    def test_format_does_not_carry_over(self, tmp_path, capsys):
        assert run(tmp_path, "--format", "csv", "report", "--table", "2") == 0
        capsys.readouterr()
        assert run(tmp_path, "report", "--table", "2") == 0
        assert capsys.readouterr().out == read(tmp_path, "table_2.txt")

    # one rejected by argparse, one by the configuration check
    @pytest.mark.parametrize("rejected", (
        ("report", "--table", "13"),
        ("fit", "--series", "eu9plus", "--level", "1.5")))
    def test_a_rejected_call_leaves_the_parser_usable(self, tmp_path,
                                                       rejected):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *rejected)
        assert exc.value.code == 2
        assert run(tmp_path, "report", "--table", "1") == 0


def _output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The 40 argvs of the digest set, in their order, written out apart from
# cli.COMMANDS: a value or level dropped from the table fails here.
DIGEST_ARGVS = (
    [["report", "--table", str(n)] for n in range(1, 13)]
    + [["fit", "--series", s, "--level", lv]
       for s in ("eu9plus", "eu18minus", "euro7plus", "euro10minus")
       for lv in ("0.95", "0.5", "0.999")]
    + [["stability", "--scope", s, "--band-level", lv]
       for s in ("eu", "eurozone")
       for lv in ("0.5", "0.8", "0.9", "0.95", "0.97", "0.98", "0.99",
                  "0.999")])


def _in_process(capsys, out, argv):
    """Exit code, stdout, stderr and the files written, by name, of one
    cli.main call."""
    rc = cli.main(["--out", str(out), *argv])
    captured = capsys.readouterr()
    files = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(out.iterdir())} if out.exists() else {}
    return rc, captured.out, captured.err, files


def _changed_years(old, new):
    """The first fields of the lines where two texts of as many lines
    differ."""
    old, new = old.split("\n"), new.split("\n")
    assert len(old) == len(new)
    return {a.replace(",", " ").split()[0]
            for a, b in zip(old, new) if a != b}


class TestReportingMembers:
    """Croatia reports a GDP for 2010 and 2011 only, and no balance."""

    def test_digest_set_sums_the_members_that_report(self, tmp_path,
                                                     capsys):
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        with open(data / "gdp.csv", "a", encoding="utf-8") as fh:
            fh.write("HR,2010,45.0\nHR,2011,44.9\n")
        changed = {}
        for i, argv in enumerate(_output_digest().commands()):
            bundled = _in_process(capsys, tmp_path / f"bundled{i}", argv)
            with_hr = _in_process(capsys, tmp_path / f"hr{i}",
                                  ["--data-dir", str(data), *argv])
            if with_hr != bundled:
                changed[" ".join(argv)] = bundled, with_hr
        # table 1 has a country with no CAB total, and HR is in no region
        assert sorted(changed) == ["report --table 1", "report --table 5",
                                   "report --table 7"]
        assert changed.pop("report --table 1")[1] == (
            3, "", "error: no CAB data for HR\n", {})
        # the shares of 2010 and 2011 divide by a total with HR in it
        for bundled, with_hr in changed.values():
            assert bundled[0] == with_hr[0] == 0
            assert bundled[2] == with_hr[2] == ""
            assert bundled[3].keys() == with_hr[3].keys()
            for old, new in zip((bundled[1], *bundled[3].values()),
                                (with_hr[1], *with_hr[3].values())):
                assert _changed_years(old, new) == {"2010", "2011"}


class TestCommandTable:
    """cli.COMMANDS feeds the parser, the dispatch, the level check and the
    digest set."""

    def test_digest_set_is_read_from_the_table(self):
        assert _output_digest().commands() == DIGEST_ARGVS

    def test_every_entry_and_value_is_in_the_digest_set(self):
        argvs = _output_digest().commands()
        for name, (_, _, (flag, values, _), level) in cli.COMMANDS.items():
            assert any(argv[0] == name for argv in argvs)
            for value in values:
                subject = [name, flag, str(value)]
                if level is None:
                    assert subject in argvs
                else:
                    assert level[3]
                    for lv in level[3]:
                        assert [*subject, level[0], lv] in argvs

    def test_parser_accepts_exactly_the_table(self):
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli.COMMANDS)
        for name, (_, run, (flag, values, _), level) in cli.COMMANDS.items():
            options = {option: action
                       for action in sub.choices[name]._actions
                       for option in action.option_strings}
            assert list(options[flag].choices) == sorted(values)
            assert sub.choices[name].get_default("run") is run
            if level is not None:
                assert options[level[0]].default == level[1]
                expfit._two_sided(level[1], level[0])
                for lv in level[3]:
                    expfit._two_sided(float(lv), level[0])

    def test_perfbench_pass_is_in_the_table(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        worker = importlib.import_module("worker")
        for name, flag, value in worker.PASS:
            _, _, (subject_flag, values, _), _ = cli.COMMANDS[name]
            assert flag == subject_flag
            assert value in map(str, values)

    def test_help_of_each_command(self, capsys):
        # a parser of its own, built from the table
        parser = cli._build_parser.__wrapped__()
        assert parser is not cli._build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "{" + ",".join(cli.COMMANDS) + "}" in text
        for name, (summary, _, _, _) in cli.COMMANDS.items():
            assert f"{name} {summary}" in text
        for name, (_, _, (flag, values, opts), level) in cli.COMMANDS.items():
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            shown = opts.get("metavar",
                             "{" + ",".join(map(str, sorted(values))) + "}")
            assert text.startswith(f"usage: eubalance {name} [-h] {flag} "
                                   f"{shown}")
            assert f"{flag} {shown} {opts.get('help', '')}".strip() in text
            if level is not None:
                dest = level[0][2:].replace("-", "_")
                assert f"[{level[0]} {dest.upper()}]" in text
                assert f"{level[0]} {dest.upper()} {level[2]}" in text
                assert level[2].endswith(f"(default {level[1]})")
