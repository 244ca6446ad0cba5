"""Command dispatch, emitted files, exit codes, determinism."""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from eubalance import accounting, cli, expfit, reports, stability

import golden_values as gv

BUNDLED_DATA = Path(cli.__file__).parent / "data"

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
                shares = [accounting.gdp_share(dataset, c, year)
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

    def test_bad_level_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "fit", "--series", "eu9plus", "--level", "1.5")
        assert exc.value.code == 2

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
        # the EU9+ sums fit a float; the fit's squares do not
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        lines = (data / "gdp.csv").read_text().split("\n")
        (data / "gdp.csv").write_text("\n".join(
            f"{line[:2]},1995,1.5e308"
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

    @pytest.mark.parametrize("files, table", (
        (("gdp.csv",), "1"),
        (("gdp.csv", "cab_pct.csv", "ggb.csv"), "7"),
    ), ids=("balance-without-gdp", "share-without-gdp"))
    def test_data_error_message_is_stable(self, tmp_path, files, table):
        # four member-years lose their rows; set iteration order varies
        # with the string hash seed, the message must not
        data = tmp_path / "data"
        shutil.copytree(BUNDLED_DATA, data)
        for name in files:
            lines = (data / name).read_text().split("\n")
            (data / name).write_text("\n".join(
                line for line in lines
                if line[:8] not in ("BG,1995,", "CZ,1995,", "DK,1995,",
                                    "HU,1995,")))
        src = str(BUNDLED_DATA.parents[1])
        errs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run(
                [sys.executable, "-m", "eubalance.cli", "--data-dir",
                 str(data), "--out", str(tmp_path), "report", "--table",
                 table], capture_output=True, text=True, env=env)
            assert proc.returncode == 3
            errs.append(proc.stderr)
        assert errs[0] == errs[1]

    @pytest.mark.parametrize("below", ("", "sub"))
    def test_out_in_a_file_is_config_error(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(taken / below), "report", "--table", "1"])
        assert exc.value.code == 2
        assert "is not a directory" in capsys.readouterr().err

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

    def test_zero_uncorrected_total_is_exit_4(self, tmp_path, monkeypatch,
                                              capsys):
        def explode(model):
            raise expfit.DegenerateTotal("forced")
        monkeypatch.setattr(cli.expfit, "r_squared", explode)
        rc = run(tmp_path, "fit", "--series", "eu9plus")
        assert rc == 4
        assert capsys.readouterr().err == "error: forced\n"

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
            "print('decimal' in sys.modules)")
        proc = subprocess.run([sys.executable, "-S", "-c", probe,
                               str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("False\n")
