"""Six-significant-digit formatting: both paths against a Decimal reference,
the plot's t column, formatted once per process, and the year tables
against a region_series reference."""
import functools
import importlib.util
import json
import math
import random
import struct
import sys
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

import pytest

import eubalance as eb
from eubalance import accounting, cli, reports
from eubalance.dataset import INPUT_FILES
from eubalance.reports import _sig6_exact, sig6

ROOT = Path(__file__).resolve().parent.parent

MAX = sys.float_info.max


def _sig6_decimal(x: float) -> str:
    """sig6 by Decimal arithmetic on repr(x); exact for every float."""
    if x == 0:
        return "0."
    d = Decimal(repr(float(x)))
    _, digits, exp = d.as_tuple()
    e = len(digits) + exp - 1
    r = d.quantize(Decimal(1).scaleb(e - 5), rounding=ROUND_HALF_UP)
    if r == 0:
        return "0."
    _, dig2, exp2 = r.as_tuple()
    e2 = len(dig2) + exp2 - 1
    if e2 != e:
        # rounding bumped the magnitude, e.g. 999.9999 -> 1000.00
        r = d.quantize(Decimal(1).scaleb(e2 - 5), rounding=ROUND_HALF_UP)
        e = e2
    if e >= 6 or e <= -5:
        return (format(r.normalize(), "e")
                .replace("e+", "e").replace("e0", "e").replace("e-0", "e-"))
    s = format(r, "f")
    s = s.rstrip("0") if "." in s else s + "."
    if s.startswith("."):
        s = "0" + s
    elif s.startswith("-."):
        s = "-0" + s[1:]
    return s


def _both_match_reference(x: float) -> None:
    want = _sig6_decimal(x)
    assert sig6(x) == want, repr(x)
    assert _sig6_exact(x) == want, repr(x)

EDGES = (
    (0.0, "0."), (-0.0, "0."),
    (1e6, "1e6"), (-1e6, "-1e6"),
    (999999.4, "999999."), (999999.5, "1e6"),
    (9.999995, "10."), (-9.999995, "-10."),
    (0.0001, "0.0001"), (9.999996e-05, "0.0001"), (1e-5, "1e-5"),
    (99999.95, "100000."), (-99999.95, "-100000."), (99999.94, "99999.9"),
    (123456.5, "123457."), (-123456.5, "-123457."),
    (1234567.0, "1.23457e6"), (0.1 + 0.2, "0.3"), (1.0000005, "1."),
    (-1.5, "-1.5"), (-0.000123456789, "-0.000123457"),
    (1e99, "1e99"), (9.999999e98, "1e99"), (1e-99, "1e-99"),
    (1e100, "1e100"), (1e-100, "1e-100"),
    (2.2250738585072014e-308, "2.22507e-308"),
    (5e-324, "5e-324"), (-5e-324, "-5e-324"),
    (MAX, "1.79769e308"), (-MAX, "-1.79769e308"),
)


def _flipped(cell: str) -> str:
    """cell with its sign flipped; "0." has no sign."""
    if cell == "0.":
        return cell
    return cell[1:] if cell.startswith("-") else "-" + cell


class TestSig6:
    @pytest.mark.parametrize("x, want", EDGES)
    def test_format_edges(self, x, want):
        assert _sig6_decimal(x) == want
        _both_match_reference(x)

    def test_half_way_ties(self):
        # repr(x) is a 7-digit tie: half-up rounds away from zero, where
        # printf-style rounding of the binary value would round to even
        assert sig6(892296500000.0) == "8.92297e11"
        assert sig6(-2574705.0) == "-2.57471e6"
        assert sig6(1.234565) == "1.23457"
        rng = random.Random(20261018)
        for _ in range(20000):
            m = rng.randrange(100000, 1000000) * 10 + 5
            x = rng.choice((1, -1)) * m * 10.0 ** rng.randint(-20, 8)
            _both_match_reference(x)

    def test_random_bit_patterns(self):
        rng = random.Random(7)
        for _ in range(50000):
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                _both_match_reference(x)

    def test_fast_path_matches_exact_path(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=3000, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.floats(allow_nan=False, allow_infinity=False))
        def check(x):
            _both_match_reference(x)

        check()

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_non_finite_is_named(self, x):
        with pytest.raises(ValueError,
                           match=f"^cannot format non-finite value {x!r}$"):
            sig6(x)

    def test_negation_flips_the_sign(self):
        rng = random.Random(4242)
        xs = [x for x, _ in EDGES]
        xs += [rng.choice((1, -1)) * 10.0 ** rng.uniform(-300, 300)
               for _ in range(10000)]
        xs += [rng.choice((1, -1)) * (rng.randrange(100000, 1000000) * 10 + 5)
               * 10.0 ** rng.randint(-20, 8) for _ in range(5000)]
        while len(xs) < len(EDGES) + 20000:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                xs.append(x)
        for x in xs:
            assert sig6(-x) == _flipped(sig6(x)), repr(x)
        assert sig6(-0.0) == sig6(0.0) == "0."


def _is_7_digit_tie(x: float) -> bool:
    """Whether repr(x) has exactly 7 significant digits, the last a 5."""
    digits = repr(abs(x)).partition("e")[0].replace(".", "").strip("0")
    return len(digits) == 7 and digits[-1] == "5"


def _fast_path_window(rng: random.Random) -> list[float]:
    """Log-uniform values over sig6's printf window [1e-99, 1e99), both
    signs, then values one ulp either side of the 6-digit rounding
    boundaries (7th digit 5, or the power itself) and of the 7-digit ones
    (8th digit 5, where the 7th-digit guard flips) near each power of ten
    from 1e-6 to 1e7, then 7-digit ties across the window with their
    neighbours one ulp away, which share the tie's %.6e digits but do not
    read back from them."""
    xs = [rng.choice((1, -1)) * 10.0 ** rng.uniform(-99, 99)
          for _ in range(200000)]
    for k in range(-6, 8):
        for m in (0.9999995, 0.99999945, 0.99999955, 0.99999995, 1.0,
                  1.000005, 1.0000005, 1.0000045, 1.0000055):
            b = m * 10.0 ** k
            for y in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)):
                xs += (y, -y)
    for _ in range(5000):
        digits, k = rng.randrange(100000, 1000000), rng.randint(-105, 92)
        tie = float(f"{digits}5e{k}")
        assert _is_7_digit_tie(tie)
        for y in (math.nextafter(tie, 0.0), tie,
                  math.nextafter(tie, math.inf)):
            xs += (y, -y)
    return xs


class TestSig6FastPath:
    def test_fast_path_window_matches_exact_path(self):
        xs = _fast_path_window(random.Random(20261019))
        for x in xs:
            assert sig6(x) == _sig6_exact(x), repr(x)
        for x in xs[::10] + xs[200000:]:
            assert sig6(x) == _sig6_decimal(x), repr(x)

    def test_report_tables_send_only_ties_to_the_exact_path(
            self, monkeypatch, dataset, regions):
        sent = []

        def exact(x):
            sent.append(x)
            return _sig6_exact(x)

        monkeypatch.setattr(reports, "_sig6_exact", exact)
        for table_id in range(1, 13):
            reports.build_table(dataset, regions, table_id)
        # zero has no digits to round
        assert [x for x in sent if x and not _is_7_digit_tie(x)] == []


class TestPlotTColumn:
    def test_cells_are_the_grid_in_sig6(self):
        assert reports._plot_t_cells() == tuple(
            sig6(k / 20) for k in range(501))

    def test_cells_are_built_once(self):
        assert reports._plot_t_cells() is reports._plot_t_cells()

    def test_plot_reads_the_cells(self, analyses):
        plot = reports.plot_data_table("eu", analyses["eu"], 0.95)
        assert tuple(row[0] for row in plot.rows) == reports._plot_t_cells()


def _reference_year_rows(dataset, regions, table_id):
    """A year table's rows from one region_series call per subject and
    kind, and one gdp_share call per share cell."""
    _, columns = reports._YEAR_TABLES[table_id]

    @functools.cache
    def annual(name, kind):
        region = reports._region(regions, name)
        return {eb.BASE_YEAR + t: v for t, v
                in accounting.region_series(dataset, region, kind)}

    rows = []
    for year in dataset.years:
        values = []
        for _, measure, subject in columns:
            if measure in ("GDP", "CAB"):
                value = annual(subject, measure)[year]
            elif measure == "CAB/GDP":
                value = annual(subject, "CAB")[year] / annual(subject,
                                                              "GDP")[year]
            elif measure == "share":
                value = accounting.gdp_share(
                    dataset, reports._region(regions, subject), year)
            else:
                value = math.fsum(values)
            values.append(value)
        rows.append((str(year), *map(sig6, values)))
    return tuple(rows)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The bundled countries replicated and perturbed at seed 7, as the
    benchmark's scale workload generates them."""
    spec = importlib.util.spec_from_file_location(
        "scaledata", ROOT / "perfbench" / "scaledata.py")
    scaledata = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaledata)
    out = tmp_path_factory.mktemp("generated")
    scaledata.generate(Path(eb.__file__).parent / "data", out, 7)
    return (eb.load_files(*(out / name for name in INPUT_FILES)),
            eb.load_regions(out / "regions.json"))


class TestYearTables:
    @pytest.mark.parametrize("table_id", range(5, 13))
    @pytest.mark.parametrize("source", ("bundled", "generated"))
    def test_cells_match_region_series(self, request, source, table_id):
        dataset, regions = (
            (request.getfixturevalue("dataset"),
             request.getfixturevalue("regions")) if source == "bundled"
            else request.getfixturevalue("generated"))
        table = reports.build_table(dataset, regions, table_id)
        assert table.rows == _reference_year_rows(dataset, regions, table_id)

    # Table 6 reads EU9+ before EU18-, table 10 reads their CAB first. A
    # region with no data, or with no CAB in 1995 (Bulgaria reports from
    # 1998), fails at its first cell.
    @pytest.mark.parametrize("table_id, defined, message", (
        (6, {"EU9+": ["ZZ"]}, "no GDP data for region 'EU9+'"),
        (10, {"EU9+": ["ZZ"]}, "no CAB data for region 'EU9+'"),
        (10, {"EU9+": ["BG"]}, "no CAB data for region 'EU9+' in 1995"),
        (6, {"EU18-": ["ZZ"]}, "region 'EU9+' is not defined"),
        (6, {"EU9+": []}, "region 'EU9+' has no members"),
    ), ids=("no-data", "no-data-cab", "none-in-1995", "undefined-first",
            "no-members"))
    def test_first_fault_in_row_order_is_raised(self, tmp_path, capsys,
                                                table_id, defined, message):
        # every other region of the table is left undefined
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(defined), encoding="utf-8")
        rc = cli.main(["--regions", str(path), "--out", str(tmp_path),
                       "report", "--table", str(table_id)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"
