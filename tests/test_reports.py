"""Six-significant-digit formatting: both paths and the column formatter
against a Decimal reference, the plot's t column, formatted once per
process, the plot against a cell-by-cell reference, the year tables
against a region_series reference and the totals tables against a
region_total reference."""
import functools
import importlib.util
import json
import math
import random
import shutil
import struct
import sys
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

import pytest

import eubalance as eb
from eubalance import accounting, cli, reports
from eubalance.dataset import INPUT_FILES
from eubalance.expfit import AnovaTable, ExpFitModel
from eubalance.reports import _sig6_cells, _sig6_exact, sig6

ROOT = Path(__file__).resolve().parent.parent

MAX = sys.float_info.max

# the stability band levels of the digest set, as the command table gives
DIGEST_BAND_LEVELS = tuple(map(float, cli.COMMANDS["stability"][3][3]))


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
    """Log-uniform values over [1e-99, 1e99), where %.6e has a two-digit
    exponent, both signs, then values one ulp either side of the 6-digit
    rounding boundaries (7th digit 5, or the power itself) and of the
    7-digit ones (8th digit 5, where the 7th-digit guard flips) near each
    power of ten from 1e-6 to 1e7, then 7-digit ties across the window
    with their neighbours one ulp away, which share the tie's %.6e digits
    but do not read back from them."""
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
            self, monkeypatch, dataset, regions, analyses):
        sent = []

        def exact(x):
            sent.append(x)
            return _sig6_exact(x)

        monkeypatch.setattr(reports, "_sig6_exact", exact)
        for table_id in range(1, 13):
            reports.build_table(dataset, regions, table_id)
        # and both plots at the digest's band levels
        for band_level in DIGEST_BAND_LEVELS:
            for scope, analysis in analyses.items():
                reports.plot_data_table(scope, analysis, band_level)
        assert [x for x in sent if not _is_7_digit_tie(x)] == []


class TestPlotTColumn:
    def test_cells_are_the_grid_in_sig6(self):
        assert reports._plot_t_cells() == tuple(
            sig6(k / 20) for k in range(501))

    def test_cells_are_built_once(self):
        assert reports._plot_t_cells() is reports._plot_t_cells()

    def test_plot_reads_the_cells(self, analyses):
        plot = reports.plot_data_table("eu", analyses["eu"], 0.95)
        assert tuple(row[0] for row in plot.rows) == reports._plot_t_cells()


def _mixed_values(rng: random.Random) -> list[float]:
    """Shuffled, both signs: log-uniform values across the float range,
    inside and outside [1e-99, 1e99), subnormals, 7-digit ties with their
    neighbours one ulp away, zeros, whole numbers, values one ulp either
    side of the 1e-5 and 1e6 notation switches (and the 6-digit boundaries
    that round onto them) and of 1e-99, 1e99 and 1e100, where the %.6e
    exponent gains or loses a digit, and -0.0 and 0.0 between the smallest
    subnormals."""
    xs = [10.0 ** rng.uniform(-323.0, 308.0) for _ in range(20000)]
    xs += [struct.unpack("<d", rng.getrandbits(52).to_bytes(8, "little"))[0]
           for _ in range(2000)]
    for _ in range(2000):
        digits, k = rng.randrange(100000, 1000000), rng.randint(-110, 100)
        tie = float(f"{digits}5e{k}")
        assert _is_7_digit_tie(tie)
        xs += (math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf))
    xs += [0.0] * 10
    xs += [float(rng.randrange(10 ** rng.randint(1, 17))) for _ in range(2000)]
    for b in (1e-5, 9.999995e-06, 1e-4, 9.999995e-05, 1e6, 999999.5, 1e-99,
              9.999995e-100, 1e99, 9.999995e98, 1e100, 9.9999995e99):
        xs += (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))
    xs = [rng.choice((1.0, -1.0)) * x for x in xs]
    xs += (-5e-324, -0.0, 0.0, 5e-324)
    rng.shuffle(xs)
    return xs


@functools.cache
def _mixed_set() -> tuple[list[float], list[str]]:
    """_mixed_values at a fixed seed, and their Decimal-reference cells."""
    xs = _mixed_values(random.Random(20261020))
    return xs, [_sig6_decimal(x) for x in xs]


def _refuse(*args):
    raise AssertionError("one formatter called the other")


class TestSig6Cells:
    def test_mixed_values_match_sig6_and_decimal(self):
        xs, want = _mixed_set()
        # a plot column's length, and the whole list at once
        for chunk in (*(xs[i:i + 501] for i in range(0, len(xs), 501)), xs):
            assert _sig6_cells(tuple(chunk)) == [sig6(x) for x in chunk]
        assert [sig6(x) for x in xs] == want

    def test_lists_match_sig6_and_decimal(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ties = st.builds(lambda sign, m, k: sign * float(f"{m}5e{k}"),
                         st.sampled_from((1.0, -1.0)),
                         st.integers(100000, 999999), st.integers(-330, 300))
        whole = st.integers(-10 ** 17, 10 ** 17).map(float)
        edges = st.sampled_from([x for x, _ in EDGES])
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           ties, whole, edges)

        @hypothesis.settings(max_examples=500, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.lists(values, max_size=40))
        def check(xs):
            want = [_sig6_decimal(x) for x in xs]
            assert _sig6_cells(tuple(xs)) == [sig6(x) for x in xs] == want

        check()

    def test_cells_format_without_sig6(self, monkeypatch):
        xs, want = _mixed_set()
        monkeypatch.setattr(reports, "sig6", _refuse)
        assert _sig6_cells(tuple(xs)) == want
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^cannot format non-finite "
                               f"value {x!r}$"):
                _sig6_cells((1.0, x))

    def test_sig6_formats_without_cells(self, monkeypatch):
        xs, want = _mixed_set()
        monkeypatch.setattr(reports, "_sig6_cells", _refuse)
        assert [sig6(x) for x in xs] == want

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_non_finite_is_named(self, x):
        with pytest.raises(ValueError) as info:
            _sig6_cells((1.0, 0.0, x, 2.5))
        assert str(info.value) == f"cannot format non-finite value {x!r}"

    def test_first_non_finite_is_named(self):
        with pytest.raises(ValueError) as info:
            _sig6_cells((1.0, -math.inf, math.nan, math.inf))
        assert str(info.value) == "cannot format non-finite value -inf"


def _reference_plot_rows(analysis, band_level):
    """The plot's rows a row at a time, one sig6 call per value cell, the
    negated columns flipped from their cells."""
    s_model = analysis.surplus_model
    d_model = analysis.deficit_model
    rows = []
    for k in range(501):
        t = k / 20
        surplus = s_model.alpha * math.exp(s_model.beta * t)
        deficit = d_model.alpha * math.exp(d_model.beta * t)
        s_lo, s_hi = eb.band_envelope(s_model, t, band_level)
        d_lo, d_hi = eb.band_envelope(d_model, t, band_level)
        s, d = sig6(surplus), sig6(deficit)
        rows.append((sig6(t), s, _flipped(s), d, _flipped(d),
                     sig6(surplus + deficit),
                     sig6(s_lo), sig6(s_hi), sig6(-d_hi), sig6(-d_lo)))
    return tuple(rows)


def _outcome(func, *args):
    try:
        func(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _plot_model(alpha, beta, mse=1.0, cov=((0.0, 0.0), (0.0, 0.0))):
    anova = AnovaTable(ss_model=1.0, ss_error=mse * 15,
                       ss_uncorrected_total=1.0 + mse * 15,
                       ss_corrected_total=1.0, df_model=2, df_error=15,
                       df_uncorrected=17, df_corrected=16)
    return ExpFitModel(alpha=alpha, beta=beta, cov=cov, n=17, dof=15,
                       mse=mse, anova=anova)


# Surplus 1e308 e^t is inf from row 12 and deficit -1e308 e^{2t} -inf
# from row 6; a band of variance 1e308 e^{0.2t} is -inf below from row 0;
# a deficit cov of diag(1, -k) makes its variance negative once k t^2 > 1
# (sqrt's ValueError from row 21 for k = 1, row 6 for k = 16), and
# e^{60t} overflows from row 237.
_PLOT_FAULTS = {
    "surplus-inf": ((1e308, 1.0), (-1.0, 0.2),
                    "cannot format non-finite value inf"),
    "deficit-row-first": ((1e308, 1.0), (-1e308, 2.0),
                          "cannot format non-finite value -inf"),
    "band-inf": ((1.0, 0.1, 1.0, ((1e308, 0.0), (0.0, 1e308))), (-1.0, 0.2),
                 "cannot format non-finite value -inf"),
    "sqrt-after-inf": ((1e308, 1.0),
                       (-1.0, 0.2, 0.0, ((1.0, 0.0), (0.0, -1.0))),
                       "cannot format non-finite value inf"),
    "sqrt-before-inf": ((1e308, 1.0),
                        (-1.0, 0.2, 0.0, ((1.0, 0.0), (0.0, -16.0))),
                        "math domain error"),
    "exp-after-inf": ((1e308, 1.0), (-1e-300, 60.0),
                      "cannot format non-finite value inf"),
    "exp-only": ((1.0, 0.1), (-1e-300, 60.0), "math range error"),
}


class TestPlotColumns:
    @pytest.mark.parametrize("band_level", DIGEST_BAND_LEVELS)
    def test_bundled_plots_match_the_reference(self, analyses, band_level):
        for scope, analysis in analyses.items():
            plot = reports.plot_data_table(scope, analysis, band_level)
            assert plot.rows == _reference_plot_rows(analysis, band_level)

    def test_generated_plots_match_the_reference(self, generated):
        dataset, regions = generated
        for scope, keys in reports.STABILITY_SCOPES.items():
            analysis = eb.GapAnalysis(*(
                eb.fit_exponential(reports.fit_series_points(
                    dataset, regions, key)) for key in keys))
            for band_level in DIGEST_BAND_LEVELS:
                plot = reports.plot_data_table(scope, analysis, band_level)
                assert plot.rows == _reference_plot_rows(analysis, band_level)

    @pytest.mark.parametrize("surplus, deficit, message",
                             _PLOT_FAULTS.values(), ids=_PLOT_FAULTS)
    def test_first_fault_in_row_order_is_raised(self, surplus, deficit,
                                                message):
        analysis = eb.GapAnalysis(_plot_model(*surplus),
                                  _plot_model(*deficit))
        want = _outcome(_reference_plot_rows, analysis, 0.99)
        assert want[1] == message
        assert _outcome(reports.plot_data_table, "x", analysis, 0.99) == want


def _reference_year_rows(dataset, regions, table_id):
    """A year table's rows from one region_series call per subject and
    kind, and each share cell summed from the GDP column itself, over the
    members and the countries that report that year."""
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
                members = reports._region(regions, subject).members
                gdp = [dataset.gdp.get((c, year)) for c in dataset.countries]
                value = (math.fsum(g for c, g in zip(dataset.countries, gdp)
                                   if g is not None and c in members)
                         / math.fsum(g for g in gdp if g is not None))
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


def _reference_totals_rows(dataset, regions, table_id):
    """A totals table's rows from one region_total call per CAB and GGB
    cell, and each PSB cell the row's CAB total less its GGB total,
    rounded once."""
    _, names = reports._TOTALS_TABLES[table_id]
    rows = []
    for name in names:
        region = reports._region(regions, name)
        cab, ggb = (accounting.region_total(dataset, region, kind)
                    for kind in ("CAB", "GGB"))
        rows.append((name, sig6(cab), sig6(ggb),
                     sig6(math.fsum((cab, -ggb)))))
    return tuple(rows)


def _bundled_regions_with(**changed):
    regions = {name: sorted(region.members) for name, region
               in accounting.bundled_regions().items()}
    return {**regions, **changed}


def _data_with(tmp_path, edits):
    """A copy of the bundled data, each {file name: edit} applied to the
    lines of its file."""
    data = tmp_path / "data"
    shutil.copytree(Path(eb.__file__).parent / "data", data)
    for name, edit in edits.items():
        lines = (data / name).read_text(encoding="utf-8").split("\n")
        (data / name).write_text("\n".join(edit(lines)), encoding="utf-8")
    return data


def _german_1995_and_1996(value_1995, value_1996):
    """An edit setting Germany's 1995 and 1996 values; None keeps one."""
    values = {key: value for key, value in (("DE,1995,", value_1995),
                                            ("DE,1996,", value_1996))
              if value is not None}

    def edit(lines):
        return [f"{line.rsplit(',', 1)[0]},{values[line[:8]]}"
                if line[:8] in values else line for line in lines]
    return edit


# Germany's 1995 government balance removed: its 1995 CAB enters the CAB
# total, and so the PSB total, but no GGB and no per-year PSB are there.
_WITHOUT_DE_1995_GGB = {"ggb.csv": lambda lines: [
    line for line in lines if not line.startswith("DE,1995,")]}


class TestTotalsTables:
    @pytest.mark.parametrize("table_id", (2, 3, 4))
    @pytest.mark.parametrize("source", ("bundled", "generated"))
    def test_cells_match_region_total(self, request, source, table_id):
        dataset, regions = (
            (request.getfixturevalue("dataset"),
             request.getfixturevalue("regions")) if source == "bundled"
            else request.getfixturevalue("generated"))
        table = reports.build_table(dataset, regions, table_id)
        assert table.rows == _reference_totals_rows(dataset, regions,
                                                    table_id)

    @pytest.mark.parametrize("table_id", (2, 3, 4))
    def test_each_kind_is_walked_once(self, dataset, regions, monkeypatch,
                                      table_id):
        walks = []
        real = accounting._values_by_year

        def spy(dataset, kind, subjects):
            walks.append((kind, len(subjects)))
            return real(dataset, kind, subjects)

        monkeypatch.setattr(accounting, "_values_by_year", spy)
        reports.build_table(dataset, regions, table_id)
        names = reports._TOTALS_TABLES[table_id][1]
        assert walks == [(kind, len(names)) for kind in ("CAB", "GGB")]

    @pytest.mark.parametrize("table_id", (1, 2, 3, 4))
    def test_every_printed_total_comes_from_total(self, dataset, regions,
                                                  monkeypatch, table_id):
        formed = {}
        real = accounting._total

        def spy(kind, subject, values):
            formed[subject, kind] = got = real(kind, subject, values)
            return got

        monkeypatch.setattr(accounting, "_total", spy)
        table = reports.build_table(dataset, regions, table_id)
        # table 1 forms its totals by country code and prints them by name
        names = {**reports.COUNTRY_NAMES, "all countries": "EU27"}
        formed = {(names.get(s, s), k): v for (s, k), v in formed.items()}
        assert len(formed) == 3 * len(table.rows)
        for row in table.rows:
            for kind in ("CAB", "GGB", "PSB"):
                cell = row[table.header.index(f"{kind.lower()}_total")]
                assert cell == sig6(formed[row[0], kind]), (row[0], kind)

    def test_germany_prints_one_psb_total(self, tmp_path, regions):
        data = _data_with(tmp_path, _WITHOUT_DE_1995_GGB)
        dataset = eb.load_files(*(data / name for name in INPUT_FILES))
        for table_id in (1, 4):
            table = reports.build_table(dataset, regions, table_id)
            psb = table.header.index("psb_total")
            assert [row[psb] for row in table.rows
                    if row[0] == "Germany"] == ["2024.5"]

    def test_psb_total_is_cab_less_ggb(self, tmp_path, regions):
        # each row's totals as its table sums them, the EU27 row of table
        # 1 from the country rows
        data = _data_with(tmp_path, _WITHOUT_DE_1995_GGB)
        dataset = eb.load_files(*(data / name for name in INPUT_FILES))
        countries = {reports.COUNTRY_NAMES[r.subject]: (r.cab_total,
                                                        r.ggb_total)
                     for r in accounting.totals_table(dataset)}
        countries["EU27"] = tuple(map(math.fsum, zip(*countries.values())))
        for table_id in (1, 2, 3, 4):
            table = reports.build_table(dataset, regions, table_id)
            psb = table.header.index("psb_total")
            for row in table.rows:
                if table_id == 1:
                    cab, ggb = countries[row[0]]
                else:
                    region = reports._region(regions, row[0])
                    cab, ggb = (accounting.region_total(dataset, region, k)
                                for k in ("CAB", "GGB"))
                assert row[psb] == sig6(cab - ggb), (table_id, row[0])

    def test_region_total_psb_is_the_printed_total(self, tmp_path,
                                                   regions):
        # Germany's 1995 CAB has no GGB beside it: the library and the
        # tables take the same CAB less GGB over the members that report
        data = _data_with(tmp_path, _WITHOUT_DE_1995_GGB)
        dataset = eb.load_files(*(data / name for name in INPUT_FILES))
        cells = 0
        for table_id in (2, 3, 4):
            table = reports.build_table(dataset, regions, table_id)
            psb = table.header.index("psb_total")
            for row in table.rows:
                region = reports._region(regions, row[0])
                cells += 1
                assert sig6(accounting.region_total(dataset, region, "PSB")
                            ) == row[psb], (table_id, row[0])
        assert cells == 17

    # Table 2's rows are Eurozone, EU10, EU9+, EU18-, Germany, EU26, EU27;
    # within a row CAB is summed before GGB, and both before PSB.
    @pytest.mark.parametrize("regions, edits, message", (
        ({"EU10": ["ZZ"]}, {}, "region 'Eurozone' is not defined"),
        (_bundled_regions_with(EU10=["ZZ"]), {},
         "no CAB data for region 'EU10'"),
        # Luxembourg's government balances removed: CAB data but no GGB
        (_bundled_regions_with(EU10=["LU"]),
         {"ggb.csv": lambda lines: [line for line in lines
                                    if not line.startswith("LU,")]},
         "no GGB data for region 'EU10'"),
        # a German current account of 1e308 in 1995 and again in 1996:
        # each year's sum fits a float, the total does not
        (None, {"gdp.csv": _german_1995_and_1996("1e308", "1e308"),
                "cab_pct.csv": _german_1995_and_1996("1", "1")},
         "CAB total for Eurozone overflows"),
        # a German CAB of 1e308 in 1995 and a GGB of -1e308 in 1996: both
        # totals fit a float, CAB less GGB does not
        (None, {"gdp.csv": _german_1995_and_1996("1e308", None),
                "cab_pct.csv": _german_1995_and_1996("1", "0"),
                "ggb.csv": _german_1995_and_1996("0", "-1e308")},
         "PSB total for Eurozone overflows"),
    ), ids=("undefined-first", "no-data-later", "cab-without-ggb",
            "cumulative-overflow", "psb-overflow"))
    def test_first_fault_in_row_order_is_raised(self, tmp_path, capsys,
                                                regions, edits, message):
        argv = ["--out", str(tmp_path / "out"),
                "--data-dir", str(_data_with(tmp_path, edits))]
        if regions is not None:
            path = tmp_path / "regions.json"
            path.write_text(json.dumps(regions), encoding="utf-8")
            argv += ["--regions", str(path)]
        rc = cli.main([*argv, "report", "--table", "2"])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"
