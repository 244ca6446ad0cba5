"""Report tables, fit summaries, stability summaries, and plot data.

Every number is printed with six significant digits (half-up rounding away
from zero, trailing zeros stripped, scientific notation outside the
1e-4..1e6 magnitude window). Builders return (header, rows) tables of
strings; rendering to comma-separated or aligned text is separate so the
two emitted forms of a report always agree cell for cell.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

from . import accounting, expfit, stability
from .accounting import RegionDefinition
from .dataset import BASE_YEAR, Dataset, _Frozen

COUNTRY_NAMES = {
    "AT": "Austria", "BE": "Belgium", "BG": "Bulgaria", "CY": "Cyprus",
    "CZ": "Czech Republic", "DK": "Denmark", "EE": "Estonia",
    "FI": "Finland", "FR": "France", "DE": "Germany", "EL": "Greece",
    "HU": "Hungary", "IE": "Ireland", "IT": "Italy", "LV": "Latvia",
    "LT": "Lithuania", "LU": "Luxembourg", "MT": "Malta",
    "NL": "Netherlands", "PL": "Poland", "PT": "Portugal", "RO": "Romania",
    "SK": "Slovakia", "SI": "Slovenia", "ES": "Spain", "SE": "Sweden",
    "UK": "United Kingdom",
}

FIT_SERIES = {
    "eu9plus": "EU9+",
    "eu18minus": "EU18-",
    "euro7plus": "Eurozone7+",
    "euro10minus": "Eurozone10-",
}

STABILITY_SCOPES = {
    "eu": ("eu9plus", "eu18minus"),
    "eurozone": ("euro7plus", "euro10minus"),
}

PREDICT_THROUGH_T = 20
PLOT_T_MAX = 25.0
PLOT_STEPS_PER_YEAR = 20  # grid step 0.05


def sig6(x: float) -> str:
    """Render x with 6 significant digits, half rounded away from zero.

    The digits are those of repr(x) rounded half-up. For a normal double
    whose 7th significant digit is not 5, repr(x) and the exact binary
    value lie on the same side of every 6-digit rounding boundary, so
    printf-style rounding of the binary value gives the same digits.
    """
    if 1e-99 <= abs(x) < 1e99:
        seven = "%.6e" % x  # two exponent digits, so [-5] is the 7th digit
        if seven[-5] != "5":
            e = int(seven[-3:])
            if not -5 < e < 5:  # rounding to 6 digits may raise e by one
                mantissa, exp = ("%.5e" % x).split("e")
                e = int(exp)
                if e >= 6 or e <= -5:
                    return f"{mantissa.rstrip('0').rstrip('.')}e{e}"
            s = "%.*f" % (5 - e, x)
            return s.rstrip("0") if "." in s else s + "."
    return _sig6_exact(x)


def _sig6_exact(x: float) -> str:
    """sig6 by half-up rounding of repr(x)'s digits; exact for every float."""
    if x == 0:
        return "0."
    mantissa, _, exp = repr(abs(float(x))).partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    e = int(exp or 0) + len(digits) - len(frac) - 1  # exponent of digits[0]
    n = (int((digits + "000000")[:7]) + 5) // 10
    if n == 1000000:  # the carry adds a digit, e.g. 9.999995 -> 10.0000
        n, e = 100000, e + 1
    d = str(n).rstrip("0")
    sign = "-" if x < 0 else ""
    if e >= 6 or e <= -5:
        return f"{sign}{d[0]}{'.' if d[1:] else ''}{d[1:]}e{e}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{d}"
    return f"{sign}{d[:e + 1].ljust(e + 1, '0')}.{d[e + 1:]}"


class Table(_Frozen):
    __slots__ = ("title", "header", "rows")


def to_csv(table: Table) -> str:
    lines = [",".join(table.header)]
    lines.extend(",".join(row) for row in table.rows)
    return "\n".join(lines) + "\n"


def to_text(table: Table) -> str:
    widths = [len(h) for h in table.header]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join(parts).rstrip()

    out = [table.title, line(table.header),
           "  ".join("-" * w for w in widths)]
    out.extend(line(row) for row in table.rows)
    return "\n".join(out) + "\n"


def _region(regions: dict[str, RegionDefinition], name: str) -> RegionDefinition:
    if name == "Germany":
        return RegionDefinition("Germany", frozenset({"DE"}))
    try:
        return regions[name]
    except KeyError:
        raise ValueError(f"region {name!r} is not defined") from None


# ---------------------------------------------------------------------------
# Tables 1-12.

def country_totals_table(dataset: Dataset) -> Table:
    totals = sorted(accounting.totals_table(dataset, dataset.countries),
                    key=lambda r: COUNTRY_NAMES.get(r.subject, r.subject))
    rows = [(COUNTRY_NAMES.get(r.subject, r.subject),
             sig6(r.cab_total), str(r.rank_cab),
             sig6(r.ggb_total), str(r.rank_ggb),
             sig6(r.psb_total), str(r.rank_psb)) for r in totals]
    cab = math.fsum(r.cab_total for r in totals)
    ggb = math.fsum(r.ggb_total for r in totals)
    psb = math.fsum(r.psb_total for r in totals)
    rows.append(("EU27", sig6(cab), "", sig6(ggb), "", sig6(psb), ""))
    return Table("Country balance totals with ranks",
                 ("country", "cab_total", "rank", "ggb_total", "rank",
                  "psb_total", "rank"),
                 tuple(rows))


# Tables 2-4: a title and the regions listed, one row of totals each.
_TOTALS_TABLES = {
    2: ("EU totals in complementary pairs",
        ("Eurozone", "EU10", "EU9+", "EU18-", "Germany", "EU26", "EU27")),
    3: ("Eurozone totals in complementary pairs",
        ("Eurozone7+", "Eurozone10-", "Germany", "Eurozone16", "Eurozone")),
    4: ("Block totals assembling EU27",
        ("Germany", "Eurozone6+", "Eurozone10-", "EU10", "EU27")),
}


def _totals_table(dataset: Dataset, regions: dict[str, RegionDefinition],
                  title: str, names: Sequence[str]) -> Table:
    rows = []
    for name in names:
        region = _region(regions, name)
        totals = [accounting.region_total(dataset, region, kind)
                  for kind in ("CAB", "GGB", "PSB")]
        rows.append((name, *(sig6(v) for v in totals)))
    return Table(title, ("region", "cab_total", "ggb_total", "psb_total"),
                 tuple(rows))


# Tables 5-12: a title and (header, measure, subject) columns, one row per
# year. Measures: "GDP" and "CAB" (annual region sums), "CAB/GDP", the
# "region share" and "country share" of total GDP, and "sum" (of the row's
# cells before it).
def _columns(measure: str,
             names: Sequence[str]) -> tuple[tuple[str, str, str], ...]:
    return tuple((name, measure, name) for name in names)


def _pair_columns(names: Sequence[str]) -> tuple[tuple[str, str, str], ...]:
    return tuple(column for name in names
                 for column in ((f"{name} CAB", "CAB", name),
                                (f"{name} CAB/GDP", "CAB/GDP", name)))


_TABLE5_CODES = ("DE", "FR", "UK", "IT", "ES", "NL")
_GDP_REGIONS = ("EU9+", "EU18-", "Germany", "EU26", "Eurozone6+",
                "Eurozone10-", "Eurozone", "EU10", "EU27")
_BLOCKS = ("Germany", "Eurozone6+", "Eurozone10-", "EU10", "EU27")

_YEAR_TABLES = {
    5: ("GDP shares of the six largest economies",
        (*((COUNTRY_NAMES[c], "country share", c) for c in _TABLE5_CODES),
         ("Total", "sum", ""))),
    6: ("Region GDP by year", _columns("GDP", _GDP_REGIONS)),
    7: ("Region shares of total GDP",
        _columns("region share", _GDP_REGIONS[:-1])),
    8: ("Annual current-account balances by block",
        _columns("CAB", _BLOCKS)),
    9: ("Annual current-account balances as GDP fractions",
        _columns("CAB/GDP", _BLOCKS)),
    10: ("EU surplus and deficit groups, balances and GDP fractions",
         _pair_columns(("EU9+", "EU18-", "EU27"))),
    11: ("Germany and the rest of the EU, balances and GDP fractions",
         _pair_columns(("Germany", "EU26", "EU27"))),
    12: ("Eurozone surplus and deficit groups, balances and GDP fractions",
         _pair_columns(("Eurozone7+", "Eurozone10-", "Eurozone"))),
}


def _year_table(dataset: Dataset, regions: dict[str, RegionDefinition],
                title: str, columns: Sequence[tuple[str, str, str]]) -> Table:
    annual: dict[tuple[str, str], dict[int, float]] = {}

    def series_at(name: str, kind: str, year: int) -> float:
        if (name, kind) not in annual:
            points = accounting.region_series(
                dataset, _region(regions, name), kind, "annual").points
            annual[name, kind] = {BASE_YEAR + t: v for t, v in points}
        try:
            return annual[name, kind][year]
        except KeyError:
            raise accounting.EmptyIntersection(
                f"no {kind} data for region {name!r} in {year}") from None

    rows = []
    for year in dataset.years:
        values: list[float] = []
        for _, measure, subject in columns:
            if measure in ("GDP", "CAB"):
                value = series_at(subject, measure, year)
            elif measure == "CAB/GDP":
                value = (series_at(subject, "CAB", year)
                         / series_at(subject, "GDP", year))
            elif measure == "region share":
                value = accounting.gdp_share(
                    dataset, _region(regions, subject), year)
            elif measure == "country share":
                value = accounting.gdp_share(dataset, subject, year)
            else:  # "sum"
                value = math.fsum(values)
            values.append(value)
        rows.append((str(year), *(sig6(v) for v in values)))
    return Table(title, ("year", *(header for header, _, _ in columns)),
                 tuple(rows))


def build_table(dataset: Dataset, regions: dict[str, RegionDefinition],
                table_id: int) -> Table:
    if table_id == 1:
        return country_totals_table(dataset)
    if table_id in _TOTALS_TABLES:
        return _totals_table(dataset, regions, *_TOTALS_TABLES[table_id])
    if table_id in _YEAR_TABLES:
        return _year_table(dataset, regions, *_YEAR_TABLES[table_id])
    raise ValueError(f"no table {table_id}; choose 1-12")


# ---------------------------------------------------------------------------
# Fits.

def fit_series_points(dataset: Dataset, regions: dict[str, RegionDefinition],
                      series_key: str) -> list[tuple[int, float]]:
    """Cumulative current-account points (t, value) for one fitted series."""
    try:
        region_name = FIT_SERIES[series_key]
    except KeyError:
        raise ValueError(f"unknown series {series_key!r}") from None
    region = _region(regions, region_name)
    series = accounting.region_series(dataset, region, "CAB", "cumulative")
    return list(series.points)


def fit_summary_table(series_key: str, model: expfit.ExpFitModel,
                      level: float = 0.95) -> Table:
    (alo, ahi), (blo, bhi) = expfit.param_confidence_interval(model, level)
    an = model.anova
    rows = (
        ("series", FIT_SERIES.get(series_key, series_key)),
        ("model", "alpha*exp(beta*t)"),
        ("n", str(model.n)),
        ("alpha", sig6(model.alpha)),
        ("alpha_se", sig6(model.se_alpha)),
        ("alpha_ci_low", sig6(alo)),
        ("alpha_ci_high", sig6(ahi)),
        ("beta", sig6(model.beta)),
        ("beta_se", sig6(model.se_beta)),
        ("beta_ci_low", sig6(blo)),
        ("beta_ci_high", sig6(bhi)),
        ("ci_level", sig6(level)),
        ("ss_model", sig6(an.ss_model)),
        ("df_model", str(an.df_model)),
        ("ss_error", sig6(an.ss_error)),
        ("df_error", str(an.df_error)),
        ("ms_error", sig6(model.mse)),
        ("ss_uncorrected_total", sig6(an.ss_uncorrected_total)),
        ("df_uncorrected_total", str(an.df_uncorrected)),
        ("ss_corrected_total", sig6(an.ss_corrected_total)),
        ("df_corrected_total", str(an.df_corrected)),
        ("r_squared", sig6(expfit.r_squared(model))),
    )
    return Table(f"Exponential fit summary: {FIT_SERIES.get(series_key, series_key)}",
                 ("quantity", "value"), rows)


def prediction_table(series_key: str, model: expfit.ExpFitModel,
                     points: Sequence[tuple[int, float]],
                     level: float = 0.95) -> Table:
    observed = dict(points)
    rows = []
    for t in range(PREDICT_THROUGH_T + 1):
        row = expfit.predict(model, float(t), level=level,
                             observed=observed.get(t))
        rows.append((str(BASE_YEAR + t), str(t),
                     "-" if row.observed is None else sig6(row.observed),
                     sig6(row.predicted), sig6(row.se_single),
                     sig6(row.ci_low), sig6(row.ci_high)))
    return Table(f"Predictions: {FIT_SERIES.get(series_key, series_key)}",
                 ("year", "t", "observed", "predicted", "se", "ci_low",
                  "ci_high"),
                 tuple(rows))


# ---------------------------------------------------------------------------
# Stability.

def _year_of(t: float) -> int:
    return round(BASE_YEAR + t)


def stability_table(scope: str, analysis: stability.GapAnalysis,
                    interval: stability.UncertaintyInterval,
                    latest_t: int) -> Table:
    tp = stability.turning_points(analysis)
    rows = (
        ("scope", scope),
        ("surplus_coefficient_a", sig6(analysis.a)),
        ("surplus_rate_b", sig6(analysis.b)),
        ("deficit_coefficient_c", sig6(analysis.c)),
        ("deficit_rate_d", sig6(analysis.d)),
        ("t2_inflection", sig6(tp.t2)),
        ("t2_year", str(_year_of(tp.t2))),
        ("t1_maximum", sig6(tp.t1)),
        ("t1_year", str(_year_of(tp.t1))),
        ("t0_turning_point", sig6(tp.t0)),
        ("t0_year", str(_year_of(tp.t0))),
        ("level_at_t0", sig6(tp.level)),
        ("t_m", sig6(interval.t_m)),
        ("t_m_year", str(_year_of(interval.t_m))),
        ("t_M", sig6(interval.t_M)),
        ("t_M_year", str(_year_of(interval.t_M))),
        ("band_level", sig6(interval.band_level)),
        ("joint_level", sig6(interval.joint_level)),
        ("phase_at_latest_year",
         stability.phase_label(tp, float(latest_t))),
        ("latest_year", str(BASE_YEAR + latest_t)),
    )
    return Table(f"Gap stability analysis: {scope}", ("quantity", "value"),
                 rows)


def plot_data_table(scope: str, analysis: stability.GapAnalysis,
                    band_level: float) -> Table:
    s_model = analysis.surplus_model
    d_model = analysis.deficit_model
    rows = []
    steps = int(PLOT_T_MAX * PLOT_STEPS_PER_YEAR)
    for k in range(steps + 1):
        t = k / PLOT_STEPS_PER_YEAR
        surplus = s_model.alpha * math.exp(s_model.beta * t)
        deficit = d_model.alpha * math.exp(d_model.beta * t)
        gap = surplus + deficit  # deficit is negative
        s_lo, s_hi = stability.band_envelope(s_model, t, band_level)
        d_lo, d_hi = stability.band_envelope(d_model, t, band_level)
        rows.append((sig6(t), sig6(surplus), sig6(-surplus),
                     sig6(deficit), sig6(-deficit), sig6(gap),
                     sig6(s_lo), sig6(s_hi), sig6(-d_hi), sig6(-d_lo)))
    return Table(f"Plot data: {scope}",
                 ("t", "surplus", "surplus_neg", "deficit", "deficit_mag",
                  "gap", "surplus_band_low", "surplus_band_high",
                  "deficit_mag_band_low", "deficit_mag_band_high"),
                 tuple(rows))
