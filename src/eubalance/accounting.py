"""Region aggregation, ranked totals, GDP shares, average rates.

Regions are plain sets of country codes. All aggregation follows the
additive sum rule: a region's balance is the algebraic sum of its members'
balances, with absent member-years contributing nothing (Bulgaria before
1998 and Greece before 2000 in the bundled data).
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence

from .dataset import BASE_YEAR, Dataset, MissingGdp, _Frozen

KINDS = ("CAB", "GGB", "PSB", "GDP")
MODES = ("annual", "cumulative")

_FIELD = {"CAB": "cab_eur", "GGB": "ggb_eur", "PSB": "psb_eur", "GDP": "gdp"}


class AccountingError(Exception):
    """Base class for aggregation failures."""


class EmptyIntersection(AccountingError):
    """No member of the region has any data of the requested kind."""


class DegenerateSpan(AccountingError):
    """An average rate needs at least two distinct time points."""


class SumOverflow(AccountingError):
    """A sum over a region's members overflows the float range."""


class RegionDefinition(_Frozen):
    __slots__ = ("name", "members")

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"region {self.name!r} has no members")
        object.__setattr__(self, "members", frozenset(self.members))


class BalanceSeries(_Frozen):
    __slots__ = ("subject", "kind", "mode", "points")


class TotalsRow(_Frozen):
    __slots__ = ("subject", "cab_total", "ggb_total", "psb_total",
                 "rank_cab", "rank_ggb", "rank_psb")


def region_series(dataset: Dataset, region: RegionDefinition, kind: str,
                  mode: str = "annual") -> BalanceSeries:
    """Aggregate one balance kind over a region, annually or cumulatively.

    A year appears in the series when at least one member reports; the sum
    runs over reporting members only. Sums use compensated summation.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    field = _FIELD[kind]
    by_year: dict[int, list[float]] = {}
    for (country, year), rec in dataset.records.items():
        if country not in region.members:
            continue
        value = getattr(rec, field)
        if value is not None:
            by_year.setdefault(year, []).append(value)
    if not by_year:
        raise EmptyIntersection(f"no {kind} data for region {region.name!r}")
    points = []
    running: list[float] = []
    try:
        for year in sorted(by_year):
            annual = math.fsum(by_year[year])
            if mode == "annual":
                points.append((year - BASE_YEAR, annual))
            else:
                running.append(annual)
                points.append((year - BASE_YEAR, math.fsum(running)))
    except OverflowError:
        raise SumOverflow(f"{mode} {kind} sum for region {region.name!r} "
                          f"overflows in {year}") from None
    return BalanceSeries(region.name, kind, mode, tuple(points))


def region_total(dataset: Dataset, region: RegionDefinition, kind: str) -> float:
    """Whole-period total of a balance kind over a region."""
    series = region_series(dataset, region, kind, "cumulative")
    return series.points[-1][1]


def totals_table(dataset: Dataset,
                 countries: Sequence[str]) -> list[TotalsRow]:
    """Per-country whole-period totals with descending signed-value ranks.

    Rank ties are broken by country code so re-ranking is reproducible.
    """
    totals: dict[str, tuple[float, float, float]] = {}
    for country in countries:
        cab, ggb = [], []
        for year in dataset.years:
            rec = dataset.get(country, year)
            if rec is None:
                continue
            if rec.cab_eur is not None:
                cab.append(rec.cab_eur)
            if rec.ggb_eur is not None:
                ggb.append(rec.ggb_eur)
        cab_t, ggb_t = math.fsum(cab), math.fsum(ggb)
        totals[country] = (cab_t, ggb_t, cab_t - ggb_t)

    def ranks(index: int) -> dict[str, int]:
        order = sorted(totals, key=lambda c: (-totals[c][index], c))
        return {c: i + 1 for i, c in enumerate(order)}

    r_cab, r_ggb, r_psb = ranks(0), ranks(1), ranks(2)
    return [TotalsRow(c, *totals[c], r_cab[c], r_ggb[c], r_psb[c])
            for c in countries]


def gdp_share(dataset: Dataset, subject, year: int) -> float:
    """A country's or region's share of the GDP of all countries.

    GDPs are positive and summed over all countries first, so only that
    sum can overflow: a region whose members are not all there raises
    MissingGdp."""
    denom = _gdp_sum(dataset, dataset.countries, year)
    if isinstance(subject, RegionDefinition):
        num = _gdp_sum(dataset, subject.members, year)
    else:
        rec = dataset.get(subject, year)
        if rec is None:
            raise MissingGdp(f"no GDP for {subject} {year}")
        num = rec.gdp
    return num / denom


def _gdp_sum(dataset: Dataset, members: Iterable[str], year: int) -> float:
    values = []
    for country in members:
        rec = dataset.get(country, year)
        if rec is None:  # name the same member whatever the set's order
            missing = min(c for c in members if dataset.get(c, year) is None)
            raise MissingGdp(f"no GDP for {missing} {year}")
        values.append(rec.gdp)
    try:
        return math.fsum(values)
    except OverflowError:
        raise SumOverflow(f"GDP sum for all countries overflows "
                          f"in {year}") from None


def average_rate(series: Sequence[tuple[float, float]]) -> float:
    """Endpoint average rate of change: (last - first) / (t_last - t_first)."""
    if len(series) < 2:
        raise DegenerateSpan("need at least two points")
    (t0, v0), (t1, v1) = series[0], series[-1]
    if t1 == t0:
        raise DegenerateSpan("zero time span")
    return (v1 - v0) / (t1 - t0)


def load_regions(path) -> dict[str, RegionDefinition]:
    """Region definitions from a JSON object mapping name to code list."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError("regions file is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("regions file must be a JSON object")
    out = {}
    for name, codes in raw.items():
        if (not isinstance(codes, list)
                or not all(isinstance(c, str) for c in codes)):
            raise ValueError(f"region {name!r} must map to a list of codes")
        out[name] = RegionDefinition(name, frozenset(codes))
    return out


def bundled_regions() -> dict[str, RegionDefinition]:
    """The packaged region groupings."""
    from importlib.resources import files

    raw = json.loads(files("eubalance").joinpath("data/regions.json")
                     .read_text(encoding="utf-8"))
    return {name: RegionDefinition(name, frozenset(codes))
            for name, codes in raw.items()}
