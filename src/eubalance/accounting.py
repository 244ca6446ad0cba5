"""Region aggregation, ranked totals, GDP shares, average rates.

Regions are plain sets of country codes; a country is a region of one.
Every sum follows two rules. A sum runs over the members that report:
absent member-years contribute nothing (Bulgaria before 1998 and Greece
before 2000 in the bundled data), and a GDP share divides the reporting
members' GDP by that of every country reporting that year. A subject
with no reporting member raises EmptyIntersection.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Collection, Sequence
from itertools import chain

from .dataset import _DATA, BASE_YEAR, Dataset, _Frozen

KINDS = ("CAB", "GGB", "PSB", "GDP")
MODES = ("annual", "cumulative")

_FIELD = {"CAB": "cab_eur", "GGB": "ggb_eur", "GDP": "gdp"}


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


class TotalsRow(_Frozen):
    __slots__ = ("subject", "cab_total", "ggb_total", "psb_total",
                 "rank_cab", "rank_ggb", "rank_psb")


def region_series(dataset: Dataset, region: RegionDefinition, kind: str,
                  mode: str = "annual") -> tuple[tuple[int, float], ...]:
    """(t, value) points of one balance kind summed over a region.

    A year appears in the series when at least one member reports; the sum
    runs over reporting members only. Sums use compensated summation. A
    year's PSB is the members' CAB sum less their GGB sum, rounded once.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _series(_values_by_year(dataset, kind, (region,))[0], region,
                   kind, mode)


def _values_by_year(dataset: Dataset, kind: str,
                    regions: Sequence[RegionDefinition]) -> list[dict]:
    """Per region, year -> its members' values of a kind in column order,
    from one walk of the column (PSB: of CAB, then of GGB negated)."""
    out = [{year: [] for year in dataset.years} for _ in regions]
    items = (chain(dataset.cab_eur.items(),
                   ((key, -value) for key, value in dataset.ggb_eur.items()))
             if kind == "PSB" else getattr(dataset, _FIELD[kind]).items())
    if len(regions) == 1:  # a walk with no fan-out takes half the time
        members, (by_year,) = regions[0].members, out
        for (country, year), value in items:
            if country in members:
                by_year[year].append(value)
    elif regions:
        holders: dict[str, list[dict]] = {}
        for by_year, region in zip(out, regions):
            for country in region.members:
                holders.setdefault(country, []).append(by_year)
        for (country, year), value in items:
            for by_year in holders.get(country, ()):
                by_year[year].append(value)
    return [{year: v for year, v in by_year.items() if v} for by_year in out]


def _series(by_year: dict[int, list[float]], region: RegionDefinition,
            kind: str, mode: str = "annual"
            ) -> tuple[tuple[int, float], ...]:
    """region_series from the values _values_by_year gives the region."""
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
    return tuple(points)


def region_total(dataset: Dataset, region: RegionDefinition, kind: str) -> float:
    """Whole-period total of a balance kind over a region."""
    return region_series(dataset, region, kind, "cumulative")[-1][1]


def totals_table(dataset: Dataset) -> list[TotalsRow]:
    """Per-country whole-period totals with descending signed-value ranks.

    Rank ties are broken by country code so re-ranking is reproducible.
    """
    countries = dataset.countries
    cab: dict[str, list[float]] = {c: [] for c in countries}
    ggb: dict[str, list[float]] = {c: [] for c in countries}
    for column, values in ((dataset.cab_eur, cab), (dataset.ggb_eur, ggb)):
        for (country, _), value in column.items():
            values[country].append(value)
    totals: dict[str, tuple[float, float, float]] = {}
    for country in countries:
        cab_t = _total("CAB", country, cab[country])
        ggb_t = _total("GGB", country, ggb[country])
        # cab_t - ggb_t, rounded once as the sum of cab_t and -ggb_t
        psb_t = _total("PSB", country, (cab_t, -ggb_t))
        totals[country] = (cab_t, ggb_t, psb_t)

    def ranks(index: int) -> dict[str, int]:
        order = sorted(totals, key=lambda c: (-totals[c][index], c))
        return {c: i + 1 for i, c in enumerate(order)}

    r_cab, r_ggb, r_psb = ranks(0), ranks(1), ranks(2)
    return [TotalsRow(c, *totals[c], r_cab[c], r_ggb[c], r_psb[c])
            for c in totals]


def _total(kind: str, subject: str, values: Collection[float]) -> float:
    """The compensated sum of finite values, naming kind and subject if
    there are none or the sum overflows the float range."""
    if not values:
        raise EmptyIntersection(f"no {kind} data for {subject}")
    try:
        return math.fsum(values)
    except OverflowError:
        raise SumOverflow(f"{kind} total for {subject} overflows") from None


def gdp_share(dataset: Dataset, region: RegionDefinition, year: int) -> float:
    """A region's share of the GDP of all countries that year.

    Both sums run over the countries that report a GDP that year. GDPs
    are positive and summed over all countries first, once per dataset
    and year, so only that sum can overflow."""
    rows = dataset._gdp_rows  # year -> country -> GDP, built on first use
    if rows is None:
        rows = dataset._gdp_rows = {y: {} for y in dataset.years}
        for (country, y), value in dataset.gdp.items():
            rows[y][country] = value
    row, totals = rows.get(year, {}), dataset._gdp_totals
    if year not in totals:  # a sum that raised is not kept
        try:
            totals[year] = math.fsum(row.values())
        except OverflowError:
            raise SumOverflow(f"GDP sum for all countries overflows "
                              f"in {year}") from None
    # GDPs are positive, so the filter drops only the members not there
    if not (values := [*filter(None, map(row.get, region.members))]):
        raise EmptyIntersection(f"no GDP data for region {region.name!r} "
                                f"in {year}")
    return math.fsum(values) / totals[year]


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
        text = fh.read()
    objects: list[list] = []  # each object's pairs, the outermost last
    try:
        raw = json.loads(text, object_pairs_hook=lambda pairs:
                         objects.append(pairs) or dict(pairs))
    except RecursionError:
        raise ValueError("regions file is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("regions file must be a JSON object")
    out = {}
    for name, codes in objects[-1]:
        if name in out:
            raise ValueError(f"region {name!r} is defined twice")
        if (not isinstance(codes, list)
                or not all(isinstance(c, str) for c in codes)):
            raise ValueError(f"region {name!r} must map to a list of codes")
        out[name] = RegionDefinition(name, frozenset(codes))
    return out


def bundled_regions() -> dict[str, RegionDefinition]:
    """The packaged region groupings."""
    return load_regions(os.path.join(_DATA, "regions.json"))
