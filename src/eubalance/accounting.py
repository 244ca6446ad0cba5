"""Balance identity, region aggregation, ranked totals, shares, rates.

Regions are plain sets of country codes. All aggregation follows the
additive sum rule: a region's balance is the algebraic sum of its members'
balances, with absent member-years contributing nothing (Bulgaria before
1998 and Greece before 2000 in the bundled data).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .dataset import Dataset, MissingGdp

KINDS = ("CAB", "GGB", "PSB", "GDP")
MODES = ("annual", "cumulative")

_FIELD = {"CAB": "cab_eur", "GGB": "ggb_eur", "PSB": "psb_eur", "GDP": "gdp"}


class AccountingError(Exception):
    """Base class for aggregation failures."""


class EmptyIntersection(AccountingError):
    """No member of the region has any data of the requested kind."""


class NotSubset(AccountingError):
    """Complement requested against a universe that does not contain the region."""


class DegenerateSpan(AccountingError):
    """An average rate needs at least two distinct time points."""


@dataclass(frozen=True)
class RegionDefinition:
    name: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"region {self.name!r} has no members")
        object.__setattr__(self, "members", frozenset(self.members))


@dataclass(frozen=True)
class BalanceSeries:
    subject: str
    kind: str
    mode: str
    points: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class TotalsRow:
    subject: str
    cab_total: float
    ggb_total: float
    psb_total: float
    rank_cab: int
    rank_ggb: int
    rank_psb: int


def psb(cab: float, ggb: float) -> float:
    """Private sector balance from the account identity CAB = GGB + PSB."""
    return cab - ggb


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
    for year in sorted(by_year):
        annual = math.fsum(by_year[year])
        if mode == "annual":
            points.append((year - 1995, annual))
        else:
            running.append(annual)
            points.append((year - 1995, math.fsum(running)))
    return BalanceSeries(region.name, kind, mode, tuple(points))


def region_total(dataset: Dataset, region: RegionDefinition, kind: str) -> float:
    """Whole-period total of a balance kind over a region."""
    series = region_series(dataset, region, kind, "cumulative")
    return series.points[-1][1]


def totals_table(dataset: Dataset, countries: Sequence[str],
                 period: Optional[tuple[int, int]] = None) -> list[TotalsRow]:
    """Per-country whole-period totals with descending signed-value ranks.

    Rank ties are broken by country code so re-ranking is reproducible.
    """
    first, last = period if period else (min(dataset.years), max(dataset.years))
    totals: dict[str, tuple[float, float, float]] = {}
    for country in countries:
        cab, ggb = [], []
        for year in range(first, last + 1):
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


def gdp_share(dataset: Dataset, subject, year: int,
              universe: Optional[RegionDefinition] = None) -> float:
    """Share of the universe's GDP (default: all countries in the dataset)."""
    if universe is None:
        universe = RegionDefinition("ALL", frozenset(dataset.countries))
    denom = _gdp_sum(dataset, universe.members, year)
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
        if rec is None:
            raise MissingGdp(f"no GDP for {country} {year}")
        values.append(rec.gdp)
    return math.fsum(values)


def average_rate(series: Sequence[tuple[float, float]]) -> float:
    """Endpoint average rate of change: (last - first) / (t_last - t_first)."""
    if len(series) < 2:
        raise DegenerateSpan("need at least two points")
    (t0, v0), (t1, v1) = series[0], series[-1]
    if t1 == t0:
        raise DegenerateSpan("zero time span")
    return (v1 - v0) / (t1 - t0)


def complement(region: RegionDefinition,
               universe: RegionDefinition) -> RegionDefinition:
    """Set difference universe minus region, as a new region."""
    if not region.members <= universe.members:
        raise NotSubset(f"{region.name!r} is not contained in {universe.name!r}")
    return RegionDefinition(f"{universe.name} minus {region.name}",
                            universe.members - region.members)


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
