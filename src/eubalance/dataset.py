"""Ingestion of country-year balance tables.

Each input table is a plain CSV with header ``country,year,value``; parsed
triples are combined into an immutable :class:`Dataset` of
:class:`CountryYearRecord`.

Current-account values arrive as fractions of GDP and are converted to
billion EUR on assembly; the private-sector balance is derived as the
difference between the current-account and government balances.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

BASE_YEAR = 1995

PLAIN_CSV_HEADER = ("country", "year", "value")


class DatasetError(Exception):
    """Base class for ingestion and assembly failures."""


class MalformedHeader(DatasetError):
    """Header row is not ``country,year,value``."""


class BadNumeric(DatasetError):
    """A row lacks three fields, or its year or value is not a finite number."""


class DuplicateKey(DatasetError):
    """The same (country, year) appears more than once."""


class MissingGdp(DatasetError):
    """A balance value exists for a (country, year) with no GDP."""


@dataclass(frozen=True)
class CountryYearRecord:
    """One country-year observation; missing fields are None, never zero."""

    country: str
    year: int
    t: int
    gdp: float
    cab_pct: Optional[float] = None
    cab_eur: Optional[float] = None
    ggb_eur: Optional[float] = None
    psb_eur: Optional[float] = None

    def __post_init__(self) -> None:
        if self.t != self.year - BASE_YEAR:
            raise ValueError(f"t={self.t} inconsistent with year={self.year}")
        if self.gdp < 0:
            raise ValueError(f"negative GDP for {self.country} {self.year}")


class Dataset:
    """Immutable mapping of (country, year) to CountryYearRecord."""

    def __init__(self, records: Iterable[CountryYearRecord],
                 provenance: Iterable[str] = ()) -> None:
        store: dict[tuple[str, int], CountryYearRecord] = {}
        for rec in records:
            key = (rec.country, rec.year)
            if key in store:
                raise DuplicateKey(f"record for {key} appears twice")
            store[key] = rec
        self._records: Mapping[tuple[str, int], CountryYearRecord] = \
            MappingProxyType(store)
        self._countries = tuple(sorted({c for c, _ in store}))
        self._years = tuple(sorted({y for _, y in store}))
        self.provenance = tuple(provenance)

    @property
    def records(self) -> Mapping[tuple[str, int], CountryYearRecord]:
        return self._records

    def get(self, country: str, year: int) -> Optional[CountryYearRecord]:
        return self._records.get((country, year))

    @property
    def countries(self) -> tuple[str, ...]:
        return self._countries

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    def __iter__(self) -> Iterator[CountryYearRecord]:
        return iter(sorted(self._records.values(),
                           key=lambda r: (r.country, r.year)))

    def __len__(self) -> int:
        return len(self._records)


def parse_table(raw_text: str) -> list[tuple[str, int, float]]:
    """Parse one plain-CSV table into (country, year, value) triples."""
    reader = io.StringIO(raw_text)
    header = reader.readline().strip()
    if tuple(h.strip() for h in header.split(",")) != PLAIN_CSV_HEADER:
        raise MalformedHeader(f"expected header 'country,year,value', got {header!r}")
    triples: list[tuple[str, int, float]] = []
    seen: set[tuple[str, int]] = set()
    for lineno, ln in enumerate(reader, start=2):
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise BadNumeric(f"line {lineno}: expected 3 fields, got {len(parts)}")
        country = parts[0].strip()
        try:
            year = int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise BadNumeric(f"line {lineno}: {ln!r}") from None
        if not math.isfinite(value):
            raise BadNumeric(f"line {lineno}: value is not finite: {ln!r}")
        if (country, year) in seen:
            raise DuplicateKey(f"duplicate row for {country} {year}")
        seen.add((country, year))
        triples.append((country, year, value))
    return triples


def assemble(gdp_triples: Iterable[tuple[str, int, float]],
             cab_pct_triples: Iterable[tuple[str, int, float]],
             ggb_triples: Iterable[tuple[str, int, float]],
             provenance: Iterable[str] = ()) -> Dataset:
    """Combine the three roles into records.

    cab_eur = cab_pct * gdp; psb_eur = cab_eur - ggb_eur where both exist.
    Every (country, year) carrying a balance must also carry GDP.
    """
    gdp = _unique(gdp_triples, "gdp")
    pct = _unique(cab_pct_triples, "cab_pct")
    ggb = _unique(ggb_triples, "ggb")
    for key in pct.keys() | ggb.keys():
        if key not in gdp:
            raise MissingGdp(f"balance present without GDP for {key}")
    records = []
    for (country, year), g in sorted(gdp.items()):
        p = pct.get((country, year))
        b = ggb.get((country, year))
        cab = None if p is None else p * g
        psb = None if (cab is None or b is None) else cab - b
        records.append(CountryYearRecord(
            country=country, year=year, t=year - BASE_YEAR, gdp=g,
            cab_pct=p, cab_eur=cab, ggb_eur=b, psb_eur=psb))
    return Dataset(records, provenance)


def _unique(triples: Iterable[tuple[str, int, float]],
            role: str) -> dict[tuple[str, int], float]:
    out: dict[tuple[str, int], float] = {}
    for country, year, value in triples:
        key = (country, year)
        if key in out:
            raise DuplicateKey(f"duplicate {role} triple for {key}")
        out[key] = value
    return out


def to_plain_csv(dataset: Dataset, value_role: str) -> str:
    """Serialize one field of a dataset back to the plain-csv dialect.

    Values are rendered with repr (shortest float round-trip), so parsing
    the output reproduces the records bit for bit.
    """
    field = {"gdp": "gdp", "cab_pct": "cab_pct", "ggb": "ggb_eur"}[value_role]
    lines = ["country,year,value"]
    for rec in dataset:
        value = getattr(rec, field)
        if value is not None:
            lines.append(f"{rec.country},{rec.year},{value!r}")
    return "\n".join(lines) + "\n"


def load_files(gdp_path, cab_pct_path, ggb_path) -> Dataset:
    """Assemble a dataset from three plain-csv files."""
    parts = []
    for path in (gdp_path, cab_pct_path, ggb_path):
        with open(path, encoding="utf-8", newline="") as fh:
            parts.append(parse_table(fh.read()))
    return assemble(*parts, provenance=(str(gdp_path), str(cab_pct_path),
                                        str(ggb_path)))


def load_bundled() -> Dataset:
    """The packaged EU-27 1995-2011 reference dataset."""
    from importlib.resources import files

    data = files("eubalance").joinpath("data")
    parts = [parse_table(data.joinpath(name).read_text(encoding="utf-8"))
             for name in ("gdp.csv", "cab_pct.csv", "ggb.csv")]
    return assemble(*parts, provenance=("bundled:gdp.csv", "bundled:cab_pct.csv",
                                        "bundled:ggb.csv"))
