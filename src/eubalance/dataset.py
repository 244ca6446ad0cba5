"""Ingestion of country-year balance tables.

Each input table is a plain CSV with header ``country,year,value``; parsed
triples are combined into an immutable :class:`Dataset` of
:class:`CountryYearRecord`.

Current-account values arrive as fractions of GDP and are converted to
billion EUR on assembly; the private-sector balance is derived as the
difference between the current-account and government balances.
"""
from __future__ import annotations

import gc
import math
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType

BASE_YEAR = 1995

PLAIN_CSV_HEADER = ("country", "year", "value")

# The input file names, in the argument order of load_files.
INPUT_FILES = ("gdp.csv", "cab_pct.csv", "ggb.csv")


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


class _Frozen:
    """An immutable record with the fields named in the subclass's
    __slots__, built, compared, hashed and shown as a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self.__slots__, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword "
                                f"argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for "
                                f"argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() missing required argument {key!r}")
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}"
                           for key in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class CountryYearRecord(_Frozen):
    """One country-year observation; missing fields are None, never zero."""

    __slots__ = ("country", "year", "t", "gdp", "cab_pct", "cab_eur",
                 "ggb_eur", "psb_eur")

    def __init__(self, country: str, year: int, t: int, gdp: float,
                 cab_pct: float | None = None, cab_eur: float | None = None,
                 ggb_eur: float | None = None,
                 psb_eur: float | None = None) -> None:
        if t != year - BASE_YEAR:
            raise ValueError(f"t={t} inconsistent with year={year}")
        if not gdp > 0:
            raise ValueError(f"GDP for {country} {year} is not positive: "
                             f"{gdp!r}")
        _set_country(self, country)
        _set_year(self, year)
        _set_t(self, t)
        _set_gdp(self, gdp)
        _set_cab_pct(self, cab_pct)
        _set_cab_eur(self, cab_eur)
        _set_ggb_eur(self, ggb_eur)
        _set_psb_eur(self, psb_eur)


# The slot descriptors' setters, bound once: a record fills its slots
# without looking each one up by name or passing the frozen __setattr__.
(_set_country, _set_year, _set_t, _set_gdp, _set_cab_pct, _set_cab_eur,
 _set_ggb_eur, _set_psb_eur) = (vars(CountryYearRecord)[name].__set__
                                for name in CountryYearRecord.__slots__)


class Dataset:
    """Immutable mapping of (country, year) to CountryYearRecord."""

    def __init__(self, records: Iterable[CountryYearRecord]) -> None:
        records = list(records)
        store = {(rec.country, rec.year): rec for rec in records}
        if len(store) != len(records):
            seen: set[tuple[str, int]] = set()
            for rec in records:
                key = (rec.country, rec.year)
                if key in seen:
                    raise DuplicateKey(f"record for {key} appears twice")
                seen.add(key)
        self._records: Mapping[tuple[str, int], CountryYearRecord] = \
            MappingProxyType(store)
        self._countries = tuple(sorted({c for c, _ in store}))
        self._years = tuple(sorted({y for _, y in store}))

    @property
    def records(self) -> Mapping[tuple[str, int], CountryYearRecord]:
        return self._records

    def get(self, country: str, year: int) -> CountryYearRecord | None:
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
    """Parse one plain-CSV table into (country, year, value) triples.

    The body is converted column by column; on any anomaly
    :func:`_raise_first_bad_line` raises the first bad line's error.
    """
    header, _, body = raw_text.partition("\n")
    header = header.strip()
    if tuple(h.strip() for h in header.split(",")) != PLAIN_CSV_HEADER:
        raise MalformedHeader(f"expected header 'country,year,value', got {header!r}")
    lines = list(filter(None, map(str.strip, body.split("\n"))))
    if not lines:
        return []
    # Joined with ",\n", a newline can only open a cell, so if the cells
    # at 3, 6, ... hold all n - 1 newlines, every line has three fields.
    cells = ",\n".join(lines).split(",")
    if (len(cells) == 3 * len(lines)
            and "".join(cells[3::3]).count("\n") == len(lines) - 1):
        countries = list(map(str.strip, cells[0::3]))
        try:
            years = list(map(int, cells[1::3]))
            values = list(map(float, cells[2::3]))
        except ValueError:
            pass
        else:
            if (all(map(math.isfinite, values))
                    and len(set(zip(countries, years))) == len(lines)):
                return list(zip(countries, years, values))
    _raise_first_bad_line(body)


def _raise_first_bad_line(body: str) -> None:
    """Raise the error of the first bad line of a body (line 2 onwards)
    that the column path rejected: one of these checks always fails."""
    seen: set[tuple[str, int]] = set()
    for lineno, ln in enumerate(body.split("\n"), start=2):
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


def assemble(gdp_triples: Iterable[tuple[str, int, float]],
             cab_pct_triples: Iterable[tuple[str, int, float]],
             ggb_triples: Iterable[tuple[str, int, float]]) -> Dataset:
    """Combine the three roles into records.

    cab_eur = cab_pct * gdp; psb_eur = cab_eur - ggb_eur where both exist.
    Every (country, year) carrying a balance must also carry GDP.
    """
    gdp = _unique(gdp_triples, "gdp")
    pct = _unique(cab_pct_triples, "cab_pct")
    ggb = _unique(ggb_triples, "ggb")
    missing = (pct.keys() | ggb.keys()) - gdp.keys()
    if missing:
        raise MissingGdp(f"balance present without GDP for {min(missing)}")
    records = []
    for key in sorted(gdp):
        country, year = key
        g = gdp[key]
        p = pct.get(key)
        b = ggb.get(key)
        cab = None if p is None else p * g
        psb = None if (cab is None or b is None) else cab - b
        records.append(CountryYearRecord(country, year, year - BASE_YEAR, g,
                                         p, cab, b, psb))
    return Dataset(records)


def _unique(triples: Iterable[tuple[str, int, float]],
            role: str) -> dict[tuple[str, int], float]:
    triples = list(triples)
    out = {(country, year): value for country, year, value in triples}
    if len(out) != len(triples):
        seen: set[tuple[str, int]] = set()
        for country, year, _ in triples:
            key = (country, year)
            if key in seen:
                raise DuplicateKey(f"duplicate {role} triple for {key}")
            seen.add(key)
    return out


def load_files(gdp_path, cab_pct_path, ggb_path) -> Dataset:
    """Assemble a dataset from three plain-csv files."""
    return _load(_read_file, (gdp_path, cab_pct_path, ggb_path))


def load_bundled() -> Dataset:
    """The packaged EU-27 1995-2011 reference dataset."""
    from importlib.resources import files

    data = files("eubalance").joinpath("data")
    return _load(lambda name: data.joinpath(name).read_text(encoding="utf-8"),
                 INPUT_FILES)


def _read_file(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _load(read, sources) -> Dataset:
    """Read and parse each source in turn, then assemble them, with the
    cyclic collector paused.

    A load builds only acyclic objects (tuples, dicts and records of
    atoms), which reference counting frees, so the collector could only
    traverse them. The caller's collector state is restored, enabled or
    disabled. One raw text is alive at a time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        parts = [parse_table(read(source)) for source in sources]
        return assemble(*parts)
    finally:
        if enabled:
            gc.enable()
