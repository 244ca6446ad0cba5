"""Ingestion of country-year balance tables.

Each input table is a plain CSV with header ``country,year,value``, parsed
into a {(country, year): value} mapping. A :class:`Dataset` holds one
read-only column of that shape per field, so a reader walks the one field
it needs.

Current-account values arrive as fractions of GDP and are converted to
billion EUR on assembly; the private-sector balance (CAB less GGB) is
never stored, but formed where it is summed (accounting.region_series).
"""
from __future__ import annotations

import math
import operator
import os
from collections.abc import Mapping
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType

BASE_YEAR = 1995

PLAIN_CSV_HEADER = ("country", "year", "value")

# The input file names, in the argument order of load_files.
INPUT_FILES = ("gdp.csv", "cab_pct.csv", "ggb.csv")

# The package's own data files, read as any user file is.
_DATA = os.path.join(os.path.dirname(__file__), "data")

_Column = Mapping[tuple[str, int], float]


class DatasetError(Exception):
    """Base class for ingestion and assembly failures."""


class MalformedHeader(DatasetError):
    """Header row is not ``country,year,value``."""


class BadNumeric(DatasetError):
    """A row lacks three fields, its year or value is not a finite number,
    or a value derived from it is not finite."""


class DuplicateKey(DatasetError):
    """The same (country, year) appears more than once."""


class MissingGdp(DatasetError):
    """A balance value exists for a (country, year) with no GDP."""


class _Frozen:
    """An immutable record with the fields named in the subclass's
    __slots__, built, compared, hashed and shown as a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        fields, given = self.__slots__, len(args)
        if (given + len(kwargs) != len(fields)
                or kwargs and kwargs.keys() != set(fields[given:])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(fields)}, each once")
        for key, value in zip(fields, args):
            object.__setattr__(self, key, value)
        for key in fields[given:]:
            object.__setattr__(self, key, kwargs[key])
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


class Dataset:
    """Read-only columns keyed by (country, year).

    ``gdp``, ``cab_pct`` and ``ggb_eur`` hold the values as read and
    ``cab_eur`` the derived one, as views of the mappings given
    (:func:`assemble` copies its inputs). A key absent from a column has
    no value there; every key of a column is a key of ``gdp``.
    """

    def __init__(self, gdp: _Column, cab_pct: _Column, ggb_eur: _Column,
                 cab_eur: _Column) -> None:
        self.gdp, self.cab_pct, self.ggb_eur, self.cab_eur = (
            map(MappingProxyType, (gdp, cab_pct, ggb_eur, cab_eur)))
        self._countries = tuple(sorted({c for c, _ in gdp}))
        self._years = tuple(sorted({y for _, y in gdp}))
        self._gdp_totals: dict[int, float] = {}  # for accounting.gdp_share
        self._gdp_rows: dict[int, dict[str, float]] | None = None  # likewise

    @property
    def countries(self) -> tuple[str, ...]:
        return self._countries

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    def __len__(self) -> int:
        return len(self.gdp)


def parse_table(raw_text: str) -> dict[tuple[str, int], float]:
    """Parse one plain-CSV table into a {(country, year): value} mapping.

    Lines are read in turn, and the first bad line raises its error.
    The tables of the last len(INPUT_FILES) texts parsed, one load's
    worth, are kept under the text itself, so a text with the same bytes
    as one of them is not parsed again. Each call returns a new dict,
    and a bad text raises its error on every call.
    """
    return dict(_parse(raw_text))


@lru_cache(maxsize=len(INPUT_FILES))
def _parse(raw_text: str) -> dict[tuple[str, int], float]:
    header, _, body = raw_text.partition("\n")
    header = header.strip()
    if tuple(h.strip() for h in header.split(",")) != PLAIN_CSV_HEADER:
        raise MalformedHeader(f"expected header 'country,year,value', got {header!r}")
    table: dict[tuple[str, int], float] = {}
    # one str per code and one int per year, shared by all the table's keys
    atoms: dict = {}
    for lineno, ln in enumerate(body.split("\n"), start=2):
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise BadNumeric(f"line {lineno}: expected 3 fields, got {len(parts)}")
        country = parts[0].strip()
        if not country:
            raise BadNumeric(f"line {lineno}: empty country code: {ln!r}")
        try:
            year = int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise BadNumeric(f"line {lineno}: {ln!r}") from None
        if not math.isfinite(value):
            raise BadNumeric(f"line {lineno}: value is not finite: {ln!r}")
        key = atoms.setdefault(country, country), atoms.setdefault(year, year)
        if key in table:
            raise DuplicateKey(f"duplicate row for {country} {year}")
        table[key] = value
    return table


def assemble(gdp: _Column, cab_pct: _Column, ggb: _Column) -> Dataset:
    """Combine the three {(country, year): value} mappings into a Dataset.

    cab_eur = cab_pct * gdp. Every (country, year) carrying a balance must
    also carry a positive GDP, and each cab_eur value must be finite. Each
    check names its smallest bad key.
    """
    try:  # one lookup and one insert per row
        cab_eur = {key: p * gdp[key] for key, p in cab_pct.items()}
        if not ggb.keys() <= gdp.keys():
            raise KeyError  # a ggb key has no GDP
    except KeyError:
        missing = (cab_pct.keys() | ggb.keys()) - gdp.keys()
        raise MissingGdp(f"balance present without GDP for {min(missing)}") from None
    if not all(map(operator.lt, repeat(0), gdp.values())):
        bad = min(key for key, g in gdp.items() if not g > 0)
        raise ValueError(f"GDP for {bad[0]} {bad[1]} is not positive: "
                         f"{gdp[bad]!r}")
    if not all(map(math.isfinite, cab_eur.values())):
        country, year = min(key for key, value in cab_eur.items()
                            if not math.isfinite(value))
        raise BadNumeric(f"cab_eur for {country} {year} "
                         f"is not finite: {cab_eur[country, year]!r}")
    return Dataset(dict(gdp), dict(cab_pct), dict(ggb), cab_eur)


def load_files(gdp_path, cab_pct_path, ggb_path) -> Dataset:
    """Assemble a dataset from three plain-csv files."""
    return _load((gdp_path, cab_pct_path, ggb_path))


def load_bundled() -> Dataset:
    """The packaged EU-27 1995-2011 reference dataset."""
    return _load(os.path.join(_DATA, name) for name in INPUT_FILES)


def _read_file(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _load(paths) -> Dataset:
    """Read and parse each file in turn, then assemble them."""
    return assemble(*[parse_table(_read_file(path)) for path in paths])
