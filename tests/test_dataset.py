"""CSV parsing, assembly rules, load paths, and bundled-data coverage."""
import contextlib
import gc
import io
import math
import os
from pathlib import Path

import pytest

import eubalance as eb
from eubalance import dataset as dataset_mod
from eubalance.dataset import INPUT_FILES, parse_table

BUNDLED_DATA = Path(eb.__file__).parent / "data"
_DE = eb.RegionDefinition("Germany", frozenset({"DE"}))
_FR = eb.RegionDefinition("France", frozenset({"FR"}))


def _reference_parse_table(raw_text):
    """An independent line-by-line parser that parse_table must match,
    table or first error."""
    reader = io.StringIO(raw_text)
    header = reader.readline().strip()
    if tuple(h.strip() for h in header.split(",")) != ("country", "year",
                                                        "value"):
        raise eb.MalformedHeader(
            f"expected header 'country,year,value', got {header!r}")
    table = {}
    for lineno, ln in enumerate(reader, start=2):
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise eb.BadNumeric(
                f"line {lineno}: expected 3 fields, got {len(parts)}")
        country = parts[0].strip()
        if country == "":
            raise eb.BadNumeric(
                f"line {lineno}: empty country code: {ln!r}")
        try:
            year = int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise eb.BadNumeric(f"line {lineno}: {ln!r}") from None
        if not math.isfinite(value):
            raise eb.BadNumeric(f"line {lineno}: value is not finite: {ln!r}")
        if (country, year) in table:
            raise eb.DuplicateKey(f"duplicate row for {country} {year}")
        table[(country, year)] = value
    return table


COLUMNS = ("gdp", "cab_pct", "ggb_eur", "cab_eur")


def _plain_csv(column):
    """One column as a plain-CSV table in key order, values by repr."""
    return "".join(["country,year,value\n"] + [
        f"{country},{year},{value!r}\n"
        for (country, year), value in sorted(column.items())])


def _columns(dataset):
    return {name: dict(getattr(dataset, name)) for name in COLUMNS}


def _outcome(parse, text):
    try:
        return parse(text)
    except eb.DatasetError as exc:
        return type(exc), str(exc)


class TestPlainCsv:
    def test_parse(self):
        table = parse_table("country,year,value\nEL,2000,0.5\n")
        assert table == {("EL", 2000): 0.5}

    def test_header_only(self):
        assert parse_table("country,year,value\n") == {}
        assert parse_table("country,year,value") == {}
        assert parse_table("country,year,value\r\n \n\t\n") == {}

    def test_header_required(self):
        with pytest.raises(eb.MalformedHeader):
            parse_table("land,jahr,wert\nDE,2000,1.0\n")

    def test_field_count(self):
        with pytest.raises(eb.BadNumeric):
            parse_table("country,year,value\nDE,2000\n")

    def test_bad_number(self):
        with pytest.raises(eb.BadNumeric):
            parse_table("country,year,value\nDE,2000,one\n")

    def test_duplicate_row(self):
        text = "country,year,value\nDE,2000,1.0\nDE,2000,2.0\n"
        with pytest.raises(eb.DuplicateKey):
            parse_table(text)

    @pytest.mark.parametrize("code", ("", " ", "\t"))
    def test_blank_country_code(self, code):
        # a nameless row would join the country totals under no name
        text = f"country,year,value\nDE,2011,1.0\n{code},2011,1.0\n"
        with pytest.raises(eb.BadNumeric) as exc:
            parse_table(text)
        assert str(exc.value) == (
            f"line 3: empty country code: {f'{code},2011,1.0'.strip()!r}")
        assert _outcome(parse_table, text) == _outcome(_reference_parse_table,
                                                       text)

    @pytest.mark.parametrize("value", ("nan", "inf", "-Infinity"))
    def test_non_finite_value(self, value):
        with pytest.raises(eb.BadNumeric):
            parse_table(f"country,year,value\nDE,2000,{value}\n")


class TestBulkParse:
    """parse_table against the reference parser: the first fault wins,
    and padded or spelled-out cells share one atom."""

    @pytest.mark.parametrize("body, error", (
        # the first fault wins, whichever kind comes second
        ("DE,2000,nan\nDE,2000\n", "line 2: value is not finite: 'DE,2000,nan'"),
        ("DE,2000,1\nDE,2000,2\nFR,x,1\n", "duplicate row for DE 2000"),
        ("FR,x,1\nDE,2000,1\nDE,2000,2\n", "line 2: 'FR,x,1'"),
        ("\n  \nDE,2000,1,2\nFR,2000,inf\n", "line 4: expected 3 fields, got 4"),
        # field counts that cancel out over the whole table
        ("DE,2000\nFR,2000,1,2\n", "line 2: expected 3 fields, got 2"),
        (" 1,2 \r\n3,4,5,6\r\n", "line 2: expected 3 fields, got 2"),
    ))
    def test_first_fault_wins(self, body, error):
        text = "country,year,value\n" + body
        assert _outcome(parse_table, text)[1] == error
        assert _outcome(parse_table, text) == _outcome(_reference_parse_table,
                                                       text)

    def test_whitespace_and_crlf(self):
        text = ("country , year,value\r\n\r\n  DE , 2000 ,1.5 \r\n"
                "\t\nFR,\t2001, -2e3\r\n \n")
        assert parse_table(text) == {("DE", 2000): 1.5, ("FR", 2001): -2000.0}
        assert parse_table(text) == _reference_parse_table(text)

    def test_matches_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        pad = st.sampled_from(("", " ", "\t", "\r", "\x0b", "\xa0"))
        country = st.sampled_from(("DE", "FR", "BG", "", "D E"))
        year = st.sampled_from(("2000", "2001", "02001", " 2002", "1_999",
                                "x", "", "2000.0"))
        value = st.one_of(
            st.floats().map(repr),
            st.sampled_from(("1", "-0.5", "1e3", "1_0.5", "nan", "-inf",
                             "Infinity", "one", "", " 2 ")))
        fields = st.tuples(pad, country, pad, year, value, pad)
        clean = st.tuples(pad, st.sampled_from(("DE", "FR", "IT", "ES")), pad,
                          st.integers(1995, 2011).map(str),
                          st.floats(allow_nan=False,
                                    allow_infinity=False).map(repr), pad)
        row = st.one_of(clean, clean, fields).map(
            lambda f: f"{f[0]}{f[1]}{f[2]},{f[3]},{f[4]}{f[5]}")
        # two rows with the line break moved to another comma: the field
        # counts are wrong but add up to six
        shifted = st.builds(
            lambda a, b, k: (",".join((a + "," + b).split(",")[:k]) + "\n"
                             + ",".join((a + "," + b).split(",")[k:])),
            row, row, st.sampled_from((1, 2, 4, 5)))
        line = st.one_of(
            row, row, row, row, shifted, st.just(""), pad,
            st.lists(st.sampled_from(("DE", "2000", "2001", "1.0", "")),
                     max_size=5).map(",".join))
        table = st.builds(
            lambda header, lines, end: header + end + end.join(lines),
            st.sampled_from(("country,year,value", " country , year,value",
                             "country,year,value", "country;year;value")),
            st.lists(line, max_size=12), st.sampled_from(("\n", "\r\n")))

        @hypothesis.settings(max_examples=2000, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(table)
        def check(text):
            assert _outcome(parse_table, text) == _outcome(
                _reference_parse_table, text)

        check()

    def test_equal_atoms_are_shared(self):
        # one str per code and one int per year, however each cell is
        # padded or spelled
        text = ("country,year,value\nDE,1999,1\n DE ,2001,2\n"
                "FR, 1999 ,3\nFR,02001,4\n\tDE\t,2000,5\n")
        keys = list(parse_table(text))
        assert keys == [("DE", 1999), ("DE", 2001), ("FR", 1999),
                        ("FR", 2001), ("DE", 2000)]
        for i, j in ((0, 1), (1, 4), (2, 3)):
            assert keys[i][0] is keys[j][0]
        for i, j in ((0, 2), (1, 3)):
            assert keys[i][1] is keys[j][1]
        gdp = parse_table(Path(eb.__file__).with_name("data").joinpath(
            "gdp.csv").read_text(encoding="utf-8"))
        for field in (0, 1):
            atoms = {key[field] for key in gdp}
            assert len({id(key[field]) for key in gdp}) == len(atoms)


class TestAssemble:
    def test_conversion_and_identity(self):
        ds = eb.assemble({("DE", 2011): 2592.6}, {("DE", 2011): 0.057},
                         {("DE", 2011): -20.0})
        cab = ds.cab_eur["DE", 2011]
        assert cab == pytest.approx(147.7782, rel=1e-9)
        assert eb.region_series(ds, _DE, "PSB") == (
            (2011 - eb.BASE_YEAR, cab - ds.ggb_eur["DE", 2011]),)

    def test_zero_pct_gives_zero_eur(self):
        ds = eb.assemble({("DE", 2001): 2113.16}, {("DE", 2001): 0.0}, {})
        assert ds.cab_eur["DE", 2001] == 0.0

    def test_absent_fields_are_none(self):
        ds = eb.assemble({("BG", 1995): 10.0}, {}, {})
        assert ds.gdp == {("BG", 1995): 10.0}
        assert ds.cab_pct == ds.cab_eur == ds.ggb_eur == {}

    def test_missing_gdp(self):
        with pytest.raises(eb.MissingGdp):
            eb.assemble({("DE", 2011): 2592.6}, {("FR", 2011): 0.01}, {})

    def test_missing_gdp_names_the_smallest_key(self):
        pct = {(code, 2011): 0.01 for code in ("UK", "FR", "AT", "NL")}
        with pytest.raises(eb.MissingGdp, match=r"\('AT', 2011\)$"):
            eb.assemble({("DE", 2011): 2592.6}, pct, {("SE", 2011): 1.0})

    @pytest.mark.parametrize("pct, ggb, field", (
        (2.0, {}, "cab_eur"),
    ), ids=("cab_eur",))
    def test_non_finite_derived_value_is_named(self, pct, ggb, field):
        gdp = {("DE", 1995): 1.5e308, ("FR", 1995): 1500.0}
        cab_pct = {("DE", 1995): pct, ("FR", 1995): 0.01}
        with pytest.raises(eb.BadNumeric,
                           match=rf"^{field} for DE 1995 is not finite: inf$"):
            eb.assemble(gdp, cab_pct, ggb)

    def test_large_finite_derived_values_load(self):
        # the largest magnitudes would overflow if summed, yet every
        # derived value and Germany's PSB, CAB less GGB, is finite
        ds = eb.assemble({("DE", 1995): 1.5e308, ("FR", 1995): 1500.0},
                         {("DE", 1995): 1e-3, ("FR", 1995): 0.9},
                         {("DE", 1995): -1.5e308})
        assert eb.region_series(ds, _DE, "PSB") == ((0, 1.5e308 + 1.5e305),)

    def test_inputs_are_copied(self):
        inputs = ({("DE", 2000): 1.0}, {("DE", 2000): 0.5},
                  {("DE", 2000): 0.25})
        ds = eb.assemble(*inputs)
        for column in inputs:
            column["DE", 2000] = -1.0
        assert (ds.gdp, ds.cab_pct, ds.ggb_eur) == (
            {("DE", 2000): 1.0}, {("DE", 2000): 0.5}, {("DE", 2000): 0.25})

    def test_smallest_key_is_named_cab_eur_first(self):
        gdp = {("DE", 1995): 1.5e308, ("DE", 1996): 1.5e308}
        ggb = {("DE", 1995): -1.5e308, ("DE", 1996): 1.0}
        # cab_eur is infinite at DE 1996 only
        with pytest.raises(eb.BadNumeric,
                           match=r"^cab_eur for DE 1996 is not finite: inf$"):
            eb.assemble(gdp, {("DE", 1995): 0.1, ("DE", 1996): 2.0}, ggb)

    def test_faults_are_checked_in_order(self):
        # missing GDP, then a GDP that is not positive, then a non-finite
        # derived value: mending each fault exposes the next
        gdp = {("DE", 1995): 1.5e308, ("FR", 1995): -1.0,
               ("IT", 1995): 1.0}
        cab_pct = {("DE", 1995): 2.0, ("IT", 1995): 0.5}
        ggb = {("DE", 1995): -1.5e308, ("SE", 1995): 1.0}
        with pytest.raises(eb.MissingGdp, match=r"\('SE', 1995\)$"):
            eb.assemble(gdp, cab_pct, ggb)
        del ggb["SE", 1995]
        with pytest.raises(ValueError,
                           match=r"^GDP for FR 1995 is not positive: -1\.0$"):
            eb.assemble(gdp, cab_pct, ggb)
        gdp["FR", 1995] = 1.0
        # cab_eur is infinite at DE 1995
        with pytest.raises(eb.BadNumeric,
                           match=r"^cab_eur for DE 1995 is not finite: inf$"):
            eb.assemble(gdp, cab_pct, ggb)

    @pytest.mark.parametrize("ggb, missing", (
        ({("DE", 2011): 1.0, ("SE", 2011): 1.0, ("BE", 2011): 1.0}, "BE"),
        ({("FR", 2011): 1.0, ("BE", 2011): 1.0}, "BE"),
        ({("FR", 2011): 1.0, ("UK", 2011): 1.0}, "NL"),
    ), ids=("ggb-only", "beside-a-ggb-key-with-gdp", "cab-pct-smaller"))
    def test_ggb_key_without_gdp_or_cab_pct_row(self, ggb, missing):
        # each missing ggb key has no cab_pct row, so no derived value
        # looks it up
        gdp = {("DE", 2011): 2592.6, ("FR", 2011): 2001.4}
        cab_pct = {("DE", 2011): 0.05}
        if missing == "NL":
            cab_pct["NL", 2011] = 0.01
        with pytest.raises(eb.MissingGdp,
                           match=rf"\('{missing}', 2011\)$"):
            eb.assemble(gdp, cab_pct, ggb)

    def test_ggb_key_with_gdp_but_no_cab_pct_row_loads(self):
        ds = eb.assemble({("DE", 2011): 2592.6, ("FR", 2011): 2001.4},
                         {("DE", 2011): 0.05},
                         {("DE", 2011): -20.0, ("FR", 2011): -100.0})
        assert ds.ggb_eur["FR", 2011] == -100.0
        # France's PSB is its GGB negated: it reports no CAB
        assert eb.region_series(ds, _FR, "PSB") == ((16, 100.0),)

    def test_nan_gdp_is_not_positive(self):
        with pytest.raises(ValueError,
                           match=r"^GDP for DE 2000 is not positive: nan$"):
            eb.assemble({("AT", 2000): 1.0, ("DE", 2000): math.nan},
                        {("AT", 2000): 0.5}, {})

    def test_columns_keep_the_input_order(self):
        keys = [("UK", 1999), ("AT", 2001), ("DE", 1995), ("AT", 1995),
                ("FR", 2000), ("BE", 1997)]
        gdp = {key: 10.0 + i for i, key in enumerate(keys)}
        cab_pct = {key: 0.01 * i for i, key in enumerate(reversed(keys))
                   if key != ("FR", 2000)}
        ggb = {key: float(i) for i, key in enumerate(keys[::2] + keys[1::2])
               if key != ("AT", 1995)}
        ds = eb.assemble(gdp, cab_pct, ggb)
        assert list(ds.gdp) == list(gdp)
        assert list(ds.cab_pct) == list(ds.cab_eur) == list(cab_pct)
        assert list(ds.ggb_eur) == list(ggb)


class TestRecordInvariants:
    def test_negative_gdp_rejected(self):
        gdp = {("FR", 1995): 0.0, ("DE", 1996): -1.0, ("AT", 2000): 1.0}
        with pytest.raises(ValueError, match=(
                r"^GDP for DE 1996 is not positive: -1\.0$")):
            eb.assemble(gdp, {}, {})

    def test_frozen(self):
        ds = eb.assemble({("DE", 2000): 1.0}, {("DE", 2000): 0.5},
                         {("DE", 2000): 0.25})
        for name in COLUMNS:
            with pytest.raises(TypeError):
                getattr(ds, name)["DE", 2000] = 2.0


class TestBundled:
    def test_coverage(self, dataset):
        assert len(dataset.countries) == 27
        assert dataset.years == tuple(range(1995, 2012))
        assert len(dataset) == 27 * 17

    def test_late_starters(self, dataset):
        for country, first in (("BG", 1998), ("EL", 2000)):
            years = sorted(y for c, y in dataset.cab_pct if c == country)
            assert years == list(range(first, 2012))
        full = [c for c in dataset.countries if c not in ("BG", "EL")]
        for country in full:
            missing = [y for y in range(1995, 2012)
                       if (country, y) not in dataset.cab_pct]
            assert missing == []

    def test_conversion_invariant(self, dataset):
        assert dataset.cab_eur.keys() == dataset.cab_pct.keys()
        for key, pct in dataset.cab_pct.items():
            assert dataset.cab_eur[key] == pytest.approx(
                pct * dataset.gdp[key], rel=1e-9)

    def test_round_trip_bit_exact(self, dataset):
        # repr is the shortest round-trip form, so parsing it gives back
        # each float bit for bit
        for field in ("gdp", "cab_pct", "ggb_eur"):
            column = getattr(dataset, field)
            assert parse_table(_plain_csv(column)) == column

    def test_germany_examples(self, dataset):
        assert dataset.cab_eur["DE", 2011] == pytest.approx(147.778,
                                                            rel=1e-5)
        assert dataset.cab_eur["DE", 1995] == pytest.approx(-23.1537,
                                                            rel=1e-5)
        # stored fraction carries more precision than the one-decimal
        # percent it is published at; it must sit inside that window
        assert abs(dataset.cab_pct["DE", 1995] - -0.012) <= 5e-7


@contextlib.contextmanager
def _collector(enabled):
    """Run the body with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestLoadPath:
    def test_collector_restored_after_a_failed_load(self, tmp_path):
        paths = [tmp_path / n for n in INPUT_FILES]
        for path in paths:
            path.write_text("country,year,value\n", encoding="utf-8")
        with _collector(True):
            paths[0].write_text("land,jahr,wert\n", encoding="utf-8")
            with pytest.raises(eb.MalformedHeader):
                eb.load_files(*paths)
            assert gc.isenabled()
            paths[0].write_text("country,year,value\n", encoding="utf-8")
            paths[2].write_text("country,year,value\nDE,2000,1.0\n",
                                encoding="utf-8")
            with pytest.raises(eb.MissingGdp):
                eb.load_files(*paths)
            assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self):
        with _collector(False):
            eb.load_files(*(BUNDLED_DATA / n for n in INPUT_FILES))
            assert not gc.isenabled()
            eb.load_bundled()
            assert not gc.isenabled()

    def test_records_do_not_depend_on_the_load_path(self, tmp_path):
        # the bundled tables three times over, under suffixed codes
        texts = []
        for name in INPUT_FILES:
            header, _, body = (BUNDLED_DATA / name).read_text(
                encoding="utf-8").partition("\n")
            rows = [line.split(",", 1) for line in body.split("\n") if line]
            texts.append("\n".join([header] + [
                f"{code}{copy},{rest}" for copy in range(3)
                for code, rest in rows]) + "\n")
            (tmp_path / name).write_text(texts[-1], encoding="utf-8")
        loaded = eb.load_files(*(tmp_path / n for n in INPUT_FILES))
        direct = eb.assemble(*(parse_table(text) for text in texts))
        assert len(loaded) == 3 * 459
        assert _columns(loaded) == _columns(direct)
        assert len(loaded.cab_eur) < len(loaded)
        again = tmp_path / "again"
        again.mkdir()
        for name, field in zip(INPUT_FILES, ("gdp", "cab_pct", "ggb_eur")):
            (again / name).write_text(_plain_csv(getattr(loaded, field)),
                                      encoding="utf-8")
        reloaded = eb.load_files(*(again / n for n in INPUT_FILES))
        assert _columns(reloaded) == _columns(loaded)

    def test_bundled_loaders_agree_with_the_file_loaders(self, tmp_path,
                                                         monkeypatch):
        # the package's files are found from any working directory and
        # read as --data-dir and --regions files are
        monkeypatch.chdir(tmp_path)
        assert eb.bundled_regions() == eb.load_regions(
            BUNDLED_DATA / "regions.json")
        assert _columns(eb.load_bundled()) == _columns(
            eb.load_files(*(BUNDLED_DATA / n for n in INPUT_FILES)))


class TestParseMemo:
    """parse_table keeps the tables of the last texts it parsed."""

    def test_each_call_returns_a_new_dict(self):
        text = "country,year,value\nDE,2000,1.5\nFR,2000,2.5\n"
        first, second = parse_table(text), parse_table(text)
        assert first == second == {("DE", 2000): 1.5, ("FR", 2000): 2.5}
        assert first is not second
        first["DE", 2000] = 99.0
        del first["FR", 2000]
        assert second == parse_table(text) == {("DE", 2000): 1.5,
                                               ("FR", 2000): 2.5}

    def test_a_bad_text_raises_on_every_call(self):
        text = "country,year,value\nDE,2000,1.0\nDE,2000,2.0\n"
        errors = []
        for _ in range(2):
            with pytest.raises(eb.DuplicateKey) as info:
                parse_table(text)
            errors.append(str(info.value))
        assert errors == ["duplicate row for DE 2000"] * 2

    def test_second_load_of_the_same_files_is_not_parsed_again(self):
        paths = [BUNDLED_DATA / n for n in INPUT_FILES]
        first = eb.load_files(*paths)
        hits = dataset_mod._parse.cache_info().hits
        second = eb.load_files(*paths)
        assert dataset_mod._parse.cache_info().hits == hits + 3
        assert _columns(second) == _columns(first)

    def test_a_file_rewritten_in_place_is_parsed_again(self, tmp_path):
        # same size and same mtime: only the bytes tell the texts apart
        paths = [tmp_path / n for n in INPUT_FILES]
        for path, value in zip(paths, ("100.0", "0.125", "1.0")):
            path.write_text(f"country,year,value\nDE,2000,{value}\n",
                            encoding="utf-8")
        assert eb.load_files(*paths).gdp["DE", 2000] == 100.0
        stat = paths[0].stat()
        paths[0].write_text("country,year,value\nDE,2000,200.0\n",
                            encoding="utf-8")
        os.utime(paths[0], ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = paths[0].stat()
        assert (after.st_size, after.st_mtime_ns) == (stat.st_size,
                                                      stat.st_mtime_ns)
        reloaded = eb.load_files(*paths)
        assert reloaded.gdp["DE", 2000] == 200.0
        assert reloaded.cab_eur["DE", 2000] == 25.0
