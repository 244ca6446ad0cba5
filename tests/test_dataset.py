"""CSV parsing, assembly rules, and bundled-data coverage."""
import dataclasses
import io
import math

import pytest

import eubalance as eb
from eubalance.dataset import parse_table


def _reference_parse_table(raw_text):
    """The line-by-line parser that parse_table's bulk path must match."""
    reader = io.StringIO(raw_text)
    header = reader.readline().strip()
    if tuple(h.strip() for h in header.split(",")) != ("country", "year",
                                                        "value"):
        raise eb.MalformedHeader(
            f"expected header 'country,year,value', got {header!r}")
    triples = []
    seen = set()
    for lineno, ln in enumerate(reader, start=2):
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 3:
            raise eb.BadNumeric(
                f"line {lineno}: expected 3 fields, got {len(parts)}")
        country = parts[0].strip()
        try:
            year = int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise eb.BadNumeric(f"line {lineno}: {ln!r}") from None
        if not math.isfinite(value):
            raise eb.BadNumeric(f"line {lineno}: value is not finite: {ln!r}")
        if (country, year) in seen:
            raise eb.DuplicateKey(f"duplicate row for {country} {year}")
        seen.add((country, year))
        triples.append((country, year, value))
    return triples


def _outcome(parse, text):
    try:
        return parse(text)
    except eb.DatasetError as exc:
        return type(exc), str(exc)


class TestPlainCsv:
    def test_parse(self):
        triples = parse_table("country,year,value\nEL,2000,0.5\n")
        assert triples == [("EL", 2000, 0.5)]

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

    @pytest.mark.parametrize("value", ("nan", "inf", "-Infinity"))
    def test_non_finite_value(self, value):
        with pytest.raises(eb.BadNumeric):
            parse_table(f"country,year,value\nDE,2000,{value}\n")


class TestBulkParse:
    """parse_table against the line-by-line reference parser."""

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
        assert parse_table(text) == [("DE", 2000, 1.5), ("FR", 2001, -2000.0)]
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


class TestAssemble:
    def test_conversion_and_identity(self):
        ds = eb.assemble([("DE", 2011, 2592.6)], [("DE", 2011, 0.057)],
                         [("DE", 2011, -20.0)])
        rec = ds.get("DE", 2011)
        assert rec.cab_eur == pytest.approx(147.7782, rel=1e-9)
        assert rec.psb_eur == rec.cab_eur - rec.ggb_eur

    def test_zero_pct_gives_zero_eur(self):
        ds = eb.assemble([("DE", 2001, 2113.16)], [("DE", 2001, 0.0)], [])
        assert ds.get("DE", 2001).cab_eur == 0.0

    def test_absent_fields_are_none(self):
        ds = eb.assemble([("BG", 1995, 10.0)], [], [])
        rec = ds.get("BG", 1995)
        assert rec.cab_pct is None and rec.cab_eur is None
        assert rec.ggb_eur is None and rec.psb_eur is None

    def test_missing_gdp(self):
        with pytest.raises(eb.MissingGdp):
            eb.assemble([("DE", 2011, 2592.6)], [("FR", 2011, 0.01)], [])

    def test_duplicate_triples(self):
        with pytest.raises(eb.DuplicateKey):
            eb.assemble([("DE", 2011, 1.0), ("DE", 2011, 1.0)], [], [])

    def test_duplicate_message_names_role_and_key(self):
        with pytest.raises(eb.DuplicateKey,
                           match=r"^duplicate ggb triple for \('FR', 2010\)$"):
            eb.assemble([("DE", 2011, 1.0), ("FR", 2010, 2.0)], [],
                        [("FR", 2010, 1.0), ("DE", 2011, 1.0),
                         ("FR", 2010, 3.0), ("DE", 2011, 4.0)])


class TestRecordInvariants:
    def test_t_consistency_enforced(self):
        with pytest.raises(ValueError):
            eb.CountryYearRecord(country="DE", year=2000, t=3, gdp=1.0)

    def test_negative_gdp_rejected(self):
        with pytest.raises(ValueError):
            eb.CountryYearRecord(country="DE", year=2000, t=5, gdp=-1.0)

    def test_frozen(self):
        rec = eb.CountryYearRecord("DE", 2000, 5, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.gdp = 2.0


class TestBundled:
    def test_coverage(self, dataset):
        assert len(dataset.countries) == 27
        assert dataset.years == tuple(range(1995, 2012))
        assert len(dataset) == 27 * 17

    def test_late_starters(self, dataset):
        for country, first in (("BG", 1998), ("EL", 2000)):
            years = sorted(y for (c, y), r in dataset.records.items()
                           if c == country and r.cab_pct is not None)
            assert years == list(range(first, 2012))
        full = [c for c in dataset.countries if c not in ("BG", "EL")]
        for country in full:
            missing = [y for y in range(1995, 2012)
                       if dataset.get(country, y).cab_pct is None]
            assert missing == []

    def test_conversion_invariant(self, dataset):
        for rec in dataset:
            if rec.cab_pct is not None:
                assert rec.cab_eur == pytest.approx(rec.cab_pct * rec.gdp,
                                                    rel=1e-9)
            if rec.cab_eur is not None and rec.ggb_eur is not None:
                assert rec.psb_eur == rec.cab_eur - rec.ggb_eur
            assert rec.t == rec.year - eb.BASE_YEAR

    def test_round_trip_bit_exact(self, dataset):
        for role in ("gdp", "cab_pct", "ggb"):
            text = eb.to_plain_csv(dataset, role)
            triples = parse_table(text)
            field = {"gdp": "gdp", "cab_pct": "cab_pct",
                     "ggb": "ggb_eur"}[role]
            want = {(r.country, r.year): getattr(r, field)
                    for r in dataset if getattr(r, field) is not None}
            assert {(c, y): v for c, y, v in triples} == want

    def test_duplicate_record_rejected(self, dataset):
        recs = list(dataset)
        with pytest.raises(eb.DuplicateKey,
                           match=r"^record for \('AT', 1995\) appears twice$"):
            eb.Dataset(recs + [recs[0]] + [recs[1]])

    def test_iteration_sorted(self, dataset):
        keys = [(r.country, r.year) for r in dataset]
        assert keys == sorted(keys)

    def test_germany_examples(self, dataset):
        assert dataset.get("DE", 2011).cab_eur == pytest.approx(147.778,
                                                                rel=1e-5)
        assert dataset.get("DE", 1995).cab_eur == pytest.approx(-23.1537,
                                                                rel=1e-5)
        # stored fraction carries more precision than the one-decimal
        # percent it is published at; it must sit inside that window
        assert abs(dataset.get("DE", 1995).cab_pct - -0.012) <= 5e-7
