"""CSV parsing, assembly rules, and bundled-data coverage."""
import pytest

import eubalance as eb
from eubalance.dataset import parse_table


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


class TestRecordInvariants:
    def test_t_consistency_enforced(self):
        with pytest.raises(ValueError):
            eb.CountryYearRecord(country="DE", year=2000, t=3, gdp=1.0)

    def test_negative_gdp_rejected(self):
        with pytest.raises(ValueError):
            eb.CountryYearRecord(country="DE", year=2000, t=5, gdp=-1.0)


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
        with pytest.raises(eb.DuplicateKey):
            eb.Dataset(recs + [recs[0]])

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
