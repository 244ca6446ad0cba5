"""Aggregation, ranking, shares, rates, and region definitions."""
import json
import math
import tempfile
from pathlib import Path

import pytest

import eubalance as eb
from eubalance.accounting import RegionDefinition, region_series, region_total

import golden_values as gv


def _ratio_series(dataset, region):
    cab = dict(region_series(dataset, region, "CAB").points)
    gdp = dict(region_series(dataset, region, "GDP").points)
    return [(t, cab[t] / gdp[t]) for t in sorted(cab)]


class TestIdentity:
    def test_identity_holds_for_every_record(self, dataset):
        # the private balance is residual, so the identity is exact in
        # the computed direction
        checked = 0
        for rec in dataset:
            if rec.cab_eur is not None and rec.ggb_eur is not None:
                assert rec.psb_eur == rec.cab_eur - rec.ggb_eur
                checked += 1
        assert checked == 27 * 17 - 3 - 5  # BG from 1998, EL from 2000


class TestRegionSeries:
    def test_annual_sum_rule(self, dataset, regions):
        eu27 = regions["EU27"]
        series = region_series(dataset, eu27, "CAB")
        for t, value in series.points:
            members = [r.cab_eur for r in dataset
                       if r.t == t and r.cab_eur is not None]
            assert value == pytest.approx(math.fsum(members), rel=1e-9)

    def test_cumulative_is_running_sum(self, dataset, regions):
        region = regions["EU9+"]
        annual = region_series(dataset, region, "CAB", "annual").points
        cumulative = region_series(dataset, region, "CAB",
                                   "cumulative").points
        running = 0.0
        for (t_a, v_a), (t_c, v_c) in zip(annual, cumulative):
            running += v_a
            assert t_a == t_c
            assert v_c == pytest.approx(running, rel=1e-12)

    def test_partial_years_contribute_from_first_report(self, dataset):
        bg = RegionDefinition("BG", frozenset({"BG"}))
        points = region_series(dataset, bg, "CAB").points
        assert points[0][0] == 1998 - eb.BASE_YEAR
        assert len(points) == 14

    def test_empty_intersection(self, dataset):
        ds = eb.assemble([("DE", 2000, 1.0)], [], [])
        region = RegionDefinition("DE", frozenset({"DE"}))
        with pytest.raises(eb.EmptyIntersection):
            region_series(ds, region, "CAB")

    def test_overflowing_sums_name_region_kind_and_year(self):
        # each year fits a float; the running sum does not
        ds = eb.assemble([("DE", 1995, 1e308), ("DE", 1996, 1e308),
                          ("FR", 1996, 1e308)], [], [])
        de = RegionDefinition("DE only", frozenset({"DE"}))
        assert region_series(ds, de, "GDP").points == ((0, 1e308),
                                                       (1, 1e308))
        with pytest.raises(eb.AccountingError, match=(
                r"^cumulative GDP sum for region 'DE only' overflows "
                r"in 1996$")):
            region_series(ds, de, "GDP", "cumulative")
        both = RegionDefinition("pair", frozenset({"DE", "FR"}))
        with pytest.raises(eb.AccountingError, match=(
                r"^annual GDP sum for region 'pair' overflows in 1996$")):
            region_series(ds, both, "GDP")
        with pytest.raises(eb.AccountingError, match=(
                r"^GDP sum for all countries overflows in 1996$")):
            eb.gdp_share(ds, "DE", 1996)

    def test_unknown_kind_and_mode(self, dataset, regions):
        with pytest.raises(ValueError):
            region_series(dataset, regions["EU27"], "NIIP")
        with pytest.raises(ValueError):
            region_series(dataset, regions["EU27"], "CAB", "quarterly")


class TestTotals:
    def test_country_totals_and_ranks(self, dataset):
        rows = {r.subject: r
                for r in eb.totals_table(dataset, dataset.countries)}
        for code, (cab, r_cab, ggb, r_ggb, psb_v, r_psb) in gv.TABLE1.items():
            row = rows[code]
            assert row.cab_total == pytest.approx(cab, rel=1e-5)
            assert row.ggb_total == pytest.approx(ggb, rel=1e-5)
            assert row.psb_total == pytest.approx(psb_v, rel=1e-4)
            assert (row.rank_cab, row.rank_ggb, row.rank_psb) == \
                (r_cab, r_ggb, r_psb)

    def test_region_totals_tables(self, dataset, regions):
        for golden in (gv.TABLE2, gv.TABLE3, gv.TABLE4):
            for name, (cab, ggb, psb_v) in golden.items():
                region = (RegionDefinition("Germany", frozenset({"DE"}))
                          if name == "Germany" else regions[name])
                assert region_total(dataset, region, "CAB") == \
                    pytest.approx(cab, rel=1e-5)
                assert region_total(dataset, region, "GGB") == \
                    pytest.approx(ggb, rel=1e-5)
                assert region_total(dataset, region, "PSB") == \
                    pytest.approx(psb_v, rel=1e-4)


class TestShares:
    def test_pinned_country_shares(self, dataset):
        assert eb.gdp_share(dataset, "DE", 1995) == \
            pytest.approx(0.27416, rel=1e-5)

    def test_region_share(self, dataset, regions):
        assert eb.gdp_share(dataset, regions["EU10"], 1995) == \
            pytest.approx(0.207622, rel=1e-5)

    def test_shares_partition(self, dataset, regions):
        for year in (1995, 2003, 2011):
            total = (eb.gdp_share(dataset, regions["EU9+"], year)
                     + eb.gdp_share(dataset, regions["EU18-"], year))
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_missing_gdp_year(self, dataset):
        with pytest.raises(eb.MissingGdp):
            eb.gdp_share(dataset, "DE", 1970)

    def test_missing_member_is_the_smallest(self, dataset):
        # the smallest absent code is named, whatever the set's order
        region = eb.RegionDefinition("X", frozenset({"ZZ", "DE", "QQ",
                                                     "XA", "XB"}))
        with pytest.raises(eb.MissingGdp, match="^no GDP for QQ 1995$"):
            eb.gdp_share(dataset, region, 1995)


class TestAverageRate:
    def test_published_rates(self, dataset, regions):
        eu9 = _ratio_series(dataset, regions["EU9+"])
        de = _ratio_series(dataset,
                           RegionDefinition("Germany", frozenset({"DE"})))
        assert abs(eb.average_rate(eu9) - gv.AVERAGE_RATES["EU9+"]) < 5e-7
        assert abs(eb.average_rate(de) - gv.AVERAGE_RATES["DE"]) < 5e-7

    def test_degenerate_spans(self):
        with pytest.raises(eb.DegenerateSpan):
            eb.average_rate([(0, 1.0)])
        with pytest.raises(eb.DegenerateSpan):
            eb.average_rate([(3, 1.0), (3, 2.0)])

    def test_linear_series(self):
        assert eb.average_rate([(0, 1.0), (5, 11.0)]) == 2.0


class TestRegionAlgebra:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            RegionDefinition("none", frozenset())

    def test_bundled_region_shapes(self, regions):
        assert len(regions["EU27"].members) == 27
        assert len(regions["Eurozone"].members) == 17
        assert len(regions["EU10"].members) == 10
        assert regions["EU9+"].members | regions["EU18-"].members == \
            regions["EU27"].members
        assert regions["Eurozone7+"].members | \
            regions["Eurozone10-"].members == regions["Eurozone"].members

    def test_load_regions_validation(self, tmp_path):
        bad = tmp_path / "regions.json"
        bad.write_text('{"X": "DE"}', encoding="utf-8")
        with pytest.raises(ValueError):
            eb.load_regions(bad)
        bad.write_text('[1, 2]', encoding="utf-8")
        with pytest.raises(ValueError):
            eb.load_regions(bad)

    def test_load_regions_loads_or_raises_value_error(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        values = st.recursive(
            st.none() | st.booleans() | st.floats() | st.integers()
            | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=20)
        regions = st.dictionaries(st.text(), st.lists(st.text()))
        contents = (st.binary()
                    | st.builds(json.dumps, values | regions)
                    .map(str.encode))

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "regions.json"

            @hypothesis.settings(max_examples=500, deadline=None,
                                 database=None, derandomize=True)
            @hypothesis.given(contents)
            def check(raw):
                path.write_bytes(raw)
                try:
                    loaded = eb.load_regions(path)
                except ValueError:
                    return
                assert all(isinstance(r, RegionDefinition)
                           for r in loaded.values())

            check()
