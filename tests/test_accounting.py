"""Aggregation, ranking, shares, rates, and region definitions."""
import gc
import json
import math
import tempfile
import weakref
from pathlib import Path

import pytest

import eubalance as eb
from eubalance import accounting
from eubalance.accounting import (RegionDefinition, SumOverflow,
                                  region_series, region_total)

import golden_values as gv

_DE = RegionDefinition("DE", frozenset({"DE"}))


def _ratio_series(dataset, region):
    cab = dict(region_series(dataset, region, "CAB"))
    gdp = dict(region_series(dataset, region, "GDP"))
    return [(t, cab[t] / gdp[t]) for t in sorted(cab)]


class TestIdentity:
    def test_identity_holds_for_every_record(self, dataset):
        # a country's private balance is the residual CAB - GGB, rounded
        # once, so the identity is exact in the computed direction
        cab, ggb = dataset.cab_eur, dataset.ggb_eur
        both = cab.keys() & ggb.keys()
        assert len(both) == 27 * 17 - 3 - 5  # BG from 1998, EL from 2000
        psb = {code: dict(region_series(
                   dataset, RegionDefinition(code, frozenset({code})), "PSB"))
               for code in dataset.countries}
        for country, year in both:
            assert psb[country][year - eb.BASE_YEAR] == (
                cab[country, year] - ggb[country, year])

    def test_a_year_with_one_balance_gives_its_psb(self):
        # 1995 has CAB and GGB, 1996 a CAB only, 1997 a GGB only
        ds = eb.assemble({("DE", y): 100.0 for y in (1995, 1996, 1997)},
                         {("DE", 1995): 0.03, ("DE", 1996): 0.05},
                         {("DE", 1995): -2.0, ("DE", 1997): 1.5})
        assert region_series(ds, _DE, "PSB") == (
            (0, 100.0 * 0.03 + 2.0), (1, 100.0 * 0.05), (2, -1.5))


class TestRegionSeries:
    def test_annual_sum_rule(self, dataset, regions):
        eu27 = regions["EU27"]
        series = region_series(dataset, eu27, "CAB")
        for t, value in series:
            members = [value for (_, year), value in dataset.cab_eur.items()
                       if year - eb.BASE_YEAR == t]
            assert value == pytest.approx(math.fsum(members), rel=1e-9)

    def test_cumulative_is_running_sum(self, dataset, regions):
        region = regions["EU9+"]
        annual = region_series(dataset, region, "CAB", "annual")
        cumulative = region_series(dataset, region, "CAB", "cumulative")
        running = 0.0
        for (t_a, v_a), (t_c, v_c) in zip(annual, cumulative):
            running += v_a
            assert t_a == t_c
            assert v_c == pytest.approx(running, rel=1e-12)

    def test_partial_years_contribute_from_first_report(self, dataset):
        bg = RegionDefinition("BG", frozenset({"BG"}))
        points = region_series(dataset, bg, "CAB")
        assert points[0][0] == 1998 - eb.BASE_YEAR
        assert len(points) == 14

    def test_empty_intersection(self, dataset):
        ds = eb.assemble({("DE", 2000): 1.0}, {}, {})
        region = RegionDefinition("DE", frozenset({"DE"}))
        with pytest.raises(eb.EmptyIntersection):
            region_series(ds, region, "CAB")

    def test_overflowing_sums_name_region_kind_and_year(self):
        # each year fits a float; the running sum does not
        ds = eb.assemble({("DE", 1995): 1e308, ("DE", 1996): 1e308,
                          ("FR", 1996): 1e308}, {}, {})
        de = RegionDefinition("DE only", frozenset({"DE"}))
        assert region_series(ds, de, "GDP") == ((0, 1e308), (1, 1e308))
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
            eb.gdp_share(ds, de, 1996)

    def test_one_walk_matches_a_walk_per_region(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        codes = st.sampled_from(("AT", "BE", "DE", "FR", "UK"))
        keys = st.lists(st.tuples(codes, st.integers(1995, 1999)),
                        unique=True, max_size=25)
        members = st.frozensets(codes | st.just("ZZ"), min_size=1)

        @hypothesis.settings(max_examples=300, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(keys, st.lists(members, max_size=4),
                          st.sampled_from(accounting.KINDS),
                          st.randoms(use_true_random=False))
        def check(keys, member_sets, kind, rng):
            gdp = {key: rng.uniform(1.0, 100.0) for key in keys}
            pct = {key: rng.uniform(-0.1, 0.1)
                   for key in rng.sample(keys, len(keys) // 2)}
            ggb = {key: rng.uniform(-9.0, 9.0)
                   for key in rng.sample(keys, len(keys) // 2)}
            ds = eb.assemble(gdp, pct, ggb)
            # PSB: the members' CABs, then their GGBs negated
            columns = {"CAB": ((ds.cab_eur, 1.0),),
                       "GGB": ((ds.ggb_eur, 1.0),), "GDP": ((ds.gdp, 1.0),),
                       "PSB": ((ds.cab_eur, 1.0), (ds.ggb_eur, -1.0))}[kind]
            regions = [RegionDefinition(str(i), m)
                       for i, m in enumerate(member_sets)]
            naive = []
            for region in regions:
                by_year = {}
                for column, sign in columns:
                    for (country, year), value in column.items():
                        if country in region.members:
                            by_year.setdefault(year, []).append(sign * value)
                naive.append(by_year)
            walked = accounting._values_by_year(ds, kind, regions)
            # the same lists, each in column order, and the same years
            assert walked == naive

        check()

    def test_unknown_kind_and_mode(self, dataset, regions):
        with pytest.raises(ValueError):
            region_series(dataset, regions["EU27"], "NIIP")
        with pytest.raises(ValueError):
            region_series(dataset, regions["EU27"], "CAB", "quarterly")


class TestTotals:
    def test_country_totals_and_ranks(self, dataset):
        rows = {r.subject: r
                for r in eb.totals_table(dataset)}
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

    def test_psb_total_overflow_is_named(self):
        # every record and the CAB and GGB totals fit a float; their
        # difference does not
        gdp = {("DE", 1995): 1.5e308, ("DE", 1996): 1500.0}
        ds = eb.assemble(gdp, {("DE", 1995): 0.9, ("DE", 1996): 0.0},
                         {("DE", 1995): 0.0, ("DE", 1996): -1.5e308})
        with pytest.raises(SumOverflow, match="^PSB total for DE overflows$"):
            eb.totals_table(ds)

    @pytest.mark.parametrize("pct, ggb, message", (
        ({}, {}, "no CAB data for FR"),
        ({("FR", 1995): 0.1}, {}, "no GGB data for FR"),
    ), ids=("no-cab", "no-ggb"))
    def test_country_without_balances_is_named(self, pct, ggb, message):
        # DE reports every kind, FR a GDP and at most a CAB
        ds = eb.assemble({("DE", 1995): 2.0, ("FR", 1995): 3.0},
                         {("DE", 1995): 0.1, **pct},
                         {("DE", 1995): 0.2, **ggb})
        with pytest.raises(eb.EmptyIntersection, match=f"^{message}$"):
            eb.totals_table(ds)

    def test_sum_overflow_is_exported(self):
        assert eb.SumOverflow is accounting.SumOverflow
        assert issubclass(eb.SumOverflow, eb.AccountingError)

    def test_psb_total_is_the_rounded_difference(self, dataset):
        for row in eb.totals_table(dataset):
            assert row.psb_total == row.cab_total - row.ggb_total


class TestShares:
    def test_pinned_country_shares(self, dataset):
        assert eb.gdp_share(dataset, _DE, 1995) == \
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
        with pytest.raises(eb.EmptyIntersection,
                           match="^no GDP data for region 'DE' in 1970$"):
            eb.gdp_share(dataset, _DE, 1970)

    def test_all_countries_are_summed_once_per_dataset_and_year(
            self, regions):
        sums = []

        class Totals(dict):  # records each all-countries sum as it is kept
            def __init__(self, label):
                super().__init__()
                self.label = label

            def __setitem__(self, year, total):
                sums.append((self.label, year))
                super().__setitem__(year, total)

        first, second = eb.load_bundled(), eb.load_bundled()
        first._gdp_totals = Totals("first")
        second._gdp_totals = Totals("second")
        for ds in (first, second, first):
            for year in (1995, 2003, 1995):
                every = math.fsum(g for (_, y), g in ds.gdp.items()
                                  if y == year)
                for name in ("EU9+", "EU18-", "EU10"):
                    want = math.fsum(ds.gdp[c, year]
                                     for c in regions[name].members) / every
                    assert eb.gdp_share(ds, regions[name], year) == want
        assert sums == [("first", 1995), ("first", 2003),
                        ("second", 1995), ("second", 2003)]
        # the sums are held with the dataset and go with it
        ref = weakref.ref(first)
        del first, ds
        gc.collect()
        assert ref() is None

    def test_a_year_with_a_missing_gdp_raises_on_every_call(self):
        # FR reports in 1995 only: the 1996 total is DE's alone, and a
        # region of FR has no GDP to share in 1996
        ds = eb.assemble({("DE", 1995): 2.0, ("FR", 1995): 3.0,
                          ("DE", 1996): 2.0}, {}, {})
        fr = RegionDefinition("FR", frozenset({"FR"}))
        for _ in range(3):
            with pytest.raises(eb.EmptyIntersection,
                               match="^no GDP data for region 'FR' in 1996$"):
                eb.gdp_share(ds, fr, 1996)
            assert eb.gdp_share(ds, _DE, 1996) == 2.0 / 2.0
            assert eb.gdp_share(ds, _DE, 1995) == 2.0 / 5.0

    def test_members_without_gdp_add_nothing(self, dataset):
        # codes with no GDP row in any year leave a region's share as its
        # reporting members give it
        region = eb.RegionDefinition("X", frozenset({"ZZ", "DE", "QQ",
                                                     "XA", "XB"}))
        for year in dataset.years:
            assert eb.gdp_share(dataset, region, year) == \
                eb.gdp_share(dataset, _DE, year)

    def test_late_reporter_joins_the_total_in_its_years(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        codes = ("AT", "BE", "DE", "FR", "UK")

        @hypothesis.settings(max_examples=200, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.dictionaries(
            st.tuples(st.sampled_from(codes), st.integers(1995, 1999)),
            st.floats(1e-3, 1e6), min_size=1),
            st.sets(st.sampled_from(codes), min_size=1))
        def check(gdp, members):
            ds = eb.assemble(gdp, {}, {})
            region = RegionDefinition("R", frozenset(members))
            for year in ds.years:
                mine = [g for (c, y), g in gdp.items()
                        if y == year and c in members]
                every = [g for (_, y), g in gdp.items() if y == year]
                if not mine:
                    with pytest.raises(eb.EmptyIntersection):
                        eb.gdp_share(ds, region, year)
                else:
                    assert eb.gdp_share(ds, region, year) == \
                        math.fsum(mine) / math.fsum(every)

        check()


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

    def test_load_regions_rejects_a_name_defined_twice(self, tmp_path):
        path = tmp_path / "regions.json"
        path.write_text('{"EU9+": ["DE"], "EU9+": ["FR"], "EU18-": ["IT"]}',
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"^region 'EU9\+' is defined twice$"):
            eb.load_regions(path)
        # a repeated key inside a region's value is not a region name
        path.write_text('{"EU9+": {"a": 1, "a": 2}}', encoding="utf-8")
        with pytest.raises(ValueError, match=r"^region 'EU9\+' must map"):
            eb.load_regions(path)
        path.write_text('{"EU9+": ["DE"], "EU18-": ["IT"]}', encoding="utf-8")
        assert {name: region.members for name, region
                in eb.load_regions(path).items()} == {
            "EU9+": {"DE"}, "EU18-": {"IT"}}

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
