"""The record classes against frozen dataclasses with the same fields.

Each reference below is built with ``dataclasses.make_dataclass`` from the
field list the record had as a ``@dataclass(frozen=True)``, with the same
``__post_init__`` checks, so these tests pin names, field order, repr,
equality, hashing, construction errors and immutability.
"""
import copy
import dataclasses
import functools
import pickle

import pytest

import eubalance as eb
from eubalance import reports
from eubalance.dataset import BASE_YEAR


def _record_checks(self):
    if self.t != self.year - BASE_YEAR:
        raise ValueError(f"t={self.t} inconsistent with year={self.year}")
    if not self.gdp > 0:
        raise ValueError(f"GDP for {self.country} {self.year} is not "
                         f"positive: {self.gdp!r}")


def _region_checks(self):
    if not self.members:
        raise ValueError(f"region {self.name!r} has no members")
    object.__setattr__(self, "members", frozenset(self.members))


def _gap_checks(self):
    if self.surplus_model.alpha <= 0.0:
        raise ValueError("surplus model must have positive alpha")
    if self.deficit_model.alpha >= 0.0:
        raise ValueError("deficit model must have negative alpha")
    if self.surplus_model.beta <= 0.0 or self.deficit_model.beta <= 0.0:
        raise ValueError("both growth rates must be positive")


_ANOVA = eb.AnovaTable(10.0, 1.0, 11.0, 4.0, 2, 15, 17, 16)


def _model(alpha):
    return eb.ExpFitModel(alpha, 0.1, ((4.0, -0.5), (-0.5, 0.01)), 17, 15,
                          0.5, _ANOVA)


# class: (field names in order, defaults, __post_init__, positional values,
#         another value for the last field)
RECORDS = {
    eb.CountryYearRecord: (
        ("country", "year", "t", "gdp", "cab_pct", "cab_eur", "ggb_eur",
         "psb_eur"),
        {"cab_pct": None, "cab_eur": None, "ggb_eur": None, "psb_eur": None},
        _record_checks,
        ("DE", 2000, 5, 1900.5, 0.01, 19.005, -20.0, 39.005), 40.0),
    eb.RegionDefinition: (
        ("name", "members"), {}, _region_checks,
        ("EU9+", frozenset({"DE", "NL", "AT"})), frozenset({"DE"})),
    eb.BalanceSeries: (
        ("subject", "kind", "mode", "points"), {}, None,
        ("EU27", "CAB", "annual", ((0, 1.5), (1, -2.25))), ((0, 1.5),)),
    eb.TotalsRow: (
        ("subject", "cab_total", "ggb_total", "psb_total", "rank_cab",
         "rank_ggb", "rank_psb"), {}, None,
        ("DE", 1097.96, -977.186, 2075.15, 1, 26, 1), 2),
    eb.AnovaTable: (
        ("ss_model", "ss_error", "ss_uncorrected_total",
         "ss_corrected_total", "df_model", "df_error", "df_uncorrected",
         "df_corrected"), {}, None,
        (10.0, 1.0, 11.0, 4.0, 2, 15, 17, 16), 15),
    eb.ExpFitModel: (
        ("alpha", "beta", "cov", "n", "dof", "mse", "anova"), {}, None,
        (168.249, 0.1, ((4.0, -0.5), (-0.5, 0.01)), 17, 15, 0.5, _ANOVA),
        eb.AnovaTable(10.0, 1.0, 11.0, 4.5, 2, 15, 17, 16)),
    eb.PredictionRow: (
        ("t", "observed", "predicted", "se_single", "ci_low", "ci_high",
         "level"), {}, None,
        (3.0, None, 12.5, 0.75, 11.0, 14.0, 0.95), 0.99),
    eb.GapAnalysis: (
        ("surplus_model", "deficit_model"), {}, _gap_checks,
        (_model(168.0), _model(-85.0)), _model(-90.0)),
    eb.TurningPoints: (
        ("t0", "t1", "t2", "level"), {}, None,
        (14.386, 10.5, 6.6, 4993.13), 4993.14),
    eb.UncertaintyInterval: (
        ("t_m", "t_M", "band_level", "joint_level"), {}, None,
        (12.71373, 15.81344, 0.99, 0.9801), 0.98),
    reports.Table: (
        ("title", "header", "rows"), {}, None,
        ("Title", ("a", "b"), (("1", "2"), ("3", "4"))), ()),
}

CLASSES = list(RECORDS)


@functools.cache
def _reference(cls):
    names, defaults, post_init, _, _ = RECORDS[cls]
    fields = [(name, object, dataclasses.field(default=defaults[name]))
              if name in defaults else (name, object) for name in names]
    namespace = {"__post_init__": post_init} if post_init else {}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace=namespace)


def _both(cls, *args, **kwargs):
    return cls(*args, **kwargs), _reference(cls)(*args, **kwargs)


def _other(cls):
    """The sample's positional values with another last field."""
    *values, _ = RECORDS[cls][3]
    return (*values, RECORDS[cls][4])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecordParity:
    def test_repr_eq_hash(self, cls):
        values = RECORDS[cls][3]
        ours, ref = _both(cls, *values)
        assert repr(ours) == repr(ref)
        assert hash(ours) == hash(ref)
        same, ref_same = _both(cls, *values)
        other, ref_other = _both(cls, *_other(cls))
        assert (ours == same) is (ref == ref_same) is True
        assert (ours == other) is (ref == ref_other) is False
        assert (ours != other) is (ref != ref_other) is True
        assert ours != ref and ref != ours
        subclass = type(cls.__name__, (cls,), {})
        assert ours != subclass(*values) and subclass(*values) != ours
        assert ours != tuple(values)
        assert ours.__eq__(tuple(values)) is NotImplemented

    def test_construction(self, cls):
        names, defaults, _, values, _ = RECORDS[cls]
        by_keyword = dict(zip(names, values))
        ours, ref = _both(cls, **by_keyword)
        assert ours == cls(*values)
        assert repr(ours) == repr(ref)
        required = [name for name in names if name not in defaults]
        calls = (
            ((), {name: by_keyword[name] for name in required[:-1]}),
            (values, {"unknown": 1}),
            (values, {names[0]: values[0]}),
            ((*values, 1), {}),
        )
        for args, kwargs in calls:
            for make in (cls, _reference(cls)):
                with pytest.raises(TypeError):
                    make(*args, **kwargs)

    def test_frozen(self, cls):
        for record in _both(cls, *RECORDS[cls][3]):
            for name in (RECORDS[cls][0][0], "not_a_field"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, RECORDS[cls][0][0])

    def test_copy_and_pickle(self, cls):
        record = cls(*RECORDS[cls][3])
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record
            assert hash(clone) == hash(record)


class TestRecordDetails:
    def test_record_defaults(self):
        names, defaults, _, values, _ = RECORDS[eb.CountryYearRecord]
        ours, ref = _both(eb.CountryYearRecord, *values[:4])
        assert repr(ours) == repr(ref)
        assert all(getattr(ours, name) is None for name in defaults)

    def test_region_members_become_frozenset(self):
        ours, ref = _both(eb.RegionDefinition, "EU", ["DE", "FR", "DE"])
        assert ours.members == frozenset({"DE", "FR"})
        assert type(ours.members) is frozenset
        assert repr(ours) == repr(ref)
        for make in (eb.RegionDefinition, _reference(eb.RegionDefinition)):
            with pytest.raises(ValueError, match="has no members"):
                make("EU", [])

    @pytest.mark.parametrize("surplus, deficit, message", (
        (-168.0, -85.0, "positive alpha"),
        (168.0, 85.0, "negative alpha"),
        (168.0, -85.0, "growth rates"),
    ))
    def test_gap_analysis_rejects_bad_signs(self, surplus, deficit,
                                            message):
        s, d = _model(surplus), _model(deficit)
        if message == "growth rates":
            d = eb.ExpFitModel(d.alpha, -0.1, d.cov, d.n, d.dof, d.mse,
                               d.anova)
        for make in (eb.GapAnalysis, _reference(eb.GapAnalysis)):
            with pytest.raises(ValueError, match=message):
                make(s, d)

    @pytest.mark.parametrize("t, gdp", ((3, 1.0), (5, -1.0), (5, 0.0)))
    def test_record_checks(self, t, gdp):
        for make in (eb.CountryYearRecord, _reference(eb.CountryYearRecord)):
            with pytest.raises(ValueError):
                make("DE", 2000, t, gdp)
