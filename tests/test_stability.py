"""Gap roots, spacing, bands, uncertainty intervals, phase labels."""
import decimal
import math
import random

import pytest

import eubalance as eb
from eubalance import reports, stability
from eubalance.expfit import AnovaTable, ExpFitModel, bisect
from eubalance.stability import band_envelope

import golden_values as gv


def _toy_model(alpha: float, beta: float, mse: float = 0.0) -> ExpFitModel:
    anova = AnovaTable(ss_model=1.0, ss_error=mse * 15,
                       ss_uncorrected_total=1.0 + mse * 15,
                       ss_corrected_total=1.0, df_model=2, df_error=15,
                       df_uncorrected=17, df_corrected=16)
    return ExpFitModel(alpha=alpha, beta=beta, cov=((0.0, 0.0), (0.0, 0.0)),
                       n=17, dof=15, mse=mse, anova=anova)


def _toy_analysis(a, b, c, d, mse_s=0.0, mse_d=0.0) -> eb.GapAnalysis:
    return eb.GapAnalysis(_toy_model(a, b, mse_s), _toy_model(-c, d, mse_d))


class TestGapEval:
    def test_values_at_18(self, analyses):
        for scope, want in gv.GAP_AT_18.items():
            got = eb.gap_eval(analyses[scope], 18.0)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-3)

    def test_zero_at_turning_point(self, analyses):
        for analysis in analyses.values():
            tp = eb.turning_points(analysis)
            f, _, _ = eb.gap_eval(analysis, tp.t0)
            scale = analysis.a * math.exp(analysis.b * tp.t0)
            assert abs(f) <= 1e-9 * scale

    def test_derivatives_match_finite_differences(self, analyses):
        # tolerances are relative to the subtracted exponential terms, the
        # same scale the root residuals are judged on; near its own zero a
        # derivative has no meaningful relative error of its own
        for analysis in analyses.values():
            a, b, c, d = (analysis.a, analysis.b, analysis.c, analysis.d)
            for t in (0.0, 5.0, 12.0, 20.0):
                f0, ft, ftt = eb.gap_eval(analysis, t)
                h = 1e-6 * max(1.0, abs(t))
                f_hi = eb.gap_eval(analysis, t + h)[0]
                f_lo = eb.gap_eval(analysis, t - h)[0]
                scale1 = (a * b * math.exp(b * t)
                          + c * d * math.exp(d * t))
                assert abs((f_hi - f_lo) / (2 * h) - ft) <= 1e-6 * scale1
                h2 = 1e-4 * max(1.0, abs(t))
                f_hi = eb.gap_eval(analysis, t + h2)[0]
                f_lo = eb.gap_eval(analysis, t - h2)[0]
                scale2 = (a * b * b * math.exp(b * t)
                          + c * d * d * math.exp(d * t))
                assert abs((f_hi - 2 * f0 + f_lo) / (h2 * h2) - ftt) <= \
                    1e-6 * scale2


class TestTurningPoints:
    def test_goldens(self, analyses):
        for scope, want in gv.TURNING.items():
            tp = eb.turning_points(analyses[scope])
            assert abs(tp.t0 - want["t0"]) <= 1e-3
            assert abs(tp.t1 - want["t1"]) <= 1e-3
            assert abs(tp.t2 - want["t2"]) <= 1e-3
            assert tp.level == pytest.approx(want["level"], rel=5e-4)

    def test_ordering_and_root_residuals(self, analyses):
        for analysis in analyses.values():
            tp = eb.turning_points(analysis)
            assert tp.t2 < tp.t1 < tp.t0

            def scale(t):
                return (analysis.a * math.exp(analysis.b * t)
                        + analysis.c * math.exp(analysis.d * t))

            f, ft, ftt = eb.gap_eval(analysis, tp.t0)
            assert abs(f) <= 1e-9 * scale(tp.t0)
            _, ft, _ = eb.gap_eval(analysis, tp.t1)
            assert abs(ft) <= 1e-9 * scale(tp.t1) * max(analysis.b,
                                                        analysis.d)
            _, _, ftt = eb.gap_eval(analysis, tp.t2)
            assert abs(ftt) <= 1e-9 * scale(tp.t2) * max(analysis.b,
                                                         analysis.d) ** 2

    def test_equal_coefficients_cross_at_zero(self):
        tp = eb.turning_points(_toy_analysis(10.0, 0.1, 10.0, 0.2))
        assert tp.t0 == 0.0

    def test_equal_spacing_property(self):
        rng = random.Random(20260815)
        for _ in range(1000):
            a = rng.uniform(1.0, 1000.0)
            c = rng.uniform(1.0, 1000.0)
            b = rng.uniform(0.01, 0.5)
            d = rng.uniform(0.01, 0.5)
            if d <= b:
                b, d = d, b
            if d == b:
                continue
            tp = eb.turning_points(_toy_analysis(a, b, c, d))
            spacing = math.log(d / b) / (d - b)
            assert abs((tp.t0 - tp.t1) - spacing) <= 1e-9
            assert abs((tp.t1 - tp.t2) - spacing) <= 1e-9

    def test_brentq_oracle(self, analyses):
        optimize = pytest.importorskip("scipy.optimize")
        for analysis in (*analyses.values(), *_toy_pairs()):
            tp = eb.turning_points(analysis)
            for k, got in enumerate((tp.t0, tp.t1, tp.t2)):
                def f(t):
                    return eb.gap_eval(analysis, t)[k]
                # the k-th derivative changes sign once: widen until it does
                h = 1.0
                while f(got - h) * f(got + h) > 0.0:
                    h *= 2.0
                want = optimize.brentq(f, got - h, got + h, xtol=1e-15)
                assert abs(got - want) <= 1e-9 * max(abs(want), 1.0)

    def test_decimal_closed_form_reference(self):
        # t_k = ln(a b^k / (c d^k)) / (d - b) at 60 digits from the exact
        # float inputs; rates span six decades, and d - b can be a few ulps
        rng = random.Random(20261018)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for _ in range(2000):
                b = 10.0 ** rng.uniform(-3.0, 3.0)
                d = b * (1.0 + 10.0 ** rng.uniform(-8.0, 1.0))
                if rng.random() < 0.5:
                    b, d = d, b
                a = 10.0 ** rng.uniform(-5.0, 8.0)
                c = 10.0 ** rng.uniform(-5.0, 8.0)
                tp = eb.turning_points(_toy_analysis(a, b, c, d))
                A, B, C, D = map(decimal.Decimal, (a, b, c, d))
                for k, got in enumerate((tp.t0, tp.t1, tp.t2)):
                    exact = (A * B ** k / (C * D ** k)).ln() / (D - B)
                    bound = 8.0 * 2.0 ** -53 * (abs(got) + 1.0 / abs(d - b))
                    assert abs(got - float(exact)) <= bound, (a, b, c, d, k)

    def test_no_intersection_for_equal_rates(self):
        with pytest.raises(eb.NoIntersection):
            eb.turning_points(_toy_analysis(10.0, 0.2, 20.0, 0.2))

    def test_analysis_validation(self):
        with pytest.raises(ValueError):
            _toy_analysis(-1.0, 0.1, 1.0, 0.2)  # surplus not positive
        with pytest.raises(ValueError):
            eb.GapAnalysis(_toy_model(1.0, 0.1), _toy_model(1.0, 0.2))
        with pytest.raises(ValueError):
            _toy_analysis(1.0, -0.1, 1.0, 0.2)


class TestLimits:
    def test_decays_toward_minus_infinity_side(self, analyses):
        # |f| must shrink monotonically as t heads far into the past
        for analysis in analyses.values():
            values = [abs(eb.gap_eval(analysis, t)[0])
                      for t in (-20.0, -40.0, -70.0, -100.0)]
            assert values == sorted(values, reverse=True)
            assert values[-1] < 1e-4

    def test_unbounded_decrease_beyond_turning_point(self, analyses):
        for analysis in analyses.values():
            tp = eb.turning_points(analysis)
            prev = None
            for k in range(31):
                f, ft, _ = eb.gap_eval(analysis, tp.t0 + k)
                assert ft < 0.0
                if prev is not None:
                    assert f < prev
                prev = f
            assert prev < -1e5


class TestBands:
    def test_band_envelope_examples(self, models):
        lo, hi = band_envelope(models["eu9plus"], 16.0, 0.95)
        assert lo == pytest.approx(2175.29, rel=1e-3)
        assert hi == pytest.approx(2859.65, rel=1e-3)
        lo, hi = band_envelope(models["eu18minus"], 20.0, 0.95)
        assert lo == pytest.approx(-6953.59, rel=1e-3)
        assert hi == pytest.approx(-4456.24, rel=1e-3)

    def test_collapses_as_level_vanishes(self, models):
        model = models["eu9plus"]
        pred = model.alpha * math.exp(model.beta * 10.0)
        lo, hi = band_envelope(model, 10.0, 1e-12)
        assert lo == pytest.approx(pred, rel=1e-9)
        assert hi == pytest.approx(pred, rel=1e-9)


class TestUncertaintyInterval:
    def test_eurozone_golden(self, analyses):
        iv = eb.uncertainty_interval(analyses["eurozone"], 0.99)
        assert abs(iv.t_m - gv.TURNING["eurozone"]["tm"]) <= 2e-5
        assert abs(iv.t_M - gv.TURNING["eurozone"]["tM"]) <= 2e-5
        assert iv.band_level == 0.99
        assert iv.joint_level == pytest.approx(0.9801, rel=1e-12)

    def test_containment_across_levels(self, analyses):
        for analysis in analyses.values():
            t0 = eb.turning_points(analysis).t0
            for level in (0.5, 0.9, 0.99, 0.995):
                iv = eb.uncertainty_interval(analysis, level)
                assert iv.t_m < t0 < iv.t_M

    def test_widens_with_level(self, analyses):
        widths = []
        for level in (0.5, 0.9, 0.99):
            iv = eb.uncertainty_interval(analyses["eu"], level)
            widths.append(iv.t_M - iv.t_m)
        assert widths == sorted(widths)

    def test_collapses_onto_turning_point(self, analyses):
        analysis = analyses["eurozone"]
        t0 = eb.turning_points(analysis).t0
        iv = eb.uncertainty_interval(analysis, 1e-4)
        assert iv.t_m == pytest.approx(t0, abs=1e-3)
        assert iv.t_M == pytest.approx(t0, abs=1e-3)

    def test_root_residuals(self, analyses):
        for analysis in analyses.values():
            tp = eb.turning_points(analysis)
            iv = eb.uncertainty_interval(analysis, 0.99)
            # each endpoint lies on one of the four band curves
            for t in (iv.t_m, iv.t_M):
                best = min(abs(band - tp.level)
                           for model in (analysis.surplus_model,
                                         analysis.deficit_model)
                           for band in _bands_at(model, t, 0.99))
                assert best <= 1e-9 * tp.level

    def test_level_validation(self, analyses):
        with pytest.raises(ValueError):
            eb.uncertainty_interval(analyses["eu"], 1.0)

    def test_root_not_bracketed(self):
        # enormous residual variance pushes every band far from the level
        analysis = _toy_analysis(100.0, 0.17, 80.0, 0.23,
                                 mse_s=1e12, mse_d=1e12)
        with pytest.raises(eb.RootNotBracketed):
            eb.uncertainty_interval(analysis, 0.99)


def _bands_at(model, t, band_level):
    lo, hi = band_envelope(model, t, band_level)
    if model.alpha < 0:
        return (-hi, -lo)
    return (lo, hi)


class TestPhaseLabel:
    def test_latest_year_classification(self, analyses):
        assert eb.phase_label(eb.turning_points(analyses["eu"]), 16.0) == \
            "increasing-instability"
        assert eb.phase_label(eb.turning_points(analyses["eurozone"]),
                              16.0) == "decreasing-stability"

    def test_far_past_is_stable_growth(self, analyses):
        for analysis in analyses.values():
            assert eb.phase_label(eb.turning_points(analysis), -100.0) == \
                "stable-growth"

    def test_phase_ordering(self, analyses):
        analysis = analyses["eu"]
        tp = eb.turning_points(analysis)
        assert eb.phase_label(tp, tp.t1 - 2.0) == "stable-growth"
        assert eb.phase_label(tp, (tp.t1 + tp.t0) / 2) == \
            "decreasing-stability"
        assert eb.phase_label(tp, tp.t0 + 2.0) == "increasing-instability"


# References for the band arithmetic: the bounds through expfit.predict and
# one bracketing scan per band, as computed before the bands were folded
# into a single scan. The program must reproduce them bit for bit.

def _predict_envelope(model, t, band_level):
    row = eb.predict(model, t, level=band_level)
    return row.ci_low, row.ci_high


def _reference_band_roots(func, level, lo, hi):
    roots = []
    steps = int(round((hi - lo) / stability.SCAN_STEP))
    prev_t = lo
    prev_v = func(lo) - level
    for k in range(1, steps + 1):
        t = lo + (hi - lo) * k / steps
        v = func(t) - level
        if prev_v == 0.0:
            roots.append(prev_t)
        elif prev_v * v < 0.0:
            x = bisect(lambda u: func(u) - level, prev_t, t)
            h = 1e-7
            slope = (func(x + h) - func(x - h)) / (2.0 * h)
            if slope != 0.0:
                x -= (func(x) - level) / slope
            roots.append(x)
        prev_t, prev_v = t, v
    return roots


def _reference_interval(analysis, band_level):
    tp = eb.turning_points(analysis)
    s, d = analysis.surplus_model, analysis.deficit_model
    q_s = eb.t_quantile(1.0 - (1.0 - band_level) / 2.0, s.dof)
    q_d = eb.t_quantile(1.0 - (1.0 - band_level) / 2.0, d.dof)

    def surplus(t):
        return s.alpha * math.exp(s.beta * t)

    def deficit_mag(t):
        return -d.alpha * math.exp(d.beta * t)

    funcs = (lambda t: surplus(t) + q_s * eb.se_single(s, t),
             lambda t: surplus(t) - q_s * eb.se_single(s, t),
             lambda t: deficit_mag(t) + q_d * eb.se_single(d, t),
             lambda t: deficit_mag(t) - q_d * eb.se_single(d, t))
    half = stability.BRACKET_HALF_WIDTH
    roots = [root for func in funcs
             for root in _reference_band_roots(func, tp.level, tp.t0 - half,
                                               tp.t0 + half)]
    return (min(roots), max(roots)) if roots else None


def _toy_pairs():
    pairs = [_toy_analysis(10.0, 0.1, 10.0, 0.2),
             _toy_analysis(10.0, 0.1, 10.0, 0.2, mse_s=4.0, mse_d=9.0),
             _toy_analysis(100.0, 0.17, 80.0, 0.23, mse_s=25.0, mse_d=400.0),
             _toy_analysis(100.0, 0.17, 80.0, 0.23, mse_s=1e12, mse_d=1e12)]
    rng = random.Random(20261018)
    for _ in range(12):
        b, d = sorted((rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.5)))
        pairs.append(_toy_analysis(rng.uniform(1.0, 1000.0), b,
                                   rng.uniform(1.0, 1000.0), d,
                                   mse_s=rng.uniform(0.0, 1e4),
                                   mse_d=rng.uniform(0.0, 1e4)))
    return pairs


BAND_LEVELS = (0.5, 0.9, 0.99, 0.999)


class TestBandReference:
    def _check(self, analysis, band_level, monkeypatch):
        want = _reference_interval(analysis, band_level)
        if want is None:
            with pytest.raises(eb.RootNotBracketed):
                eb.uncertainty_interval(analysis, band_level)
        else:
            iv = eb.uncertainty_interval(analysis, band_level)
            assert (iv.t_m, iv.t_M) == want
        plot = reports.plot_data_table("x", analysis, band_level)
        with monkeypatch.context() as patch:
            patch.setattr(eb.stability, "band_envelope", _predict_envelope)
            assert reports.plot_data_table("x", analysis,
                                              band_level) == plot

    @pytest.mark.parametrize("band_level", BAND_LEVELS)
    def test_scopes_match_reference(self, analyses, band_level, monkeypatch):
        for analysis in analyses.values():
            self._check(analysis, band_level, monkeypatch)
            for model in (analysis.surplus_model, analysis.deficit_model):
                for t in (-3.0, 0.0, 12.5, 30.0):
                    assert band_envelope(model, t, band_level) == \
                        _predict_envelope(model, t, band_level)

    @pytest.mark.parametrize("band_level", BAND_LEVELS)
    def test_toy_pairs_match_reference(self, band_level, monkeypatch):
        for analysis in _toy_pairs():
            self._check(analysis, band_level, monkeypatch)
