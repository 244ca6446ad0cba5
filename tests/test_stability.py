"""Gap roots, spacing, bands, uncertainty intervals, phase labels."""
import decimal
import math
import random
import sys

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

    @pytest.mark.parametrize("b, d", ((0.2, 0.1), (0.2, 0.2)))
    def test_deficit_rate_must_exceed_surplus_rate(self, b, d):
        analysis = _toy_analysis(10.0, b, 5.0, d)
        with pytest.raises(eb.NoIntersection, match=(
                rf"^deficit rate d = {d} does not exceed surplus rate "
                rf"b = {b}: ")):
            eb.uncertainty_interval(analysis, 0.99)

    def test_root_not_bracketed(self):
        # enormous residual variance pushes every band far from the level
        analysis = _toy_analysis(100.0, 0.17, 80.0, 0.23,
                                 mse_s=1e12, mse_d=1e12)
        with pytest.raises(eb.RootNotBracketed):
            eb.uncertainty_interval(analysis, 0.99)

    def test_scan_window_lost_in_rounding(self):
        # t0 is about 2.88e17, so t0 - 15 and t0 + 15 both round to t0
        analysis = _toy_analysis(math.e, 1e-24, 1.0, 1e-24 + 2**-58,
                                 mse_s=1.0, mse_d=1.0)
        t0 = eb.turning_points(analysis).t0
        assert t0 - stability.BRACKET_HALF_WIDTH == t0
        with pytest.raises(eb.RootNotBracketed) as info:
            eb.uncertainty_interval(analysis, 0.99)
        assert str(info.value) == (f"no band attains the level 2.71828 in "
                                   f"[{t0:.6g}, {t0:.6g}]")

    def test_level_overflow_is_named(self):
        # t0 is about 7.68e34, where S(t0) = 2 exp(7.68e14) overflows
        analysis = _toy_analysis(2.0, 1e-20, 1.0, 1e-20 * (1 + 2**-50),
                                 mse_s=1.0, mse_d=1.0)
        tp = eb.turning_points(analysis)
        assert tp.level == math.inf
        with pytest.raises(eb.RootNotBracketed) as info:
            eb.uncertainty_interval(analysis, 0.99)
        assert str(info.value) == (
            f"the turning-point level overflows the float range at "
            f"t0 = {tp.t0:.6g}")

    def test_level_underflow_is_named(self):
        # t0 is about -1542.9, where S(t0) = 0.028623 exp(-1282.4)
        # underflows to 0; the bands underflow there too, and a zero level
        # would meet them at every grid point of the window
        analysis = _toy_analysis(0.028623, 0.831165, 2.22327, 0.833986)
        tp = eb.turning_points(analysis)
        assert tp.level == 0.0
        with pytest.raises(eb.RootNotBracketed) as info:
            eb.uncertainty_interval(analysis, 0.99)
        assert str(info.value) == (
            f"the turning-point level underflows to 0 at t0 = {tp.t0:.6g}")

    def test_level_below_the_exp_limit_is_finite(self):
        # b * t0 = 705 lies below exp's overflow limit of about 709.78, so
        # S(t0) = e^705 is finite; the bands overflow further out
        analysis = _toy_analysis(1.0, 1.0, 1e-300, 1 + math.log(1e300) / 705,
                                 mse_s=1.0, mse_d=1.0)
        tp = eb.turning_points(analysis)
        assert tp.t0 == 705.0
        assert tp.level == math.exp(705.0)
        with pytest.raises(OverflowError) as info:
            eb.uncertainty_interval(analysis, 0.99)
        assert str(info.value) == "bands overflow the float range in [690, 720]"

    def test_band_overflow_names_the_window(self):
        # t0 = 15 and S(t0) = e^450, but the deficit band at t = 30 needs
        # e^930
        analysis = _toy_analysis(1.0, 30.0, math.exp(-15.0), 31.0,
                                 mse_s=1.0, mse_d=1.0)
        assert eb.turning_points(analysis).t0 == 15.0
        with pytest.raises(OverflowError) as info:
            eb.uncertainty_interval(analysis, 0.99)
        assert str(info.value) == "bands overflow the float range in [0, 30]"


    def test_band_variance_overflow_is_raised(self):
        # e^{2t} 1e300, the surplus variance, overflows to inf for t > 9.5,
        # inside [-15, 15], where exp(t) is finite: a band that is not
        # finite at a point evaluated raises, naming the window
        analysis = eb.GapAnalysis(
            _model(1.0, 1.0, 1.0, ((1e300, 0.0), (0.0, 0.0))),
            _toy_model(-1.0, 2.0, 1.0))
        assert eb.turning_points(analysis).t0 == 0.0
        assert band_envelope(analysis.surplus_model, 15.0, 0.99) == (
            -math.inf, math.inf)
        with pytest.raises(OverflowError) as info:
            eb.uncertainty_interval(analysis, 0.99)
        assert str(info.value) == "bands overflow the float range in [-15, 15]"

    @pytest.mark.parametrize("k", (-560, -540, -500, 0, 500))
    def test_power_of_two_scaling_keeps_the_interval(self, k):
        # alpha times 2**k, mse and c00 times 4**k, c01 and c10 times 2**k
        # scale every band and the level by 2**k, exactly while no scaled
        # input loses a bit, so the interval must not move. At 2**-540
        # the band values lie below 1e-162, where the product of two of
        # them underflows to 0
        def scaled(model):  # raises OverflowError past the float range
            (c00, c01), (c10, c11) = model.cov
            return _model(math.ldexp(model.alpha, k), model.beta,
                          math.ldexp(model.mse, 2 * k),
                          ((math.ldexp(c00, 2 * k), math.ldexp(c01, k)),
                           (math.ldexp(c10, k), c11)))

        def exact(model, back):  # no input lost a bit, and c00, which
            # multiplies e^{beta t} in se_single, is 0 or a normal float
            c00 = back.cov[0][0]
            return (math.ldexp(back.alpha, -k), math.ldexp(back.mse, -2 * k),
                    math.ldexp(c00, -2 * k), math.ldexp(back.cov[0][1], -k)
                    ) == (model.alpha, model.mse, *model.cov[0]) and (
                        c00 == 0.0 or c00 >= sys.float_info.min)

        cov = ((64.0, -0.04), (-0.04, 1e-4))
        pairs = [*_toy_pairs()[:4],
                 _toy_analysis(100.0, 0.17, 80.0, 0.23,
                               mse_s=1600.0, mse_d=25600.0),
                 eb.GapAnalysis(_model(100.0, 0.17, 1600.0, cov),
                                _toy_model(-80.0, 0.23, 25600.0))]
        checked = 0
        for analysis in pairs:
            models = (analysis.surplus_model, analysis.deficit_model)
            try:
                scaled_pair = eb.GapAnalysis(*map(scaled, models))
            except OverflowError:
                continue
            if not all(map(exact, models, (scaled_pair.surplus_model,
                                          scaled_pair.deficit_model))):
                continue
            want = _outcome(_interval_ends, analysis, 0.99)
            got = _outcome(_interval_ends, scaled_pair, 0.99)
            if isinstance(want[0], type):
                assert got[0] is want[0]
            else:
                assert got == want
            checked += 1
        assert checked >= (1 if k == -560 else 3)

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


# The reference for the band crossings is independent of the program: each
# band magnitude |alpha| e^{beta t} +- q se(t) of one fit, in mpmath at 50
# digits from the exact float inputs, with every sign change of a dense
# float sample of the window polished by findroot. A float crossing may
# lie 8 ulps of max(|t|, 1) from its 50-digit root, plus the shift that a
# rounding of 2**-52 relative in the band's terms causes there (their
# size over the band's slope): that is the crossing's own condition, which
# no root finder on the float bands can beat.

def _predict_envelope(model, t, band_level):
    row = eb.predict(model, t, level=band_level)
    return row.ci_low, row.ci_high


def _mp_crossings(model, q, level, lo, hi, samples=30001):
    """Sorted (root, tolerance) of each crossing of the level by model's two
    band magnitudes in [lo, hi], the root a float of the 50-digit root."""
    np = pytest.importorskip("numpy")
    mpmath = pytest.importorskip("mpmath")
    alpha, beta, mse = model.alpha, model.beta, model.mse
    (c00, c01), (c10, c11) = model.cov
    ts = np.linspace(lo, hi, samples)
    e = np.exp(beta * ts)
    se = np.sqrt(mse + e * e * (c00 + (c01 + c10) * alpha * ts
                                + c11 * alpha * alpha * ts * ts))
    found = []
    with mpmath.workdps(50):
        a, b, m, qq, lv = map(mpmath.mpf, (abs(alpha), beta, mse, q, level))
        v0, v1, v2 = (mpmath.mpf(c00), (mpmath.mpf(c01) + c10) * alpha,
                      mpmath.mpf(c11) * alpha * alpha)
        for sign in (1, -1):
            def terms(t):  # the prediction and the spread at t
                ex = mpmath.exp(b * t)
                return a * ex, qq * mpmath.sqrt(m + ex * ex * (v0 + (v1 + v2 * t)
                                                               * t))

            def band(t):  # in units of the level
                pred, spread = terms(t)
                return (pred + sign * spread) / lv - 1

            below = abs(alpha) * e + sign * q * se < level
            for i in np.nonzero(below[:-1] != below[1:])[0]:
                x0, x1 = mpmath.mpf(ts[i]), mpmath.mpf(ts[i + 1])
                root = mpmath.findroot(band, (x0, x1), solver="anderson",
                                       verify=False)
                assert x0 <= root <= x1
                pred, spread = terms(root)
                slope = abs(mpmath.diff(band, root)) * lv
                tol = (8.0 * math.ulp(max(abs(float(root)), 1.0))
                       + float(2 ** -52 * (pred + spread) / slope))
                found.append((float(root), tol))
    return sorted(found)


def _reference_interval(analysis, band_level):
    """((t_m, tolerance), (t_M, tolerance)) of the reference crossings, or
    None if there are none; each fit's crossings from
    stability._crossings are checked against them on the way."""
    tp = eb.turning_points(analysis)
    lo = tp.t0 - stability.BRACKET_HALF_WIDTH
    hi = tp.t0 + stability.BRACKET_HALF_WIDTH
    found = []
    for model in (analysis.surplus_model, analysis.deficit_model):
        q = eb.t_quantile(1.0 - (1.0 - band_level) / 2.0, model.dof)
        want = _mp_crossings(model, q, tp.level, lo, hi)
        got = sorted(stability._crossings(model, q, tp.level, lo, hi))
        assert len(got) == len(want), (got, want)
        for t, (root, tol) in zip(got, want):
            assert abs(t - root) <= tol, (t, root, tol)
        found += want
    return (min(found), max(found)) if found else None


def _check_interval(analysis, band_level):
    want = _reference_interval(analysis, band_level)
    if want is None:
        with pytest.raises(eb.RootNotBracketed):
            eb.uncertainty_interval(analysis, band_level)
    else:
        iv = eb.uncertainty_interval(analysis, band_level)
        for t, (root, tol) in zip((iv.t_m, iv.t_M), want):
            assert abs(t - root) <= tol


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
        _check_interval(analysis, band_level)
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


_LEVEL_RNG = random.Random(1820)
SCAN_LEVELS = tuple(sorted(_LEVEL_RNG.uniform(0.5, 0.999)
                           for _ in range(24)))


def _window_sample(analysis, band_level, points=3001):
    """The level and, at points evenly spaced t in t0 +- 15, t with the
    four band magnitudes less the level (the surplus fit's upper and
    lower, then the deficit fit's), each from band_envelope."""
    tp = eb.turning_points(analysis)
    lo = tp.t0 - stability.BRACKET_HALF_WIDTH
    hi = tp.t0 + stability.BRACKET_HALF_WIDTH
    sample = []
    for k in range(points):
        t = lo + (hi - lo) * k / (points - 1)
        s_lo, s_hi = band_envelope(analysis.surplus_model, t, band_level)
        d_lo, d_hi = band_envelope(analysis.deficit_model, t, band_level)
        sample.append((t, (s_hi - tp.level, s_lo - tp.level,
                           -d_lo - tp.level, -d_hi - tp.level)))
    return tp.level, sample


class TestScan:
    """Crossings where the bands meet the level at or near a cut."""

    @pytest.mark.parametrize("band_level", SCAN_LEVELS)
    def test_seeded_levels_match_reference(self, analyses, band_level):
        for analysis in analyses.values():
            _check_interval(analysis, band_level)

    @pytest.mark.parametrize("band_level", (0.5, 0.99))
    def test_band_on_level_at_grid_point(self, band_level):
        # with no variance every band is the prediction, and both
        # predictions meet the level at t0 = 0, which is always a cut;
        # exp(beta t) rounds to 1 on a run of floats ending at 0, a zero
        # counts as non-negative, so each crossing is bisect's root at
        # the run's lower edge, a float next to the last t below the level
        analysis = _toy_pairs()[0]
        tp = eb.turning_points(analysis)
        assert (tp.t0, tp.level) == (0.0, 10.0)
        iv = eb.uncertainty_interval(analysis, band_level)
        q = eb.t_quantile(1.0 - (1.0 - band_level) / 2.0, 15)
        ends = []
        for model in (analysis.surplus_model, analysis.deficit_model):
            def below(t):
                return abs(model.alpha) * math.exp(model.beta * t) < 10.0

            crossings = stability._crossings(model, q, 10.0, -15.0, 15.0)
            assert len(crossings) == 2 and len(set(crossings)) == 1
            t = crossings[0]
            assert -1e-15 < t <= 0.0
            assert (below(t) and not below(math.nextafter(t, 1.0))
                    or not below(t) and below(math.nextafter(t, -1.0)))
            ends.append(t)
        assert (iv.t_m, iv.t_M) == (min(ends), max(ends))

    @pytest.mark.parametrize("band_level", (0.5, 0.99))
    def test_two_bands_change_side_in_one_cell(self, band_level):
        # two crossings within 0.01 of each other, both found
        analysis = _toy_pairs()[15]
        _, sample = _window_sample(analysis, band_level)
        changes = [sum((v0 < 0.0) != (v < 0.0) for v0, v in zip(prev, values))
                   for (_, prev), (_, values) in zip(sample, sample[1:])]
        assert max(changes) >= 2
        _check_interval(analysis, band_level)


def _outcome(func, *args):
    try:
        return func(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _interval_ends(analysis, band_level):
    iv = eb.uncertainty_interval(analysis, band_level)
    return iv.t_m, iv.t_M


def _model(alpha, beta, mse, cov):
    return ExpFitModel(alpha=alpha, beta=beta, cov=cov, n=17, dof=15,
                       mse=mse, anova=_toy_model(alpha, beta, mse).anova)


def _counting_band_points(monkeypatch):
    """Patch stability._bands to record (model, t) at each call outside
    stability.bisect."""
    real_bands, real_bisect = stability._bands, stability.bisect
    calls, refining = [], []

    def counted_bands(model, q, t):
        if not refining:
            calls.append((id(model), t))
        return real_bands(model, q, t)

    def marked_bisect(*args):
        refining.append(True)
        try:
            return real_bisect(*args)
        finally:
            refining.pop()

    monkeypatch.setattr(stability, "_bands", counted_bands)
    monkeypatch.setattr(stability, "bisect", marked_bisect)
    return calls


def _assert_few_band_points(calls, analysis):
    """Outside bisect, each fit's bands are evaluated once at each cut:
    the window's two ends, t0, two roots of P and three zeros of k."""
    assert len(calls) == len(set(calls))
    for model in (analysis.surplus_model, analysis.deficit_model):
        assert 2 <= sum(m == id(model) for m, _ in calls) <= 8


def _underflowing_pair():
    """t0 = -9271.7 and a level of 9.6e-221: the deficit variance, e^{2 d t}
    times a near-singular cov, underflows in the window."""
    se_a, se_b = 0.05 * 395879.8, 1e-3
    c01 = -0.9999 * se_a * se_b
    return eb.GapAnalysis(
        _toy_model(155.25, 0.055185, 4.26e-4),
        _model(-395879.8, 0.056031, 0.0, ((se_a * se_a, c01),
                                         (c01, se_b * se_b))))


class TestSkippedStretches:
    """Extreme pairs: rates that take exp(beta t) out of the float range,
    variances that cancel, vanish or go negative in the window."""

    def test_matches_the_full_walk(self):
        # where every band value on a 3001-point walk of the window is
        # finite, h = (upper - L)(lower - L) of each fit changes sign at
        # most 4 times on it, and every band that changes side between
        # two walk points has a returned crossing between them
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def decades(lo, hi):
            return st.floats(lo, hi).map(lambda x: 10.0 ** x)

        # exact-exponential fits have mse 0 and cov 0; a near-singular cov
        # with correlation near -1 makes the variance cancel, a singular
        # one gives it a double root in the window, and one past -1 makes
        # it negative (sqrt's ValueError, as may rounding at the double
        # root); rates up to 200 put exp(beta t) beyond the float range
        mse = st.one_of(st.just(0.0), decades(-12.0, 12.0))
        correlation = st.one_of(st.just(-1.0), st.floats(-1.0, -0.999),
                                st.floats(-1.0, 1.0), st.floats(-1.1, -1.0))

        @st.composite
        def model(draw, alpha, beta, t0):
            se_a = abs(alpha) * draw(st.just(0.0) | decades(-9.0, 0.0))
            root = t0 + draw(st.floats(-15.0, 15.0))
            if draw(st.booleans()) and se_a and root:
                se_b, rho = se_a / (alpha * root), -1.0
            else:
                se_b = draw(st.just(0.0) | decades(-9.0, 0.0))
                rho = draw(correlation)
            c01 = rho * se_a * se_b
            return _model(alpha, beta, draw(mse),
                          ((se_a * se_a, c01), (c01, se_b * se_b)))

        @st.composite
        def pairs(draw):
            b = draw(decades(-3.0, 1.5))
            d = b * (1.0 + draw(decades(-3.0, 0.8)))
            a, c = draw(decades(-3.0, 6.0)), draw(decades(-3.0, 6.0))
            hypothesis.assume(b < d)
            t0 = math.log(a / c) / (d - b)
            return eb.GapAnalysis(draw(model(a, b, t0)),
                                  draw(model(-c, d, t0)))

        @hypothesis.settings(max_examples=200, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(pairs(), st.floats(1e-6, 0.9999, exclude_min=True,
                                             exclude_max=True))
        def check(analysis, band_level):
            tp = eb.turning_points(analysis)
            hypothesis.assume(math.isfinite(tp.level) and tp.level != 0.0)
            walk = _outcome(_window_sample, analysis, band_level)
            hypothesis.assume(not isinstance(walk[0], type) and all(
                map(math.isfinite, (v for _, vs in walk[1] for v in vs))))
            lo = tp.t0 - stability.BRACKET_HALF_WIDTH
            hi = tp.t0 + stability.BRACKET_HALF_WIDTH
            found = []
            for model, bands in ((analysis.surplus_model, (0, 1)),
                                 (analysis.deficit_model, (2, 3))):
                q = eb.t_quantile(1.0 - (1.0 - band_level) / 2.0, model.dof)
                got = _outcome(stability._crossings, model, q, tp.level,
                               lo, hi)
                if got == (ValueError, "math domain error"):
                    hypothesis.event("a variance below zero at a cut")
                    return
                ts = [t for t, _ in walk[1]]
                signs = [[vs[i] < 0.0 for i in bands] for _, vs in walk[1]]
                h = [upper != lower for upper, lower in signs]
                assert sum(x != y for x, y in zip(h, h[1:])) <= 4
                for t, u, before, after in zip(ts, ts[1:], signs, signs[1:]):
                    if before != after:
                        assert any(t <= r <= u for r in got)
                found += got
            want = ((min(found), max(found)) if found else
                    (eb.RootNotBracketed,
                     f"no band attains the level {tp.level:.6g} in "
                     f"[{lo:.6g}, {hi:.6g}]"))
            hypothesis.event("interval" if found else "no crossing")
            assert _outcome(_interval_ends, analysis, band_level) == want

        check()

    def test_variance_rounded_below_zero_is_raised(self):
        # a singular cov, mse 0: the surplus variance has a double root at
        # the window's lower end, where rounding takes it below zero, and
        # sqrt raises there
        se_a, se_b = 0.004626456678113612, -9.337075586463992e-06
        cov = ((se_a * se_a, -se_a * se_b), (-se_a * se_b, se_b * se_b))
        surplus = _model(1.5724852401864868, 0.05329199788871854, 0.0, cov)
        analysis = eb.GapAnalysis(
            surplus, _toy_model(-325.392280969419, 0.07106054190318938))
        lo = eb.turning_points(analysis).t0 - stability.BRACKET_HALF_WIDTH
        with pytest.raises(ValueError):
            eb.se_single(surplus, lo)
        assert _outcome(_interval_ends, analysis, 0.99) == (
            ValueError, "math domain error")

    @pytest.mark.parametrize("band_level", (0.5, 0.99))
    def test_bundled_scopes_evaluate_few_grid_points(self, analyses,
                                                     band_level, monkeypatch):
        calls = _counting_band_points(monkeypatch)
        for analysis in analyses.values():
            calls.clear()
            eb.uncertainty_interval(analysis, band_level)
            _assert_few_band_points(calls, analysis)

    def test_distant_bands_evaluate_only_the_window_ends(self, monkeypatch):
        # the pair of test_root_not_bracketed: every band is far from the
        # level throughout, so no cut is needed besides the window's ends
        # and the t where |pred| meets the level
        calls = _counting_band_points(monkeypatch)
        analysis = _toy_pairs()[3]
        with pytest.raises(eb.RootNotBracketed):
            eb.uncertainty_interval(analysis, 0.99)
        _assert_few_band_points(calls, analysis)
        t0 = eb.turning_points(analysis).t0
        lo = t0 - stability.BRACKET_HALF_WIDTH
        hi = t0 + stability.BRACKET_HALF_WIDTH
        for model in (analysis.surplus_model, analysis.deficit_model):
            ts = sorted(t for m, t in calls if m == id(model))
            assert ts[0] == lo and ts[-1] == hi and len(ts) <= 3

    def test_bands_are_evaluated_at_few_points(self, monkeypatch):
        # the toy pairs and a pair whose deficit variance underflows
        cases = [(analysis, 0.99) for analysis in _toy_pairs()]
        cases.append((_underflowing_pair(), 0.1277))
        calls = _counting_band_points(monkeypatch)
        for analysis, band_level in cases:
            calls.clear()
            _outcome(_interval_ends, analysis, band_level)
            _assert_few_band_points(calls, analysis)
