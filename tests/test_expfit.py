"""Regression numerics: quantiles, fits, ANOVA, prediction bands."""
import math

import pytest

import eubalance as eb
from eubalance.expfit import AnovaTable, ExpFitModel, se_single

import golden_values as gv

SERIES = ("eu9plus", "eu18minus", "euro7plus", "euro10minus")


def _ssr(points, a, b):
    return math.fsum((y - a * math.exp(b * t)) ** 2 for t, y in points)


class TestTQuantile:
    def test_oracle_values(self):
        for p, dof, want in gv.T_QUANTILES:
            assert abs(eb.t_quantile(p, dof) - want) <= 1e-9

    def test_median_and_symmetry(self):
        assert eb.t_quantile(0.5, 7) == 0.0
        assert eb.t_quantile(0.1, 7) == -eb.t_quantile(0.9, 7)

    def test_scipy_oracle(self):
        stats = pytest.importorskip("scipy.stats")
        # kept at |p - 0.5| >= 0.01: nearer the median scipy itself is off
        # (it gives 0.0 at p = 0.5 - 1e-9, dof 4)
        tails = [10.0 ** -k for k in range(12, 0, -1)] + [0.2, 0.3, 0.4,
                                                          0.45, 0.49]
        failures = []
        for dof in range(1, 201):
            for p in tails + [1.0 - q for q in tails]:
                want = stats.t.ppf(p, dof)
                got = eb.t_quantile(p, dof)
                if abs(got - want) > 1e-9 * abs(want):
                    failures.append((p, dof, got, want))
        assert failures == []

    def test_monotone_in_p(self):
        qs = [eb.t_quantile(p, 11) for p in (0.6, 0.7, 0.8, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert all(q > 0 for q in qs)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eb.t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            eb.t_quantile(1.0, 5)
        with pytest.raises(ValueError):
            eb.t_quantile(0.9, 0)


class TestFitExact:
    def test_recovers_exact_exponential(self):
        points = [(t, 5.0 * math.exp(0.3 * t)) for t in range(6)]
        model = eb.fit_exponential(points)
        assert model.alpha == pytest.approx(5.0, rel=1e-9)
        assert model.beta == pytest.approx(0.3, rel=1e-9)
        assert model.mse == pytest.approx(0.0, abs=1e-18)
        assert eb.r_squared(model) == pytest.approx(1.0, abs=1e-15)

    def test_negative_series(self):
        points = [(t, -2.0 * math.exp(0.25 * t)) for t in range(6)]
        model = eb.fit_exponential(points)
        assert model.alpha == pytest.approx(-2.0, rel=1e-9)
        assert model.beta == pytest.approx(0.25, rel=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            eb.fit_exponential([(0, 1.0), (1, 2.0)])

    def test_singular_design(self):
        with pytest.raises(eb.SingularJacobian):
            eb.fit_exponential([(1, 2.0), (1, 2.1), (1, 1.9)])

    def test_all_zero_series(self):
        with pytest.raises(eb.SingularJacobian):
            eb.fit_exponential([(0, 0.0), (1, 0.0), (2, 0.0)])


class TestFitGoldens:
    def test_parameters(self, models):
        for key in SERIES:
            alpha, se_a, _, beta, se_b, _, *_ = gv.SUMMARIES[key]
            model = models[key]
            assert model.alpha == pytest.approx(alpha, rel=5e-4)
            assert model.beta == pytest.approx(beta, rel=5e-4)
            assert model.se_alpha == pytest.approx(se_a, rel=5e-3)
            assert model.se_beta == pytest.approx(se_b, rel=5e-3)

    def test_confidence_intervals(self, models):
        for key in SERIES:
            _, _, ci_a, _, _, ci_b, *_ = gv.SUMMARIES[key]
            (alo, ahi), (blo, bhi) = eb.param_confidence_interval(
                models[key], 0.95)
            assert alo == pytest.approx(ci_a[0], rel=5e-3)
            assert ahi == pytest.approx(ci_a[1], rel=5e-3)
            assert blo == pytest.approx(ci_b[0], rel=5e-3)
            assert bhi == pytest.approx(ci_b[1], rel=5e-3)

    def test_r_squared(self, models):
        for key in SERIES:
            want = gv.SUMMARIES[key][-1]
            assert abs(eb.r_squared(models[key]) - want) <= 1e-5

    def test_anova_sums(self, models):
        for key in SERIES:
            (*_, ss_model, ss_error, ms_error, ss_uncorr, ss_corr,
             _) = gv.SUMMARIES[key]
            an = models[key].anova
            assert an.ss_model == pytest.approx(ss_model, rel=5e-3)
            assert an.ss_error == pytest.approx(ss_error, rel=5e-3)
            assert an.ss_uncorrected_total == pytest.approx(ss_uncorr,
                                                            rel=5e-3)
            assert an.ss_corrected_total == pytest.approx(ss_corr, rel=5e-3)
            if ms_error is not None:
                assert models[key].mse == pytest.approx(ms_error, rel=5e-3)
            assert (an.df_model, an.df_error, an.df_uncorrected,
                    an.df_corrected) == (2, 15, 17, 16)

    def test_anova_closure(self, models):
        for key in SERIES:
            an = models[key].anova
            assert an.ss_model + an.ss_error == pytest.approx(
                an.ss_uncorrected_total, rel=1e-9)

    def test_normal_equations_at_optimum(self, models, fit_points):
        # the gradient components cancel to rounding noise, so they are
        # judged against the magnitude of the terms being summed
        for key in SERIES:
            model = models[key]
            for weight in (lambda t: 1.0, lambda t: model.alpha * t):
                terms = [weight(t) * math.exp(model.beta * t)
                         * (y - model.alpha * math.exp(model.beta * t))
                         for t, y in fit_points[key]]
                scale = math.fsum(abs(v) for v in terms)
                assert abs(math.fsum(terms)) <= 1e-8 * scale

    def test_perturbation_does_not_improve(self, models, fit_points):
        for key in SERIES:
            model = models[key]
            base = _ssr(fit_points[key], model.alpha, model.beta)
            for eps in (1e-5, 1e-4, 1e-3):
                for da in (-eps, 0.0, eps):
                    for db in (-eps, 0.0, eps):
                        if da == db == 0.0:
                            continue
                        trial = _ssr(fit_points[key],
                                     model.alpha * (1 + da),
                                     model.beta * (1 + db))
                        assert trial >= base


class TestJacobian:
    def test_matches_finite_differences(self, models):
        for key in SERIES:
            model = models[key]
            a, b = model.alpha, model.beta
            for t in (0.0, 4.0, 9.0, 16.0):
                f = lambda aa, bb: aa * math.exp(bb * t)
                ha, hb = abs(a) * 1e-7, max(abs(b), 1e-3) * 1e-7
                d_a = (f(a + ha, b) - f(a - ha, b)) / (2 * ha)
                d_b = (f(a, b + hb) - f(a, b - hb)) / (2 * hb)
                j_a = math.exp(b * t)
                j_b = a * t * math.exp(b * t)
                assert d_a == pytest.approx(j_a, rel=1e-6)
                assert d_b == pytest.approx(j_b, rel=1e-6, abs=1e-9)


class TestPredict:
    def test_band_calibration(self, models):
        model = models["eu9plus"]
        q = eb.t_quantile(0.975, model.dof)
        for t in (0.0, 10.0, 20.0):
            row = eb.predict(model, t, level=0.95)
            assert row.ci_high - row.predicted == pytest.approx(
                q * row.se_single, rel=1e-6)
            assert row.predicted - row.ci_low == pytest.approx(
                q * row.se_single, rel=1e-6)

    def test_se_single_grows_on_forecast_range(self, models):
        for key in SERIES:
            ses = [se_single(models[key], float(t)) for t in range(16, 26)]
            assert all(s2 > s1 for s1, s2 in zip(ses, ses[1:]))

    def test_se_combines_residual_and_parameter_variance(self, models):
        model = models["euro7plus"]
        assert se_single(model, 8.0) > math.sqrt(model.mse)

    def test_observed_passthrough(self, models):
        row = eb.predict(models["eu9plus"], 3.0, observed=195.566)
        assert row.observed == 195.566

    def test_level_validation(self, models):
        with pytest.raises(ValueError):
            eb.predict(models["eu9plus"], 1.0, level=1.0)
        with pytest.raises(ValueError):
            eb.param_confidence_interval(models["eu9plus"], 0.0)


class TestDegenerate:
    def test_degenerate_total(self):
        anova = AnovaTable(ss_model=0.0, ss_error=0.0,
                           ss_uncorrected_total=0.0, ss_corrected_total=0.0,
                           df_model=2, df_error=3, df_uncorrected=5,
                           df_corrected=4)
        model = ExpFitModel(alpha=1.0, beta=0.1,
                            cov=((0.0, 0.0), (0.0, 0.0)), n=5, dof=3,
                            mse=0.0, anova=anova)
        with pytest.raises(eb.DegenerateTotal):
            eb.r_squared(model)
