"""Regression numerics: quantiles, fits, ANOVA, prediction bands."""
import math
import random
import sys

import pytest

import eubalance as eb
from eubalance import expfit
from eubalance.expfit import AnovaTable, ExpFitModel, bisect, se_single

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

    def test_mpmath_oracle_near_the_median(self):
        # a 40-digit root of P(0 < T < |x|) = |p - 0.5|: near the median
        # dof / (dof + x^2) rounds x^2 away, and only x^2 / (dof + x^2),
        # the argument taken here, resolves x
        mpmath = pytest.importorskip("mpmath")
        ps = [0.5 + s * 10.0 ** -k for k in range(1, 13) for s in (1, -1)]
        failures = []
        with mpmath.workdps(40):
            for dof in (1, 2, 3, 5, 15, 100):
                for p in ps + [0.50011, 0.5002]:
                    got = eb.t_quantile(p, dof)
                    centre = abs(mpmath.mpf(p) - 0.5)

                    def gap(x):
                        z = x * x / (dof + x * x)
                        return mpmath.betainc(0.5, dof / 2, 0, z,
                                              regularized=True) / 2 - centre
                    want = mpmath.findroot(gap, (abs(got) * 0.99,
                                                 abs(got) * 1.01))
                    if (p > 0.5) != (got > 0) or abs(
                            abs(got) - want) > 1e-13 * want:
                        failures.append((p, dof, got, float(want)))
        assert failures == []

    def test_monotone_in_p(self):
        qs = [eb.t_quantile(p, 11) for p in (0.6, 0.7, 0.8, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert all(q > 0 for q in qs)

    def test_monotone_near_the_median(self):
        # p from 1e-14 to 0.4 either side of the median, across p = 0.25
        # and 0.75, where the centre and tail inversions meet; offsets of
        # 4 significant digits keep neighbours apart by more than the
        # quantile's own error (adjacent floats near 0.25 may swap)
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        offsets = st.builds(lambda m, e: m * 10.0 ** -e,
                            st.integers(1000, 9999), st.integers(4, 17))
        offsets = offsets.filter(lambda d: 1e-14 <= d <= 0.4)
        probabilities = st.one_of(offsets.map(lambda d: 0.5 + d),
                                  offsets.map(lambda d: 0.5 - d),
                                  st.sampled_from((0.25, 0.75)))

        @hypothesis.settings(max_examples=500, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.lists(probabilities, min_size=2, max_size=8,
                                   unique=True).map(sorted),
                          st.integers(1, 200))
        def check(ps, dof):
            qs = [eb.t_quantile(p, dof) for p in ps]
            assert qs == sorted(qs)

        check()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eb.t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            eb.t_quantile(1.0, 5)
        with pytest.raises(ValueError):
            eb.t_quantile(0.9, 0)


class TestBisect:
    """bisect ends at the float-adjacent sign change of its function, a
    zero counting as non-negative, whichever end of the bracket is the
    negative one."""

    @staticmethod
    def _property(size):
        """Runs a check on `size` sorted distinct floats and two booleans."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        points = st.lists(st.floats(-1e300, 1e300), min_size=size,
                          max_size=size, unique=True).map(sorted)
        settings = hypothesis.settings(max_examples=1000, deadline=None,
                                       database=None, derandomize=True)
        return lambda check: settings(hypothesis.given(
            points, st.booleans(), st.booleans())(check))

    def test_line_root_within_one_float(self):
        @self._property(3)
        def check(points, rising, at_end):
            lo, mid, hi = points
            # the sign changes between c and the float below it on a rising
            # line, between c and the float above it on a falling one
            if rising:
                c = hi if at_end else mid
                x = bisect(lambda v: v - c, lo, hi)
                assert x in (math.nextafter(c, -math.inf), c)
            else:
                c = lo if at_end else mid
                x = bisect(lambda v: c - v, lo, hi)
                assert x in (c, math.nextafter(c, math.inf))

        check()

    def test_run_of_zeros_ends_at_its_edge(self):
        @self._property(4)
        def check(points, rising, _):
            lo, a, b, hi = points

            def ramp(v):  # exact zeros on [a, b]
                return v - a if v < a else v - b if v > b else 0.0

            if rising:
                x = bisect(ramp, lo, hi)
                assert x in (math.nextafter(a, -math.inf), a)
            else:
                x = bisect(lambda v: -ramp(v), lo, hi)
                assert x in (b, math.nextafter(b, math.inf))

        check()


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
        for t in (1, 0):  # all at t = 0, no beta would overflow exp(beta t)
            with pytest.raises(eb.SingularJacobian):
                eb.fit_exponential([(t, 2.0), (t, 2.1), (t, 1.9)])

    def test_all_zero_series(self):
        with pytest.raises(eb.SingularJacobian):
            eb.fit_exponential([(0, 0.0), (1, 0.0), (2, 0.0)])


class TestBoundedSearch:
    """The beta search starts at the log-linear slope and stays where every
    exp(2 beta t), and their sum, is a finite nonzero float."""

    @pytest.fixture
    def betas(self, monkeypatch):
        """The beta of every profile evaluation, in call order."""
        calls = []
        profile = expfit._profile

        def counted(ts, ys, b):
            calls.append(b)
            return profile(ts, ys, b)
        monkeypatch.setattr(expfit, "_profile", counted)
        return calls

    def test_constant_series(self, betas):
        # log-linear slope 0, where the SSR's slope in beta is exactly 0
        model = eb.fit_exponential([(t, 3.0) for t in range(17)])
        assert model.alpha == pytest.approx(3.0, rel=1e-15)
        assert abs(model.beta) < 1e-15
        assert model.mse < 1e-30

    def test_minimum_below_resolution_is_a_fit_error(self, betas):
        # The SSR is least near beta = ln(1e-9), where every exp(beta t)
        # for t >= 1 vanishes beside the t = 0 term of J'J: a singular fit,
        # found in a few dozen profile evaluations.
        with pytest.raises(eb.FitError):
            eb.fit_exponential([(t, 1.0 if t == 0 else 1e-9)
                                for t in range(17)])
        assert betas[-1] == pytest.approx(math.log(1e-9), abs=0.01)
        assert len(betas) <= 64

    @pytest.mark.parametrize("points", (
        [(t, 1e6 if t == 100 else 1.0) for t in range(101)],
        [(t, math.exp(5.0 * t - 500.0)) for t in range(101)],
    ), ids=("jump-at-the-end", "log-linear-slope-past-the-limit"))
    def test_minimum_past_the_float_range_is_no_convergence(self, betas,
                                                            points):
        # the least-squares beta is about ln(1e6) = 13.8, or 5; exp(2 beta t)
        # and its sum over t = 0..100 stay finite only for |beta| <= 3.526
        limit = math.log(sys.float_info.max / 101) / 200.0
        message = (r"dSSR/dbeta shows no sign change within "
                   r"\|beta\| <= 3\.52584")
        with pytest.raises(eb.NoConvergence, match=message):
            eb.fit_exponential(points)
        assert max(betas) == limit
        assert len(betas) <= 64

    def test_slope_lost_in_rounding_is_named_as_such(self):
        # the least-squares beta, 21.5, lies inside the limit, but terms
        # differ by factors of e^21.5: the largest residual's rounding
        # swamps the slope from the rest, and no sign change is seen
        points = [(t, math.exp(21.5 * t - 344.0)) for t in range(17)]
        message = (r"^dSSR/dbeta shows no sign change within "
                   r"\|beta\| <= 22\.0922$")
        with pytest.raises(eb.NoConvergence, match=message):
            eb.fit_exponential(points)


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

    def test_slope_vanishes_at_50_digits(self, models, fit_points):
        # d SSR / d beta at the fitted (alpha, beta), summed exactly enough
        # that only the fit's own error shows
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for key in SERIES:
                a = mpmath.mpf(models[key].alpha)
                b = mpmath.mpf(models[key].beta)
                terms = [(y - a * mpmath.exp(b * t)) * a * t
                         * mpmath.exp(b * t) for t, y in fit_points[key]]
                scale = mpmath.fsum(abs(v) for v in terms)
                assert abs(mpmath.fsum(terms)) <= 1e-14 * scale, key

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

    def test_least_squares_oracle(self, models, fit_points):
        np = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        for key in SERIES:
            t = np.array([p[0] for p in fit_points[key]], dtype=float)
            y = np.array([p[1] for p in fit_points[key]], dtype=float)
            start = (gv.SUMMARIES[key][0], gv.SUMMARIES[key][3])
            result = optimize.least_squares(
                lambda p: p[0] * np.exp(p[1] * t) - y, start,
                ftol=1e-15, xtol=1e-15, gtol=1e-15)
            alpha, beta = map(float, result.x)
            model = models[key]
            assert model.alpha == pytest.approx(alpha, rel=1e-6)
            assert model.beta == pytest.approx(beta, rel=1e-6)
            theirs = _ssr(fit_points[key], alpha, beta)
            assert _ssr(fit_points[key], model.alpha, model.beta) <= \
                theirs * (1.0 + 1e-12)


class TestFitOracle:
    """fit_exponential against scipy on seeded alpha * exp(beta * t) plus
    Gaussian noise, t = 0..16, with the bundled oracle's bounds. beta is
    drawn from [-0.35, 0.35], so the search runs both up and down."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_least_squares_on_generated_series(self, seed):
        np = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(seed)
        t = np.arange(17, dtype=float)
        for _ in range(200):
            alpha = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 3.0)
            beta = rng.uniform(-0.35, 0.35)
            sigma = 0.05 * abs(alpha) * math.exp(8.0 * beta)
            points = [(float(ti), alpha * math.exp(beta * ti)
                       + rng.gauss(0.0, sigma)) for ti in t]
            y = np.array([p[1] for p in points])
            result = optimize.least_squares(
                lambda p: p[0] * np.exp(p[1] * t) - y, (alpha, beta),
                ftol=1e-15, xtol=1e-15, gtol=1e-15)
            a, b = map(float, result.x)
            model = eb.fit_exponential(points)
            assert model.alpha == pytest.approx(a, rel=1e-6)
            assert model.beta == pytest.approx(b, rel=1e-6)
            assert _ssr(points, model.alpha, model.beta) <= \
                _ssr(points, a, b) * (1.0 + 1e-12)


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

    def test_level_validation(self, models):
        with pytest.raises(ValueError):
            eb.predict(models["eu9plus"], 1.0, level=1.0)
        with pytest.raises(ValueError):
            eb.param_confidence_interval(models["eu9plus"], 0.0)

    def test_level_too_close_to_one_is_named(self, models, analyses):
        # 1 - (1 - level) / 2 rounds to 1.0 here, which t_quantile rejects
        # as "p must lie in (0, 1), got 1.0"; each entry point names the
        # level instead
        level = math.nextafter(1.0, 0.0)
        model, analysis = models["eu9plus"], analyses["eu"]
        for call, name in (
                (lambda: eb.predict(model, 1.0, level=level), "level"),
                (lambda: eb.param_confidence_interval(model, level),
                 "level"),
                (lambda: eb.band_envelope(model, 1.0, level), "level"),
                (lambda: eb.uncertainty_interval(analysis, level),
                 "band_level")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == (f"{name} {level!r} is too close to 1 "
                                       f"for a two-sided interval")


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
