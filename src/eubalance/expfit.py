"""Exponential growth model fitting with full regression statistics.

Fits y = alpha * exp(beta * t) by least squares with alpha profiled out: beta
is a root of d SSR / d beta, bracketed from the slope of the line through (t,
ln|y|) and solved by bisect, the package's one bracketed solver (false
position with the Illinois rule, then halving). Reports the covariance
mse*(J'J)^-1 of the Jacobian [exp(bt), a*t*exp(bt)], an ANOVA decomposition in
the uncorrected-total convention, R^2 = 1 - SSE/SSU, and single-prediction
confidence intervals that combine residual variance with parameter variance.

The Student-t quantile needed by every interval is computed here from the
regularized incomplete beta function; no external statistics library.
"""
from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from functools import lru_cache

from .dataset import _Frozen


class FitError(Exception):
    """Base class for regression failures."""


class NoConvergence(FitError):
    """d SSR / d beta shows no sign change within the bounded search."""


class SingularJacobian(FitError):
    """Normal equations are singular (e.g. all observations at one t)."""


class DegenerateTotal(FitError):
    """Uncorrected total sum of squares is zero; R^2 undefined."""


class AnovaTable(_Frozen):
    __slots__ = ("ss_model", "ss_error", "ss_uncorrected_total",
                 "ss_corrected_total", "df_model", "df_error",
                 "df_uncorrected", "df_corrected")


class ExpFitModel(_Frozen):
    __slots__ = ("alpha", "beta", "cov", "n", "dof", "mse", "anova")

    @property
    def se_alpha(self) -> float:
        return math.sqrt(self.cov[0][0])

    @property
    def se_beta(self) -> float:
        return math.sqrt(self.cov[1][1])


class PredictionRow(_Frozen):
    __slots__ = ("t", "predicted", "se_single", "ci_low", "ci_high", "level")


# ---------------------------------------------------------------------------
# Student-t quantile via the regularized incomplete beta function.

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    # m runs over exact floats: float-only arithmetic gives the same values
    # faster than mixing in ints. Each m takes an even and an odd half-step.
    for m in map(float, range(1, 300)):
        m2 = 2.0 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by its continued fraction, for x < (a + 1) / (a + b + 2)."""
    if x <= 0.0:
        return 0.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    return math.exp(ln_front) * _betacf(a, b, x) / a


def _t_centre(x: float, dof: int) -> float:
    """P(0 < T < x) for x >= 0."""
    xx = x * x
    return 0.5 * _reg_inc_beta(0.5, dof / 2.0, xx / (dof + xx))


def _t_tail(x: float, dof: int) -> float:
    """P(T > x) for x >= 0, through the incomplete-beta argument that
    _reg_inc_beta takes (Press et al., Numerical Recipes, 6.4)."""
    xx = x * x
    if xx * (dof + 2.0) < 3.0 * dof:
        return 0.5 - _t_centre(x, dof)
    return 0.5 * _reg_inc_beta(dof / 2.0, 0.5, dof / (dof + xx))


def bisect(func, lo: float, hi: float) -> float:
    """A root of func in [lo, hi], lo < hi, func negative at one end and
    not at the other, either way round. False position with the Illinois
    rule (an end left in place twice running has its value halved; Dowell
    & Jarratt, BIT 11, 1971) runs while its point falls strictly inside,
    then halving until the ends are adjacent floats; the last midpoint is
    returned. A zero counts as non-negative, so the result lies at the
    edge of any run of exact zeros."""
    flo, fhi = func(lo), func(hi)
    below = flo < 0.0
    moved = None  # True after lo moved, False after hi moved
    while lo < (x := (lo * fhi - hi * flo) / (fhi - flo)) < hi:
        if ((fx := func(x)) < 0.0) == below:
            lo, flo, fhi = x, fx, fhi / 2.0 if moved is True else fhi
        else:
            hi, fhi, flo = x, fx, flo / 2.0 if moved is False else flo
        moved = (fx < 0.0) == below
    while lo < (x := 0.5 * (lo + hi)) < hi:
        if (func(x) < 0.0) == below:
            lo = x
        else:
            hi = x
    return x


@lru_cache(maxsize=1024)
def t_quantile(p: float, dof: int) -> float:
    """Inverse CDF of Student's t. Against 40-digit roots it is within 2e-14
    relative for dof <= 30 and 3e-13 for dof <= 200, the error growing with
    dof from lgamma's rounding in the incomplete beta's front factor."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if p == 0.5:
        return 0.0
    sign = 1.0 if p > 0.5 else -1.0
    if 0.25 < p < 0.75:  # p - 0.5 is exact: invert P(0 < T < x) = |p - 0.5|
        centre = abs(p - 0.5)
        return sign * bisect(lambda v: _t_centre(v, dof) - centre, 0.0, 2.0)
    # Beyond, invert the tail probability, not the CDF, whose 1 - tail would
    # round the far tail away. Above the median the tail is 1 - p, exact.
    # Below it, p is mirrored to 1 - p, so that t_quantile(p) equals
    # -t_quantile(1 - p), at a cost of up to 2**-54 in the tail; below 1e-3
    # (relative cost above 5e-14) p itself is the tail.
    if 1e-3 <= p < 0.5:
        return -t_quantile(1.0 - p, dof)
    tail = min(p, 1.0 - p)
    hi = 2.0
    while _t_tail(hi, dof) > tail:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("quantile out of range")
    return sign * bisect(lambda v: tail - _t_tail(v, dof), 0.0, hi)


# ---------------------------------------------------------------------------
# Least squares for y = alpha * exp(beta * t) with alpha profiled out
# (variable projection): at a fixed beta the best alpha is closed form, so
# the fit is the root of g (see _profile) at a minimum of the SSR.

def _profile(ts, ys, b):
    """alpha(b) = sum y e / sum e^2, the best alpha at beta = b, g(b) =
    sum (y - alpha(b) e) t e, e = exp(b t): d SSR / d beta = -2 alpha g,
    and the list of e."""
    es = [math.exp(b * t) for t in ts]
    a = math.fsum(map(operator.mul, ys, es)) / math.fsum(e * e for e in es)
    g = math.fsum([(y - a * e) * t * e for t, y, e in zip(ts, ys, es)])
    if not math.isfinite(a * g):
        raise OverflowError("the fit overflows the float range")
    return a, g, es


def _log_linear_init(ts, ys):
    pts = [(t, math.log(abs(y))) for t, y in zip(ts, ys) if y != 0.0]
    if len({t for t, _ in pts}) < 2:
        raise SingularJacobian("need two distinct t with nonzero y to initialize")
    n = len(pts)
    sx = math.fsum(t for t, _ in pts)
    sy = math.fsum(v for _, v in pts)
    sxx = math.fsum(t * t for t, _ in pts)
    sxy = math.fsum(t * v for t, v in pts)
    denom = n * sxx - sx * sx
    if denom == 0.0:
        raise SingularJacobian("degenerate design in initialization")
    return (n * sxy - sx * sy) / denom


def fit_exponential(points: Sequence[tuple[float, float]]) -> ExpFitModel:
    """Least-squares fit of alpha * exp(beta * t) to (t, y) points."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    ts = [float(t) for t, _ in points]
    ys = [float(y) for _, y in points]
    n = len(ts)
    b = _log_linear_init(ts, ys)  # raises unless two t differ
    # every e^(2bt), and their sum, is a finite nonzero float for |b| <= limit
    limit = math.log(sys.float_info.max / n) / (2.0 * max(map(abs, ts)))

    def slope(b):  # half the slope of the SSR in beta, at alpha(b)
        a, g, _ = _profile(ts, ys, b)
        return -a * g

    x1 = min(max(b, -limit), limit)
    f0 = f1 = slope(x1)
    step = abs(x1) or limit
    while (f1 < 0.0) == (f0 < 0.0):  # step downhill, doubling the step
        x0, f0 = x1, f1
        x1 = max(x0 - step, -limit) if f0 >= 0.0 else min(x0 + step, limit)
        if x1 == x0:
            raise NoConvergence("dSSR/dbeta shows no sign change within "
                                f"|beta| <= {limit:.6g}")
        f1, step = slope(x1), 2.0 * step
    b = bisect(slope, min(x0, x1), max(x0, x1))
    a, _, es = _profile(ts, ys, b)

    dof = n - 2
    ssr = math.fsum((y - a * e) ** 2 for y, e in zip(ys, es))
    mse = ssr / dof
    # J'J for the Jacobian [e, a t e]; s11 > 0 for |b| <= limit
    j2 = [a * t * e for t, e in zip(ts, es)]
    s11, s12, s22 = (math.fsum(map(operator.mul, u, v))
                     for u, v in ((es, es), (es, j2), (j2, j2)))
    if not all(map(math.isfinite, (s11, s12, s22))):
        raise OverflowError("normal equations overflow the float range")
    det = s11 * s22 - s12 * s12
    scale = max(s11, s22, abs(s12))
    if abs(det) < 1e-14 * scale * scale:
        raise SingularJacobian("normal equations are singular")
    cov = ((s22 * mse / det, -s12 * mse / det),  # mse * (J'J)^-1
           (-s12 * mse / det, s11 * mse / det))

    ssu = math.fsum(y * y for y in ys)
    ybar = math.fsum(ys) / n
    ssc = math.fsum((y - ybar) ** 2 for y in ys)
    anova = AnovaTable(ss_model=ssu - ssr, ss_error=ssr,
                       ss_uncorrected_total=ssu, ss_corrected_total=ssc,
                       df_model=2, df_error=dof, df_uncorrected=n,
                       df_corrected=n - 1)
    return ExpFitModel(alpha=a, beta=b, cov=cov, n=n, dof=dof, mse=mse,
                       anova=anova)


def r_squared(model: ExpFitModel) -> float:
    """Determination coefficient, 1 - SSE / sum(y^2)."""
    ssu = model.anova.ss_uncorrected_total
    if ssu <= 0.0:
        raise DegenerateTotal("uncorrected total sum of squares is zero")
    return 1.0 - model.anova.ss_error / ssu


def _two_sided(level: float, name: str = "level") -> float:
    """1 - (1 - level) / 2 for a two-sided interval, checked to be below 1."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {level}")
    p = 1.0 - (1.0 - level) / 2.0
    if p == 1.0:
        raise ValueError(f"{name} {level} is too close to 1 for a two-sided "
                         f"interval")
    return p


def param_confidence_interval(model: ExpFitModel, level: float):
    """Symmetric t intervals for (alpha, beta) at the given confidence."""
    q = t_quantile(_two_sided(level), model.dof)
    return ((model.alpha - q * model.se_alpha, model.alpha + q * model.se_alpha),
            (model.beta - q * model.se_beta, model.beta + q * model.se_beta))


def se_single(model: ExpFitModel, t: float) -> float:
    """Standard error for one new observation at t."""
    e = math.exp(model.beta * t)
    g1, g2 = e, model.alpha * t * e
    c = model.cov
    var_mean = (g1 * (c[0][0] * g1 + c[0][1] * g2)
                + g2 * (c[1][0] * g1 + c[1][1] * g2))
    return math.sqrt(model.mse + var_mean)


def predict(model: ExpFitModel, t: float,
            level: float = 0.95) -> PredictionRow:
    """Point prediction at t with a single-observation confidence interval."""
    q = t_quantile(_two_sided(level), model.dof)
    pred = model.alpha * math.exp(model.beta * t)
    se = se_single(model, t)
    return PredictionRow(t=t, predicted=pred, se_single=se,
                         ci_low=pred - q * se, ci_high=pred + q * se,
                         level=level)
