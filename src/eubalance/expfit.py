"""Exponential growth model fitting with full regression statistics.

Fits y = alpha * exp(beta * t) by Levenberg-Marquardt with the analytic
Jacobian [exp(bt), a*t*exp(bt)], initialized from an ordinary least squares
line through (t, ln|y|). Reports the parameter covariance mse*(J'J)^-1, an
ANOVA decomposition in the uncorrected-total convention, the determination
coefficient R^2 = 1 - SSE/SSU, and single-prediction confidence intervals
that combine residual variance with parameter variance.

The Student-t quantile needed by every interval is computed here from the
regularized incomplete beta function; no external statistics library.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .dataset import _Frozen

MAX_ITER = 200
REL_TOL = 1e-12


class FitError(Exception):
    """Base class for regression failures."""


class NoConvergence(FitError):
    """Iteration cap reached before the convergence criteria were met."""


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
    __slots__ = ("t", "observed", "predicted", "se_single", "ci_low",
                 "ci_high", "level")


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
    """I_x(a, b), switching tails so the continued fraction converges fast."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_tail(x: float, dof: int) -> float:
    """P(T > x) for x >= 0."""
    return 0.5 * _reg_inc_beta(dof / 2.0, 0.5, dof / (dof + x * x))


def _t_pdf(x: float, dof: int) -> float:
    ln = (math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)
          - 0.5 * math.log(dof * math.pi)
          - (dof + 1) / 2.0 * math.log1p(x * x / dof))
    return math.exp(ln)


def bisect(func, lo: float, hi: float) -> float:
    """A root of func in [lo, hi], lo < hi, where func changes sign.

    Halves the bracket until its ends are adjacent floats and returns the
    last midpoint. A zero of func counts as non-negative, so the result
    lies at the edge of any run of exact zeros.
    """
    below = func(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (func(mid) < 0.0) == below:
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=1024)
def t_quantile(p: float, dof: int) -> float:
    """Inverse CDF of Student's t, to about 1e-11 relative."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if p == 0.5:
        return 0.0
    # Invert the tail probability, not the CDF, so the far tail is not lost
    # in 1 - tail rounding. Above the median the tail is 1 - p, exact there.
    # Below it, p is mirrored to 1 - p, which keeps t_quantile(p) equal to
    # -t_quantile(1 - p); the mirror moves the tail by up to 2**-54, so
    # below 1e-3 (relative cost above 5e-14) p itself is the tail.
    if p < 0.5:
        if p >= 1e-3:
            return -t_quantile(1.0 - p, dof)
        sign, tail = -1.0, p
    else:
        sign, tail = 1.0, 1.0 - p
    # Near the median the CDF loses all resolution (dof/(dof+x*x) rounds
    # to 1.0 below |x| ~ 4e-8), so invert the odd series cdf(x) - 1/2 =
    # pdf(0) * (x - (dof+1) x^3 / (6 dof) + ...) instead.
    u = (0.5 - tail) / _t_pdf(0.0, dof)
    if abs(u) < 1e-4:
        return sign * (u + (dof + 1) / (6.0 * dof) * u ** 3)
    # bracket, bisect, then Newton-polish with the analytic density
    hi = 2.0
    while _t_tail(hi, dof) > tail:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("quantile out of range")
    x = bisect(lambda v: tail - _t_tail(v, dof), 0.0, hi)
    for _ in range(3):
        x += (_t_tail(x, dof) - tail) / _t_pdf(x, dof)
    return sign * x


# ---------------------------------------------------------------------------
# Levenberg-Marquardt for y = alpha * exp(beta * t).

def _ssr(ts: Sequence[float], ys: Sequence[float], a: float, b: float) -> float:
    return math.fsum((y - a * math.exp(b * t)) ** 2 for t, y in zip(ts, ys))


def _normal_terms(ts, ys, a, b):
    """J'J entries and gradient J'r at (a, b)."""
    e11, e12, e22, f1, f2 = [], [], [], [], []
    for t, y in zip(ts, ys):
        e = math.exp(b * t)
        j1 = e
        j2 = a * t * e
        r = y - a * e
        e11.append(j1 * j1)
        e12.append(j1 * j2)
        e22.append(j2 * j2)
        f1.append(j1 * r)
        f2.append(j2 * r)
    s11, s12, s22 = math.fsum(e11), math.fsum(e12), math.fsum(e22)
    g1, g2 = math.fsum(f1), math.fsum(f2)
    return s11, s12, s22, g1, g2


def _solve2(a11: float, a12: float, a22: float, b1: float, b2: float):
    det = a11 * a22 - a12 * a12
    scale = max(abs(a11), abs(a22), abs(a12))
    if scale == 0.0 or abs(det) < 1e-14 * scale * scale:
        raise SingularJacobian("normal equations are singular")
    return (a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det


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
    beta = (n * sxy - sx * sy) / denom
    lna = (sy - beta * sx) / n
    sign = 1.0 if math.fsum(ys) >= 0.0 else -1.0
    return sign * math.exp(lna), beta


def fit_exponential(points: Sequence[tuple[float, float]]) -> ExpFitModel:
    """Least-squares fit of alpha * exp(beta * t) to (t, y) points."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    ts = [float(t) for t, _ in points]
    ys = [float(y) for _, y in points]
    a, b = _log_linear_init(ts, ys)
    ssr = _ssr(ts, ys, a, b)
    lam = 1e-3
    converged = False
    for _ in range(MAX_ITER):
        s11, s12, s22, g1, g2 = _normal_terms(ts, ys, a, b)
        while True:
            da, db = _solve2(s11 * (1 + lam), s12, s22 * (1 + lam), g1, g2)
            new_ssr = _ssr(ts, ys, a + da, b + db)
            if new_ssr <= ssr:
                break
            lam *= 10.0
            if lam > 1e12:
                # no improving step exists at this scale; stay put
                da = db = 0.0
                new_ssr = ssr
                break
        rel_p = max(abs(da) / max(abs(a), 1e-300),
                    abs(db) / max(abs(b), 1e-300))
        rel_s = abs(ssr - new_ssr) / max(ssr, 1e-300)
        a, b, ssr = a + da, b + db, new_ssr
        lam = max(lam / 10.0, 1e-12)
        if rel_p < REL_TOL and rel_s < REL_TOL:
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no convergence after {MAX_ITER} iterations")

    n = len(ts)
    dof = n - 2
    mse = ssr / dof
    s11, s12, s22, _, _ = _normal_terms(ts, ys, a, b)
    # mse * (J'J)^-1, one column per solve; the 0.0 terms vanish exactly
    cov = tuple(zip(_solve2(s11, s12, s22, mse, 0.0),
                    _solve2(s11, s12, s22, 0.0, mse)))

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


def param_confidence_interval(model: ExpFitModel, level: float):
    """Symmetric t intervals for (alpha, beta) at the given confidence."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    q = t_quantile(1.0 - (1.0 - level) / 2.0, model.dof)
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


def predict(model: ExpFitModel, t: float, level: float = 0.95,
            observed: float | None = None) -> PredictionRow:
    """Point prediction at t with a single-observation confidence interval."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    pred = model.alpha * math.exp(model.beta * t)
    se = se_single(model, t)
    q = t_quantile(1.0 - (1.0 - level) / 2.0, model.dof)
    return PredictionRow(t=t, observed=observed, predicted=pred, se_single=se,
                         ci_low=pred - q * se, ci_high=pred + q * se,
                         level=level)
