"""Surplus-deficit gap analysis on paired exponential accumulation models.

The gap f(t) = a*exp(b*t) - c*exp(d*t) between a fitted surplus model
S(t) = a*exp(b*t) and the magnitude |D(t)| = c*exp(d*t) of a fitted deficit
model admits closed-form roots for f, f', and f''. When d > b those roots
t2 < t1 < t0 are equally spaced by ln(d/b)/(d-b). t0 is the turning point
where accumulated deficits overtake accumulated surpluses; the level S(t0)
together with the single-prediction confidence bands of both component fits
yields an uncertainty time interval [t_m, t_M] around t0.
"""
from __future__ import annotations

import math

from .dataset import _Frozen
from .expfit import ExpFitModel, _two_sided, bisect, se_single, t_quantile

DEFAULT_BAND_LEVEL = 0.99
BRACKET_HALF_WIDTH = 15.0


class StabilityError(Exception):
    """Base class for gap-analysis failures."""


class NoIntersection(StabilityError):
    """The two curves (or the requested derivative pair) never cross."""


class RootNotBracketed(StabilityError):
    """No confidence band attains the turning-point level in the bracket."""


class GapAnalysis(_Frozen):
    __slots__ = ("surplus_model", "deficit_model")

    def __post_init__(self) -> None:
        if self.surplus_model.alpha <= 0.0:
            raise ValueError("surplus model must have positive alpha")
        if self.deficit_model.alpha >= 0.0:
            raise ValueError("deficit model must have negative alpha")
        if self.surplus_model.beta <= 0.0 or self.deficit_model.beta <= 0.0:
            raise ValueError("both growth rates must be positive")

    @property
    def a(self) -> float:
        return self.surplus_model.alpha

    @property
    def b(self) -> float:
        return self.surplus_model.beta

    @property
    def c(self) -> float:
        return abs(self.deficit_model.alpha)

    @property
    def d(self) -> float:
        return self.deficit_model.beta


class TurningPoints(_Frozen):
    __slots__ = ("t0", "t1", "t2", "level")


class UncertaintyInterval(_Frozen):
    __slots__ = ("t_m", "t_M", "band_level", "joint_level")


def gap_eval(analysis: GapAnalysis, t: float) -> tuple[float, float, float]:
    """Gap value and its first two time derivatives at t."""
    a, b, c, d = analysis.a, analysis.b, analysis.c, analysis.d
    es = math.exp(b * t)
    ed = math.exp(d * t)
    return (a * es - c * ed,
            a * b * es - c * d * ed,
            a * b * b * es - c * d * d * ed)


def _gap_root(a: float, b: float, c: float, d: float) -> float:
    # a*e^{bt} = c*e^{dt}  =>  t = ln(a/c) / (d - b)
    if b == d:
        raise NoIntersection("equal growth rates never cross")
    ratio = a / c
    if ratio <= 0.0:
        raise NoIntersection("coefficient ratio is not positive")
    return math.log(ratio) / (d - b)


def turning_points(analysis: GapAnalysis) -> TurningPoints:
    """Roots of the gap, its slope, and its curvature, plus the gap level.

    The level is S(t0) = a * exp(b * t0), or inf when exp(b * t0)
    overflows the float range.
    """
    a, b, c, d = analysis.a, analysis.b, analysis.c, analysis.d
    # the k-th derivative vanishes where a*b^k*e^{bt} = c*d^k*e^{dt}
    t0 = _gap_root(a, b, c, d)
    t1 = _gap_root(a * b, b, c * d, d)
    t2 = _gap_root(a * b * b, b, c * d * d, d)
    try:
        level = a * math.exp(b * t0)
    except OverflowError:
        level = math.inf
    return TurningPoints(t0=t0, t1=t1, t2=t2, level=level)


def _bands(model: ExpFitModel, q: float, t: float) -> tuple[float, float]:
    """Lower and upper bound of model's band of q single-prediction SEs."""
    pred = model.alpha * math.exp(model.beta * t)
    spread = q * se_single(model, t)
    return pred - spread, pred + spread


def _crossings(model: ExpFitModel, q: float, level: float,
               lo: float, hi: float) -> list[float]:
    """Every crossing of level by model's two band magnitudes |pred| +-
    q se in [lo, hi], unordered: bisect's root of band - level on each
    stretch between two cuts across which the band changes side.

    With A = |alpha|, L = level and V = c00 + (c01 + c10) alpha t + c11
    alpha^2 t^2, se^2 = mse + e^{2 beta t} V, so h = (upper - L)(lower -
    L) = e^{2 beta t} (A^2 - q^2 V) - 2 A L e^{beta t} + L^2 - q^2 mse,
    and k = e^{-beta t} h' has k' = e^{beta t} P with P = 2 beta^2 (A^2 -
    q^2 V) - 3 beta q^2 V' - q^2 V'', a quadratic. P's roots cut the
    window where k is monotone, k's zeros (bisect's) cut it where h is,
    and where h is monotone at most one band crosses, once: the cuts are
    the ends, P's roots, k's zeros and the t where |pred| meets L (t0,
    for either fit of a pair). P and k are taken in units of the level,
    as m = A e^{beta t} / L = e^{beta (t - tm)} and V / A^2, and k is
    divided by max(m, 1), so no band value is squared and k stays finite.
    The bands themselves come from _bands, unscaled. Their sides are
    compared, a zero counting as non-negative as in bisect; one that is
    not finite at a point evaluated raises OverflowError, and a variance
    that rounds below zero there raises sqrt's ValueError. An empty
    window, lo == hi, holds no crossing.
    """
    if not lo < hi:
        return []
    alpha, b, qq = model.alpha, model.beta, q * q
    sign = 1.0 if alpha > 0.0 else -1.0
    (c00, c01), (c10, c11) = model.cov
    r0, r1, r2 = c00 / alpha / alpha, (c01 + c10) / alpha, c11  # V / A^2
    # k / (A L) = m g - 2 beta, g = 2 beta (1 - q^2 V/A^2) - q^2 (V/A^2)'
    g0, g1, g2 = (2.0 * b * (1.0 - qq * r0) - qq * r1,
                  -2.0 * qq * (b * r1 + r2), -2.0 * b * qq * r2)
    p0, p1, p2 = b * g0 + g1, b * g1 + 2.0 * g2, b * g2  # P / A^2
    tm = (math.log(level) - math.log(abs(alpha))) / b

    def k(t):
        x = b * (t - tm)
        return ((g0 + (g1 + g2 * t) * t) * math.exp(min(x, 0.0))
                - 2.0 * b * math.exp(-max(x, 0.0)))

    def sides(t):
        vs = [sign * v - level for v in _bands(model, q, t)]
        if not all(map(math.isfinite, vs)):
            raise OverflowError
        return vs

    if p2:  # P's roots, as in Numerical Recipes 5.6
        disc = p1 * p1 - 4.0 * p2 * p0
        w = -0.5 * (p1 + math.copysign(math.sqrt(disc), p1)) if disc > 0 else 0
        roots = (w / p2, p0 / w) if w else ()
    else:
        roots = (-p0 / p1,) if p1 else ()
    cuts = sorted({lo, hi, *(t for t in roots if lo < t < hi)})
    ks = [k(t) < 0.0 for t in cuts]
    cuts += [bisect(k, t, u) for t, u, kt, ku
             in zip(cuts, cuts[1:], ks, ks[1:]) if kt != ku]
    cuts = sorted({*cuts, *([tm] if lo < tm < hi else [])})
    values = list(map(sides, cuts))
    return [bisect(lambda t: sides(t)[i], t, u)
            for t, u, vt, vu in zip(cuts, cuts[1:], values, values[1:])
            for i in (0, 1) if (vt[i] < 0.0) != (vu[i] < 0.0)]


def band_envelope(model: ExpFitModel, t: float,
                  band_level: float) -> tuple[float, float]:
    """Single-prediction confidence band bounds of one model at t."""
    return _bands(model, t_quantile(_two_sided(band_level), model.dof), t)


def uncertainty_interval(analysis: GapAnalysis,
                         band_level: float = DEFAULT_BAND_LEVEL
                         ) -> UncertaintyInterval:
    """Extreme intersections of the four band curves with the gap level.

    Each confidence band of the surplus and of the deficit magnitude is
    intersected with the horizontal line at the turning-point level. Bands
    that never reach the level inside [t0 - 15, t0 + 15] contribute no
    root; the interval spans the earliest and latest of the roots found.
    The crossings are isolated exactly, not sought on a grid: _crossings
    gives each fit's, every one bisect's float-adjacent root of band -
    level between two cuts where the band changes side. A band that is
    not finite at a point evaluated raises OverflowError naming the
    window; when t0 +- 15 rounds to t0 the window is empty and holds no
    crossing.
    """
    p = _two_sided(band_level, "band_level")
    if analysis.d <= analysis.b:
        raise NoIntersection(
            f"deficit rate d = {analysis.d:.6g} does not exceed surplus "
            f"rate b = {analysis.b:.6g}: deficits never overtake surpluses")
    tp = turning_points(analysis)
    level = tp.level
    if not math.isfinite(level):
        raise RootNotBracketed(
            f"the turning-point level overflows the float range at "
            f"t0 = {tp.t0:.6g}")
    if level == 0.0:  # S(t0) > 0 lost: bands that underflow would meet it
        raise RootNotBracketed(
            f"the turning-point level underflows to 0 at t0 = {tp.t0:.6g}")
    lo, hi = tp.t0 - BRACKET_HALF_WIDTH, tp.t0 + BRACKET_HALF_WIDTH
    try:
        roots = [t for model in (analysis.surplus_model,
                                 analysis.deficit_model)
                 for t in _crossings(model, t_quantile(p, model.dof), level,
                                     lo, hi)]
    except OverflowError:
        raise OverflowError(f"bands overflow the float range in "
                            f"[{lo:.6g}, {hi:.6g}]") from None
    if not roots:
        raise RootNotBracketed(
            f"no band attains the level {level:.6g} in "
            f"[{lo:.6g}, {hi:.6g}]")
    return UncertaintyInterval(t_m=min(roots), t_M=max(roots),
                               band_level=band_level,
                               joint_level=band_level * band_level)


def phase_label(tp: TurningPoints, t: float) -> str:
    """Classify t against the slope root tp.t1 and the sign root tp.t0.

    tp is the TurningPoints of the analysis, as turning_points returns it.
    The comparison runs at calendar-year resolution (nearest whole year),
    so a year whose midpoint the gap maximum falls in already counts as
    decreasing stability.
    """
    year = round(t)
    if year < round(tp.t1):
        return "stable-growth"
    if year < round(tp.t0):
        return "decreasing-stability"
    return "increasing-instability"
