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
SCAN_STEP = 0.01


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


def _band_pass(model: ExpFitModel, q: float, lo: float, hi: float,
               steps: int):
    """(t, lower, upper) at t = lo + (hi - lo) * k / steps, k = 0..steps.

    Each bound is the one _bands gives, from the same operations in the
    same order, but with exp(beta * t) taken once per point and shared by
    the prediction and se_single's gradient.
    """
    a, b, mse = model.alpha, model.beta, model.mse
    (c00, c01), (c10, c11) = model.cov
    for k in range(steps + 1):
        t = lo + (hi - lo) * k / steps
        e = math.exp(b * t)
        pred = a * e
        g2 = a * t * e
        spread = q * math.sqrt(mse + (e * (c00 * e + c01 * g2)
                                      + g2 * (c10 * e + c11 * g2)))
        yield t, pred - spread, pred + spread


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
    One scan with step SCAN_STEP brackets the crossings of all four bands:
    a band on the level at a grid point crosses there, and any other
    crossing is bisect's float-adjacent root of band - level in its cell.
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
    s, d = analysis.surplus_model, analysis.deficit_model
    q_s, q_d = t_quantile(p, s.dof), t_quantile(p, d.dof)
    # the four band curves on the positive (magnitude) axis, less the level
    bands = (lambda t: _bands(s, q_s, t)[1] - level,
             lambda t: _bands(s, q_s, t)[0] - level,
             lambda t: -_bands(d, q_d, t)[0] - level,
             lambda t: -_bands(d, q_d, t)[1] - level)
    lo, hi = tp.t0 - BRACKET_HALF_WIDTH, tp.t0 + BRACKET_HALF_WIDTH
    steps = int(round((hi - lo) / SCAN_STEP))
    roots: list[float] = []
    if steps:  # else t0 +- BRACKET_HALF_WIDTH rounds to t0: nothing to scan
        # the first point has nothing to compare with
        prev_t, prev, prev_sides = lo, (), ()
        try:
            for (t, s_lo, s_hi), (_, d_lo, d_hi) in zip(
                    _band_pass(s, q_s, lo, hi, steps),
                    _band_pass(d, q_d, lo, hi, steps)):
                values = v1, v2, v3, v4 = (s_hi - level, s_lo - level,
                                           -d_lo - level, -d_hi - level)
                sides = (v1 > 0.0, v2 > 0.0, v3 > 0.0, v4 > 0.0)
                # a root needs v0 == 0.0, or v0 and v on opposite sides of
                # zero: test only where a side changes or a v0 is zero
                if sides != prev_sides or 0.0 in prev:
                    for band, v0, v in zip(bands, prev, values):
                        if v0 == 0.0:
                            roots.append(prev_t)
                        elif v0 * v < 0.0:
                            roots.append(bisect(band, prev_t, t))
                prev_t, prev, prev_sides = t, values, sides
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
