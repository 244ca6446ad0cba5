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
from .expfit import ExpFitModel, bisect, se_single, t_quantile

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
    """Roots of the gap, its slope, and its curvature, plus the gap level."""
    a, b, c, d = analysis.a, analysis.b, analysis.c, analysis.d
    # the k-th derivative vanishes where a*b^k*e^{bt} = c*d^k*e^{dt}
    t0 = _gap_root(a, b, c, d)
    t1 = _gap_root(a * b, b, c * d, d)
    t2 = _gap_root(a * b * b, b, c * d * d, d)
    level = a * math.exp(b * t0) if b * t0 < 700.0 else math.inf
    return TurningPoints(t0=t0, t1=t1, t2=t2, level=level)


def _bands(model: ExpFitModel, q: float, t: float) -> tuple[float, float]:
    """Lower and upper bound of model's band of q single-prediction SEs."""
    pred = model.alpha * math.exp(model.beta * t)
    spread = q * se_single(model, t)
    return pred - spread, pred + spread


def band_envelope(model: ExpFitModel, t: float,
                  band_level: float) -> tuple[float, float]:
    """Single-prediction confidence band bounds of one model at t."""
    if not 0.0 < band_level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {band_level}")
    return _bands(model, t_quantile(1.0 - (1.0 - band_level) / 2.0,
                                    model.dof), t)


def _crossing(band, level: float, lo: float, hi: float) -> float:
    """The crossing of band(t) = level in [lo, hi]: bisect, then polish."""
    x = bisect(lambda u: band(u) - level, lo, hi)
    h = 1e-7
    slope = (band(x + h) - band(x - h)) / (2.0 * h)
    if slope != 0.0:
        x -= (band(x) - level) / slope
    return x


def uncertainty_interval(analysis: GapAnalysis,
                         band_level: float = DEFAULT_BAND_LEVEL
                         ) -> UncertaintyInterval:
    """Extreme intersections of the four band curves with the gap level.

    Each confidence band of the surplus and of the deficit magnitude is
    intersected with the horizontal line at the turning-point level. Bands
    that never reach the level inside [t0 - 15, t0 + 15] contribute no
    root; the interval spans the earliest and latest of the roots found.
    One scan with step SCAN_STEP brackets the crossings of all four bands.
    """
    if not 0.0 < band_level < 1.0:
        raise ValueError(f"band_level must lie in (0, 1), got {band_level}")
    tp = turning_points(analysis)
    s, d = analysis.surplus_model, analysis.deficit_model
    q_s = t_quantile(1.0 - (1.0 - band_level) / 2.0, s.dof)
    q_d = t_quantile(1.0 - (1.0 - band_level) / 2.0, d.dof)
    # the four band curves measured on the positive (magnitude) axis
    bands = (lambda t: _bands(s, q_s, t)[1], lambda t: _bands(s, q_s, t)[0],
             lambda t: -_bands(d, q_d, t)[0], lambda t: -_bands(d, q_d, t)[1])
    level = tp.level
    lo, hi = tp.t0 - BRACKET_HALF_WIDTH, tp.t0 + BRACKET_HALF_WIDTH
    steps = int(round((hi - lo) / SCAN_STEP))
    roots: list[float] = []
    prev_t, prev = lo, ()  # the first point has nothing to compare with
    for k in range(steps + 1):
        t = lo + (hi - lo) * k / steps
        s_lo, s_hi = _bands(s, q_s, t)
        d_lo, d_hi = _bands(d, q_d, t)
        values = (s_hi - level, s_lo - level, -d_lo - level, -d_hi - level)
        for band, v0, v in zip(bands, prev, values):
            if v0 == 0.0:
                roots.append(prev_t)
            elif v0 * v < 0.0:
                roots.append(_crossing(band, level, prev_t, t))
        prev_t, prev = t, values
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
