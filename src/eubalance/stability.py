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


def _band_bounds(model: ExpFitModel, q: float, tl: float, tr: float):
    """(low, high) of the upper and the lower band magnitude |pred| +-
    spread as _bands computes them at any float t in [tl, tr]; nan
    if exp nears overflow or the variance is not provably >= 0.

    |alpha| e^{beta t} rises for beta > 0, the variance is e^{2 beta t}
    times a quadratic in t, bounded from its ends and vertex, and sqrt
    rises. In u = 2**-53, the rounded exp argument (|beta t| u off) and
    libm's exp (an ulp) put e^{beta t} within (beta T + 2) u, T = max |t|.
    A variance term has two such factors and 8 roundings more: a variance,
    at a point or here, is within dv = eps (mse + A), eps = (2 beta T +
    20) u, A its terms' magnitudes, 7 u to spare; the spread within q
    sqrt(dv), the rest within eps relative. An underflow adds 2**-1074
    times the factors after it, in all below (|c| + 1) W^2, W = 2 (1 + e)
    (1 + |alpha|) (1 + T), or 0 if cov is 0. Twice this widens the bounds.
    """
    a, b, mse = abs(model.alpha), model.beta, model.mse
    (c00, c01), (c10, c11) = model.cov
    el, er = math.exp(b * tl), math.exp(b * tr) if b * tr < 709 else math.inf
    tmax, k1, k2 = max(-tl, tr), (c01 + c10) * model.alpha, c11 * a * a
    ts = (tl, tr, min(max(-k1 / (2.0 * k2), tl), tr)) if k2 else (tl, tr)
    qmin, qmax = min(qs := [c00 + (k1 + k2 * t) * t for t in ts]), max(qs)
    vmin = qmin * (el * el if qmin >= 0.0 else er * er)
    vmax = qmax * (er * er if qmax >= 0.0 else el * el)
    eps, at = (2.0 * b * tmax + 20.0) * 2.0 ** -53, a * tmax
    n0, n1, n2 = abs(c00), abs(c01) + abs(c10), abs(c11)
    w = 2.0 * (1.0 + er) * (1.0 + a) * (1.0 + tmax)
    dv = eps * (mse + er * er * (n0 + (n1 + n2 * at) * at))
    dv += 2.0 ** -1068 * (n0 + n1 + n2 + 1.0) * w * w if n0 + n1 + n2 else 0.0
    if not mse + vmin >= 2.0 * dv >= 0.0:
        return (math.nan, math.nan), (math.nan, math.nan)
    s_lo, s_hi = q * math.sqrt(mse + vmin), q * math.sqrt(mse + vmax)
    pad = 2.0 * (eps * (a * er + s_hi) + q * math.sqrt(dv) + 2.0 ** -1068 * w)
    return ((a * el + s_lo - pad, a * er + s_hi + pad),
            (a * el - s_hi - pad, a * er - s_lo + pad))


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
    The rule is a walk over the grid of step SCAN_STEP: a band on the
    level at a grid point crosses there; any other crossing is bisect's
    float-adjacent root of band - level in a cell where it changes side.
    Stretches that _band_bounds proves no band touches hold no crossing
    or error and are skipped; the rest get the walk's tests in grid
    order: the same cells are bisected, every result and error the walk's.
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

    def point(t):  # t and the four bands less the level there
        s_lo, s_hi = _bands(s, q_s, t)
        d_lo, d_hi = _bands(d, q_d, t)
        return t, (s_hi - level, s_lo - level, -d_lo - level, -d_hi - level)

    def scan(i, j, left, fits):  # cells i..j-1, given point i; returns j
        t = lo + (hi - lo) * j / steps
        if j - i == 1:  # a cell: on the level at its left end, or across
            right = point(t)
            roots.extend(left[0] if v0 == 0.0 else bisect(band, left[0], t)
                         for band, v0, v in zip(bands, left[1], right[1])
                         if v0 == 0.0 or v0 * v < 0.0)
            return right
        # a fit whose bands keep off the level here does so on any part
        fits = [(model, q) for model, q in fits if not all(
            b_lo > level or b_hi < level
            for b_lo, b_hi in _band_bounds(model, q, left[0], t))]
        return (scan((i + j) // 2, j, scan(i, (i + j) // 2, left, fits), fits)
                if fits else point(t))

    if steps:  # else t0 +- BRACKET_HALF_WIDTH rounds to t0: nothing to scan
        try:
            scan(0, steps, point(lo), ((s, q_s), (d, q_d)))
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
