"""Six-significant-digit formatting: both paths against a Decimal reference."""
import math
import random
import struct
import sys
from decimal import Decimal, ROUND_HALF_UP

import pytest

from eubalance.reports import _sig6_exact, sig6

MAX = sys.float_info.max


def _sig6_decimal(x: float) -> str:
    """sig6 by Decimal arithmetic on repr(x); exact for every float."""
    if x == 0:
        return "0."
    d = Decimal(repr(float(x)))
    _, digits, exp = d.as_tuple()
    e = len(digits) + exp - 1
    r = d.quantize(Decimal(1).scaleb(e - 5), rounding=ROUND_HALF_UP)
    if r == 0:
        return "0."
    _, dig2, exp2 = r.as_tuple()
    e2 = len(dig2) + exp2 - 1
    if e2 != e:
        # rounding bumped the magnitude, e.g. 999.9999 -> 1000.00
        r = d.quantize(Decimal(1).scaleb(e2 - 5), rounding=ROUND_HALF_UP)
        e = e2
    if e >= 6 or e <= -5:
        return (format(r.normalize(), "e")
                .replace("e+", "e").replace("e0", "e").replace("e-0", "e-"))
    s = format(r, "f")
    s = s.rstrip("0") if "." in s else s + "."
    if s.startswith("."):
        s = "0" + s
    elif s.startswith("-."):
        s = "-0" + s[1:]
    return s


def _both_match_reference(x: float) -> None:
    want = _sig6_decimal(x)
    assert sig6(x) == want, repr(x)
    assert _sig6_exact(x) == want, repr(x)

EDGES = (
    (0.0, "0."), (-0.0, "0."),
    (1e6, "1e6"), (-1e6, "-1e6"),
    (999999.4, "999999."), (999999.5, "1e6"),
    (9.999995, "10."), (-9.999995, "-10."),
    (0.0001, "0.0001"), (9.999996e-05, "0.0001"), (1e-5, "1e-5"),
    (99999.95, "100000."), (-99999.95, "-100000."), (99999.94, "99999.9"),
    (123456.5, "123457."), (-123456.5, "-123457."),
    (1234567.0, "1.23457e6"), (0.1 + 0.2, "0.3"), (1.0000005, "1."),
    (-1.5, "-1.5"), (-0.000123456789, "-0.000123457"),
    (1e99, "1e99"), (9.999999e98, "1e99"), (1e-99, "1e-99"),
    (1e100, "1e100"), (1e-100, "1e-100"),
    (2.2250738585072014e-308, "2.22507e-308"),
    (5e-324, "5e-324"), (-5e-324, "-5e-324"),
    (MAX, "1.79769e308"), (-MAX, "-1.79769e308"),
)


class TestSig6:
    @pytest.mark.parametrize("x, want", EDGES)
    def test_format_edges(self, x, want):
        assert _sig6_decimal(x) == want
        _both_match_reference(x)

    def test_half_way_ties(self):
        # repr(x) is a 7-digit tie: half-up rounds away from zero, where
        # printf-style rounding of the binary value would round to even
        assert sig6(892296500000.0) == "8.92297e11"
        assert sig6(-2574705.0) == "-2.57471e6"
        assert sig6(1.234565) == "1.23457"
        rng = random.Random(20261018)
        for _ in range(20000):
            m = rng.randrange(100000, 1000000) * 10 + 5
            x = rng.choice((1, -1)) * m * 10.0 ** rng.randint(-20, 8)
            _both_match_reference(x)

    def test_random_bit_patterns(self):
        rng = random.Random(7)
        for _ in range(50000):
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                _both_match_reference(x)

    def test_fast_path_matches_exact_path(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=3000, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.floats(allow_nan=False, allow_infinity=False))
        def check(x):
            _both_match_reference(x)

        check()
