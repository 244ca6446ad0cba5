"""Six-significant-digit formatting: the float fast path against Decimal."""
import math
import random
import struct
import sys

import pytest

from eubalance.reports import _sig6_exact, sig6

MAX = sys.float_info.max

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
        assert sig6(x) == want
        assert _sig6_exact(x) == want

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
            assert sig6(x) == _sig6_exact(x), repr(x)

    def test_random_bit_patterns(self):
        rng = random.Random(7)
        for _ in range(50000):
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                assert sig6(x) == _sig6_exact(x), repr(x)

    def test_fast_path_matches_exact_path(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=3000, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(st.floats(allow_nan=False, allow_infinity=False))
        def check(x):
            assert sig6(x) == _sig6_exact(x)

        check()
