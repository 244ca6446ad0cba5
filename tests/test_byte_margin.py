"""tools/byte_margin.py: exact distances to 6-digit rounding boundaries,
and the digest set's nearest value."""
import importlib.util
import random
import re
from decimal import Decimal, localcontext
from pathlib import Path

from eubalance import reports

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_margin.py"
spec = importlib.util.spec_from_file_location("byte_margin", TOOL)
byte_margin = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_margin)


def _decimal_distance(x):
    """|x - b| / |x| for the 7-digit tie b nearest x, in 800-digit Decimal."""
    with localcontext() as ctx:
        ctx.prec = 800
        d = abs(Decimal(x))
        unit = Decimal(1).scaleb(d.adjusted() - 5)
        tie = ((d / unit).to_integral_value(rounding="ROUND_FLOOR")
               + Decimal("0.5")) * unit
        return float(abs(d - tie) / d)


def test_distance_matches_decimal():
    rng = random.Random(11)
    xs = [rng.choice((1, -1)) * 10.0 ** rng.uniform(-320, 308)
          for _ in range(500)]
    xs += [1.234565, 5318.204999968285, 0.5, -7.0, 1e6, 5e-324]
    for x in xs:
        assert byte_margin.boundary_distance(x) == _decimal_distance(x), x
    assert byte_margin.boundary_distance(0.0) is None
    assert byte_margin.boundary_distance(float("nan")) is None


def test_digest_set_margin(capsys):
    real = (reports.sig6, reports._sig6_cells)
    assert byte_margin.main([]) == 0
    assert (reports.sig6, reports._sig6_cells) == real
    count, nearest, within = capsys.readouterr().out.splitlines()
    # a fixed count: 64128 of them are the 16 plots' t and value columns
    assert count == "values: 66731 from 40 commands"
    # which value lies nearest, and how near, follows the platform's
    # math.exp: on x86-64 Linux (glibc), 6.0e-12 at 5318.204999968285 in
    # stability --scope eu --band-level 0.95, and 23 within 1e-9
    assert re.fullmatch(r"nearest: \d\.\de-\d\d at \S+ in "
                        r"(report|fit|stability) .+", nearest)
    assert re.fullmatch(r"within 1e-09: \d+", within)
