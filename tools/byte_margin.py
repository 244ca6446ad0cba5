"""How far each printed number of the digest set is from moving.

Runs the 40 commands of ``tools/output_digest.py`` in this process, on
this checkout's ``src``, and records every value given to
``reports.sig6``, or as a column to ``reports._sig6_cells``. sig6
prints six significant digits, so its output changes only where a value
crosses a 7-digit decimal ending in 5. The tool prints the smallest
relative distance from a recorded value to such a boundary, with the
value and its command, and how many values lie within ``--within`` of
one. Like the digest, the figures hold for one platform's ``math.exp``.

    python tools/byte_margin.py [--within 1e-9]

Each command starts with the plot's t column unformatted, as in its own
process. Distances are exact: ``decimal`` gives each float's binary value
digit for digit, and the rest is integer arithmetic.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from eubalance import cli, reports  # noqa: E402
from output_digest import commands  # noqa: E402


def boundary_distance(x: float) -> float | None:
    """|x - b| / |x| for the nearest 7-digit tie b; None for 0 or non-finite.

    With |x| = D * 10**E exactly, D of n >= 7 digits and P = 10**(n - 6),
    the nearest tie is floor(D / P) + 1/2 units of P * 10**E away by
    |D % P - P / 2| of them, so the distance is |2 (D % P) - P| / (2 D).
    """
    _, digits, exp = Decimal(x).as_tuple()
    if x == 0 or not isinstance(exp, int):
        return None
    d = int("".join(map(str, digits))) * 10 ** max(7 - len(digits), 0)
    p = 10 ** (len(str(d)) - 6)
    return abs(2 * (d % p) - p) / (2 * d)


def record() -> list[tuple[float, str]]:
    """Every value the digest set formats, with its command line."""
    seen: list[float] = []
    real_sig6 = reports.sig6
    real_cells = reports._sig6_cells

    def sig6(x):
        seen.append(x)
        return real_sig6(x)

    def sig6_cells(values):
        seen.extend(values)
        return real_cells(values)

    out: list[tuple[float, str]] = []
    reports.sig6, reports._sig6_cells = sig6, sig6_cells
    try:
        for argv in commands():
            reports._plot_t_cells.cache_clear()
            with tempfile.TemporaryDirectory() as tmp, \
                    contextlib.redirect_stdout(io.StringIO()):
                cli.main(["--out", tmp, *argv])
            out += ((x, " ".join(argv)) for x in seen)
            seen.clear()
    finally:
        reports.sig6, reports._sig6_cells = real_sig6, real_cells
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--within", type=float, default=1e-9)
    args = parser.parse_args(argv)
    values = record()
    margins = [(dist, x, command) for x, command in values
               if (dist := boundary_distance(x)) is not None]
    dist, x, command = min(margins)
    print(f"values: {len(values)} from {len(commands())} commands")
    print(f"nearest: {dist:.1e} at {x!r} in {command}")
    print(f"within {args.within:g}: "
          f"{sum(m[0] <= args.within for m in margins)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
