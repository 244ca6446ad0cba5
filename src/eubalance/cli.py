"""Command-line interface: balance reports, curve fits, stability analysis.

Exit codes: 0 success, 1 internal error, 2 usage or configuration error,
3 data validation failure, 4 fit failure, 5 gap-analysis failure. Runs
with the same inputs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import accounting, dataset, expfit, reports, stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_NO_INTERSECTION = 5

# A failed command's exit code: the first entry naming the fault's class,
# else 1 (an internal error). OSError is a path that cannot be used.
_EXIT_CODES = (
    (expfit.FitError, EXIT_SOLVER),
    (stability.StabilityError, EXIT_NO_INTERSECTION),
    ((dataset.DatasetError, accounting.AccountingError, ValueError,
      ArithmeticError), EXIT_DATA),
    (OSError, EXIT_CONFIG),
)


# Built once per process: parse_args and error leave the parser as it was,
# and each parse_args call returns a fresh Namespace.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eubalance",
        description="EU balance accounting, exponential fits, and "
                    "surplus-deficit stability analysis")
    parser.add_argument("--data-dir", type=Path, default=None,
                        help="directory with gdp.csv, cab_pct.csv, ggb.csv "
                             "(default: bundled dataset)")
    parser.add_argument("--regions", type=Path, default=None,
                        help="JSON file mapping region names to country "
                             "codes (default: bundled regions)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--format", choices=("csv", "text"), default="text",
                        help="rendering echoed to stdout (report files get "
                             "both forms, plot data .csv only)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, run, (flag, values, opts), level) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument(flag, choices=sorted(values), required=True, **opts)
        if level is not None:
            p.add_argument(level[0], type=float, default=level[1],
                           help=level[2])
        p.set_defaults(run=run)
    return parser


def _check_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    try:
        if args.data_dir is not None:
            if args.data_dir.exists() and not args.data_dir.is_dir():
                parser.error(f"--data-dir {args.data_dir} is not a directory")
            for name in dataset.INPUT_FILES:
                if not (args.data_dir / name).is_file():
                    parser.error(f"missing data file {args.data_dir / name}")
        if args.regions is not None and not args.regions.is_file():
            parser.error(f"regions file {args.regions} " + (
                "is not a file" if args.regions.exists()
                else "does not exist"))
        existing = next(p for p in (args.out, *args.out.parents)
                        if p.exists())
    except OSError as exc:  # a path the OS rejects, such as a name too long
        parser.error(f"cannot use path {exc.filename}: {exc.strerror}")
    if not existing.is_dir():
        parser.error(f"--out {args.out}: {existing} is not a directory")
    if (level := COMMANDS[args.command][3]) is not None:
        try:  # the option's dest, as argparse derives it from the flag
            expfit._two_sided(getattr(args, level[0][2:].replace("-", "_")),
                              level[0])
        except ValueError as exc:
            parser.error(str(exc))


def _load(args: argparse.Namespace):
    if args.data_dir is None:
        ds = dataset.load_bundled()
    else:
        ds = dataset.load_files(*(args.data_dir / name
                                  for name in dataset.INPUT_FILES))
    if args.regions is None:
        regions = accounting.bundled_regions()
    else:
        regions = accounting.load_regions(args.regions)
    return ds, regions


def _fit(ds, regions, series_key: str):
    """The points of one fit series and the model fitted to them."""
    points = reports.fit_series_points(ds, regions, series_key)
    try:
        return points, expfit.fit_exponential(points)
    except OverflowError:
        raise OverflowError(f"fit of series {series_key} overflows the "
                            f"float range") from None
    except (expfit.FitError, ValueError) as exc:
        raise type(exc)(f"fit of series {series_key}: {exc}") from None


# Each command returns its tables as (file stem, table, is_report). A
# report is written as .csv and .txt and echoed; plot data is written as
# .csv only.
def _cmd_report(args: argparse.Namespace, ds, regions):
    return [(f"table_{args.table}",
             reports.build_table(ds, regions, args.table), True)]


def _cmd_fit(args: argparse.Namespace, ds, regions):
    points, model = _fit(ds, regions, args.series)
    summary = reports.fit_summary_table(args.series, model, args.level)
    predictions = reports.prediction_table(args.series, model, points,
                                           args.level)
    return [(f"fit_{args.series}_summary", summary, True),
            (f"fit_{args.series}_predictions", predictions, True)]


def _cmd_stability(args: argparse.Namespace, ds, regions):
    keys = reports.STABILITY_SCOPES[args.scope]
    (surplus_points, s), (_, d) = (_fit(ds, regions, key) for key in keys)
    try:
        analysis = stability.GapAnalysis(surplus_model=s, deficit_model=d)
    except ValueError as exc:  # a sign rule: name the scope and both fits
        raise ValueError(f"scope {args.scope}: {exc} (" + "; ".join(
            f"{role} {key}: alpha = {m.alpha:.6g}, beta = {m.beta:.6g}"
            for role, key, m in zip(("surplus", "deficit"), keys, (s, d)))
            + ")") from None
    interval = stability.uncertainty_interval(analysis, args.band_level)
    latest_t = max(t for t, _ in surplus_points)
    table = reports.stability_table(args.scope, analysis, interval, latest_t)
    plot = reports.plot_data_table(args.scope, analysis, args.band_level)
    return [(f"stability_{args.scope}", table, True),
            (f"plot_{args.scope}", plot, False)]


# The command set, declared once: name: (help, handler, subject option as
# (flag, values in digest order, other argparse settings), level option as
# (flag, default, help, the levels the digest set runs) or None).
COMMANDS = {
    "report": ("emit one of the tables 1-12", _cmd_report,
               ("--table", range(1, 13),
                {"type": int, "metavar": "N", "help": "table number, 1-12"}),
               None),
    "fit": ("fit one cumulative balance series", _cmd_fit,
            ("--series", tuple(reports.FIT_SERIES), {}),
            ("--level", 0.95, "confidence level for parameter and "
             "prediction intervals (default 0.95)", ("0.95", "0.5", "0.999"))),
    "stability": (
        "gap analysis for one surplus/deficit pair", _cmd_stability,
        ("--scope", tuple(reports.STABILITY_SCOPES), {}),
        ("--band-level", stability.DEFAULT_BAND_LEVEL,
         f"per-band confidence level (default {stability.DEFAULT_BAND_LEVEL})",
         ("0.5", "0.8", "0.9", "0.95", "0.97", "0.98", "0.99", "0.999"))),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_config(parser, args)
    try:
        outputs = args.run(args, *_load(args))
        args.out.mkdir(parents=True, exist_ok=True)
        forms = {"csv": reports.to_csv, "txt": reports.to_text}
        echoed = "csv" if args.format == "csv" else "txt"
        echoes = []
        for stem, table, is_report in outputs:
            for suffix in ("csv", "txt") if is_report else ("csv",):
                text = forms[suffix](table)
                with open(args.out / f"{stem}.{suffix}", "w",
                          encoding="utf-8", newline="") as fh:
                    fh.write(text)
                if is_report and suffix == echoed:
                    echoes.append(text)
        if (echoed == "txt" and sys.stdout.isatty()
                and not os.environ.get("NO_COLOR")):  # bold titles
            echoes = ["\x1b[1m" + text.replace("\n", "\x1b[0m\n", 1)
                      for text in echoes]
        sys.stdout.write("".join(echoes))
        return EXIT_OK
    except Exception as exc:  # not SystemExit or KeyboardInterrupt
        code = next((code for kinds, code in _EXIT_CODES
                     if isinstance(exc, kinds)), 1)
        print(f"error: {exc}" if code != 1 else
              f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
